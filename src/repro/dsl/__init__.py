"""Event specification DSL: text form of composite event conditions."""

from repro.dsl.ast_nodes import (
    AndExpr,
    AttrRecipe,
    CallExpr,
    NotExpr,
    OrExpr,
    RelPredicate,
    RoleDecl,
    RolePredicate,
    SpecAst,
)
from repro.dsl.compiler import compile_source, compile_spec
from repro.dsl.lexer import Token, TokenType, tokenize
from repro.dsl.parser import parse_many

__all__ = [
    "tokenize",
    "Token",
    "TokenType",
    "parse_many",
    "compile_spec",
    "compile_source",
    "SpecAst",
    "RoleDecl",
    "CallExpr",
    "RelPredicate",
    "RolePredicate",
    "AndExpr",
    "OrExpr",
    "NotExpr",
    "AttrRecipe",
]
