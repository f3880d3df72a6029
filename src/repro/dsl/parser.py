"""Recursive-descent parser for the event specification language.

Grammar (keywords case-insensitive; ``#`` starts a line comment)::

    spec      := "EVENT" IDENT clause*
    clause    := when | if | window | cooldown | emit | attr
    when      := "WHEN" role ("," role)*
    role      := ["GROUP"] IDENT ":" kinds
                 ["IN" "region" "(" IDENT ")"] ["RHO" ">=" NUMBER]
    kinds     := "*" | kind ("|" kind)*
    if        := "IF" or_expr
    or_expr   := and_expr ("OR" and_expr)*
    and_expr  := unary ("AND" unary)*
    unary     := "NOT" unary | "(" or_expr ")" | predicate
    predicate := call rel_op NUMBER            -- attribute / measure / rho
               | call TEMPORAL_OP call         -- temporal relation
               | call SPATIAL_OP call          -- spatial relation
    call      := IDENT "(" arg ("," arg)* ")" [("+"|"-") TICKS]
    arg       := IDENT ["." kind] | NUMBER
    window    := "WINDOW" TICKS
    cooldown  := "COOLDOWN" TICKS
    emit      := "EMIT" (IDENT "=" IDENT)+
    attr      := "ATTR" kind "=" IDENT "(" term ("," term)* ")"
    term      := IDENT "." kind
    kind      := IDENT (":" IDENT)*             -- range:userA
    TICKS     := NUMBER                         -- no fractional part

``IF``, ``WINDOW`` and ``COOLDOWN`` may each appear once per EVENT, and
so may each ``EMIT`` key and each ``ATTR`` name: a repeated one is an
error, not an override.  NUMBER covers every finite ``repr(float)``
(``7.199999999999999``, ``1e-05``, ``1.5e+16``).

Example::

    EVENT fire_suspected
      WHEN a: hot_reading, b: hot_reading
      IF time(a) BEFORE time(b) AND distance(a, b) < 25
      WINDOW 40 COOLDOWN 50
      EMIT time=earliest space=centroid confidence=min
      ATTR temperature = max(a.temperature, b.temperature)

Multiple EVENT blocks may appear in one source string;
:func:`parse_many` returns them all.
"""

from __future__ import annotations

from repro.core.errors import DslSyntaxError
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
from repro.dsl.lexer import Token, TokenType, tokenize

__all__ = ["parse_many", "TEMPORAL_KEYWORDS", "SPATIAL_KEYWORDS"]

TEMPORAL_KEYWORDS = {
    "BEFORE", "AFTER", "DURING", "MEETS", "MET_BY", "OVERLAPS",
    "OVERLAPPED_BY", "STARTS", "STARTED_BY", "FINISHES", "FINISHED_BY",
    "EQUALS", "SIMULTANEOUS", "WITHIN", "INTERSECTS", "BEGINS", "ENDS",
}
SPATIAL_KEYWORDS = {
    "INSIDE", "OUTSIDE", "JOINT", "DISJOINT", "EQUAL_TO",
}
_AMBIGUOUS_KEYWORDS = {"CONTAINS"}  # resolved by operand family

_TEMPORAL_CALLS = {"time", "at", "interval", "earliest", "latest", "span"}
_SPATIAL_CALLS = {"location", "region", "point", "centroid", "hull", "box"}

MAX_NESTING = 100
"""Deepest ``NOT`` / parenthesis nesting a condition may have.  Far above
any real specification, and low enough that neither this parser nor the
recursive walks behind it (DSL compiler, condition compiler,
``ConditionNode.evaluate``) can exhaust the interpreter stack."""


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    # -- token plumbing ------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> DslSyntaxError:
        token = token or self.current
        return DslSyntaxError(message, token.line, token.column)

    def _expect_keyword(self, name: str) -> Token:
        if not self.current.is_keyword(name):
            raise self._error(f"expected {name}, got {self.current.value!r}")
        return self._advance()

    def _expect_symbol(self, symbol: str) -> Token:
        token = self.current
        if token.type is not TokenType.SYMBOL or token.value != symbol:
            raise self._error(f"expected {symbol!r}, got {token.value!r}")
        return self._advance()

    def _expect_ident(self) -> str:
        token = self.current
        if token.type is not TokenType.IDENT:
            raise self._error(f"expected identifier, got {token.value!r}")
        self._advance()
        return token.value

    def _expect_number(self) -> float:
        token = self.current
        if token.type is not TokenType.NUMBER:
            raise self._error(f"expected number, got {token.value!r}")
        self._advance()
        return float(token.value)

    def _expect_ticks(self, what: str) -> int:
        token = self.current
        value = self._expect_number()
        if not value.is_integer():
            raise self._error(
                f"{what} expects a whole number of ticks, got {token.value}",
                token,
            )
        return int(value)

    # -- grammar ---------------------------------------------------------

    def parse_specs(self) -> list[SpecAst]:
        specs: list[SpecAst] = []
        while self.current.type is not TokenType.EOF:
            specs.append(self._parse_spec())
        if not specs:
            raise self._error("source contains no EVENT specification")
        return specs

    def _parse_spec(self) -> SpecAst:
        self._expect_keyword("EVENT")
        event_id = self._expect_ident()
        roles: list[RoleDecl] = []
        condition: object | None = None
        window = 0
        cooldown = 0
        emit: dict[str, str] = {}
        attrs: list[AttrRecipe] = []
        seen: set[str] = set()
        while True:
            token = self.current
            if token.is_keyword("IF", "WINDOW", "COOLDOWN"):
                # WHEN, EMIT and ATTR accumulate; these three would
                # silently replace the earlier clause.
                if token.value in seen:
                    raise self._error(f"{token.value} clause given twice")
                seen.add(token.value)
            if token.is_keyword("WHEN"):
                self._advance()
                self._parse_roles(roles)
            elif token.is_keyword("IF"):
                self._advance()
                condition = self._parse_or()
            elif token.is_keyword("WINDOW"):
                self._advance()
                window = self._expect_ticks("WINDOW")
            elif token.is_keyword("COOLDOWN"):
                self._advance()
                cooldown = self._expect_ticks("COOLDOWN")
            elif token.is_keyword("EMIT"):
                self._advance()
                self._parse_emit(emit)
            elif token.is_keyword("ATTR"):
                self._advance()
                attrs.append(self._parse_attr(attrs))
            else:
                break
        if not roles:
            raise self._error(f"EVENT {event_id!r} has no WHEN clause")
        if condition is None:
            raise self._error(f"EVENT {event_id!r} has no IF clause")
        return SpecAst(
            event_id=event_id,
            roles=tuple(roles),
            condition=condition,
            window=window,
            cooldown=cooldown,
            emit=emit,
            attrs=tuple(attrs),
        )

    def _parse_roles(self, roles: list[RoleDecl]) -> None:
        """Append one WHEN clause's declarations to the spec's ``roles``."""
        roles.append(self._parse_role(roles))
        while self.current.type is TokenType.SYMBOL and self.current.value == ",":
            self._advance()
            roles.append(self._parse_role(roles))

    def _parse_role(self, declared: list[RoleDecl]) -> RoleDecl:
        group = False
        if self.current.is_keyword("GROUP"):
            group = True
            self._advance()
        token = self.current
        name = self._expect_ident()
        if any(name == role.name for role in declared):
            raise self._error(f"role {name!r} declared twice", token)
        self._expect_symbol(":")
        kinds: list[str] = []
        if self.current.type is TokenType.SYMBOL and self.current.value == "*":
            self._advance()
        else:
            kinds.append(self._parse_kind_name())
            while (
                self.current.type is TokenType.SYMBOL
                and self.current.value == "|"
            ):
                self._advance()
                kinds.append(self._parse_kind_name())
        region: str | None = None
        min_rho = 0.0
        while True:
            if self.current.is_keyword("IN"):
                self._advance()
                func = self._expect_ident()
                if func != "region":
                    raise self._error(
                        f"expected region(...) after IN, got {func!r}"
                    )
                self._expect_symbol("(")
                region = self._expect_ident()
                self._expect_symbol(")")
            elif self.current.is_keyword("RHO"):
                self._advance()
                op = self.current
                if op.type is not TokenType.OP or op.value != ">=":
                    raise self._error("role RHO filter must use >=")
                self._advance()
                min_rho = self._expect_number()
            else:
                break
        return RoleDecl(name, tuple(kinds), group, region, min_rho)

    def _parse_kind_name(self) -> str:
        # Kind names may contain ':' (range:userA) and '.' segments.
        parts = [self._expect_ident()]
        while (
            self.current.type is TokenType.SYMBOL
            and self.current.value == ":"
        ):
            self._advance()
            parts.append(self._expect_ident())
        return ":".join(parts)

    def _parse_emit(self, settings: dict[str, str]) -> None:
        """Add one EMIT clause's settings to the spec's ``settings``."""
        if self.current.type is not TokenType.IDENT:
            raise self._error("EMIT clause lists no settings")
        while self.current.type is TokenType.IDENT:
            token = self.current
            key = self._expect_ident()
            if key in settings:
                raise self._error(f"EMIT setting {key!r} given twice", token)
            self._expect_symbol("=")
            settings[key] = self._expect_ident()

    def _parse_attr(self, declared: list[AttrRecipe]) -> AttrRecipe:
        token = self.current
        name = self._parse_kind_name()
        if any(name == recipe.name for recipe in declared):
            raise self._error(f"ATTR {name!r} defined twice", token)
        self._expect_symbol("=")
        aggregate = self._expect_ident()
        self._expect_symbol("(")
        terms = [self._parse_attr_term()]
        while self.current.type is TokenType.SYMBOL and self.current.value == ",":
            self._advance()
            terms.append(self._parse_attr_term())
        self._expect_symbol(")")
        return AttrRecipe(name, aggregate, tuple(terms))

    def _parse_attr_term(self) -> tuple[str, str]:
        role = self._expect_ident()
        self._expect_symbol(".")
        attr = self._parse_kind_name()
        return (role, attr)

    # -- expressions -------------------------------------------------------

    def _parse_or(self) -> object:
        children = [self._parse_and()]
        while self.current.is_keyword("OR"):
            self._advance()
            children.append(self._parse_and())
        return children[0] if len(children) == 1 else OrExpr(tuple(children))

    def _parse_and(self) -> object:
        children = [self._parse_unary()]
        while self.current.is_keyword("AND"):
            self._advance()
            children.append(self._parse_unary())
        return children[0] if len(children) == 1 else AndExpr(tuple(children))

    def _parse_unary(self) -> object:
        negated = self.current.is_keyword("NOT")
        if not negated and not (
            self.current.type is TokenType.SYMBOL and self.current.value == "("
        ):
            return self._parse_predicate()
        if self._depth == MAX_NESTING:
            raise self._error(
                f"condition nests deeper than {MAX_NESTING} levels"
            )
        self._depth += 1
        self._advance()
        if negated:
            inner = NotExpr(self._parse_unary())
        else:
            inner = self._parse_or()
            self._expect_symbol(")")
        self._depth -= 1
        return inner

    def _parse_predicate(self) -> object:
        call = self._parse_call()
        token = self.current
        if token.type is TokenType.OP:
            self._advance()
            constant = self._expect_number()
            return RelPredicate(call, token.value, constant)
        if token.type is TokenType.KEYWORD and (
            token.value in TEMPORAL_KEYWORDS
            or token.value in SPATIAL_KEYWORDS
            or token.value in _AMBIGUOUS_KEYWORDS
        ):
            self._advance()
            rhs = self._parse_call()
            return RolePredicate(call, token.value, rhs)
        raise self._error(
            f"expected a comparison or relation after {call.name!r}"
        )

    def _parse_call(self) -> CallExpr:
        token = self.current
        if token.is_keyword("RHO"):
            # "rho" doubles as the role-filter keyword and the
            # confidence accessor; as a call name it is an identifier.
            self._advance()
            name = "rho"
        else:
            name = self._expect_ident()
        self._expect_symbol("(")
        args: list[object] = []
        if not (
            self.current.type is TokenType.SYMBOL and self.current.value == ")"
        ):
            args.append(self._parse_call_arg())
            while (
                self.current.type is TokenType.SYMBOL
                and self.current.value == ","
            ):
                self._advance()
                args.append(self._parse_call_arg())
        self._expect_symbol(")")
        offset = 0
        if self.current.type is TokenType.SYMBOL and self.current.value in "+-":
            sign = 1 if self._advance().value == "+" else -1
            offset = sign * self._expect_ticks("time offset")
        return CallExpr(
            name, tuple(args), offset, line=token.line, column=token.column
        )

    def _parse_call_arg(self) -> object:
        if self.current.type is TokenType.NUMBER:
            return self._expect_number()
        role = self._expect_ident()
        if self.current.type is TokenType.SYMBOL and self.current.value == ".":
            self._advance()
            return (role, self._parse_kind_name())
        return (role, None)


def parse_many(source: str) -> list[SpecAst]:
    """Parse every EVENT specification in the source."""
    return _Parser(tokenize(source)).parse_specs()
