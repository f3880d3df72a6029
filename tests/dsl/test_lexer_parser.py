"""Unit tests for the DSL lexer and parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DslSyntaxError
from repro.dsl import compile_source
from repro.dsl.ast_nodes import AndExpr, NotExpr, OrExpr, RelPredicate, RolePredicate
from repro.dsl.lexer import TokenType, tokenize
from repro.dsl.parser import MAX_NESTING, parse_many


def parse(source):
    """The one EVENT specification in ``source``."""
    (spec,) = parse_many(source)
    return spec


class TestLexer:
    def test_token_stream(self):
        tokens = tokenize("EVENT fire WHEN a: hot IF avg(a.t) > 5.5")
        kinds = [t.type for t in tokens]
        assert kinds[-1] is TokenType.EOF
        values = [t.value for t in tokens[:-1]]
        assert values == [
            "EVENT", "fire", "WHEN", "a", ":", "hot", "IF",
            "avg", "(", "a", ".", "t", ")", ">", "5.5",
        ]

    def test_keywords_case_insensitive(self):
        tokens = tokenize("event x when before During")
        assert [t.value for t in tokens[:-1]] == [
            "EVENT", "x", "WHEN", "BEFORE", "DURING",
        ]

    def test_comments_skipped(self):
        tokens = tokenize("EVENT x # a comment\nWHEN")
        assert [t.value for t in tokens[:-1]] == ["EVENT", "x", "WHEN"]

    def test_positions_tracked(self):
        tokens = tokenize("EVENT\n  fire")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_two_char_operators(self):
        tokens = tokenize("a >= 1 b <= 2 c == 3 d != 4")
        ops = [t.value for t in tokens if t.type is TokenType.OP]
        assert ops == [">=", "<=", "==", "!="]

    def test_negative_number_in_argument(self):
        tokens = tokenize("point(-3, 4)")
        numbers = [t.value for t in tokens if t.type is TokenType.NUMBER]
        assert numbers == ["-3", "4"]

    def test_offset_minus_is_symbol(self):
        tokens = tokenize("time(a) - 5")
        symbols = [t for t in tokens if t.type is TokenType.SYMBOL]
        assert any(t.value == "-" for t in symbols)

    def test_bad_character(self):
        with pytest.raises(DslSyntaxError) as excinfo:
            tokenize("EVENT $fire")
        assert excinfo.value.column == 7

    def test_malformed_number(self):
        with pytest.raises(DslSyntaxError):
            tokenize("x > 1.2.3")

    @pytest.mark.parametrize(
        "text", ["1e-05", "1.5e+16", "2E3", "7.199999999999999", "-2.5e-3"]
    )
    def test_exponent_literal_is_one_number(self, text):
        tokens = tokenize(f"x > {text}")
        assert [(t.type, t.value) for t in tokens[2:-1]] == [
            (TokenType.NUMBER, text)
        ]

    def test_exponent_needs_digits(self):
        # Not an exponent: the number ends before the letter, as before.
        tokens = tokenize("x > 1e WINDOW")
        assert [t.value for t in tokens[2:-1]] == ["1", "e", "WINDOW"]

    def test_offset_minus_before_exponent_literal_is_symbol(self):
        tokens = tokenize("time(a) - 2e1")
        assert [t.value for t in tokens[-3:-1]] == ["-", "2e1"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("inf", "expected number, got 'inf'"),
            ("nan", "expected number, got 'nan'"),
            ("-inf", "expected number, got '-'"),
            # float() would quietly hand the engine an infinite threshold.
            ("1e999", "number '1e999' is out of range"),
            ("-1e999", "number '-1e999' is out of range"),
        ],
    )
    def test_non_finite_constant_refused_with_position(self, text, message):
        with pytest.raises(DslSyntaxError, match=message) as excinfo:
            parse(f"EVENT e WHEN a: t, b: t IF distance(a, b) < {text}")
        assert (excinfo.value.line, excinfo.value.column) == (1, 45)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_every_finite_float_repr_round_trips(self, value):
        """Scenario thresholds are interpolated with ``!r``: whatever
        ``repr`` prints for a finite float must come back ``==``."""
        (spec,) = compile_source(
            f"EVENT e WHEN a: t, b: t IF distance(a, b) < {value!r}"
        )
        constant = spec.condition.condition.constant
        assert constant == value and type(constant) is float


FULL_SOURCE = """
EVENT fire_suspected
  WHEN a: hot_reading, b: hot_reading | warm_reading
  IF time(a) BEFORE time(b) AND distance(a, b) < 25
  WINDOW 40 COOLDOWN 50
  EMIT time=earliest space=centroid confidence=min
  ATTR temperature = max(a.temperature, b.temperature)
"""


class TestParser:
    def test_full_specification(self):
        ast = parse(FULL_SOURCE)
        assert ast.event_id == "fire_suspected"
        assert [r.name for r in ast.roles] == ["a", "b"]
        assert ast.roles[1].kinds == ("hot_reading", "warm_reading")
        assert ast.window == 40
        assert ast.cooldown == 50
        assert ast.emit == {
            "time": "earliest", "space": "centroid", "confidence": "min"
        }
        assert len(ast.attrs) == 1
        assert ast.attrs[0].name == "temperature"
        assert isinstance(ast.condition, AndExpr)

    def test_role_options(self):
        ast = parse(
            "EVENT e WHEN GROUP g: temp IN region(zone) RHO >= 0.5 "
            "IF count(g) > 2"
        )
        role = ast.roles[0]
        assert role.group
        assert role.region == "zone"
        assert role.min_rho == 0.5

    def test_wildcard_kind(self):
        ast = parse("EVENT e WHEN x: * IF rho(x) >= 0")
        assert ast.roles[0].kinds == ()

    def test_attr_name_with_colon_segments(self):
        # An output attribute is usually named after the quantity it
        # carries, so ATTR takes the same kind-name syntax as its terms.
        spec = parse(
            "EVENT seen WHEN x: range:leader IF last(x.range:leader) < 9 "
            "ATTR range:leader = last(x.range:leader)"
        )
        (recipe,) = spec.attrs
        assert recipe.name == "range:leader"
        assert recipe.terms == (("x", "range:leader"),)

    def test_kind_with_colon_segments(self):
        ast = parse("EVENT e WHEN x: range:userA IF avg(x.range:userA) < 5")
        assert ast.roles[0].kinds == ("range:userA",)

    def test_operator_precedence_or_over_and(self):
        ast = parse(
            "EVENT e WHEN x: t IF avg(x.v) > 1 AND avg(x.v) < 5 OR rho(x) >= 0.9"
        )
        assert isinstance(ast.condition, OrExpr)
        assert isinstance(ast.condition.children[0], AndExpr)

    def test_parentheses_override(self):
        ast = parse(
            "EVENT e WHEN x: t IF avg(x.v) > 1 AND (avg(x.v) < 5 OR rho(x) >= 0.9)"
        )
        assert isinstance(ast.condition, AndExpr)

    def test_not_expression(self):
        ast = parse("EVENT e WHEN x: t IF NOT avg(x.v) > 1")
        assert isinstance(ast.condition, NotExpr)

    def test_relation_predicates(self):
        ast = parse(
            "EVENT e WHEN x: t, y: t "
            "IF location(x) INSIDE location(y) AND time(x) + 5 BEFORE time(y)"
        )
        spatial, temporal = ast.condition.children
        assert isinstance(spatial, RolePredicate)
        assert spatial.keyword == "INSIDE"
        assert isinstance(temporal, RolePredicate)
        assert temporal.lhs.offset == 5

    def test_multiple_events(self):
        source = (
            "EVENT one WHEN x: t IF avg(x.v) > 1\n"
            "EVENT two WHEN y: t IF avg(y.v) > 2\n"
        )
        specs = parse_many(source)
        assert [s.event_id for s in specs] == ["one", "two"]

    def test_missing_clauses_rejected(self):
        with pytest.raises(DslSyntaxError, match="no WHEN"):
            parse("EVENT e IF avg(x.v) > 1")
        with pytest.raises(DslSyntaxError, match="no IF"):
            parse("EVENT e WHEN x: t")

    def test_empty_source_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_many("   # only a comment\n")

    def test_error_position_reported(self):
        with pytest.raises(DslSyntaxError) as excinfo:
            parse("EVENT e WHEN x: t IF avg(x.v) ~ 5")
        assert "line 1" in str(excinfo.value)

    def test_rho_filter_requires_ge(self):
        with pytest.raises(DslSyntaxError, match=">="):
            parse("EVENT e WHEN x: t RHO <= 0.5 IF rho(x) >= 0")

    @pytest.mark.parametrize(
        "source, message, column",
        [
            # Last-wins would silently drop the first declaration.
            ("EVENT e WHEN x: t, x: u IF avg(x.v) > 1", "role 'x' declared twice", 20),
            ("EVENT e WHEN x: t WHEN x: u IF avg(x.v) > 1", "role 'x' declared twice", 24),
            # int() would silently truncate to 1 / 2 / 1.
            (
                "EVENT e WHEN x: t IF avg(x.v) > 1 WINDOW 1.5 COOLDOWN 2",
                "WINDOW expects a whole number of ticks, got 1.5",
                42,
            ),
            (
                "EVENT e WHEN x: t IF avg(x.v) > 1 WINDOW 1 COOLDOWN 2.7",
                "COOLDOWN expects a whole number of ticks, got 2.7",
                53,
            ),
            (
                "EVENT e WHEN x: t, y: t IF time(x) + 1.5 BEFORE time(y)",
                "time offset expects a whole number of ticks, got 1.5",
                38,
            ),
            # str.isdigit() admits both; float() would die on either
            # with a raw ValueError.
            (
                "EVENT e WHEN x: t IF avg(x.v) > 1 WINDOW 1\u00b2",
                "unexpected character '\u00b2'",
                43,
            ),
            (
                "EVENT e WHEN x: t IF avg(x.v) > \u2460",
                "unexpected character '\u2460'",
                33,
            ),
            # Last-wins would silently drop the earlier clause.
            (
                "EVENT e WHEN x: t IF avg(x.v) > 1 IF avg(x.v) > 2",
                "IF clause given twice",
                35,
            ),
            (
                "EVENT e WHEN x: t IF avg(x.v) > 1 WINDOW 3 WINDOW 9",
                "WINDOW clause given twice",
                44,
            ),
            (
                "EVENT e WHEN x: t IF avg(x.v) > 1 COOLDOWN 3 WINDOW 1 COOLDOWN 9",
                "COOLDOWN clause given twice",
                55,
            ),
            (
                "EVENT e WHEN x: t IF avg(x.v) > 1 EMIT time=latest EMIT time=span",
                "EMIT setting 'time' given twice",
                57,
            ),
            (
                "EVENT e WHEN x: t IF avg(x.v) > 1 ATTR t = max(x.v) ATTR t = min(x.v)",
                "ATTR 't' defined twice",
                58,
            ),
        ],
        ids=[
            "duplicate-role",
            "duplicate-role-across-when",
            "fractional-window",
            "fractional-cooldown",
            "fractional-offset",
            "superscript-digit",
            "circled-digit",
            "second-if",
            "second-window",
            "second-cooldown",
            "repeated-emit-key",
            "repeated-attr-name",
        ],
    )
    def test_silently_rewritten_input_rejected(self, source, message, column):
        with pytest.raises(DslSyntaxError, match=message) as excinfo:
            parse(source)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)

    def test_clauses_that_accumulate_may_repeat(self):
        spec = parse(
            "EVENT e WHEN x: t WHEN y: t IF avg(x.v) > 1 "
            "EMIT time=latest EMIT space=hull ATTR a = max(x.v) ATTR b = min(y.v)"
        )
        assert [role.name for role in spec.roles] == ["x", "y"]
        assert spec.emit == {"time": "latest", "space": "hull"}
        assert [recipe.name for recipe in spec.attrs] == ["a", "b"]

    def test_each_event_block_has_its_own_clauses(self):
        first, second = parse_many(
            "EVENT e WHEN x: t IF avg(x.v) > 1 WINDOW 3 "
            "EVENT f WHEN x: t IF avg(x.v) > 2 WINDOW 9"
        )
        assert (first.window, second.window) == (3, 9)

    def test_whole_number_written_as_a_float_is_accepted(self):
        assert parse("EVENT e WHEN x: t IF avg(x.v) > 1 WINDOW 3.0").window == 3

    @pytest.mark.parametrize(
        "opener, closer",
        [("(", ")"), ("NOT ", ""), ("NOT (", ")")],
        ids=["parentheses", "negations", "mixed"],
    )
    def test_nesting_bomb_is_a_syntax_error(self, opener, closer):
        source = (
            "EVENT e WHEN x: t IF " + opener * 5000 + "avg(x.v) > 1" + closer * 5000
        )
        with pytest.raises(DslSyntaxError, match="nests deeper") as excinfo:
            parse(source)
        assert excinfo.value.line == 1 and excinfo.value.column > 1

    def test_nesting_up_to_the_bound_parses(self):
        parens = parse(
            "EVENT e WHEN x: t IF "
            + "(" * MAX_NESTING + "avg(x.v) > 1" + ")" * MAX_NESTING
        )
        assert isinstance(parens.condition, RelPredicate)
        negations = parse(
            "EVENT e WHEN x: t IF " + "NOT " * MAX_NESTING + "avg(x.v) > 1"
        )
        depth, node = 0, negations.condition
        while isinstance(node, NotExpr):
            depth, node = depth + 1, node.child
        assert depth == MAX_NESTING
        with pytest.raises(DslSyntaxError, match="nests deeper"):
            parse(
                "EVENT e WHEN x: t IF "
                + "NOT " * (MAX_NESTING + 1) + "avg(x.v) > 1"
            )
