"""Unit and property-based tests for the symbolic math engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.symbolic import (
    Add,
    Compare,
    FALSE,
    Integer,
    Max,
    Min,
    Mul,
    Range,
    Subset,
    Symbol,
    SymbolicError,
    TRUE,
    definitely_nonzero,
    parse_expr,
    sign_assuming_positive,
    sympify,
    symbols,
)


class TestExpressionConstruction:
    def test_sympify_int(self):
        assert sympify(3) == Integer(3)

    def test_sympify_float_integral(self):
        assert sympify(4.0) == Integer(4)

    def test_sympify_string(self):
        assert sympify("N + 1") == Symbol("N") + 1

    def test_sympify_expr_passthrough(self):
        expr = Symbol("N") * 2
        assert sympify(expr) is expr

    def test_sympify_rejects_unknown(self):
        with pytest.raises(SymbolicError):
            sympify(object())

    def test_add_collects_like_terms(self):
        N = Symbol("N")
        assert 2 * N + 3 - N == N + 3

    def test_add_zero_identity(self):
        N = Symbol("N")
        assert N + 0 == N

    def test_mul_zero_annihilates(self):
        N = Symbol("N")
        assert N * 0 == Integer(0)

    def test_mul_distributes_constant_over_sum(self):
        i = Symbol("i")
        assert i - (i - 1) == Integer(1)

    def test_constant_folding_nested(self):
        assert parse_expr("2 * (3 + 4)") == Integer(14)

    def test_division_exact(self):
        assert parse_expr("10 / 2") == Integer(5)

    def test_division_by_zero_raises(self):
        with pytest.raises(SymbolicError):
            parse_expr("1 / 0")

    def test_floordiv_and_mod(self):
        assert parse_expr("7 // 2") == Integer(3)
        assert parse_expr("7 % 2") == Integer(1)

    def test_pow_folding(self):
        assert parse_expr("2 ** 5") == Integer(32)

    def test_symbols_helper(self):
        a, b = symbols("a b")
        assert a.name == "a" and b.name == "b"

    def test_bool_of_symbolic_raises(self):
        with pytest.raises(SymbolicError):
            bool(Symbol("N"))

    def test_hashable_and_equal(self):
        assert hash(Symbol("N") + 1) == hash(1 + Symbol("N"))


class TestMinMax:
    def test_min_constant_fold(self):
        assert Min.make(3, 5) == Integer(3)

    def test_max_constant_fold(self):
        assert Max.make(3, 5) == Integer(5)

    def test_min_prunes_dominated_under_positivity(self):
        assert Min.make("N - 1", 0) == Integer(0)

    def test_max_prunes_dominated_under_positivity(self):
        assert Max.make("N", 1) == Symbol("N")

    def test_min_keeps_incomparable(self):
        result = Min.make("N", "M")
        assert isinstance(result, Min)

    def test_min_duplicate_args(self):
        assert Min.make("N", "N") == Symbol("N")


class TestBooleans:
    def test_compare_constant(self):
        assert Compare.make("<", 1, 2) == TRUE
        assert Compare.make(">=", 1, 2) == FALSE

    def test_compare_structural_equality(self):
        N = Symbol("N")
        assert Compare.make("<=", N, N) == TRUE
        assert Compare.make("<", N, N) == FALSE

    def test_compare_difference_folding(self):
        N = Symbol("N")
        assert Compare.make("<", N + 1, N) == FALSE

    def test_not_inverts_comparison(self):
        expr = parse_expr("not (i < N)")
        assert str(expr) == "i >= N"

    def test_and_or_short_circuit_constants(self):
        assert parse_expr("1 < 2 and 3 < 4") == TRUE
        assert parse_expr("1 > 2 or 3 > 4") == FALSE

    def test_evaluate_boolean(self):
        expr = parse_expr("i < N and i >= 0")
        assert expr.evaluate({"i": 3, "N": 10}) is True
        assert expr.evaluate({"i": 30, "N": 10}) is False


class TestParser:
    def test_parse_precedence(self):
        assert parse_expr("2 + 3 * 4") == Integer(14)

    def test_parse_parentheses(self):
        assert parse_expr("(2 + 3) * 4") == Integer(20)

    def test_parse_unary_minus(self):
        assert parse_expr("-3 + 5") == Integer(2)

    def test_parse_min_function(self):
        assert parse_expr("Min(N, 3)").evaluate({"N": 10}) == 3

    def test_parse_empty_raises(self):
        with pytest.raises(SymbolicError):
            parse_expr("")

    def test_parse_trailing_tokens_raises(self):
        with pytest.raises(SymbolicError):
            parse_expr("1 + 2 )")

    def test_parse_unknown_function_raises(self):
        with pytest.raises(SymbolicError):
            parse_expr("foo(3)")

    def test_parse_ternary_constant(self):
        assert parse_expr("1 < 2 ? 10 : 20") == Integer(10)


    @pytest.mark.xfail(
        strict=True,
        reason="Mul prints a %, // or / operand without parentheses: "
               "'(i + 1) * ((i - 5) % 3)' comes out as '(i + 1) * (i - 5) % 3'",
    )
    @pytest.mark.parametrize("text", [
        "(i + 1) * ((i - 5) % 3)", "(i + 1) * ((i - 5) // 2)", "1 - i % 2",
    ])
    def test_printed_text_means_what_the_tree_means(self, text):
        """Found while pinning ROADMAP's first open item: the interpreted
        backend runs ``str(expr)``, so an operand of ``*`` that binds no
        tighter than ``*`` is regrouped by Python.  Strict, like that item's
        own tests; fixing ``_maybe_paren`` flips it."""
        expression = parse_expr(text)
        for value in range(8):
            assert eval(str(expression), {"i": value}) == expression.evaluate({"i": value})


class TestSubstitutionAndSolving:
    def test_subs_by_name(self):
        expr = parse_expr("2*N + M")
        assert expr.subs({"N": 3, "M": 4}) == Integer(10)

    def test_subs_partial(self):
        expr = parse_expr("2*N + M")
        assert expr.subs({"N": 3}) == Symbol("M") + 6

    def test_evaluate_missing_symbol_raises(self):
        with pytest.raises(SymbolicError):
            Symbol("N").evaluate({})

    def test_sign_assuming_positive(self):
        assert sign_assuming_positive(parse_expr("2*N + 1")) == 1
        assert sign_assuming_positive(parse_expr("-N")) == -1
        assert sign_assuming_positive(parse_expr("N - M")) is None

    def test_definitely_nonzero(self):
        assert definitely_nonzero(parse_expr("2*N - N"))
        assert not definitely_nonzero(parse_expr("N - M"))


class TestRangesAndSubsets:
    def test_range_num_elements(self):
        assert Range(0, "N").num_elements() == Symbol("N")

    def test_range_strided_elements(self):
        assert Range(0, 10, 2).num_elements() == Integer(5)

    def test_range_point(self):
        assert Range.from_index("i").is_point()

    def test_range_covers(self):
        assert Range(0, 10).covers(Range(2, 5)) is True
        assert Range(0, 10).covers(Range(2, 15)) is False

    def test_range_intersects(self):
        assert Range(0, 10).intersects(Range(5, 15)) is True
        assert Range(0, 5).intersects(Range(5, 10)) is False

    def test_range_step_must_be_positive(self):
        with pytest.raises(SymbolicError):
            Range(0, 10, 0)

    def test_subset_parse(self):
        subset = Subset.parse("0:N, i")
        assert subset.dims == 2
        assert subset.num_elements() == Symbol("N")

    def test_subset_full(self):
        subset = Subset.full(["N", 4])
        assert subset.num_elements() == Symbol("N") * 4

    def test_subset_point_indices(self):
        subset = Subset.from_indices(["i", "j"])
        assert [str(x) for x in subset.indices()] == ["i", "j"]

    def test_subset_indices_on_range_raises(self):
        with pytest.raises(SymbolicError):
            Subset.parse("0:N").indices()

    def test_subset_union_bounding_box(self):
        union = Subset.parse("0:4").union(Subset.parse("2:8"))
        assert str(union) == "0:8"

    def test_bounding_box_over_parameter(self):
        subset = Subset.parse("i")
        lifted = subset.bounding_box_over("i", Range(0, "N"))
        assert str(lifted) == "0:N"

    def test_subset_covers_unknown(self):
        full = Subset.full(["N"])
        assert full.covers(Subset.parse("0:M")) is None

    def test_subset_evaluate(self):
        subset = Subset.parse("0:N, 2")
        ranges = subset.evaluate({"N": 4})
        assert list(ranges[0]) == [0, 1, 2, 3]
        assert list(ranges[1]) == [2]


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

_names = st.sampled_from(["i", "j", "N", "M"])


@st.composite
def _expressions(draw, depth=0):
    if depth > 3:
        return draw(st.one_of(st.integers(-20, 20).map(Integer), _names.map(Symbol)))
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return draw(st.integers(-20, 20).map(Integer))
    if choice == 1:
        return draw(_names.map(Symbol))
    lhs = draw(_expressions(depth=depth + 1))
    rhs = draw(_expressions(depth=depth + 1))
    if choice == 2:
        return lhs + rhs
    if choice == 3:
        return lhs - rhs
    return lhs * rhs


@given(_expressions(), st.integers(1, 50), st.integers(1, 50), st.integers(1, 50), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_property_simplification_preserves_value(expr, i, j, n, m):
    env = {"i": i, "j": j, "N": n, "M": m}
    direct = expr.evaluate(env)
    roundtrip = parse_expr(str(expr)).evaluate(env)
    assert direct == roundtrip


@given(_expressions(), _expressions(), st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_property_addition_commutes(a, b, n, m):
    env = {"i": 2, "j": 3, "N": n, "M": m}
    assert (a + b).evaluate(env) == (b + a).evaluate(env)


@given(st.integers(0, 20), st.integers(1, 20), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_property_range_matches_python_range(start, length, step):
    rng = Range(start, start + length, step)
    assert int(rng.num_elements().evaluate({})) == len(range(start, start + length, step))


@given(st.integers(0, 10), st.integers(1, 10), st.integers(0, 10), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_property_subset_union_covers_both(a_start, a_len, b_start, b_len):
    a = Subset([Range(a_start, a_start + a_len)])
    b = Subset([Range(b_start, b_start + b_len)])
    union = a.union(b)
    assert union.covers(a) is True
    assert union.covers(b) is True
