"""Unit and property-based tests for the symbolic math engine."""

import ctypes
import pickle
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.codegen.sdfg_c import _HELPERS, C, NativeCodegenError, c_symbolic
from repro.codegen.toolchain import NATIVE_CACHE_ENV, compile_shared
from repro.symbolic import (
    Add,
    And,
    BoolConst,
    Compare,
    Div,
    Expr,
    FALSE,
    Float,
    FloorDiv,
    Integer,
    Max,
    Min,
    Mod,
    Mul,
    Not,
    Or,
    Pow,
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
from repro.symbolic.printer import PYTHON, render


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

    @pytest.mark.parametrize("text", [
        "(i + 1) * ((i - 5) % 3)", "(i + 1) * ((i - 5) // 2)", "1 - i % 2",
        # The five further mis-prints of the strictly-looser-only rule.
        "N // (2 * i)", "N % (2 * i)", "N / (i / 2)", "(N ** i) ** 2", "(0 - 1) ** N",
        "N + (0 - 3) // i", "(not ((i < N) and (N < 5))) * 2", "(i < 3) == (N < 3)",
        "N // 2.5 + 0.5",
    ])
    def test_printed_text_means_what_the_tree_means(self, text):
        """``str(expr)`` is the bridge's wire format and the source the
        interpreted backend runs, so it has to parse back to the same tree
        and mean the same under Python's own grouping."""
        expression = parse_expr(text)
        assert parse_expr(str(expression)) == expression
        for value in range(1, 8):
            env = {"i": value, "N": 3}
            assert eval(str(expression), dict(env)) == expression.evaluate(env)


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


# ---------------------------------------------------------------------------
# One node shape, one table per language
# ---------------------------------------------------------------------------


def _concrete_classes(base=Expr):
    for cls in base.__subclasses__():
        yield from _concrete_classes(cls)
        if hasattr(cls, "make") or not cls.__subclasses__():
            yield cls


@pytest.mark.parametrize("cls", sorted(_concrete_classes(), key=lambda cls: cls.__name__))
def test_every_node_class_has_a_spelling_in_every_language(cls):
    assert cls in PYTHON, f"{cls.__name__} has no Python spelling in symbolic/printer.py"
    assert cls in C, f"{cls.__name__} has no C spelling in codegen/sdfg_c.py"


def test_the_tables_cover_the_sixteen_classes_and_nothing_else():
    classes = set(_concrete_classes())
    assert len(classes) == 16
    assert set(PYTHON) == classes == set(C)


def test_a_class_without_a_spelling_is_an_error_naming_it():
    class Conjugate(Expr):
        __slots__ = _operands = ("arg",)

    assert Conjugate in set(_concrete_classes())  # the coverage test would see it
    tree = Add([Symbol("N"), Conjugate(Symbol("M"))])
    with pytest.raises(SymbolicError, match="Conjugate"):
        str(tree)
    with pytest.raises(NativeCodegenError, match="Conjugate"):
        c_symbolic(tree)


_NAMES = ("i", "j", "N", "M")


_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


def _tree(pick, depth=0, exact=False):
    """An arithmetic tree with integer leaves, built by the canonicalizers.

    ``pick(low, high)`` supplies the integers, so Hypothesis and a seeded
    ``random.Random`` draw from the one builder.  ``exact`` leaves out
    ``Div``, the only class that makes a value floating.
    """
    kind = pick(0, 1) if depth >= 4 else pick(0 if depth else 2, 11)  # no bare leaf at the root
    if kind == 0:
        return Integer(pick(-9, 9))
    if kind == 1:
        return Symbol(_NAMES[pick(0, 3)])
    if kind <= 3:  # a condition as a 0/1 factor, the way the parser spells ``c ? a : b``
        return _condition(pick, depth, exact)
    lhs = _tree(pick, depth + 1, exact)
    if kind == 4:
        return Pow.make(lhs, pick(0, 3))
    rhs = _tree(pick, depth + 1, exact)
    make = {5: FloorDiv.make if exact else Div.make, 6: FloorDiv.make, 7: Mod.make,
            8: Min.make, 9: Max.make, 10: Mul.make, 11: Add.make}[kind]
    try:
        return make(lhs, rhs)
    except SymbolicError:  # a divisor that folded to zero
        return lhs


def _condition(pick, depth=0, exact=False):
    """A boolean tree: ``and``/``or``/``not`` mean what ``evaluate`` computes only over these."""
    kind = 0 if depth >= 4 else pick(0 if depth else 1, 3)
    if kind == 0:
        return BoolConst(pick(0, 1))
    if kind == 1:
        operands = [_tree(pick, depth + 1, exact) for _ in range(2)]
        return Compare.make(_COMPARISONS[pick(0, 5)], *operands)
    operands = [_condition(pick, depth + 1, exact) for _ in range(2)]
    both = (And.make, Or.make)[pick(0, 1)](*operands)
    return Not.make(both) if kind == 2 else both  # ``Not.make`` folds every other operand away


@st.composite
def _trees(draw, exact=False):
    return _tree(lambda low, high: draw(st.integers(low, high)), exact=exact)


def _subtrees(expr):
    yield expr
    for child in expr.children():
        yield from _subtrees(child)


def _defined(expr, env):
    """Whether ``evaluate`` and Python must agree on ``expr`` under ``env``.

    Not where a divisor is zero; not where a value leaves the range in
    which ``FloorDiv``'s floored float quotient is exact; and not where
    ``//`` or ``%`` meets a float, which ``evaluate`` floors by a rule of
    its own (``1 // 0.1`` is 9.0 in Python, ``floor(1 / 0.1)`` is 10).
    """
    try:
        for node in _subtrees(expr):
            if abs(node.evaluate(env)) >= 2**31:
                return False
            if isinstance(node, (FloorDiv, Mod)) and any(
                isinstance(child.evaluate(env), float) for child in node.children()
            ):
                return False
    except ZeroDivisionError:
        return False
    return True


_values = st.integers(-6, 6)


@given(_trees(), _values, _values, _values, _values)
@settings(max_examples=300, deadline=None)
def test_property_text_round_trips_and_means_the_tree(expr, i, j, n, m):
    text = str(expr)
    reparsed = parse_expr(text)
    # The parser multiplies pairwise, so where a product leads with its
    # coefficient and a sum, ``Mul.make`` meets those two alone and
    # distributes (``-1 * (i + 1) * i``): same value, another tree.
    if not any(
        isinstance(node, Mul)
        and isinstance(node.args[0], (Integer, Float))
        and isinstance(node.args[1], Add)
        for node in _subtrees(expr)
    ):
        assert reparsed == expr
    env = {"i": i, "j": j, "N": n, "M": m}
    assume(_defined(expr, env))
    assert eval(text, dict(env)) == expr.evaluate(env) == reparsed.evaluate(env)


@given(_trees(exact=True), st.lists(st.integers(1, 6), min_size=4, max_size=4), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_property_subs_then_evaluate_is_evaluate(expr, values, bound):
    # Symbols are sizes and trip counts: ``Min``/``Max`` prune on ``>= 1``.
    env = dict(zip(_NAMES, values))
    assume(_defined(expr, env))
    early = {name: env[name] for name in _NAMES[:bound]}
    late = {name: env[name] for name in _NAMES[bound:]}
    assert expr.subs(early).evaluate(late) == expr.evaluate(env)


@given(_trees())
@settings(max_examples=100, deadline=None)
def test_property_key_and_hash_survive_pickle(expr):
    key, digest = expr.key(), hash(expr)
    copy = pickle.loads(pickle.dumps(expr))
    assert (copy.key(), hash(copy), copy) == (key, digest, expr)
    assert type(copy) is type(expr) and str(copy) == str(expr)


def test_c_spelling_computes_what_evaluate_computes(tmp_path, monkeypatch):
    """250 distinct integer-valued trees, rendered with the ``C`` table into one
    translation unit beside the emitter's own helpers, built by the
    toolchain every native program goes through, valued under two
    environments of mixed sign."""
    monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path / "native"))
    envs = [dict(zip(_NAMES, values)) for values in ((2, -5, 3, -4), (-3, 4, -1, 6))]
    rng = random.Random(23)
    distinct = {}
    while len(distinct) < 250:
        tree = _tree(rng.randint, exact=True)
        if tree.children() and all(_defined(tree, env) for env in envs):
            distinct[tree.key()] = tree
    trees = list(distinct.values())
    assert {type(node) for tree in trees for node in _subtrees(tree)} == set(C) - {Div, Float}

    body = "\n".join(
        f"    out[{index}] = (int64_t)({c_symbolic(tree)});" for index, tree in enumerate(trees)
    )
    helpers = "\n".join(text for name, text in _HELPERS.items() if f"{name}(" in body)
    arguments = ", ".join(f"int64_t {name}" for name in _NAMES)
    code = (
        f"#include <math.h>\n#include <stdint.h>\n{helpers}\n"
        f"void repro_values({arguments}, int64_t *out) {{\n{body}\n}}\n"
    )
    values = ctypes.CDLL(str(compile_shared(code, name="symbolic_table"))).repro_values
    values.argtypes = [ctypes.c_int64] * len(_NAMES) + [ctypes.POINTER(ctypes.c_int64)]
    values.restype = None
    for env in envs:
        out = (ctypes.c_int64 * len(trees))()
        values(*(env[name] for name in _NAMES), out)
        for tree, value in zip(trees, out):
            assert value == tree.evaluate(env), f"{tree} under {env}: C computed {value}"
