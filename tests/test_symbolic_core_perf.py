"""Invariants of the hash-consed symbolic core and the compile-time profiler.

Covers the interning guarantees (leaf identity, hash/eq consistency with
cached keys), the substitution fast paths, exact rational handling,
randomized algebraic round-trips over every node type, the perf-counter
plumbing, and the zero-work invariant of cached compiles.
"""

import copy
import pickle
import random

import pytest

from repro.perf import PERF, PerfCounters
from repro.symbolic import (
    Add,
    BoolConst,
    Compare,
    Div,
    FALSE,
    Float,
    Integer,
    Max,
    Min,
    Mul,
    Not,
    Or,
    And,
    Pow,
    Range,
    Subset,
    Symbol,
    TRUE,
    parse_expr,
    sympify,
)
from fractions import Fraction


# ---------------------------------------------------------------------------
# Interning identity
# ---------------------------------------------------------------------------


class TestInterning:
    def test_integer_identity(self):
        assert Integer(2) is Integer(2)
        assert Integer(-1) is Integer(-1)
        assert Integer(2) is not Integer(3)

    def test_symbol_identity(self):
        assert Symbol("N") is Symbol("N")
        assert Symbol("N") is not Symbol("M")

    def test_bool_identity(self):
        assert BoolConst(True) is TRUE
        assert BoolConst(False) is FALSE
        assert BoolConst(True) is BoolConst(True)

    def test_sympify_routes_to_interned(self):
        assert sympify(7) is Integer(7)
        assert sympify(3.0) is Integer(3)
        assert sympify(True) is TRUE

    def test_parse_cache_returns_shared_expression(self):
        assert parse_expr("N + 17 * M") is parse_expr("N + 17 * M")

    def test_interned_leaves_survive_pickle(self):
        for leaf in (Integer(42), Symbol("pickled_sym"), TRUE):
            assert pickle.loads(pickle.dumps(leaf)) is leaf

    def test_copy_returns_self(self):
        expr = parse_expr("N * M + 3")
        assert copy.copy(expr) is expr
        assert copy.deepcopy(expr) is expr

    def test_immutability_no_new_attributes(self):
        with pytest.raises(AttributeError):
            Integer(5).scratch = 1  # __slots__ forbids ad-hoc attributes

    def test_invalid_leaves_still_rejected(self):
        from repro.symbolic import SymbolicError

        with pytest.raises(SymbolicError):
            Integer("2")
        with pytest.raises(SymbolicError):
            Symbol("")


# ---------------------------------------------------------------------------
# Hash / equality consistency with cached keys
# ---------------------------------------------------------------------------


class TestHashEqConsistency:
    def test_equal_builds_same_hash(self):
        a = Symbol("a") + Symbol("b") * 2
        b = Mul.make(Integer(2), Symbol("b")) + Symbol("a")
        assert a == b
        assert hash(a) == hash(b)
        # Caches are warm now; results must be stable.
        assert a == b and hash(a) == hash(b)
        assert a.key() is a.key()  # cached tuple identity

    def test_hash_before_and_after_key(self):
        expr = Min.make(Symbol("x"), Symbol("y") - 1)
        h = hash(expr)
        assert expr.key() == expr.key()
        assert hash(expr) == h

    def test_ne_derived_from_eq(self):
        assert (Symbol("x") != Symbol("x")) is False
        assert (Symbol("x") != Symbol("y")) is True
        assert Integer(3) != Float(3.5)

    def test_numeric_cross_equality(self):
        assert Integer(4) == 4
        assert Integer(4) == 4.0
        assert not (Integer(4) == 5)

    def test_free_symbols_cached_and_shared(self):
        expr = parse_expr("i + j * K")
        free = expr.free_symbols()
        assert free is expr.free_symbols()
        assert {s.name for s in free} == {"i", "j", "K"}


# ---------------------------------------------------------------------------
# Substitution fast paths
# ---------------------------------------------------------------------------


class TestSubsFastPath:
    def test_untouched_expression_returns_self(self):
        expr = parse_expr("N * M + N")
        assert expr.subs({"Q": 5}) is expr
        assert expr.subs({}) is expr

    def test_untouched_subtree_shared(self):
        expr = Add.make(Symbol("a") * Symbol("b"), Symbol("c"))
        result = expr.subs({"c": 7})
        assert result == Symbol("a") * Symbol("b") + 7

    def test_range_and_subset_noop_subs(self):
        rng = Range(0, Symbol("N"))
        assert rng.subs({"M": 3}) is rng
        subset = Subset.parse("0:N, i")
        assert subset.subs({"q": 1}) is subset
        assert subset.subs({"i": 2}) != subset

    def test_range_and_subset_subs_accept_symbol_keys(self):
        # Expr.subs accepts Symbol objects as keys; the fast paths must too.
        rng = Range(0, Symbol("N"))
        assert rng.subs({Symbol("N"): 4}) == Range(0, 4)
        assert rng.subs({Symbol("M"): 4}) is rng
        subset = Subset.parse("0:N, i")
        assert subset.subs({Symbol("i"): 2}) == Subset.parse("0:N, 2")

    def test_touched_substitution_still_works(self):
        expr = parse_expr("i + 2 * j")
        assert expr.subs({"i": 1, "j": 3}) == Integer(7)


# ---------------------------------------------------------------------------
# Exact rationals
# ---------------------------------------------------------------------------


class TestFractionExactness:
    def test_integral_fraction_is_integer(self):
        assert sympify(Fraction(8, 2)) is Integer(4)

    def test_non_integer_fraction_stays_exact(self):
        expr = sympify(Fraction(1, 3))
        assert isinstance(expr, Div)
        assert expr.num == Integer(1) and expr.den == Integer(3)
        assert expr.evaluate({}) == pytest.approx(1 / 3)

    def test_fraction_arithmetic_no_float_drift(self):
        third = sympify(Fraction(1, 3))
        assert (third * 3).evaluate({}) == 1.0
        # The halves case folds exactly even through float evaluation.
        assert (sympify(Fraction(1, 2)) + sympify(Fraction(1, 2))).evaluate({}) == 1.0


# ---------------------------------------------------------------------------
# Randomized algebraic round-trips
# ---------------------------------------------------------------------------


def _random_expr(rng: random.Random, depth: int, floats: bool = True, printable: bool = False):
    """A random arithmetic expression covering every arithmetic node type.

    ``floats=False`` restricts leaves to integers and symbols: the seed
    engine's like-term collection normalizes integral float coefficients
    (``9.0*c`` folds to ``9*c``), so *structural* round-trip identities
    only hold exactly over the integer fragment.  ``printable=True``
    additionally drops the division-family operators, whose flat
    precedence makes the printed form re-associate on parsing
    (``4 * c // 3`` parses as ``(4*c) // 3``).
    """
    if depth <= 0:
        leaves = [
            Integer(rng.randint(-4, 9)),
            Symbol(rng.choice("abcN")),
        ]
        if floats:
            leaves.append(Float(rng.choice([0.5, 2.25, -1.75])))
        return rng.choice(leaves)
    left = _random_expr(rng, depth - 1, floats, printable)
    right = _random_expr(rng, depth - 1, floats, printable)
    kind = rng.randrange(6 if printable else 8)
    if kind == 0:
        return left + right
    if kind == 1:
        return left - right
    if kind == 2:
        return left * right
    if kind == 3:
        return Min.make(left, right)
    if kind == 4:
        return Max.make(left, right)
    if kind == 5:
        if printable and isinstance(left, Pow):
            # "c ** 3 ** 3" re-parses right-associatively; keep the
            # printable fragment free of nested powers.
            return left + right
        return left ** Integer(rng.choice([2, 3]))
    if kind == 6:
        den = Integer(rng.choice([2, 3, 5]))
        return rng.choice([left // den, left % den])
    if not floats:
        # True division of non-divisible integer constants folds to a
        # Float; keep the integer fragment closed under its operators.
        return left // Integer(rng.choice([2, 4]))
    return Div.make(left, Integer(rng.choice([2, 4])))


class TestAlgebraicRoundTrips:
    def test_add_sub_round_trip(self):
        rng = random.Random(1234)
        for _ in range(200):
            a = _random_expr(rng, rng.randint(0, 3), floats=False)
            b = _random_expr(rng, rng.randint(0, 3), floats=False)
            assert (a + b) - b == a, f"(a+b)-b != a for a={a!r}, b={b!r}"

    def test_neutral_elements(self):
        rng = random.Random(99)
        for _ in range(100):
            e = _random_expr(rng, rng.randint(0, 3), floats=False)
            assert e + 0 == e
            assert e * 1 == e
            assert -(-e) == e

    def test_str_parse_round_trip_structural(self):
        # Division-free expressions print/parse back structurally
        # identical (the division family shares precedence with Mul, so
        # e.g. "2 * a // 2" re-associates when parsed).
        rng = random.Random(4321)
        for _ in range(200):
            e = _random_expr(rng, rng.randint(0, 3), floats=False, printable=True)
            assert parse_expr(str(e)) == e, f"str/parse round-trip failed for {e!r}"

    def test_str_parse_round_trip_semantic(self):
        # Floats included; still division-free — the seed printer renders
        # Mul(-1, Mod(a, 2)) and Mod(Mul(-1, a), 2) identically.
        rng = random.Random(8765)
        env = {"a": 3, "b": 4, "c": 5, "N": 7}
        for _ in range(200):
            e = _random_expr(rng, rng.randint(0, 3), printable=True)
            reparsed = parse_expr(str(e))
            assert reparsed.evaluate(env) == pytest.approx(e.evaluate(env)), (
                f"semantic str/parse round-trip failed for {e!r}"
            )

    def test_boolean_round_trips(self):
        rng = random.Random(7)
        for _ in range(100):
            a = _random_expr(rng, 1)
            b = _random_expr(rng, 1)
            cmp = Compare.make(rng.choice(["<", "<=", "==", "!=", ">", ">="]), a, b)
            assert Not.make(Not.make(cmp)) == cmp
            both = And.make(cmp, TRUE)
            assert both == cmp
            assert Or.make(cmp, FALSE) == cmp

    def test_eval_consistency_after_caching(self):
        rng = random.Random(2024)
        env = {"a": 3, "b": 4, "c": 5, "N": 7}
        for _ in range(100):
            e = _random_expr(rng, rng.randint(1, 3))
            hash(e)  # warm caches
            free = {s.name for s in e.free_symbols()}
            reparsed = parse_expr(str(e))
            try:
                expected = e.evaluate(env)
            except ZeroDivisionError:
                continue
            assert reparsed.evaluate(env) == pytest.approx(expected)
            assert free == {s.name for s in reparsed.free_symbols()}


# ---------------------------------------------------------------------------
# Perf counters and the zero-work cached-compile invariant
# ---------------------------------------------------------------------------


class TestPerfCounters:
    def test_counters(self):
        perf = PerfCounters()
        perf.increment("x.hits")
        perf.increment("x.hits", 2)
        perf.increment("x.misses")
        assert perf.get("x.hits") == 3
        assert perf.hit_rate("x") == pytest.approx(0.75)
        snap = perf.snapshot()
        perf.increment("x.hits")
        assert perf.delta_since(snap) == {"x.hits": 1}
        assert "x.hits" in perf.summary()

    def test_global_perf_fed_by_symbolic_engine(self):
        before = PERF.snapshot()
        parse_expr("freshly_unseen_sym_1 + freshly_unseen_sym_2")
        parse_expr("freshly_unseen_sym_1 + freshly_unseen_sym_2")
        delta = PERF.delta_since(before)
        assert delta.get("symbolic.parse.hits", 0) >= 1
        assert delta.get("symbolic.parse.misses", 0) >= 1

    def test_compile_report_carries_counters(self):
        from repro import compile_c

        result = compile_c(
            "double k() { double s = 0.0;"
            " for (int i = 0; i < 8; i++) s += i; return s; }",
            "dcir",
        )
        counters = result.report.counters
        assert counters.get("frontend.runs") == 1
        assert counters.get("passes.runs", 0) > 0

    def test_cached_compile_does_zero_frontend_or_pass_work(self):
        from repro.service import CompileCache

        source = (
            "double zkernel() { double s = 1.0;"
            " for (int i = 0; i < 9; i++) s += 2.0 * i; return s; }"
        )
        cache = CompileCache(directory=None, use_env_directory=False)
        cache.get_or_compile(source, "dcir")
        before = PERF.snapshot()
        result = cache.get_or_compile(source, "dcir")
        delta = PERF.delta_since(before)
        assert result.cache_hit
        assert delta.get("compile_cache.hits") == 1
        for counter in ("frontend.runs", "passes.runs", "passes.applied"):
            assert not delta.get(counter), f"cache hit performed work: {counter}"
        # The rehydrated report carries the counters recorded by the
        # original (cache-filling) compile.
        assert result.report.counters.get("frontend.runs") == 1

    def test_machine_metadata_keys(self):
        # The one name benchmarks/e2e/run.py imports from repro.perf.bench.
        from repro.perf.bench import machine_metadata

        assert set(machine_metadata()) == {
            "python", "platform", "cpu_count", "available_cpus", "threads_env", "compiler",
        }
