"""Graded series data (degree blocks, squared blocks and degree-k parts)
against brute-force sums over the multi-index dict, the extremal build
against its definition, and the independence of the hold-below
and sharpness hot paths from that dict."""

import cmath
import gc
import math
import tracemalloc
from fractions import Fraction

import pytest

from polybohr import (
    AreaT,
    Classical,
    EulerLambda,
    ExtremalSpec,
    FromDegree,
    Lcg64,
    MultiplesOf,
    SuiteConfig,
    TruncatedSeries,
    check_holds_below,
    check_sharpness_above,
    euler_derivative,
    eval_series,
    extremal_series,
    functional_A,
    functional_B,
    functional_C,
    functional_D,
    functional_E,
    majorant_block_sums,
    sample_product_spec,
    schwarz_power_map,
)
from polybohr import families, verify
from polybohr.series import colex_multinomials, squared_block_sums
from test_series import brute_force_indices

REL = 1e-13


def seeded_point(seed, n, radius):
    rng = Lcg64(seed)
    return tuple(rng.uniform(0.0, radius) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
                 for _ in range(n))


def assert_close(got, want):
    assert abs(got - want) <= REL * abs(want), (got, want)


def assert_matches_brute_force(f, z):
    """The graded data of f and of its Euler derivative against direct sums
    over f.coeffs."""
    blocks = [0.0] * (f.max_degree + 1)
    squared = [0.0] * (f.max_degree + 1)
    value = euler = 0j
    for alpha, c in f.coeffs.items():
        k = sum(alpha)
        blocks[k] += abs(c)
        squared[k] += abs(c) ** 2
        term = c * math.prod(zi ** ai for zi, ai in zip(z, alpha))
        value += term
        euler += k * term
    df = euler_derivative(f)
    for k in range(f.max_degree + 1):
        assert_close(majorant_block_sums(f)[k], blocks[k])
        assert_close(squared_block_sums(f)[k], squared[k])
        assert_close(majorant_block_sums(df)[k], k * blocks[k])
        assert_close(squared_block_sums(df)[k], k * k * squared[k])
    assert_close(eval_series(f, z), value)
    assert_close(eval_series(df, z), euler)


class TestGradedParity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("factors", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [3, 71])
    def test_product_series(self, n, factors, seed):
        f = sample_product_spec(seed, n, factors).series(24)
        assert_matches_brute_force(f, seeded_point(seed, n, 0.6))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("a", [0.0, 0.5, 0.99])
    @pytest.mark.parametrize("K", [0, 1, 24])
    def test_extremal_series(self, n, a, K):
        f = extremal_series(ExtremalSpec(a, n), K)
        assert_matches_brute_force(f, seeded_point(K + n, n, 0.6 / n))

    def test_unimodular_constant(self):
        f = sample_product_spec(5, 3, 0).series(6)
        assert list(f.coeffs) == [(0, 0, 0)]
        assert majorant_block_sums(f)[1:] == [0.0] * 6
        assert_matches_brute_force(f, seeded_point(5, 3, 0.6))

    def test_hand_built_dict_out_of_degree_order(self):
        coeffs = {(2, 1): 0.3 - 0.1j, (0, 0): 0.5 + 0j, (1, 0): -0.2j,
                  (0, 3): 0.1 + 0j, (1, 1): 0.25 + 0.05j, (0, 1): 0.4 + 0j}
        f = TruncatedSeries(dim=2, max_degree=4, coeffs=coeffs)
        assert_matches_brute_force(f, seeded_point(9, 2, 0.8))


def bits(v):
    return type(v).__name__, float(v.real).hex(), float(v.imag).hex()


class TestExtremalBitIdentity:
    """The streamed extremal build gives the series of its definition: keys
    in colex order, that is sorted by the reversed tuple from an independent
    enumeration, values ak * k!/alpha! from factorials and parts multiplied
    term by term, all bit for bit; blocks and squared blocks within REL of
    the exact closed forms (1-a^2) a^{k-1} n^k and ((1-a^2) a^{k-1})^2 S_n(k)
    of the float a, with S_n(k) = sum (k!/alpha!)^2 over that enumeration."""

    @pytest.mark.parametrize("n,K", [(2, 48), (3, 28), (4, 24), (3, 16), (1, 60)])
    @pytest.mark.parametrize("a", [0.37, 0.999])
    def test_matches_definition(self, n, K, a):
        f = extremal_series(ExtremalSpec(a, n), K)
        want = {(0,) * n: complex(a)}
        exact_a = Fraction(a)
        blocks, squared = [exact_a], [exact_a ** 2]
        for k in range(1, K + 1):
            ak = -(1.0 - a * a) * a ** (k - 1)
            ck = (1 - exact_a ** 2) * exact_a ** (k - 1)
            s = 0
            for alpha in sorted(brute_force_indices(n, k), key=lambda idx: idx[::-1]):
                multinomial = math.factorial(k) // math.prod(map(math.factorial, alpha))
                want[alpha] = ak * multinomial
                s += multinomial ** 2
            blocks.append(ck * n ** k)
            squared.append(ck ** 2 * s)
        assert list(f.coeffs) == list(want)
        assert [bits(c) for c in f.coeffs.values()] == [bits(c) for c in want.values()]
        for got, exact in [*zip(f.blocks, blocks), *zip(f.squared, squared)]:
            assert abs(Fraction(got) / exact - 1) <= REL, (got, float(exact))
        for z in (seeded_point(n + K, n, 0.9 / n), tuple(0.1 * (i + 1) for i in range(n))):
            parts = [0j] * (K + 1)
            for alpha, term in want.items():
                for zi, ai in zip(z, alpha):
                    if ai:
                        term *= zi ** ai
                parts[sum(alpha)] += term
            assert [bits(p) for p in f.parts(z)] == [bits(p) for p in parts]


class TestExtremalTables:
    """The head, walk and S_n tables are built once per (n, K) when they have
    at most MEMO_HEADS_CAP heads, and live only as long as their series when
    they have more: a build that reads them from the memo equals a build that
    makes them afresh."""

    @staticmethod
    def graded_bits(f, z):
        return ([b.hex() for b in f.blocks], [b.hex() for b in f.squared],
                [bits(p) for p in f.parts(z)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("a", [0.37, 0.999])
    def test_memo_hit_matches_a_fresh_build(self, n, a):
        spec, z = ExtremalSpec(a, n), seeded_point(n, n, 0.9 / n)
        extremal_series(spec, 12)
        hit = self.graded_bits(extremal_series(spec, 12), z)
        families._extremal_tables.cache_clear()
        assert self.graded_bits(extremal_series(spec, 12), z) == hit

    @pytest.mark.parametrize("n", [1, 3])
    def test_tables_are_tuples(self, n):
        heads, walk, S = families._extremal_tables(n, 6)
        assert all(type(t) is tuple for t in (heads, walk, S, *heads, *walk))

    def test_second_build_enumerates_no_heads(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return colex_multinomials(*args)

        monkeypatch.setattr(families, "colex_multinomials", counting)
        families._extremal_tables.cache_clear()
        extremal_series(ExtremalSpec(0.5, 3), 10)
        first = len(calls)
        extremal_series(ExtremalSpec(0.9, 3), 10)
        assert first > 0 and len(calls) == first

    # the deep_series ladder, and the suites' and sharpness escalation's K
    @pytest.mark.parametrize("n,K", [(2, 48), (3, 28), (4, 24),
                                     (1, 16), (2, 16), (3, 16), (3, 32), (3, 60)])
    def test_workload_tables_stay_memoized(self, n, K):
        families._extremal_tables.cache_clear()
        extremal_series(ExtremalSpec(0.5, n), K)
        extremal_series(ExtremalSpec(0.9, n), K)
        assert families._extremal_tables.cache_info()[:2] == (1, 1)

    def test_a_dropped_large_series_frees_its_tables(self):
        # (5, 20) has C(24, 4) = 10,626 heads, about 1.5 MB of tables
        families._extremal_tables.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f = extremal_series(ExtremalSpec(0.5, 5), 20)
            held = tracemalloc.get_traced_memory()[0] - before
            del f
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert families._extremal_tables.cache_info().currsize == 0
        assert held > 1e6 and left < 1e4, (held, left)


class TestLazySquaredBlocks:
    """A product series convolves its squared blocks on their first read,
    which functionals A, B and D never make."""

    def test_built_on_first_read(self):
        spec, K = sample_product_spec(31, 3, 2), 16
        f = spec.series(K)
        z = seeded_point(5, 3, 0.3)
        functional_A(f, 0.3)
        functional_B(f, schwarz_power_map(3, 2), z, FromDegree(2))
        functional_D(f, z, 1.5)
        assert "squared" not in vars(f)
        eager = families._convolve_degrees(
            [[abs(c) ** 2 for c in spec.coordinate_coefficients(i, K)] for i in range(3)], K)
        assert [b.hex() for b in f.squared] == [b.hex() for b in eager]
        df = euler_derivative(f)
        assert "squared" not in vars(df)
        assert [b.hex() for b in df.squared] == [(k * k * b).hex() for k, b in enumerate(eager)]


class TestHoldBelowNeedsNoDict:
    @pytest.fixture(autouse=True)
    def refuse_multi_indices(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the hot path enumerated multi-indices")

        monkeypatch.setattr(families, "colex_multinomials", refuse)

    @pytest.mark.parametrize("family", [Classical(3), EulerLambda(1, 2.0), AreaT(2, 0.8)],
                             ids=repr)
    def test_holds_below(self, family):
        report = check_holds_below(SuiteConfig(family=family, samples=8, seed=11))
        assert report.total == 8

    def test_functionals_on_a_4_24_product(self):
        f = sample_product_spec(29, 4, 3).series(24)
        z = seeded_point(8, 4, 0.05)
        omega = schwarz_power_map(4, 2)
        reports = [functional_A(f, 0.05),
                   functional_B(f, omega, z, FromDegree(2)),
                   functional_B(f, omega, z, MultiplesOf(2), p=2),
                   functional_C(f, omega, z, 0.5),
                   functional_D(f, z, 1.5),
                   functional_E(f, 0.05, 0.4)]
        assert all(math.isfinite(rep.value + rep.tail_bound) for rep in reports)


class TestExtremalNeedsNoDict:
    @staticmethod
    def functionals_on_a_4_24_extremal():
        f = extremal_series(ExtremalSpec(0.9, 4), 24)
        z = seeded_point(8, 4, 0.05)
        omega = schwarz_power_map(4, 2)
        reports = [functional_A(f, 0.05),
                   functional_B(f, omega, z, FromDegree(2)),
                   functional_B(f, omega, z, MultiplesOf(2), p=2),
                   functional_C(f, omega, z, 0.5),
                   functional_D(f, z, 1.5),
                   functional_E(f, 0.05, 0.4)]
        assert all(math.isfinite(rep.value + rep.tail_bound) for rep in reports)
        return f

    def test_functionals_on_a_4_24_extremal_stay_small(self):
        # Building the 20,475-key dict would peak at about 2.4 MB; the head
        # table, the walk and one point's power tables take about 0.8 MB.
        self.functionals_on_a_4_24_extremal()
        tracemalloc.start()
        try:
            f = self.functionals_on_a_4_24_extremal()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "coeffs" not in vars(f)
        assert peak < 1.5e6, peak

    @pytest.mark.parametrize("family", [Classical(3), EulerLambda(1, 2.0), AreaT(2, 0.8)],
                             ids=repr)
    def test_sharpness_above(self, family, monkeypatch):
        built = []

        def keep(spec, K):
            built.append(extremal_series(spec, K))
            return built[-1]

        monkeypatch.setattr(verify, "extremal_series", keep)
        report = check_sharpness_above(SuiteConfig(family=family, seed=11))
        assert report.total == len(SuiteConfig.a_schedule)
        assert built and not any("coeffs" in vars(f) for f in built)
