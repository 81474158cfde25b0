"""Multi-index enumeration, truncated series evaluation, majorant and area
sums, and the radial derivative, checked against brute-force oracles."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polybohr import (
    CapacityError,
    DivergentTailError,
    ExtremalSpec,
    TailBound,
    TruncatedSeries,
    Verdict,
    area_sum,
    euler_derivative,
    eval_series,
    extremal_series,
    inf_norm,
    majorant_block_sums,
    majorant_sum,
)
from polybohr.series import _weighted_geometric_sum, block_sum, colex_multinomials


def brute_force_indices(n, k):
    """Independent enumeration by nested iteration over the exponent box."""
    if n == 1:
        return [(k,)]
    out = []
    for first in range(k, -1, -1):
        for rest in brute_force_indices(n - 1, k - first):
            out.append((first,) + rest)
    return out


def colex_indices(n, k):
    return [alpha for alpha, _ in colex_multinomials(n, k)]


class TestEnumeration:
    def test_univariate(self):
        assert colex_indices(1, 5) == [(5,)]

    def test_two_vars_degree_two_colex(self):
        assert colex_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_three_vars_degree_four_count(self):
        got = colex_indices(3, 4)
        assert len(got) == 15  # brute-force count of triples summing to 4
        assert sorted(got) == sorted(brute_force_indices(3, 4))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", list(range(9)))
    def test_completeness(self, n, k):
        got = colex_indices(n, k)
        assert len(got) == math.comb(k + n - 1, n - 1)
        assert len(set(got)) == len(got)
        assert set(got) == set(brute_force_indices(n, k))

    def test_colex_order_is_sorted_by_reversal(self):
        got = colex_indices(3, 5)
        assert got == sorted(brute_force_indices(3, 5), key=lambda a: tuple(reversed(a)))


class TestMultinomial:
    def test_pairs(self):
        assert list(colex_multinomials(2, 2)) == [((2, 0), 1), ((1, 1), 2), ((0, 2), 1)]
        assert dict(colex_multinomials(3, 4))[(2, 1, 1)] == 12  # 4!/(2! 1! 1!)
        assert list(colex_multinomials(4, 0)) == [((0, 0, 0, 0), 1)]
        assert list(colex_multinomials(1, 60)) == [((60,), 1)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", list(range(9)))
    def test_sum_identity(self, n, k):
        # sum over |alpha| = k of k!/alpha! equals n^k (multinomial theorem),
        # streamed in colex order: sorted by the reversed exponent tuple
        pairs = list(colex_multinomials(n, k))
        assert [alpha for alpha, _ in pairs] == sorted(
            brute_force_indices(n, k), key=lambda a: tuple(reversed(a)))
        assert sum(m for _, m in pairs) == n ** k

    def test_against_factorials(self):
        for alpha, m in colex_multinomials(3, 7):
            expected = math.factorial(7)
            for a in alpha:
                expected //= math.factorial(a)
            assert m == expected


class TestConstruction:
    def test_dict_is_validated(self):
        with pytest.raises(ValueError, match="dimension 1, expected 2"):
            TruncatedSeries(dim=2, max_degree=3, coeffs={(1,): 1 + 0j})
        with pytest.raises(ValueError, match="negative exponent"):
            TruncatedSeries(dim=2, max_degree=3, coeffs={(1, -1): 1 + 0j})
        with pytest.raises(ValueError, match="exceeds max degree 3"):
            TruncatedSeries(dim=2, max_degree=3, coeffs={(2, 2): 1 + 0j})

    def test_degree_count_is_capped_before_any_block(self):
        # a vector of 10**9 + 1 blocks is refused, not allocated
        with pytest.raises(CapacityError, match="^1000000001 degree blocks exceed"):
            TruncatedSeries(dim=1, max_degree=10 ** 9, coeffs={(0,): 1 + 0j})


class TestEvalSeries:
    def test_constant(self):
        f = TruncatedSeries(dim=2, max_degree=0, coeffs={(0, 0): 0.7 + 0.2j})
        assert eval_series(f, (0.3 + 0j, -0.1 + 0j)) == 0.7 + 0.2j

    def test_linear(self):
        f = TruncatedSeries(dim=2, max_degree=1,
                            coeffs={(1, 0): 1 + 0j, (0, 1): 1 + 0j})
        assert eval_series(f, (0.1 + 0j, 0.2 + 0j)) == pytest.approx(0.3)

    def test_dimension_mismatch(self):
        f = TruncatedSeries(dim=2, max_degree=0, coeffs={})
        with pytest.raises(ValueError):
            eval_series(f, (0.1 + 0j,))

    def test_any_insertion_order_matches_brute_force(self):
        # a hand-built dict, not inserted by degree: every sum runs in
        # insertion order and must agree with a direct sum of its terms
        coeffs = {(2, 1): 0.3 - 0.2j, (0, 0): 0.5 + 0j, (0, 3): -0.7j,
                  (1, 0): 0.25 + 0.1j, (1, 1): -0.4 + 0.05j}
        f = TruncatedSeries(dim=2, max_degree=3, coeffs=coeffs)
        z = (0.4 + 0.3j, -0.2 + 0.5j)
        mono = {a: z[0] ** a[0] * z[1] ** a[1] for a in coeffs}
        assert abs(eval_series(f, z)
                   - sum(c * mono[a] for a, c in coeffs.items())) <= 1e-15
        assert abs(eval_series(euler_derivative(f), z)
                   - sum(sum(a) * c * mono[a] for a, c in coeffs.items())) <= 1e-15
        for k, block in enumerate(majorant_block_sums(f)):
            brute = sum(abs(c) for a, c in coeffs.items() if sum(a) == k)
            assert abs(block - brute) <= 1e-15

    def test_extremal_against_closed_form(self):
        # closed form (0.5 - 0.2)/(1 - 0.5*0.2) = 1/3 at z = (0.1, 0.1)
        spec = ExtremalSpec(a=0.5, n=2)
        f = extremal_series(spec, 30)
        z = (0.1 + 0j, 0.1 + 0j)
        got = eval_series(f, z)
        assert abs(got - 1.0 / 3.0) <= f.tail_sum(inf_norm(z)) + 1e-15


@st.composite
def sparse_series(draw, dim=2, max_degree=5):
    indices = [alpha for k in range(max_degree + 1) for alpha in colex_indices(dim, k)]
    chosen = draw(st.lists(st.sampled_from(indices), min_size=0, max_size=6,
                           unique=True))
    vals = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                              allow_infinity=False)
    coeffs = {alpha: draw(vals) for alpha in chosen}
    return TruncatedSeries(dim=dim, max_degree=max_degree, coeffs=coeffs)


@st.composite
def small_points(draw, dim=2, radius=0.9):
    coords = []
    for _ in range(dim):
        rho = draw(st.floats(0.0, radius))
        phi = draw(st.floats(0.0, 2.0 * math.pi))
        coords.append(rho * cmath.exp(1j * phi))
    return tuple(coords)


class TestSeriesProperties:
    @given(f=sparse_series(), z=small_points())
    @settings(max_examples=150)
    def test_majorant_dominance(self, f, z):
        value = abs(eval_series(f, z))
        bound = majorant_sum(f, inf_norm(z)).value
        assert value <= bound + 1e-12 * max(1.0, bound)

    @given(f=sparse_series(), z=small_points(radius=0.4),
           s=st.floats(0.2, 0.9))
    @settings(max_examples=100)
    def test_euler_matches_radial_difference(self, f, z, s):
        # central difference of g(s) = f(s z) at s, step 1e-5; D f(sz) = s g'(s)
        zz = tuple(s * c for c in z)
        h = 1e-5
        up = eval_series(f, tuple((s + h) * c for c in z))
        dn = eval_series(f, tuple((s - h) * c for c in z))
        fd = s * (up - dn) / (2.0 * h)
        exact = eval_series(euler_derivative(f), zz)
        assert abs(exact - fd) <= 1e-6 * max(1.0, abs(exact))


class TestBlockSums:
    def test_constant(self):
        f = TruncatedSeries(dim=1, max_degree=0, coeffs={(0,): -0.4 + 0.3j})
        assert majorant_block_sums(f) == [pytest.approx(0.5)]

    def test_single_high_coefficient(self):
        f = TruncatedSeries(dim=2, max_degree=4, coeffs={(1, 2): 3j})
        assert majorant_block_sums(f) == [0.0, 0.0, 0.0, 3.0, 0.0]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_extremal_blocks(self, k):
        # brute force: sum over |alpha|=k of |a_alpha| with n = 2, a = 0.6
        a, n = 0.6, 2
        f = extremal_series(ExtremalSpec(a, n), 6)
        brute = sum(abs(f.coeffs.get(alpha, 0j))
                    for alpha in brute_force_indices(n, k))
        expected = (1 - a * a) * a ** (k - 1) * n ** k
        assert brute == pytest.approx(expected, rel=1e-13)
        assert majorant_block_sums(f)[k] == pytest.approx(expected, rel=1e-13)


class TestMajorantSum:
    def test_extremal_geometric_closed_form(self):
        # a + (1-a^2) n r/(1 - a n r) = 0.5 + 0.75*(1/3)/(1 - 1/6) = 0.8
        f = extremal_series(ExtremalSpec(0.5, 1), 30)
        rep = majorant_sum(f, 1.0 / 3.0)
        assert rep.value + rep.tail_bound == pytest.approx(0.8, abs=1e-12)
        assert rep.verdict is Verdict.HOLDS

    def test_violated_above_threshold_radius(self):
        # value exceeds 1 for r > 1/((1+2a)n); a = 0.99, n = 2, r = 1/6+0.01
        f = extremal_series(ExtremalSpec(0.99, 2), 48)
        rep = majorant_sum(f, 1.0 / 6.0 + 0.01)
        assert rep.verdict is Verdict.VIOLATED

    def test_zero_series(self):
        rep = majorant_sum(TruncatedSeries(dim=3, max_degree=0, coeffs={}), 0.5)
        assert rep.value == 0.0 and rep.tail_bound == 0.0
        assert rep.verdict is Verdict.HOLDS

    def test_tail_covers_every_discarded_degree(self):
        # truncated at K = 0: the tail must bound degrees 1, 2, ..., whose
        # majorant 0.5 * 0.9 / (1 - 0.9) brings the total to 5
        f = TruncatedSeries(dim=1, max_degree=0, coeffs={(0,): 0.5 + 0j},
                            tail=TailBound(C=0.5, q=0.5))
        rep = majorant_sum(f, 1.8)
        assert rep.verdict is not Verdict.HOLDS
        assert rep.value + rep.tail_bound >= 5.0

    def test_divergent_tail(self):
        f = extremal_series(ExtremalSpec(0.9, 1), 10)
        with pytest.raises(DivergentTailError):
            majorant_sum(f, 1.2)  # q r = 0.9 * 1.2 > 1

    @pytest.mark.parametrize("call", [TruncatedSeries.tail_sum, block_sum, majorant_sum],
                             ids=lambda call: call.__name__)
    @pytest.mark.parametrize("tail", [TailBound(C=0.5, q=0.5), None], ids=["tail", "no-tail"])
    def test_negative_radius(self, call, tail):
        # every majorant and tail path checks the radius once, in tail_sum
        f = TruncatedSeries(dim=1, max_degree=2, coeffs={(0,): 0.5 + 0j, (2,): 0.25 + 0j},
                            tail=tail)
        with pytest.raises(ValueError, match=r"^radius must be >= 0, got -0\.3$"):
            call(f, -0.3)

    @pytest.mark.parametrize("call", [TruncatedSeries.tail_sum, block_sum, majorant_sum,
                                      area_sum], ids=lambda call: call.__name__)
    @pytest.mark.parametrize("tail", [TailBound(C=0.5, q=0.5), None], ids=["tail", "no-tail"])
    def test_nan_radius(self, call, tail):
        f = TruncatedSeries(dim=1, max_degree=2, coeffs={(0,): 0.5 + 0j, (2,): 0.25 + 0j},
                            tail=tail)
        with pytest.raises(ValueError, match=r"^radius must be >= 0, got nan$"):
            call(f, math.nan)


class TestEulerDerivative:
    def test_annihilates_constants(self):
        f = TruncatedSeries(dim=2, max_degree=0, coeffs={(0, 0): 5 + 0j})
        df = euler_derivative(f)
        assert df.coeffs is None
        assert (df.blocks, df.squared, df.parts((0.3 + 0j, -0.2j))) == ([0.0], [0.0], [0j])

    def test_degree_two_monomial(self):
        # D(z_1 z_2) = 2 z_1 z_2: block 2, squared block 4, degree-2 part 2 z_1 z_2
        f = TruncatedSeries(dim=2, max_degree=2, coeffs={(1, 1): 1 + 0j})
        df = euler_derivative(f)
        z = (0.3 + 0.1j, -0.2 + 0.5j)
        assert df.coeffs is None
        assert df.blocks == [0.0, 0.0, 2.0] and df.squared == [0.0, 0.0, 4.0]
        assert df.parts(z) == [0j, 0j, 2 * (z[0] * z[1])]

    def test_tail_weight_bumped(self):
        f = extremal_series(ExtremalSpec(0.5, 2), 8)
        df = euler_derivative(f)
        assert df.tail is not None and df.tail.weight == f.tail.weight + 1

    @pytest.mark.parametrize("a,n,r", [(0.0, 1, 0.2), (0.5, 2, 0.1), (0.9, 1, 0.3)])
    def test_extremal_diagonal_closed_form(self, a, n, r):
        # |D f_a| at (-r, ..., -r) equals n r (1-a^2)/(1+a n r)^2
        f = extremal_series(ExtremalSpec(a, n), 40)
        df = euler_derivative(f)
        got = abs(eval_series(df, (-r + 0j,) * n))
        expected = n * r * (1 - a * a) / (1 + a * n * r) ** 2
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("a,n,r,K", [(0.999, 1, 0.998, 16), (0.99, 1, 0.995, 16),
                                         (0.5, 2, 0.3, 10), (0.9, 3, 0.25, 20)])
    def test_witness_tail_is_exact(self, a, n, r, K):
        # block k of D f_a is k (1-a^2) a^(k-1) n^k, so its tail bound holds
        # with equality and sum_{k>K} k (1-a^2) a^(k-1) (n r)^k is
        # (1-a^2)/a x^s (s - (s-1) x)/(1-x)^2 with x = a n r and s = K + 1
        df = euler_derivative(extremal_series(ExtremalSpec(a, n), K))
        A, s = Fraction(a), K + 1
        x = A * n * Fraction(r)
        exact = (1 - A * A) / A * x ** s * (s - (s - 1) * x) / (1 - x) ** 2
        assert df.tail_sum(r) == pytest.approx(float(exact), rel=1e-13)


class TestAreaSum:
    def test_scaled_coordinate(self):
        f = TruncatedSeries(dim=2, max_degree=1, coeffs={(1, 0): 2 - 1j})
        rep = area_sum(f, 0.3)
        assert rep.value == pytest.approx(5.0 * 0.09, rel=1e-13)

    def test_identity_map_matches_disc_area(self):
        f = TruncatedSeries(dim=1, max_degree=1, coeffs={(1,): 1 + 0j})
        rep = area_sum(f, 0.37)
        assert rep.value == pytest.approx(0.37 ** 2, rel=1e-13)

    def test_extremal_dominated_by_square_bound(self):
        # brute-force area sum against (1-a^2)^2 (n r)^2 / (1 - n r)^2
        a, n, r = 0.5, 2, 0.1
        f = extremal_series(ExtremalSpec(a, n), 30)
        brute = 0.0
        for alpha, c in f.coeffs.items():
            k = sum(alpha)
            if k >= 1:
                brute += k * abs(c) ** 2 * r ** (2 * k)
        rep = area_sum(f, r)
        assert rep.value == pytest.approx(brute, rel=1e-12)
        bound = (1 - a * a) ** 2 * (n * r) ** 2 / (1 - n * r) ** 2
        assert rep.value + rep.tail_bound <= bound


def exact_weighted_sum(x, weight, start, step):
    """sum_{j>=0} p(j) y^j for p(j) = (start + j step)^weight and y = x^step,
    in exact arithmetic: sum_d (Delta^d p)(0) y^d / (1 - y)^(d+1)."""
    X = Fraction(x)
    y = X ** step
    diffs = [(start + j * step) ** weight for j in range(weight + 1)]
    total = Fraction(0)
    for d in range(weight + 1):
        total += diffs[0] * y ** d / (1 - y) ** (d + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return X ** start * total


class TestTailMachinery:
    def test_geometric_closed_form(self):
        # weight 0: c x^s / (1 - x)
        got = _weighted_geometric_sum(2.0, 0.5, 0, 4)
        assert got == pytest.approx(2.0 * 0.5 ** 4 / 0.5, rel=1e-14)

    @pytest.mark.parametrize("x,start", [(0.3, 5), (0.7, 11), (0.9, 3)])
    def test_weight_one_brackets_exact_sum(self, x, start):
        # exact sum_{k>=s} k x^k = x^s (s - (s-1) x)/(1-x)^2
        exact = x ** start * (start - (start - 1) * x) / (1 - x) ** 2
        got = _weighted_geometric_sum(1.0, x, 1, start)
        assert got >= exact * (1 - 1e-12)
        assert got <= exact * (1 + 1e-13)

    @pytest.mark.parametrize("weight", range(5))
    def test_tight_upper_bound_on_grid(self, weight):
        # never below the exact sum, and above it by rounding only, also
        # where x^step is within rounding of 1
        for step in (1, 2, 3):
            for start in (1, 2, 5, 17, 33, 129):
                for x in (0.01, 0.3, 0.7, 0.9, 0.98, 0.99, 0.995, 0.998):
                    exact = exact_weighted_sum(x, weight, start, step)
                    got = Fraction(_weighted_geometric_sum(1.0, x, weight, start, step))
                    assert exact <= got <= exact * (1 + Fraction(1, 10 ** 13)), (
                        weight, step, start, x)

    @pytest.mark.parametrize("x,weight,start,step",
                             [(0.3, 4, 2, 1), (0.7, 2, 5, 3), (0.9, 3, 17, 2), (0.98, 1, 1, 1)])
    def test_exact_reference_matches_brute_force(self, x, weight, start, step):
        terms = [(start + j * step) ** weight * x ** (start + j * step) for j in range(20_000)]
        assert float(exact_weighted_sum(x, weight, start, step)) == pytest.approx(
            math.fsum(terms), rel=1e-12)

    def test_sum_past_the_float_range(self):
        # (1 - x)^31 = 2^-1612 is below the float range, and the sum, about
        # 30! / (1 - x)^31, above it
        with pytest.raises(OverflowError, match="weight-30 tail from degree 1"):
            _weighted_geometric_sum(1.0, 1 - 2 ** -52, 30, 1)
        # every factor is finite, the product is not
        with pytest.raises(OverflowError, match="weight-2 tail from degree 1 at ratio 0.999"):
            _weighted_geometric_sum(1e300, 0.999, 2, 1)

    def test_ratio_exactly_one_diverges(self):
        for weight in (0, 1, 2):
            with pytest.raises(DivergentTailError, match="tail ratio 1.0 >= 1"):
                _weighted_geometric_sum(1.0, 1.0, weight, 1)

    def test_stepped_sum(self):
        # multiples of 3 starting at 6: x^6/(1 - x^3)
        got = _weighted_geometric_sum(1.0, 0.4, 0, 6, step=3)
        assert got == pytest.approx(0.4 ** 6 / (1 - 0.4 ** 3), rel=1e-14)

    def test_tail_sum_respects_multiples(self):
        f = extremal_series(ExtremalSpec(0.5, 1), 10)
        r = 0.4
        x = 0.5 * r
        full = f.tail_sum(r)
        stepped = f.tail_sum(r, step=4)
        # multiples of 4 above 10 start at 12
        expected = (1 - 0.25) / 0.5 * x ** 12 / (1 - x ** 4)
        assert stepped == pytest.approx(expected, rel=1e-13)
        assert stepped <= full

    def test_tailbound_validation(self):
        with pytest.raises(ValueError):
            TailBound(C=-1.0, q=0.5)
