"""Functional evaluations against closed-form oracles for the extremal
family, plus structural properties (mode dominance, reductions, monotonicity).

Closed forms used as oracles, all for f_a with coordinate sum s and block
sums (1-a^2) a^{k-1} n^k:

* majorant(r)  = a + (1-a^2) n r / (1 - a n r)
* head modulus at the order-m branch point = (a + n r^m)/(1 + a n r^m)
* from-degree-N tail = (1-a^2) a^{N-1} (n r)^N / (1 - a n r)
* multiples-of-N tail = (1-a^2) a^{N-1} (n r)^N / (1 - (a n r)^N)
* diagonal radial derivative = n r (1-a^2)/(1 + a n r)^2
* univariate area sum = (1-a^2)^2 r^2 / (1 - a^2 r^2)^2
"""

import math

import pytest

from polybohr import (
    ExtremalSpec,
    FromDegree,
    MultiplesOf,
    TruncatedSeries,
    Verdict,
    extremal_series,
    functional_A,
    functional_B,
    functional_C,
    functional_D,
    functional_E,
    functional_rogosinski_uni,
    majorant_sum,
    sample_product_spec,
    schwarz_power_map,
)
from polybohr.radii import branch_diagonal


def extremal(a, n, K=48):
    return extremal_series(ExtremalSpec(a, n), K)


def const_one(n):
    return TruncatedSeries(dim=n, max_degree=0, coeffs={(0,) * n: 1.0 + 0j})


class TestFunctionalA:
    def test_extremal_geometric_value(self):
        rep = functional_A(extremal(0.5, 1), 1.0 / 3.0)
        assert rep.value + rep.tail_bound == pytest.approx(0.8, abs=1e-12)
        assert rep.verdict is Verdict.HOLDS

    def test_violated_just_above_parameter_radius(self):
        # 1/((1+2a)n) ~ 0.1678 < 1/6 + 0.01
        rep = functional_A(extremal(0.99, 2), 1.0 / 6.0 + 0.01)
        assert rep.verdict is Verdict.VIOLATED
        assert rep.value == pytest.approx(1.0008141084794422, rel=1e-10)

    def test_unimodular_constant_holds_everywhere(self):
        for r in (0.0, 0.3, 0.9):
            rep = functional_A(const_one(2), r)
            assert rep.value == 1.0 and rep.verdict is Verdict.HOLDS


class TestFunctionalB:
    def test_constant_head_identity(self):
        rep = functional_B(const_one(1), schwarz_power_map(1, 1), (0.5 + 0j,),
                           FromDegree(1))
        assert rep.value == 1.0 and rep.verdict is Verdict.HOLDS

    def test_univariate_violation(self):
        # oracle: (a+r)/(1+ar) + (1-a^2) r/(1-ar) = 1.000536595337843
        rep = functional_B(extremal(0.999, 1), schwarz_power_map(1, 1),
                           (-0.34 + 0j,), FromDegree(1))
        assert rep.verdict is Verdict.VIOLATED
        assert rep.value == pytest.approx(1.000536595337843, rel=1e-12)

    @pytest.mark.parametrize("a,m,n,N,r", [
        (0.9, 2, 2, 2, 0.2),
        (0.99, 1, 1, 2, 0.3),
        (0.5, 3, 2, 1, 0.15),
    ])
    def test_from_degree_closed_form(self, a, m, n, N, r):
        f = extremal(a, n)
        z = branch_diagonal(n, m, r)
        rep = functional_B(f, schwarz_power_map(n, m), z, FromDegree(N))
        head = (a + n * r ** m) / (1 + a * n * r ** m)
        tail = (1 - a * a) * a ** (N - 1) * (n * r) ** N / (1 - a * n * r)
        assert rep.value == pytest.approx(head + tail, rel=1e-12)

    @pytest.mark.parametrize("a,m,n,N,r", [
        (0.9, 2, 2, 2, 0.2),
        (0.95, 1, 1, 3, 0.25),
    ])
    def test_multiples_closed_form(self, a, m, n, N, r):
        f = extremal(a, n)
        z = branch_diagonal(n, m, r)
        rep = functional_B(f, schwarz_power_map(n, m), z, MultiplesOf(N))
        head = (a + n * r ** m) / (1 + a * n * r ** m)
        tail = (1 - a * a) * a ** (N - 1) * (n * r) ** N / (1 - (a * n * r) ** N)
        assert rep.value == pytest.approx(head + tail, rel=1e-12)

    def test_squared_head(self):
        a, r = 0.8, 0.2
        rep = functional_B(extremal(a, 1), schwarz_power_map(1, 1),
                           (-r + 0j,), FromDegree(1), p=2)
        head = ((a + r) / (1 + a * r)) ** 2
        tail = (1 - a * a) * r / (1 - a * r)
        assert rep.value == pytest.approx(head + tail, rel=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mode_dominance(self, N, seed):
        f = sample_product_spec(seed, 2, 2).series(16)
        z = (0.1 + 0.02j, -0.09 + 0.01j)
        omega = schwarz_power_map(2, 1)
        wide = functional_B(f, omega, z, FromDegree(N))
        narrow = functional_B(f, omega, z, MultiplesOf(N))
        assert wide.value >= narrow.value - 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            functional_B(extremal(0.5, 2), schwarz_power_map(1, 1),
                         (0.1 + 0j,), FromDegree(1))


class TestFunctionalC:
    def test_t_zero_reduces_to_plain_majorant(self):
        f = extremal(0.7, 2)
        r = 0.12
        omega = schwarz_power_map(2, 1)
        z = (-r + 0j, -r + 0j)
        got = functional_C(f, omega, z, t=0.0)
        ref = functional_A(f, r)
        assert got.value == pytest.approx(ref.value, rel=1e-14)
        assert got.tail_bound == pytest.approx(ref.tail_bound, rel=1e-12)

    def test_t_one_bounded_head_holds(self):
        for seed in range(4):
            f = sample_product_spec(seed, 1, 2).series(12)
            rep = functional_C(f, schwarz_power_map(1, 1), (-0.5 + 0j,), t=1.0)
            assert rep.verdict is Verdict.HOLDS

    def test_weight_one_is_the_last_accepted(self):
        f, omega, z = extremal(0.5, 1), schwarz_power_map(1, 1), (-0.2 + 0j,)
        assert functional_C(f, omega, z, t=1.0).verdict is Verdict.HOLDS
        with pytest.raises(ValueError, match="convex weight must lie in"):
            functional_C(f, omega, z, t=math.nextafter(1.0, 2.0))

    def test_violation_above_convex_radius(self):
        # R(1/2) = 2 sqrt(1/2) - 1; oracle value at R + 0.005 with a = 0.999
        # is 1.000016245979029
        r = 2 * math.sqrt(0.5) - 1 + 0.005
        rep = functional_C(extremal(0.999, 1), schwarz_power_map(1, 1),
                           (-r + 0j,), t=0.5)
        assert rep.verdict is Verdict.VIOLATED
        assert rep.value == pytest.approx(1.000016245979029, rel=1e-12)

    @pytest.mark.parametrize("a,m,n,t,r", [
        (0.9, 1, 1, 0.5, 0.3),
        (0.8, 2, 2, 0.25, 0.15),
    ])
    def test_composite_closed_form(self, a, m, n, t, r):
        f = extremal(a, n)
        z = branch_diagonal(n, m, r)
        rep = functional_C(f, schwarz_power_map(n, m), z, t)
        head = (a + n * r ** m) / (1 + a * n * r ** m)
        maj = a + (1 - a * a) * n * r / (1 - a * n * r)
        assert rep.value == pytest.approx(t * head + (1 - t) * maj, rel=1e-12)


class TestFunctionalD:
    def test_constant(self):
        f = TruncatedSeries(dim=2, max_degree=0, coeffs={(0, 0): 0.6 + 0j})
        rep = functional_D(f, (-0.2 + 0j, -0.2 + 0j), lam=1.0)
        assert rep.value == pytest.approx(0.6)
        assert rep.verdict is Verdict.HOLDS

    def test_coordinate_monomial(self):
        # f = z: value r + r at the diagonal, below 1 at r = 0.99 * 0.3191
        r = 0.99 * 0.3191
        rep = functional_D(TruncatedSeries(dim=1, max_degree=1, coeffs={(1,): 1 + 0j}),
                           (-r + 0j,), lam=0.5)
        assert rep.value == pytest.approx(2 * r, rel=1e-14)
        assert rep.verdict is Verdict.HOLDS

    @pytest.mark.parametrize("a,n,lam,r", [
        (0.9, 1, 0.5, 0.25),
        (0.5, 2, 1.5, 0.1),
        (0.99, 3, 0.75, 0.08),
    ])
    def test_extremal_diagonal_closed_form(self, a, n, lam, r):
        f = extremal(a, n)
        rep = functional_D(f, (-r + 0j,) * n, lam)
        nr = n * r
        expected = ((nr + a) / (1 + nr * a)
                    + (1 - a * a) * nr / (1 + a * nr) ** 2
                    + lam * (1 - a * a) * a * nr * nr / (1 - a * nr))
        assert rep.value == pytest.approx(expected, rel=1e-9)

    def test_violation_above_quartic_root(self):
        # oracle value 1.0000314410778381 at r = 0.33 > 0.3191, a = 0.999
        rep = functional_D(extremal(0.999, 1), (-0.33 + 0j,), lam=0.5)
        assert rep.verdict is Verdict.VIOLATED
        assert rep.value == pytest.approx(1.0000314410778381, rel=1e-9)

    def test_zero_function(self):
        rep = functional_D(TruncatedSeries(dim=2, max_degree=0, coeffs={}),
                           (-0.3 + 0j, -0.3 + 0j), lam=2.0)
        assert rep.value == 0.0 and rep.verdict is Verdict.HOLDS


class TestFunctionalE:
    def test_t_one_reduces_to_plain_majorant(self):
        f = extremal(0.6, 2)
        got = functional_E(f, 0.11, t=1.0)
        ref = functional_A(f, 0.11)
        assert got.value == pytest.approx(ref.value, rel=1e-14)

    def test_coordinate_monomial_combination(self):
        f = TruncatedSeries(dim=1, max_degree=1, coeffs={(1,): 1 + 0j})
        t, r = 0.3, 0.4
        rep = functional_E(f, r, t)
        assert rep.value == pytest.approx(t * r + (1 - t) * r * r, rel=1e-14)

    @pytest.mark.parametrize("a,t,r", [(0.9, 0.4, 0.21), (0.99, 0.7, 0.3)])
    def test_univariate_extremal_closed_form(self, a, t, r):
        f = extremal(a, 1)
        rep = functional_E(f, r, t)
        maj = a + (1 - a * a) * r / (1 - a * r)
        area = (1 - a * a) ** 2 * r * r / (1 - a * a * r * r) ** 2
        assert rep.value == pytest.approx(t * maj + (1 - t) * area, rel=1e-11)

    def test_extremal_value_tends_to_t_not_above_one(self):
        # just above the t = 0.4 cubic root the extremal family cannot break
        # the threshold: the value approaches t from below as a -> 1-
        # (oracle: 0.3998142575182275 at a = 0.999, r = root + 0.02)
        rep = functional_E(extremal(0.999, 1), 0.19128244006092804 + 0.02, t=0.4)
        assert rep.value == pytest.approx(0.3998142575182275, rel=1e-10)
        assert rep.verdict is Verdict.HOLDS


class TestRogosinskiUnivariate:
    def test_p1_around_true_crossover(self):
        # the extremal schedule first breaks this functional at
        # r = sqrt(5) - 2 ~ 0.23607 (the order-1 composition radius); the
        # quoted from-degree radius 1/3 is not a hold-below radius for it
        # (see the decisions ledger); oracles: 0.9999707922516469 at r = 0.23,
        # 1.0004249869748063 at r = 0.32
        f = extremal(0.999, 1)
        low = functional_rogosinski_uni(f, (-0.23 + 0j,), N=1)
        assert low.value == pytest.approx(0.9999707922516469, rel=1e-12)
        assert low.verdict is Verdict.HOLDS
        high = functional_rogosinski_uni(f, (-0.32 + 0j,), N=1)
        assert high.value == pytest.approx(1.0004249869748063, rel=1e-12)
        assert high.verdict is Verdict.VIOLATED

    def test_p2_oracle_values(self):
        # ((a+r)/(1+ar))^2 + (1-a^2) r/(1-ar): 0.9997794656994333 at r = 0.30,
        # 1.001234092601009 at r = 0.49 (the quoted p = 2 radius 1/2 is not a
        # hold-below radius for this family; see the decisions ledger)
        f = extremal(0.999, 1)
        low = functional_rogosinski_uni(f, (-0.30 + 0j,), N=1, p=2)
        assert low.value == pytest.approx(0.9997794656994333, rel=1e-12)
        assert low.verdict is Verdict.HOLDS
        high = functional_rogosinski_uni(f, (-0.49 + 0j,), N=1, p=2)
        assert high.value == pytest.approx(1.001234092601009, rel=1e-12)
        assert high.verdict is Verdict.VIOLATED

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_monomial_doubles(self, N):
        # f = z^N: |f| = r^N and the tail adds another r^N
        r = 0.35
        f = TruncatedSeries(dim=1, max_degree=N, coeffs={(N,): 1 + 0j})
        rep = functional_rogosinski_uni(f, (-r + 0j,), N=N)
        assert rep.value == pytest.approx(2 * r ** N, rel=1e-14)

    def test_requires_univariate(self):
        with pytest.raises(ValueError):
            functional_rogosinski_uni(extremal(0.5, 2), (0.1 + 0j, 0.1 + 0j), N=1)


class TestStructuralProperties:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_monotone_in_radius(self, seed):
        f = sample_product_spec(seed, 2, 2).series(20)
        radii = [0.02, 0.05, 0.08, 0.11, 0.14]
        omega = schwarz_power_map(2, 1)
        for make in (
            lambda r: functional_A(f, r).value,
            lambda r: functional_B(f, omega, (-r + 0j, -r + 0j), FromDegree(2)).value,
            lambda r: functional_D(f, (-r + 0j, -r + 0j), 1.0).value,
            lambda r: functional_E(f, r, 0.5).value,
        ):
            vals = [make(r) for r in radii]
            assert all(vals[i] <= vals[i + 1] + 1e-13 for i in range(len(vals) - 1))

    def test_rogosinski_structure_matches_majorant_minus_head_block(self):
        # B(p=1, N=1, identity, multiples) at the real diagonal equals
        # |f(z)| + (majorant - block_0), recomputed directly
        f = sample_product_spec(8, 2, 2).series(16)
        r = 0.1
        z = (-r + 0j, -r + 0j)
        rep = functional_B(f, schwarz_power_map(2, 1), z, MultiplesOf(1))
        from polybohr import eval_series, majorant_block_sums

        head = abs(f.closed_form(z)) if f.closed_form else abs(eval_series(f, z))
        blocks = majorant_block_sums(f)
        tail_part = sum(b * r ** k for k, b in enumerate(blocks) if k >= 1)
        assert rep.value == pytest.approx(head + tail_part, rel=1e-12)

    def test_holds_is_stable_under_refinement(self):
        # a HOLDS verdict cannot flip when K grows: the certified upper
        # bound value + tail is nonincreasing in K
        for seed in (0, 5):
            spec = sample_product_spec(seed, 2, 2)
            r = 0.15
            prev_bound = None
            for K in (6, 12, 24):
                rep = functional_A(spec.series(K), r)
                assert rep.verdict is Verdict.HOLDS
                bound = rep.value + rep.tail_bound
                if prev_bound is not None:
                    assert bound <= prev_bound + 1e-13
                prev_bound = bound

    def test_series_head_path_reports_tail(self):
        # without a closed form the composition error joins the tail bound
        f = sample_product_spec(2, 1, 2).series(10)
        bare = TruncatedSeries(dim=1, max_degree=f.max_degree,
                               coeffs=f.coeffs, tail=f.tail)
        rep = functional_B(bare, schwarz_power_map(1, 1), (0.3 + 0j,),
                           FromDegree(1))
        assert "series" in rep.detail
        withcf = functional_B(f, schwarz_power_map(1, 1), (0.3 + 0j,),
                              FromDegree(1))
        assert "closed-form" in withcf.detail
        assert rep.tail_bound >= withcf.tail_bound
