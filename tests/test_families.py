"""Extremal family, Blaschke-product samples, and Schwarz maps."""

import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from polybohr import (
    BlaschkeFactor,
    CapacityError,
    ExtremalSpec,
    Lcg64,
    ProductFunctionSpec,
    eval_schwarz,
    eval_series,
    extremal_closed_eval,
    extremal_series,
    inf_norm,
    majorant_block_sums,
    sample_product_spec,
    sample_schwarz_map,
    schwarz_power_map,
)
from polybohr import families


class TestExtremalSeries:
    def test_a_zero_is_minus_coordinate_sum(self):
        f = extremal_series(ExtremalSpec(0.0, 2), 5)
        nonzero = {a: c for a, c in f.coeffs.items() if c != 0}
        assert nonzero == {(1, 0): -1 + 0j, (0, 1): -1 + 0j}
        assert f.tail is None

    def test_univariate_cubic_coefficient(self):
        # long-division oracle for (a - z)/(1 - a z): c_0 = a,
        # c_k = -(1 - a^2) a^{k-1}
        a = 0.5
        f = extremal_series(ExtremalSpec(a, 1), 5)
        remainder = [a, -1.0]  # numerator coefficients
        quotient = []
        for _ in range(6):
            q = remainder[0]
            quotient.append(q)
            # subtract q * (1 - a z), shift down
            remainder = [remainder[1] + q * a if len(remainder) > 1 else q * a]
            remainder.append(0.0)
        for k, expected in enumerate(quotient):
            assert f.coeffs.get((k,), 0j).real == pytest.approx(expected, abs=1e-15)
        assert f.coeffs.get((3,), 0j) == pytest.approx(-0.1875)

    @pytest.mark.parametrize("a,n", [(0.3, 1), (0.5, 2), (0.9, 3)])
    def test_blocks_match_formula(self, a, n):
        f = extremal_series(ExtremalSpec(a, n), 6)
        blocks = majorant_block_sums(f)
        assert blocks[0] == pytest.approx(a)
        for k in range(1, 7):
            assert blocks[k] == pytest.approx(
                (1 - a * a) * a ** (k - 1) * n ** k, rel=1e-12)

    def test_tail_is_exact_for_extremal_blocks(self):
        # the certified bound C q^k equals the true block for every k > K
        a, n, K = 0.7, 2, 9
        coarse = extremal_series(ExtremalSpec(a, n), K)
        fine = extremal_series(ExtremalSpec(a, n), 2 * K)
        blocks = majorant_block_sums(fine)
        for k in range(K + 1, 2 * K + 1):
            certified = coarse.tail.C * coarse.tail.q ** k
            assert blocks[k] <= certified * (1 + 1e-12)
            assert blocks[k] == pytest.approx(certified, rel=1e-12)

    def test_series_approaches_closed_form_as_k_grows(self):
        spec = ExtremalSpec(0.8, 2)
        z = (0.05 + 0.02j, -0.04 + 0.01j)
        exact = extremal_closed_eval(spec, z)
        prev_err = None
        for K in (4, 8, 16, 32):
            f = extremal_series(spec, K)
            err = abs(eval_series(f, z) - exact)
            assert err <= f.tail_sum(inf_norm(z)) + 1e-15
            if prev_err is not None:
                assert err <= prev_err
            prev_err = err


    def test_multinomial_cap_is_checked_before_any_block(self, monkeypatch):
        def refuse(n, k):
            raise AssertionError("a block was built before the degree check")

        monkeypatch.setattr(families, "colex_multinomials", refuse)
        with pytest.raises(CapacityError,
                           match="^degree 61 exceeds the multinomial cap 60$"):
            extremal_series(ExtremalSpec(0.5, 4), 100)

    def test_a_zero_support_is_checked(self):
        with pytest.raises(CapacityError, match="exceeds the capacity cap"):
            extremal_series(ExtremalSpec(0.0, 1), 10 ** 9)
        with pytest.raises(CapacityError, match="exceeds the capacity cap"):
            extremal_series(ExtremalSpec(0.0, 4), 200)


class TestExtremalClosedEval:
    def test_at_origin(self):
        assert extremal_closed_eval(ExtremalSpec(0.7, 3), (0j, 0j, 0j)) == 0.7

    def test_rational_point(self):
        got = extremal_closed_eval(ExtremalSpec(0.5, 2), (0.1 + 0j, 0.1 + 0j))
        assert got == pytest.approx(1.0 / 3.0, rel=1e-15)

    @given(rho=st.floats(0.0, 1.0), phi=st.floats(0.0, 2 * math.pi),
           a=st.floats(0.0, 0.99))
    @settings(max_examples=200)
    def test_moebius_self_map(self, rho, phi, a):
        # |(a - s)/(1 - a s)| <= 1 whenever |s| <= 1
        s = rho * cmath.exp(1j * phi)
        if abs(1 - a * s) < 1e-14:
            return
        got = extremal_closed_eval(ExtremalSpec(a, 1), (s,))
        assert abs(got) <= 1 + 1e-12

    def test_pole_proximity(self):
        with pytest.raises(ValueError):
            extremal_closed_eval(ExtremalSpec(0.5, 1), (2.0 + 0j,))


class TestBlaschkeFactor:
    def test_rejects_pole_on_boundary(self):
        with pytest.raises(ValueError):
            BlaschkeFactor(1.0 + 0j)

    @given(rho=st.floats(0.0, 0.9), phi=st.floats(0.0, 2 * math.pi),
           zr=st.floats(0.0, 0.95), zp=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=200)
    def test_series_matches_closed_form(self, rho, phi, zr, zp):
        w = rho * cmath.exp(1j * phi)
        z = zr * cmath.exp(1j * zp)
        factor = BlaschkeFactor(w)
        K = 40
        coeffs = factor.multiply([1 + 0j] + [0j] * K)
        series_val = sum(c * z ** k for k, c in enumerate(coeffs))
        tail = sum(abs(c) for c in factor.multiply([1 + 0j] + [0j] * 80)[K + 1:]) * 2
        # geometric remainder: |c_k| = (1-|w|^2)|w|^{k-1}
        rem = (1 - rho * rho) * rho ** K * zr ** (K + 1) / (1 - rho * zr) if rho * zr < 1 else tail
        assert abs(series_val - factor.eval(z)) <= rem + 1e-12

    def test_derivative_finite_difference(self):
        factor = BlaschkeFactor(0.4 - 0.2j)
        z, h = 0.3 + 0.1j, 1e-6
        fd = (factor.eval(z + h) - factor.eval(z - h)) / (2 * h)
        assert abs(factor.deriv(z) - fd) < 1e-8


class TestSampledFunctions:
    def test_zero_factors_is_unimodular_constant(self):
        f = sample_product_spec(seed=5, n=2, factors_per_coordinate=0).series(4)
        assert set(f.coeffs) == {(0, 0)}
        assert abs(f.coeffs[(0, 0)]) == pytest.approx(1.0, abs=1e-15)
        assert f.tail is None

    def test_empty_product_is_rejected(self):
        # no coordinate lists means dimension 0, which has no series
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            ProductFunctionSpec(factors=())

    def test_single_factor_with_zero_pole_is_rotation_of_z(self):
        factor = BlaschkeFactor(0j)
        assert factor.multiply([1 + 0j, 0j, 0j, 0j]) == [0j, -1 + 0j, 0j, 0j]

    def test_convolution_work_is_capped_before_any_coefficient(self, monkeypatch):
        spec = sample_product_spec(seed=1, n=1, factors_per_coordinate=3)
        assert spec.series(5000).max_degree == 5000  # 15,003 multiply-adds

        def refuse(*args):
            raise AssertionError("a coefficient was computed before the capacity check")

        monkeypatch.setattr(BlaschkeFactor, "multiply", refuse)
        monkeypatch.setattr(families, "_convolve_degrees", refuse)
        # 3 factor recurrences at K = 4,000,000 take 12,000,003 multiply-adds
        with pytest.raises(CapacityError, match="^12000003 factor and convolution"):
            spec.series(4_000_000)
        # at n = 2, K = 4000 the support C(4002, 2) = 8,006,001 is under the
        # cap, but the two degree convolutions take 4001 * 4002 multiply-adds
        with pytest.raises(CapacityError, match="^16020004 factor and convolution"):
            sample_product_spec(seed=1, n=2, factors_per_coordinate=1).series(4000)

    def test_deterministic_in_seed(self):
        f = sample_product_spec(seed=42, n=2, factors_per_coordinate=2).series(6)
        g = sample_product_spec(seed=42, n=2, factors_per_coordinate=2).series(6)
        assert f.coeffs == g.coeffs
        h = sample_product_spec(seed=43, n=2, factors_per_coordinate=2).series(6)
        assert f.coeffs != h.coeffs

    def test_larger_truncation_refines_same_function(self):
        f = sample_product_spec(seed=9, n=2, factors_per_coordinate=2).series(4)
        g = sample_product_spec(seed=9, n=2, factors_per_coordinate=2).series(8)
        for alpha, c in f.coeffs.items():
            assert g.coeffs.get(alpha, 0j) == c

    def test_boundedness_certificate(self):
        # a thousand points with inf-norm <= 0.99 across several samples
        rng = Lcg64(2024)
        for seed in range(5):
            spec = sample_product_spec(seed, 2, 3)
            for _ in range(200):
                z = tuple(rng.uniform(0, 0.99) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                          for _ in range(2))
                assert abs(spec.eval(z)) <= 1 + 1e-12

    def test_coefficient_bound_of_bounded_functions(self):
        # |a_alpha| <= 1 - |a_0|^2 for unit-bounded functions; checked on
        # every sampled coefficient, not assumed
        for seed in range(8):
            f = sample_product_spec(seed, 2, 2).series(10)
            a0 = abs(f.coeffs.get((0, 0), 0j))
            cap = 1 - a0 * a0
            for alpha, c in f.coeffs.items():
                if sum(alpha) >= 1:
                    assert abs(c) <= cap + 1e-12

    def test_growth_bound_at_sampled_points(self):
        # |f(z)| <= (|f(0)| + r)/(1 + |f(0)| r) on the polydisc
        rng = Lcg64(77)
        for seed in range(6):
            spec = sample_product_spec(seed, 3, 2)
            a0 = abs(spec.eval((0j, 0j, 0j)))
            for _ in range(100):
                z = tuple(rng.uniform(0, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                          for _ in range(3))
                r = inf_norm(z)
                assert abs(spec.eval(z)) <= (a0 + r) / (1 + a0 * r) + 1e-12

    def test_tail_certificate_covers_discarded_blocks(self):
        # blocks K+1..2K of the finer truncation obey the coarser certificate
        for seed in (1, 2, 3):
            spec = sample_product_spec(seed, 2, 2)
            coarse, fine = spec.series(6), spec.series(12)
            blocks = majorant_block_sums(fine)
            for k in range(7, 13):
                assert blocks[k] <= coarse.tail.C * coarse.tail.q ** k + 1e-12

    def test_euler_eval_matches_series(self):
        from polybohr import euler_derivative

        spec = sample_product_spec(17, 2, 2)
        f = spec.series(24)
        z = (0.1 + 0.05j, -0.08 + 0.02j)
        series_val = eval_series(euler_derivative(f), z)
        exact = spec.euler_eval(z)
        assert abs(series_val - exact) <= euler_derivative(f).tail_sum(inf_norm(z)) + 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("factors", [0, 1, 3])
    def test_euler_eval_is_the_derivative_of_t_to_f_of_tz(self, n, factors):
        # independent reference: d/dt f(t z) at t = 1, by mpmath at 40
        # digits on the product itself, at two points and at one where a
        # coordinate equals a pole parameter, so that its factor vanishes
        mp = mpmath.mp.clone()
        mp.dps = 40
        for seed in range(4):
            spec = sample_product_spec(seed + 10 * n + 100 * factors, n, factors)
            rng = Lcg64(seed)
            points = [tuple(rng.uniform(0, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                            for _ in range(n)) for _ in range(2)]
            if factors:
                points.append((spec.factors[0][-1].w,) + points[0][1:])
            for z in points:
                def g(t):
                    value = mp.expj(spec.phase)
                    for zi, facs in zip(z, spec.factors):
                        for b in facs:
                            w = mp.mpc(b.w)
                            value *= (w - t * zi) / (1 - mp.conj(w) * t * zi)
                    return value
                ref = complex(mp.diff(g, 1))
                got = spec.euler_eval(z)
                assert abs(got - ref) <= 1e-13 * abs(ref) if ref else got == 0


class TestSchwarzMaps:
    def test_power_map_identity(self):
        omega = schwarz_power_map(2, 1)
        z = (0.3 + 0.1j, -0.2 + 0j)
        assert eval_schwarz(omega, z) == z

    def test_power_map_squares(self):
        omega = schwarz_power_map(2, 2)
        got = eval_schwarz(omega, (0.2 + 0j, -0.3 + 0j))
        assert got[0] == pytest.approx(0.04)
        assert got[1] == pytest.approx(0.09)

    def test_origin_fixed(self):
        omega = sample_schwarz_map(3, 2, m=2)
        assert eval_schwarz(omega, (0j, 0j)) == (0j, 0j)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_contraction_order(self, m):
        # |omega_i(w)| <= |w|^m, dense sampling up to |w| = 0.99
        omega = sample_schwarz_map(11, 1, m=m, factors_per_coordinate=1)
        rng = Lcg64(5)
        for _ in range(400):
            rho = rng.uniform(0, 0.99)
            w = rho * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert abs(omega.component(0, w)) <= rho ** m + 1e-12

    def test_eval_schwarz_norm_bound(self):
        omega = sample_schwarz_map(23, 3, m=2, factors_per_coordinate=2)
        rng = Lcg64(6)
        for _ in range(200):
            z = tuple(rng.uniform(0, 0.8) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                      for _ in range(3))
            assert inf_norm(eval_schwarz(omega, z)) <= inf_norm(z) ** 2 + 1e-12

    def test_rejects_points_outside_polydisc(self):
        omega = schwarz_power_map(1, 1)
        with pytest.raises(ValueError):
            eval_schwarz(omega, (1.2 + 0j,))

    def test_rejects_points_on_the_boundary(self):
        # the polydisc is open: an inf-norm of exactly 1 is outside it
        omega = schwarz_power_map(2, 1)
        for z in ((1.0 + 0j, 0.5 + 0j), (0.3 + 0j, -1j)):
            with pytest.raises(ValueError, match="open unit polydisc"):
                eval_schwarz(omega, z)


class TestLcg64:
    def test_fixed_constants_stream(self):
        # the documented constants pin the stream; freeze the first values
        rng = Lcg64(0)
        first = [rng.next_u64() for _ in range(3)]
        rng2 = Lcg64(0)
        assert [rng2.next_u64() for _ in range(3)] == first

    def test_uniform_in_range(self):
        rng = Lcg64(123)
        vals = [rng.uniform(-1.0, 2.0) for _ in range(1000)]
        assert all(-1.0 <= v < 2.0 for v in vals)
        assert min(vals) < -0.5 and max(vals) > 1.5
