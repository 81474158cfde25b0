"""Radius solvers: closed forms, exact factorizations, bracket contracts,
and agreement with an independent root finder."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from scipy.optimize import brentq

from polybohr import (
    AN,
    AreaT,
    Classical,
    ConvexMNT,
    ConvexT,
    EulerLambda,
    ExtremalSpec,
    NoSignChangeError,
    RmN,
    RmnN,
    RogosinskiUni,
    bracketed_bisection,
    extremal_series,
    limit_sweep_m,
    limit_sweep_N,
    min_positive_root,
    sample_product_spec,
    solve,
)
from polybohr.radii import FAMILIES

SQRT2M1 = math.sqrt(2.0) - 1.0


class TestBisection:
    def test_simple_linear(self):
        # the first midpoint is an exact zero, so the bracket shrinks onto it
        assert bracketed_bisection(lambda x: x - 0.5, 0.0, 1.0) == (0.5, 0.5, 0.5)

    @pytest.mark.parametrize("g,root", [(lambda x: x, 0.0), (lambda x: x - 1.0, 1.0)],
                             ids=["low-end", "high-end"])
    def test_exact_zero_at_an_end_is_a_zero_width_bracket(self, g, root):
        assert bracketed_bisection(g, 0.0, 1.0) == (root, root, root)

    @pytest.mark.parametrize("family", [
        RogosinskiUni(N=1, p=2), AN(n=2, N=2), ConvexMNT(m=1, n=2, t=0.75),
    ])
    def test_exact_zero_prints_a_zero_width_bracket(self, family):
        # 2r^2 + r - 1, 2x^2 + x - 1 and the scan's grid point x = 1/2 are
        # exact zeros at x = 1/2
        res = solve(family)
        assert res.radius_x == 0.5
        assert res.bracket == (0.5, 0.5)

    def test_euler_quartic_against_tighter_oracle(self):
        g = lambda x: x ** 4 + x ** 3 + 3 * x - 1
        root, _, _ = bracketed_bisection(g, 0.0, SQRT2M1)
        oracle = brentq(g, 0.0, SQRT2M1, xtol=1e-15)
        assert root == pytest.approx(oracle, abs=1e-13)
        assert root == pytest.approx(0.31916, abs=5e-4)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            bracketed_bisection(lambda x: x * x, 0.1, 1.0)

    def test_interval_width_contract(self):
        g = lambda x: math.cos(x) - x
        root, lo, hi = bracketed_bisection(g, 0.0, 1.0)
        assert hi - lo <= 1e-14

    def test_tiny_values_keep_their_signs(self):
        # g(lo) * g(mid) underflows to -0.0, which a product test reads as
        # "no sign change" on every step
        root, lo, hi = bracketed_bisection(lambda x: 1e-200 * (x - 0.3), 0.0, 1.0)
        assert root == pytest.approx(0.3, abs=1e-13)
        assert lo <= 0.3 <= hi

    @pytest.mark.parametrize("g,named", [
        (lambda x: math.nan, "g(0.0) = nan"),
        (lambda x: math.nan if x == 0.0 else x - 1.0, "g(0.0) = nan"),
        (lambda x: math.nan if x == 1.0 else x - 0.5, "g(1.0) = nan"),
        (lambda x: math.nan if x == 0.5 else x - 0.3, "g(0.5) is NaN"),
    ], ids=["everywhere", "low-end-root-at-high-end", "high-end", "midpoint"])
    def test_nan_raises_naming_the_point(self, g, named):
        # a NaN has no sign, so no root can be bracketed by it
        with pytest.raises(NoSignChangeError) as err:
            bracketed_bisection(g, 0.0, 1.0)
        assert named in str(err.value)


class TestMinPositiveRoot:
    def test_two_root_synthetic(self):
        root, _, _, note = min_positive_root(lambda x: (x - 0.2) * (x - 0.4), 1.0)
        assert root == pytest.approx(0.2, abs=1e-12)
        assert "additional sign change" in note

    def test_single_root_notes_absence(self):
        root, _, _, note = min_positive_root(lambda x: 0.3 - x, 1.0)
        assert root == pytest.approx(0.3, abs=1e-12)
        assert "no further sign changes" in note

    def test_tiny_values_keep_their_signs(self):
        # the root is off the scan grid, so no exact zero stands in for the
        # underflowing products
        root, lo, hi, _ = min_positive_root(lambda x: 1e-200 * (x - 1 / 3), 1.0)
        assert root == pytest.approx(1 / 3, abs=1e-13)
        assert lo <= 1 / 3 <= hi

    def test_no_sign_change_reports_grid(self):
        with pytest.raises(NoSignChangeError) as err:
            min_positive_root(lambda x: 1.0 + x * x, 1.0)
        assert "10000 points" in str(err.value)

    def test_tiny_values_without_a_root_are_no_boundary_root(self):
        # only an exact zero at the high end is tagged, not a small value
        with pytest.raises(NoSignChangeError) as err:
            min_positive_root(lambda x: 1e-20 * (1.0 + x), 1.0)
        assert "boundary root" not in str(err.value)


class TestClosedForms:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_classical(self, n):
        res = solve(Classical(n))
        assert res.radius_r == 1.0 / (3.0 * n)
        assert abs(res.radius_x * 3.0 - 1.0) < 1e-15

    def test_classical_scaling_consistency(self):
        base = solve(Classical(1)).radius_r
        for n in range(1, 17):
            assert solve(Classical(n)).radius_r * n == pytest.approx(base, abs=1e-15)

    def test_convex_t_endpoints(self):
        assert solve(ConvexT(0.0)).radius_r == 1.0 / 3.0  # (1-2)/(-3), exact
        assert solve(ConvexT(1.0)).radius_r == pytest.approx(1.0)
        assert solve(ConvexT(0.75)).radius_r == 0.5

    def test_convex_t_continuity_at_three_quarters(self):
        for t in (0.75 - 1e-6, 0.75 + 1e-6):
            assert abs(solve(ConvexT(t)).radius_r - 0.5) < 1e-4

    def test_convex_t_half(self):
        assert solve(ConvexT(0.5)).radius_r == pytest.approx(math.sqrt(2) - 1, abs=1e-14)

    def test_convex_t_is_accurate_near_three_quarters(self):
        # 1/(1 + 2 sqrt(1-t)) to 50 digits as the reference; the equal form
        # (1 - 2 sqrt(1-t))/(4t - 3) cancels near t = 3/4
        ts = ([k / 400 for k in range(401)]
              + [0.75 + s * j * 1e-9 for j in range(1, 51) for s in (1, -1)]
              + [0.75 + s * 10.0 ** -e for e in range(2, 12) for s in (1, -1)])
        with localcontext() as ctx:
            ctx.prec = 50
            for t in ts:
                exact = 1 / (1 + 2 * (1 - Decimal(t)).sqrt())
                got = Decimal(solve(ConvexT(t)).radius_r)
                assert abs(got - exact) <= Decimal(4 * 2.0 ** -53) * exact, t

    def test_convex_t_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ConvexT(1.5)
        with pytest.raises(ValueError):
            ConvexT(-0.1)


class TestRogosinskiFamilies:
    def test_exact_quadratic_factorizations(self):
        # p=1, N=1: 3r^2 + 2r - 1 = (3r - 1)(r + 1); p=2: 2r^2 + r - 1
        assert solve(RogosinskiUni(N=1, p=1)).radius_r == pytest.approx(1 / 3, abs=1e-12)
        assert solve(RogosinskiUni(N=1, p=2)).radius_r == pytest.approx(1 / 2, abs=1e-12)

    def test_rmn_surd(self):
        # m = 1, N = 1: r^2 + 4r - 1 = 0, root sqrt(5) - 2
        res = solve(RmN(m=1, N=1))
        assert res.radius_r == pytest.approx(math.sqrt(5) - 2, abs=1e-13)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_rmnn_in_one_dimension_is_rmn_bit_for_bit(self, m):
        # RmnN extends RmN by the dimension; at n = 1 both must give the
        # same radius, bracket, residual and functional, to the last bit
        for N in range(1, 6):
            uni, poly = solve(RmN(m=m, N=N)), solve(RmnN(m=m, n=1, N=N))
            assert [x.hex() for x in (uni.radius_r, uni.radius_x, uni.residual, *uni.bracket)] \
                == [x.hex() for x in (poly.radius_r, poly.radius_x, poly.residual, *poly.bracket)]
            assert uni.multiplicity_note == poly.multiplicity_note
            for seed in range(5):
                f = sample_product_spec(100 * m + 10 * N + seed, 1, 3).series(12)
                a = RmN(m=m, N=N).functional(f, uni.radius_r)
                b = RmnN(m=m, n=1, N=N).functional(f, uni.radius_r)
                assert (a.value.hex(), a.tail_bound.hex(), a.verdict, a.detail) \
                    == (b.value.hex(), b.tail_bound.hex(), b.verdict, b.detail)

    @pytest.mark.parametrize("N,p", [(1, 1), (2, 2), (4, 1)])
    @pytest.mark.parametrize("a", [0.3, 0.9])
    def test_rogosinski_functional_on_the_extremal_function(self, N, p, a):
        # f_a(-r) = (a + r)/(1 + a r), and f_a's coefficients from degree N
        # majorize to (1 - a^2) a^{N-1} r^N/(1 - a r)
        family = RogosinskiUni(N=N, p=p)
        r = solve(family).radius_r
        exact = (((a + r) / (1 + a * r)) ** p
                 + (1 - a * a) * a ** (N - 1) * r ** N / (1 - a * r))
        rep = family.functional(extremal_series(ExtremalSpec(a, 1), 60), r)
        assert rep.value <= exact * (1 + 1e-12)
        assert exact <= (rep.value + rep.tail_bound) * (1 + 1e-12)

    @pytest.mark.parametrize("family", [
        RogosinskiUni(N=3, p=1), RmN(m=2, N=2), RmnN(m=2, n=2, N=2),
        AN(n=2, N=4), EulerLambda(n=1, lam=0.8), AreaT(n=1, t=0.3),
    ])
    def test_agreement_with_brentq(self, family):
        res = solve(family)
        lo, hi = res.bracket
        span = hi - lo
        oracle = brentq(family.poly, max(lo - 10 * span, 1e-9), hi + 10 * span,
                        xtol=1e-15)
        solved = res.radius_x if res.radius_x != res.radius_r else res.radius_r
        # compare in the family's solve variable
        var = res.radius_r if isinstance(family, (RogosinskiUni, RmN, RmnN)) else res.radius_x
        assert var == pytest.approx(oracle, abs=1e-12)

    def test_an_limits(self):
        assert solve(AN(n=1, N=1)).radius_x == pytest.approx(1 / 3, abs=1e-12)
        assert solve(AN(n=1, N=2)).radius_x == pytest.approx(1 / 2, abs=1e-12)
        # radius_r rescales by the dimension
        assert solve(AN(n=4, N=2)).radius_r == pytest.approx(1 / 8, abs=1e-12)


class TestPolyEval:
    def test_euler_constant_term(self):
        assert EulerLambda(n=1, lam=0.3).poly(0.0) == -1.0

    def test_composition_value_at_one_third(self):
        # 2*(1/3)*(4/3) - (2/3)^2 = 4/9 by rational arithmetic
        got = RmnN(m=1, n=1, N=1).poly(1.0 / 3.0)
        assert got == pytest.approx(4.0 / 9.0, rel=1e-14)

    def test_area_cubic_vanishes_at_exact_parameter(self):
        # 9x^3 + 9x^2 + 23x - 9 at x = 1/3 is zero: scaled by 17/27 the
        # cubic value is (36 - 68 t)/27
        got = AreaT(n=1, t=9.0 / 17.0).poly(1.0 / 3.0)
        assert abs(got) < 1e-14

    def test_bracket_sign_conditions(self):
        # low end negative, high end positive, as the monotonicity arguments use
        assert RmnN(m=2, n=3, N=2).poly(0.0) == -1.0
        assert RmnN(m=2, n=3, N=2).poly(1.0 / 3.0) > 0.0
        assert EulerLambda(n=1, lam=2.0).poly(0.0) == -1.0
        assert EulerLambda(n=1, lam=2.0).poly(SQRT2M1) > 0.0
        assert AN(n=1, N=5).poly(0.0) == -1.0
        assert AN(n=1, N=5).poly(1.0) > 0.0


class TestEulerQuartics:
    def test_low_lambda_branch_value(self):
        res = solve(EulerLambda(n=1, lam=0.5))
        assert abs(res.radius_x - 0.3191) < 1e-3
        assert res.residual < 1e-12

    @pytest.mark.parametrize("lam", [0.6, 1.0, 5.0])
    def test_high_lambda_branch_in_bracket(self, lam):
        res = solve(EulerLambda(n=1, lam=lam))
        assert 0.0 < res.radius_x < SQRT2M1
        assert res.residual < 1e-12

    def test_lambda_below_half_shares_root(self):
        # the branch for every lambda <= 1/2 solves the same quartic
        assert solve(EulerLambda(n=1, lam=0.1)).radius_x == \
            solve(EulerLambda(n=1, lam=0.5)).radius_x

    def test_dimension_rescale(self):
        res = solve(EulerLambda(n=3, lam=0.5))
        assert res.radius_r == pytest.approx(res.radius_x / 3.0, abs=1e-15)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            EulerLambda(n=1, lam=0.0)


def exact_convex_mnt_root(m: int, n: int, t: float) -> float:
    """Smallest positive root of ConvexMNT's equation written out over the
    rationals, t read as its binary64 value: the first sign change on a 1/256
    grid of (0, 1], then 60 bisections decided by exact signs."""
    t, scale = Fraction(t), n ** (m - 1)

    def p(x: Fraction) -> Fraction:
        return ((4 * t - 3) * x ** (m + 1) - (2 * t - 1) * x ** m
                + (2 * t - 3) * scale * x + scale)

    hi = next(Fraction(k, 256) for k in range(1, 257) if p(Fraction(k, 256)) <= 0)
    lo = hi - Fraction(1, 256)  # p(0) = n^(m-1) > 0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if p(mid) <= 0 else (mid, hi)
    return float(hi)


class TestConvexMNT:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_t_zero_factorization(self, m, n):
        # (4t-3)x^{m+1} - (2t-1)x^m + (2t-3)n^{m-1}x + n^{m-1} at t = 0
        # factors as (1 - 3x)(x^m + n^{m-1})
        res = solve(ConvexMNT(m=m, n=n, t=0.0))
        assert abs(res.radius_x - 1.0 / 3.0) < 1e-10
        assert res.residual < 1e-12
        assert "no further sign changes" in res.multiplicity_note

    def test_degenerate_t_one_boundary_root(self):
        # m = n = 1, t = 1: the polynomial is (x - 1)^2, no interior crossing
        with pytest.raises(NoSignChangeError) as err:
            solve(ConvexMNT(m=1, n=1, t=1.0))
        assert "boundary root" in str(err.value)

    def test_m_n_one_is_convex_t(self):
        # ConvexMNT extends ConvexT: at m = n = 1 its scanned root is the
        # closed form, and both run the one functional, to the last bit
        series = [sample_product_spec(7, 1, 3).series(12),
                  extremal_series(ExtremalSpec(0.9, 1), 40)]
        rootless = []
        for t in (k / 40 for k in range(41)):
            try:
                scanned = solve(ConvexMNT(m=1, n=1, t=t)).radius_r
            except NoSignChangeError:
                rootless.append(t)
                continue
            radius = solve(ConvexT(t)).radius_r
            assert abs(scanned - radius) <= 1e-13
            for f in series:
                a = ConvexT(t).functional(f, 0.99 * radius)
                b = ConvexMNT(m=1, n=1, t=t).functional(f, 0.99 * radius)
                assert (a.value.hex(), a.tail_bound.hex(), a.verdict) \
                    == (b.value.hex(), b.tail_bound.hex(), b.verdict)
        assert rootless == [1.0]  # the boundary double root above

    @pytest.mark.parametrize("m,n,t", [(1, 1, 0.5), (2, 2, 0.3), (3, 2, 0.8)])
    @pytest.mark.parametrize("a", [0.3, 0.9])
    def test_functional_on_the_extremal_function(self, m, n, t, a):
        # f_a(z) = (a - s)/(1 - a s) with s = z_1 + ... + z_n: at the branch
        # diagonal omega(z) has s = -n r^m, and f_a's majorant at r is
        # a + (1 - a^2) n r/(1 - a n r)
        family = ConvexMNT(m=m, n=n, t=t)
        r = solve(family).radius_r
        exact = (t * (a + n * r ** m) / (1 + a * n * r ** m)
                 + (1 - t) * (a + (1 - a * a) * n * r / (1 - a * n * r)))
        rep = family.functional(extremal_series(ExtremalSpec(a, n), 60), r)
        assert rep.value <= exact * (1 + 1e-12)
        assert exact <= (rep.value + rep.tail_bound) * (1 + 1e-12)

    def test_interior_parameter(self):
        res = solve(ConvexMNT(m=2, n=2, t=0.5))
        assert res.residual < 1e-12
        assert 0.0 < res.radius_x < 1.0

    @pytest.mark.parametrize("m,n,t", [(2, 3, 0.5), (3, 3, 0.45), (3, 2, 0.8), (2, 2, 0.5)])
    def test_against_an_exact_smallest_root(self, m, n, t):
        # at n >= 2 this sees the scale n^(m-1), which t = 0 and n = 1 cannot
        exact = exact_convex_mnt_root(m, n, t)
        assert solve(ConvexMNT(m=m, n=n, t=t)).radius_x == pytest.approx(exact, abs=1e-12)

    def test_exact_root_reference_value(self):
        assert exact_convex_mnt_root(2, 3, 0.5) == pytest.approx(0.4814056, abs=1e-7)


class TestAreaFamily:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_threshold_parameter_gives_exact_third(self, n):
        res = solve(AreaT(n=n, t=9.0 / 17.0))
        assert abs(res.radius_x - 1.0 / 3.0) < 1e-10

    def test_piecewise_continuity_near_threshold(self):
        # implicit differentiation at the junction gives droot/dt = 1156/864
        # ~ 1.338, so the branches differ by ~1.34e-6 at t -= 1e-6
        left = solve(AreaT(n=1, t=9.0 / 17.0 - 1e-6)).radius_x
        right = solve(AreaT(n=1, t=9.0 / 17.0 + 1e-6)).radius_x
        assert right == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert abs(left - right) == pytest.approx(1156.0 / 864.0 * 1e-6, rel=1e-2)

    def test_cubic_branch_below_third(self):
        res = solve(AreaT(n=1, t=0.4))
        assert 0.0 < res.radius_x < 1.0 / 3.0
        assert res.residual < 1e-12

    def test_clamped_branch(self):
        res = solve(AreaT(n=2, t=0.8))
        assert res.radius_x == 1.0 / 3.0
        assert res.radius_r == pytest.approx(1.0 / 6.0, abs=1e-15)


class TestSweeps:
    def test_sweep_n_strictly_increasing(self):
        sweep = limit_sweep_N(1, 1, list(range(1, 13)))
        radii = [res.radius_r for res in sweep]
        assert all(radii[i] < radii[i + 1] for i in range(len(radii) - 1))
        assert radii[0] == pytest.approx(math.sqrt(5) - 2, abs=1e-12)

    def test_sweep_n_dimension_two_toward_half(self):
        sweep = limit_sweep_N(1, 2, [1, 2, 5, 10, 40, 100, 200])
        xs = [res.radius_x for res in sweep]
        assert all(xs[i] < xs[i + 1] for i in range(len(xs) - 1))
        assert xs[-1] > 0.97
        assert all(res.radius_r < 0.5 for res in sweep)

    def test_sweep_m_approaches_large_m_limit(self):
        target = solve(AN(n=1, N=1)).radius_x
        sweep = limit_sweep_m(1, 1, [1, 2, 5, 20, 100])
        gaps = [abs(res.radius_x - target) for res in sweep]
        assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
        assert gaps[-1] < 1e-3

    def test_rejects_unsorted_lists(self):
        with pytest.raises(ValueError):
            limit_sweep_N(1, 1, [3, 2])

    def test_rejects_empty_lists(self):
        with pytest.raises(ValueError, match="^N_list must not be empty$"):
            limit_sweep_N(1, 1, [])
        with pytest.raises(ValueError, match="^m_list must not be empty$"):
            limit_sweep_m(1, 1, [])

    def test_ascending_message_names_the_list(self):
        with pytest.raises(ValueError, match="^N_list must be strictly ascending$"):
            limit_sweep_N(1, 1, [1, 1])
        with pytest.raises(ValueError, match="^m_list must be strictly ascending$"):
            limit_sweep_m(1, 1, [2, 1])


class TestResidualGate:
    @pytest.mark.parametrize("family", [
        RogosinskiUni(N=1, p=1), RogosinskiUni(N=4, p=2), RmN(m=3, N=2),
        RmnN(m=1, n=2, N=200), AN(n=3, N=7), EulerLambda(n=2, lam=1.0),
        AreaT(n=2, t=0.25), ConvexMNT(m=2, n=3, t=0.6),
    ])
    def test_every_iterative_result_meets_gate(self, family):
        res = solve(family)
        assert res.residual < 1e-12
        lo, hi = res.bracket
        assert lo < (res.radius_r if isinstance(
            family, (RogosinskiUni, RmN, RmnN)) else res.radius_x) <= hi


# Valid fields of every family, by its --family name
VALID_FIELDS = {
    "classical": dict(n=2), "rogosinski": dict(N=2, p=1), "rmn": dict(m=2, N=3),
    "rmnn": dict(m=2, n=2, N=2), "an": dict(n=2, N=3), "convext": dict(t=0.5),
    "convexmnt": dict(m=2, n=1, t=0.5), "euler": dict(n=2, lam=0.5), "area": dict(n=1, t=0.4),
}
INTEGER_FIELDS = [(name, k) for name, cls in FAMILIES.items()
                  for k in cls.__match_args__ if k in ("m", "n", "N")]


class TestIntegerRule:
    def test_every_family_has_valid_fields(self):
        assert set(VALID_FIELDS) == set(FAMILIES)
        for name, cls in FAMILIES.items():
            cls(**VALID_FIELDS[name])

    @pytest.mark.parametrize("name,field", INTEGER_FIELDS,
                             ids=[f"{name}-{field}" for name, field in INTEGER_FIELDS])
    def test_zero_is_rejected_with_the_one_message(self, name, field):
        # one rule in RadiusFamily names every m, n and N the family has, in
        # field order, as the pinned rmn and rmnn usage records print it
        fields = VALID_FIELDS[name] | {field: 0}
        names = [k for k in FAMILIES[name].__match_args__ if k in ("m", "n", "N")]
        got = ", ".join(f"{k}={fields[k]}" for k in names)
        with pytest.raises(ValueError, match=f"^{', '.join(names)} must be >= 1, got {got}$"):
            FAMILIES[name](**fields)
