"""Suite machinery: hold-below, sharpness-above, audits, escalation."""

import math

import pytest

from polybohr import (
    AreaT,
    Classical,
    ConvexT,
    EulerLambda,
    FromDegree,
    MultiplesOf,
    RmnN,
    RogosinskiUni,
    SuiteConfig,
    audit_lemmas,
    check_holds_below,
    check_sharpness_above,
    euler_closed_form_check,
    functional_B,
    schwarz_power_map,
)
from polybohr import verify
from polybohr.families import sample_product_spec
from polybohr.radii import RadiusResult, branch_diagonal, solve
from polybohr.series import DivergentTailError
from polybohr.verify import case_seed


class TestDesignatedPoints:
    def test_order_one_is_negative_diagonal(self):
        z = branch_diagonal(2, 1, 0.3)
        assert z == (-0.3 + 0j, -0.3 + 0j)

    def test_order_two_phase(self):
        # exp(i pi 3/2) = -i
        z = branch_diagonal(1, 2, 0.5)
        assert z[0].real == pytest.approx(0.0, abs=1e-15)
        assert z[0].imag == pytest.approx(-0.5, abs=1e-13)

    def test_composition_lands_on_negative_real_axis(self):
        # omega(z) = z^m at the branch point is -r^m on every coordinate
        for m in (1, 2, 3, 5):
            z = branch_diagonal(1, m, 0.4)
            w = z[0] ** m
            assert w.real == pytest.approx(-(0.4 ** m), rel=1e-12)
            assert abs(w.imag) < 1e-13


class TestHoldsBelow:
    @pytest.mark.parametrize("family", [
        Classical(2), RmnN(m=2, n=2, N=2), EulerLambda(n=1, lam=0.5),
        AreaT(n=1, t=0.4), ConvexT(t=0.5),
    ])
    def test_families_hold(self, family):
        report = check_holds_below(SuiteConfig(family=family, samples=40, seed=5))
        assert report.passed, report.failures
        assert report.counts["HOLDS"] == 40
        assert report.worst_slack > 0

    @pytest.mark.parametrize("family", [
        RmnN(m=2, n=1, N=2), RmnN(m=2, n=1, N=3), RmnN(m=1, n=3, N=2),
    ])
    def test_composition_families_with_N_above_one_hold(self, family):
        report = check_holds_below(SuiteConfig(family=family))
        assert report.counts["HOLDS"] == 200, report.failures

    def test_composition_suite_judges_the_tail_from_degree_N(self):
        # the radius equation is sharp for the tail over every degree >= N;
        # the multiples-of-N tail gives a different value on the same series
        report = check_holds_below(SuiteConfig(family=RmnN(m=2, n=1, N=2), samples=5))
        omega = schwarz_power_map(1, 2)
        z = branch_diagonal(1, 2, report.eval_radius)
        for case in report.cases:
            f = sample_product_spec(case.seed, 1, 3).series(case.k_used)
            assert case.value == functional_B(f, omega, z, FromDegree(2)).value
            assert case.value != functional_B(f, omega, z, MultiplesOf(2)).value

    def test_escalation_resolves_inconclusive(self, monkeypatch):
        # a tiny starting truncation leaves a visible tail which doubling removes
        monkeypatch.setattr(SuiteConfig, "k_start", 2)
        config = SuiteConfig(family=Classical(2), samples=10, seed=1)
        report = check_holds_below(config)
        assert report.passed
        assert all(c.verdict == "HOLDS" for c in report.cases)

    def test_deterministic_in_seed(self):
        config = SuiteConfig(family=Classical(1), samples=15, seed=9)
        a = check_holds_below(config)
        b = check_holds_below(config)
        assert a == b

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(family=Classical(1), margin_below=1.2)
        for value in (1.0, 1e300, float("inf")):
            with pytest.raises(ValueError, match="margin_above must be below 1"):
                SuiteConfig(family=Classical(1), margin_above=value)

    def test_k_cap_below_k_start_is_honoured(self):
        # both suites start at min(k_start, k_cap), as in the shared loop
        config = SuiteConfig(family=Classical(1), samples=2, k_cap=4)
        assert [c.k_used for c in check_holds_below(config).cases] == [4, 4]
        assert [c.k_used for c in check_sharpness_above(config).cases] == [4, 4, 4]

    def test_escalation_is_clamped_to_the_cap(self, monkeypatch):
        # cases left INCONCLUSIVE at K = 3 escalate to the cap 5, not to 6
        monkeypatch.setattr(SuiteConfig, "k_start", 3)
        config = SuiteConfig(family=EulerLambda(n=1, lam=0.5), samples=10,
                             seed=1, k_cap=5)
        report = check_holds_below(config)
        assert report.passed
        assert {c.k_used for c in report.cases} == {3, 5}

    @pytest.mark.parametrize("field", ["k_cap"])
    def test_truncation_degrees_must_be_positive(self, field):
        # K doubles from min(k_start, k_cap), so a start of 0 would never grow
        for value in (0, -3):
            with pytest.raises(ValueError, match=f"{field} must be >= 1"):
                SuiteConfig(family=Classical(1), samples=1, **{field: value})


class TestSharpnessAbove:
    @pytest.mark.parametrize("family,expected_a", [
        (Classical(1), 0.99),
        (Classical(3), 0.9),
        (RmnN(m=1, n=1, N=1), 0.9),
        (EulerLambda(n=1, lam=0.5), 0.9),
        (ConvexT(t=0.5), 0.99),
    ])
    def test_witness_found(self, family, expected_a):
        report = check_sharpness_above(SuiteConfig(family=family, samples=1))
        assert report.passed
        assert report.witness_a == expected_a

    def test_area_family_has_no_extremal_witness(self):
        # the extremal value tends to t < 1, so no schedule member violates;
        # the suite reports the absence rather than raising
        report = check_sharpness_above(SuiteConfig(family=AreaT(n=1, t=0.4)))
        assert not report.passed
        assert report.witness_a is None
        assert "no violating schedule member" in report.notes
        assert all(c.value < 0.5 for c in report.cases)

    @pytest.mark.parametrize("config,suffix", [
        (SuiteConfig(family=Classical(1), samples=2, k_cap=1),
         "; 2 of 3 cases INCONCLUSIVE at the K cap 1"),
        (SuiteConfig(family=AreaT(n=1, t=0.4)), ""),
    ], ids=["k-cap-1", "area"])
    def test_notes_tell_a_capped_run_from_a_missing_witness(self, config, suffix):
        report = check_sharpness_above(config)
        assert report.witness_a is None
        assert report.notes == "no violating schedule member found" + suffix

    def test_radius_outside_the_polydisc_is_rejected_before_any_series(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a series was built")

        monkeypatch.setattr(verify, "extremal_series", refuse)
        with pytest.raises(ValueError, match="is not inside the unit polydisc$") as info:
            check_sharpness_above(SuiteConfig(family=Classical(1), margin_above=0.9))
        assert not isinstance(info.value, DivergentTailError)

    def test_radius_past_the_witness_l1_convergence_still_diverges(self):
        # r = 1/6 + 0.5 lies inside D^2, but the witness's tail ratio a n r
        # is 0.9 * 2 * 0.667 > 1 there
        with pytest.raises(DivergentTailError):
            check_sharpness_above(SuiteConfig(family=Classical(2), margin_above=0.5))

    def test_values_increase_along_schedule_toward_one(self, monkeypatch):
        # at the designated point the functional value grows with a
        monkeypatch.setattr(SuiteConfig, "a_schedule", (0.5, 0.7, 0.9))
        report = check_sharpness_above(SuiteConfig(family=Classical(2)))
        vals = [c.value for c in report.cases]
        assert vals == sorted(vals)


class TestAudits:
    def test_zero_violations(self):
        stats = audit_lemmas(samples=20, dims=[1, 2], radii=[0.05, 0.12], seed=2)
        assert stats.violations == 0
        assert stats.pairs == 20 * 2 * 2 * 3
        assert stats.worst_margin >= 0

    def test_radial_bound_skips_large_radii(self):
        # n r <= sqrt(2) - 1 filters the n = 3 cases at r = 0.2
        stats = audit_lemmas(samples=5, dims=[3], radii=[0.2], seed=0)
        assert stats.pairs == 0

    def test_all_three_checks_exercised(self):
        stats = audit_lemmas(samples=10, dims=[2], radii=[0.1], seed=4)
        assert set(stats.checks) == {"growth", "coefficient", "radial"}
        assert all(v > 0 for v in stats.checks.values())

    def test_one_pair_audits_recompute_from_the_lemmas(self, monkeypatch):
        # Each pair's margins come from the three bounds of the docstring,
        # applied to the function and point the audit drew; between them the
        # three pairs make each bound the binding one, so loosening any of
        # them moves worst_margin.
        drawn = {}

        def keep(name):
            real = getattr(verify, name)
            monkeypatch.setattr(verify, name,
                                lambda *args: drawn.setdefault(name, real(*args)))

        keep("sample_product_spec")
        keep("_random_point")
        binding = set()
        for n, r, seed in ((1, 0.1, 0), (2, 0.1, 0), (1, 0.05, 1)):
            drawn.clear()
            stats = audit_lemmas(samples=1, dims=[n], radii=[r], seed=seed,
                                 points_per_radius=1)
            spec, z = drawn["sample_product_spec"], drawn["_random_point"]
            coeffs = spec.series(12).coeffs
            a0, fz, nr = abs(coeffs[(0,) * n]), abs(spec.eval(z)), n * r
            margins = {
                "coefficient": min(1.0 - a0 * a0 - abs(c)
                                   for alpha, c in coeffs.items() if any(alpha)),
                "growth": (a0 + r) / (1.0 + a0 * r) - fz,
                "radial": nr * (1.0 - fz ** 2) / (1.0 - nr * nr) - abs(spec.euler_eval(z)),
            }
            assert (stats.pairs, stats.violations) == (1, 0)
            # one growth and one radial check per pair, one coefficient
            # check per nonzero multi-index of degree <= 12
            assert stats.checks == {"growth": 1, "coefficient": math.comb(12 + n, n) - 1,
                                    "radial": 1}
            assert stats.worst_margin - 1e-12 == pytest.approx(min(margins.values()),
                                                               rel=0, abs=1e-16)
            binding.add(min(margins, key=margins.get))
        assert binding == set(margins)


class TestEulerClosedForm:
    def test_grid_meets_relative_tolerance(self):
        checks = euler_closed_form_check([0.0, 0.5, 0.9], [1, 2, 3],
                                         [0.05, 0.1, 0.2])
        assert len(checks) == 27
        assert max(c.rel_error for c in checks) <= 1e-9

    def test_zero_parameter_exact(self):
        (chk,) = euler_closed_form_check([0.0], [2], [0.1])
        assert chk.closed_value == pytest.approx(0.2)
        assert chk.rel_error < 1e-14


class TestRadiusMutations:
    """Which suite catches a wrong radius: ``solve`` as the suites see it
    returns the radius scaled by 1 + d, and both suites run at 200 samples,
    seed 7.  HB: hold-below fails, SH: sharpness-above fails, ok: both pass,
    so the wrong radius goes uncaught.  A cell caught today must stay caught;
    an ``ok`` cell may become caught."""

    FACTORS = (-0.2, -0.1, -0.05, -0.02, -0.01, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
    TODAY = (
        (Classical(1), "SH SH ok ok ok ok ok ok ok ok ok"),
        (Classical(3), "SH ok ok ok ok ok ok ok ok ok ok"),
        (RmnN(m=2, n=2, N=2), "SH ok ok ok ok ok ok ok ok ok ok"),
        (EulerLambda(n=1, lam=0.5), "SH SH ok ok ok ok ok ok ok ok HB"),
        (ConvexT(t=0.5), "SH SH SH ok ok ok ok ok ok ok ok"),
        (RogosinskiUni(N=1, p=1), "ok ok ok ok ok ok ok ok ok ok HB"),
        # every d fails: criterion 9's missing area witness
        (AreaT(n=1, t=0.4), "SH SH SH SH SH SH SH SH SH SH SH"),
    )

    @staticmethod
    def cell(family, d, monkeypatch):
        def scaled(fam):
            res = solve(fam)
            return RadiusResult(res.family, res.radius_r * (1 + d), res.radius_x * (1 + d),
                                res.residual, res.bracket, res.multiplicity_note)

        monkeypatch.setattr(verify, "solve", scaled)
        config = SuiteConfig(family=family, seed=7)
        caught = ("HB" * (not check_holds_below(config).passed)
                  + "SH" * (not check_sharpness_above(config).passed))
        return caught or "ok"

    def test_caught_cells_stay_caught(self, monkeypatch):
        rows = [(family, [self.cell(family, d, monkeypatch) for d in self.FACTORS])
                for family, _ in self.TODAY]
        table = "\n".join([f"{'d':27}" + "".join(f"{d:>+7.0%}" for d in self.FACTORS)]
                          + [f"{family!r:27}" + "".join(f"{c:>7}" for c in row)
                             for family, row in rows])
        print(table)
        lost = [(family, d) for (family, today), (_, row) in zip(self.TODAY, rows)
                for d, was, now in zip(self.FACTORS, today.split(), row)
                if was != "ok" and now == "ok"]
        assert not lost, table


class TestCaseOrder:
    def test_cases_do_not_depend_on_suite_length(self):
        # case i depends only on the suite seed and i, so a shorter suite is
        # a prefix of a longer one
        full = check_holds_below(SuiteConfig(family=Classical(2), samples=12, seed=3))
        for k in (1, 5, 11):
            short = check_holds_below(SuiteConfig(family=Classical(2), samples=k, seed=3))
            assert short.cases == full.cases[:k]


class TestCaseSeeds:
    def test_distinct_and_stable(self):
        seeds = [case_seed(7, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [case_seed(7, i) for i in range(100)]
        assert seeds != [case_seed(8, i) for i in range(100)]


def test_euler_monomial_spec_case():
    # f = z at r = 0.99 * 0.3191: the functional value is r + r < 1
    from polybohr import TruncatedSeries, functional_D

    r = 0.99 * 0.3191
    f = TruncatedSeries(dim=1, max_degree=1, coeffs={(1,): 1 + 0j})
    rep = functional_D(f, (-r + 0j,), 0.5)
    assert rep.value == pytest.approx(2 * 0.99 * 0.3191, rel=1e-13)
    assert rep.verdict.value == "HOLDS"
