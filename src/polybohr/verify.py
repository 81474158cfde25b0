"""Property suites tying functionals, radii and coefficient bounds together.

Three suite kinds are provided:

* hold-below: at r = margin_below * radius, every sampled certified-bounded
  function must yield a conclusive HOLDS verdict,
* sharpness-above: at r = radius + margin_above, some member of the extremal
  schedule a -> 1- must yield VIOLATED at the designated evaluation point,
* coefficient/derivative bound audits on seeded (function, point) pairs.

Both suites run each case through one escalation loop: the truncation degree
K starts at min(k_start, cap) and doubles up to the cap (k_cap for
hold-below, min(k_cap, MULTINOMIAL_DEGREE_CAP) for sharpness-above) while the
verdict is INCONCLUSIVE and the certified tail is at least TAIL_TOL.

Each family's ``functional`` (in radii) evaluates at its designated point:
the diagonal (r, ..., r) for the plain majorant and area functionals,
(-r, ..., -r) for the radial-derivative functional, and the diagonal
r * exp(i pi (2m-1)/m) for composition functionals of order m.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, ClassVar, Iterable

from .families import ExtremalSpec, Lcg64, extremal_series, sample_product_spec
from .radii import EulerLambda, RadiusFamily, solve
from .report import EvalReport, Verdict, record
from .series import MULTINOMIAL_DEGREE_CAP, Point, euler_derivative, eval_series

# Escalation stops once the certified tail is below this: a verdict still
# INCONCLUSIVE then sits on 1 within roundoff, where more degrees cannot help.
TAIL_TOL = 1e-10


@record
class SuiteConfig:
    family: RadiusFamily
    samples: int = 200
    margin_below: float = 0.99
    margin_above: float = 0.02
    seed: int = 0
    factors_per_coordinate: int = 3
    k_cap: int = 512
    # Fixed by the suites, not settings: the extremal schedule and first K.
    a_schedule: ClassVar[tuple[float, ...]] = (0.9, 0.99, 0.999)
    k_start: ClassVar[int] = 16

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.factors_per_coordinate < 0:
            raise ValueError(
                f"factor count must be >= 0, got {self.factors_per_coordinate}")
        if self.k_cap < 1:
            raise ValueError(f"k_cap must be >= 1, got {self.k_cap}")
        if not 0.0 < self.margin_below < 1.0:
            raise ValueError(f"margin_below must lie in (0,1), got {self.margin_below}")
        if not self.margin_above > 0.0:
            raise ValueError(f"margin_above must be positive, got {self.margin_above}")
        if self.margin_above >= 1.0:
            # the sharpness suite would evaluate outside the unit polydisc
            raise ValueError(f"margin_above must be below 1, got {self.margin_above}")


@record
class CaseResult:
    index: int
    seed: int
    verdict: str
    value: float
    tail_bound: float
    k_used: int
    detail: str = ""


@record
class SuiteReport:
    suite: str
    family_label: str
    radius_r: float
    eval_radius: float
    cases: tuple[CaseResult, ...]
    failures: tuple[CaseResult, ...]
    witness_a: float | None = None
    notes: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def counts(self) -> dict[str, int]:
        """Cases per verdict, every verdict listed."""
        return {v.value: sum(c.verdict == v.value for c in self.cases) for v in Verdict}

    @property
    def worst_slack(self) -> float:
        """The least 1 - (value + tail_bound) over the cases."""
        return min(1.0 - (c.value + c.tail_bound) for c in self.cases)


def case_seed(base_seed: int, index: int) -> int:
    """Per-case seed derived from the suite seed; stable across runs."""
    rng = Lcg64(base_seed)
    rng.state = (rng.state + 0x632BE59BD9B4E019 * (index + 1)) & Lcg64.MASK
    return rng.next_u64()


def _escalate(evaluate: Callable[[int], EvalReport], k_start: int,
              cap: int) -> tuple[EvalReport, int]:
    """The escalation loop of the module docstring: the last report and its K."""
    K = min(k_start, cap)
    while True:
        rep = evaluate(K)
        if (rep.verdict is not Verdict.INCONCLUSIVE or K >= cap
                or rep.tail_bound < TAIL_TOL):
            return rep, K
        K = min(2 * K, cap)


def check_holds_below(config: SuiteConfig) -> SuiteReport:
    """Sampled certified-bounded functions must give HOLDS at
    r = margin_below * radius; INCONCLUSIVE verdicts trigger truncation
    escalation before they may count as failures."""
    solved = solve(config.family)
    r = config.margin_below * solved.radius_r
    n = config.family.dim
    cases: list[CaseResult] = []
    for i in range(config.samples):
        seed_i = case_seed(config.seed, i)
        spec = sample_product_spec(seed_i, n, config.factors_per_coordinate)
        rep, K = _escalate(lambda K: config.family.functional(spec.series(K), r),
                           config.k_start, config.k_cap)
        cases.append(CaseResult(i, seed_i, rep.verdict.value, rep.value,
                                rep.tail_bound, K, rep.detail))
    return SuiteReport("holds-below", repr(config.family), solved.radius_r, r, tuple(cases),
                       tuple(c for c in cases if c.verdict != Verdict.HOLDS.value))


def check_sharpness_above(config: SuiteConfig) -> SuiteReport:
    """Search the extremal schedule for a VIOLATED witness at
    r = radius + margin_above.  Absence of a witness is a failing report,
    never an exception; its notes count the cases still INCONCLUSIVE at the
    K cap, which a larger cap may resolve.  An r of 1 or more, outside the
    unit polydisc, raises ValueError before any series is built."""
    solved = solve(config.family)
    r = solved.radius_r + config.margin_above
    if r >= 1.0:
        raise ValueError(
            f"sharpness radius {solved.radius_r} + margin_above {config.margin_above} "
            f"= {r} is not inside the unit polydisc")
    cases: list[CaseResult] = []
    witness: float | None = None
    cap = min(config.k_cap, MULTINOMIAL_DEGREE_CAP)
    for i, a in enumerate(config.a_schedule):
        spec = ExtremalSpec(a=a, n=config.family.dim)
        rep, K = _escalate(lambda K: config.family.functional(
            extremal_series(spec, K), r), config.k_start, cap)
        cases.append(CaseResult(i, 0, rep.verdict.value, rep.value,
                                rep.tail_bound, K, f"a={a!r} {rep.detail}"))
        if rep.verdict is Verdict.VIOLATED and witness is None:
            witness = a
    notes = ""
    if witness is None:
        notes = "no violating schedule member found"
        capped = sum(c.verdict == Verdict.INCONCLUSIVE.value and c.k_used == cap
                     for c in cases)
        if capped:
            notes += f"; {capped} of {len(cases)} cases INCONCLUSIVE at the K cap {cap}"
    return SuiteReport("sharpness-above", repr(config.family), solved.radius_r, r, tuple(cases),
                       tuple(cases) if witness is None else (), witness, notes)


def _random_point(rng: Lcg64, n: int, r: float) -> Point:
    """Random point with inf-norm exactly r: one coordinate pinned to
    modulus r, the rest uniform in [0, r], all with uniform phases."""
    pinned = rng.randint(0, n - 1)
    coords = []
    for i in range(n):
        rho = r if i == pinned else rng.uniform(0.0, r)
        coords.append(rho * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return tuple(coords)


@record
class AuditStats:
    pairs: int
    violations: int
    checks: dict[str, int]
    worst_margin: float = math.inf


# Absolute slack allowed on exact-arithmetic bounds; covers roundoff only.
_AUDIT_EPS = 1e-12


def audit_lemmas(samples: int, dims: Iterable[int], radii: Iterable[float],
                 seed: int = 0, points_per_radius: int = 3) -> AuditStats:
    """Audit three coefficient/growth bounds on seeded product functions with
    two factors per coordinate.

    Per function: every coefficient satisfies |a_alpha| <= 1 - |a_0|^2.
    Per (function, point): the Schwarz-Pick growth bound
    (|f(0)| + r)/(1 + |f(0)| r) and the radial-derivative bound
    |Df(z)| <= n r (1 - |f(z)|^2)/(1 - (n r)^2) for n r <= sqrt(2) - 1.
    All evaluations are exact closed forms, so the slack is roundoff only.
    """
    rng = Lcg64(seed ^ 0x51AF9C3D)
    violations = 0
    pairs = 0
    checks = {"growth": 0, "coefficient": 0, "radial": 0}
    worst = math.inf

    def check(kind: str, bound: float, value: complex) -> None:
        nonlocal violations, worst
        checks[kind] += 1
        margin = bound + _AUDIT_EPS - abs(value)
        worst = min(worst, margin)
        violations += margin < 0

    coeff_K = 12
    for n in dims:
        for s in range(samples):
            fn_seed = case_seed(seed, s * 101 + n)
            spec = sample_product_spec(fn_seed, n, 2)
            series = spec.series(coeff_K)
            a0 = abs(series.coeffs.get((0,) * n, 0j))
            cap = 1.0 - a0 * a0
            for alpha, c in series.coeffs.items():
                if sum(alpha) > 0:
                    check("coefficient", cap, c)
            for r in radii:
                if n * r > EulerLambda.bracket_hi:
                    continue
                for _ in range(points_per_radius):
                    z = _random_point(rng, n, r)
                    pairs += 1
                    fz = spec.eval(z)
                    check("growth", (a0 + r) / (1.0 + a0 * r), fz)
                    nr = n * r
                    check("radial", nr * (1.0 - abs(fz) ** 2) / (1.0 - nr * nr),
                          spec.euler_eval(z))
    return AuditStats(pairs=pairs, violations=violations, checks=checks,
                      worst_margin=worst)


@record
class ClosedFormCheck:
    a: float
    n: int
    r: float
    series_value: float
    closed_value: float
    rel_error: float
    k_used: int


def euler_closed_form_check(a_values: Iterable[float], n_values: Iterable[int],
                            r_values: Iterable[float],
                            rel_tol: float = 1e-9) -> list[ClosedFormCheck]:
    """Series-computed |Df_a| at the diagonal (-r, ..., -r) against the exact
    value n r (1 - a^2) / (1 + a n r)^2, doubling K from 16 until the
    relative error target is met or K reaches MULTINOMIAL_DEGREE_CAP."""
    out: list[ClosedFormCheck] = []
    for a in a_values:
        for n in n_values:
            for r in r_values:
                closed = n * r * (1.0 - a * a) / (1.0 + a * n * r) ** 2
                z = (-r + 0.0j,) * n
                K = 16
                while True:
                    df = euler_derivative(extremal_series(ExtremalSpec(a, n), K))
                    got = abs(eval_series(df, z))
                    rel = abs(got - closed) / abs(closed) if closed else abs(got)
                    if rel <= rel_tol or K >= MULTINOMIAL_DEGREE_CAP:
                        break
                    K = min(2 * K, MULTINOMIAL_DEGREE_CAP)
                out.append(ClosedFormCheck(a, n, r, got, closed, rel, K))
    return out
