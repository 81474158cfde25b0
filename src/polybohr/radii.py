"""Radius families: closed forms and bracketed root finding for every
sharp-radius equation, and the functional each equation is sharp for.

Each family class carries its defining polynomial, its solve variable, the
bracket on which the underlying monotonicity argument guarantees a sign
change, and its functional at the designated evaluation point, so adding a
family means adding one class.  Bisection is used throughout: the equations
are low-degree with proof-supplied brackets, so robustness beats iteration
speed.  Results report the root both as the equal polyradius r and as
x = n r, which neutralises the scaling ambiguity between the two
conventions.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import Callable, ClassVar

from .families import schwarz_power_map
from .functionals import (
    FromDegree,
    functional_A,
    functional_B,
    functional_C,
    functional_D,
    functional_E,
    functional_rogosinski_uni,
)
from .report import EvalReport, record
from .series import Point, TruncatedSeries

BISECTION_TOL = 1e-14
BISECTION_MAX_ITER = 60
MIN_ROOT_GRID = 10_000


class NoSignChangeError(ValueError):
    """No bracketing sign change was found on the scanned interval."""


def bracketed_bisection(g: Callable[[float], float], lo: float,
                        hi: float) -> tuple[float, float, float]:
    """Root of g on [lo, hi] by bisection; returns (root, lo, hi) with the
    final bracket, of zero width when g is exactly zero at an end or a
    midpoint.  Requires a sign change, tested without multiplying (a product
    can underflow); a NaN at an end or a midpoint has no sign and raises.  At
    most 60 iterations reach width <= BISECTION_TOL."""
    glo, ghi = g(lo), g(hi)
    if not (glo <= 0.0 <= ghi or ghi <= 0.0 <= glo):
        raise NoSignChangeError(
            f"g({lo}) = {glo} and g({hi}) = {ghi} do not change sign")
    if glo == 0.0:
        return lo, lo, lo
    if ghi == 0.0:
        return hi, hi, hi
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if math.isnan(gm):
            raise NoSignChangeError(f"g({mid}) is NaN")
        if gm == 0.0:
            return mid, mid, mid
        if glo < 0.0 < gm or gm < 0.0 < glo:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi), lo, hi


def min_positive_root(g: Callable[[float], float],
                      hi: float) -> tuple[float, float, float, str]:
    """Smallest positive root of g on (0, hi]: uniform grid scan for the first
    sign change, then bisection.  Later sign changes on the grid are reported
    in the note so root selection stays auditable."""
    h = hi / MIN_ROOT_GRID
    prev_x, prev_v = h, g(h)
    if prev_v == 0.0:
        return prev_x, prev_x, prev_x, "root on the scan grid"
    first: tuple[float, float] | None = None
    extra: list[float] = []
    for i in range(2, MIN_ROOT_GRID + 1):
        x = i * h
        v = g(x)
        # An exact zero at the high end without a sign change (a boundary
        # double root) is not a crossing; it surfaces through the error path.
        crossing = prev_v < 0.0 < v or v < 0.0 < prev_v or (v == 0.0 and i < MIN_ROOT_GRID)
        if crossing:
            if first is None:
                first = (prev_x, x)
            else:
                extra.append(x)
        prev_x, prev_v = x, v
    if first is None:
        boundary = g(hi)
        raise NoSignChangeError(
            f"no sign change on ({h}, {hi}] scanned at {MIN_ROOT_GRID} points; "
            f"value at the high end is {boundary}"
            + (" (boundary root)" if boundary == 0.0 else ""))
    root, lo, hi_b = bracketed_bisection(g, first[0], first[1])
    if extra:
        note = ("additional sign changes near "
                + ", ".join(f"{x:.6g}" for x in extra[:4]))
    else:
        note = f"no further sign changes in ({root:.6g}, {hi:g})"
    return root, lo, hi_b, note


# Every radius family by its ``--family`` name, in definition order; a
# subclass of RadiusFamily registers itself here.
FAMILIES: dict[str, type[RadiusFamily]] = {}


@record
class RadiusResult:
    family: RadiusFamily
    radius_r: float
    radius_x: float
    residual: float
    bracket: tuple[float, float]
    multiplicity_note: str = ""


class RadiusFamily:
    """One sharp inequality: its radius equation and its functional.

    Subclasses are frozen ``@record`` classes whose fields are the family's
    parameters, named as the CLI flags that set them (``lam`` is
    ``--lambda``).  Each has ``name``, its ``--family`` name, and
    ``poly(v)``, the defining polynomial in the solve variable ``solve_var``
    (``"r"`` or ``"x"`` = n r).  The radius is the root of ``poly`` on
    (0, ``bracket_hi``]: the unique one, or the minimum positive one when
    ``min_root`` is set, unless ``closed_form`` gives the result directly.
    ``functional`` evaluates the family's functional at its designated point.
    The fields named ``m``, ``n`` and ``N`` must be at least 1.
    """

    name: ClassVar[str]
    solve_var: ClassVar[str] = "x"
    bracket_hi: ClassVar[float] = 1.0
    min_root: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        FAMILIES[cls.name] = cls

    def __post_init__(self) -> None:
        for k in self.__match_args__:
            if k in ("m", "n", "N") and getattr(self, k) < 1:
                names = [k for k in self.__match_args__ if k in ("m", "n", "N")]
                got = ", ".join(f"{k}={getattr(self, k)}" for k in names)
                raise ValueError(f"{', '.join(names)} must be >= 1, got {got}")

    @property
    def dim(self) -> int:
        """The polydisc dimension the family's functional acts on."""
        return getattr(self, "n", 1)

    def closed_form(self) -> RadiusResult | None:
        return None

    def functional(self, f: TruncatedSeries, r: float) -> EvalReport:
        """The family's functional on f at equal polyradius r, at the
        designated evaluation point."""
        raise NotImplementedError


def branch_diagonal(n: int, m: int, r: float) -> Point:
    """The designated composition point: every coordinate equals
    r * exp(i pi (2m-1)/m); m = 1 gives the real diagonal (-r, ..., -r)."""
    c = cmath.exp(1j * math.pi * (2 * m - 1) / m)
    if m == 1:
        c = -1.0 + 0.0j  # exact real value, no rounding in the phase
    return (c * r,) * n


@record
class Classical(RadiusFamily):
    """Plain majorant threshold; the radius is 1/(3n) in closed form."""

    n: int
    name = "classical"

    def poly(self, x: float) -> float:
        return 3.0 * x - 1.0

    def closed_form(self) -> RadiusResult:
        r = 1.0 / (3.0 * self.n)
        return RadiusResult(self, r, self.n * r, abs(self.poly(self.n * r)),
                            (0.0, r), "closed form")

    def functional(self, f, r):
        return functional_A(f, r)


@record
class RogosinskiUni(RadiusFamily):
    """Univariate |f(z)|^p head with a degree >= N majorant tail."""

    N: int
    p: int = 1
    name = "rogosinski"
    solve_var = "r"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.p not in (1, 2):
            raise ValueError(f"modulus power must be 1 or 2, got {self.p}")

    def poly(self, r: float) -> float:
        head = 2.0 if self.p == 1 else 1.0
        return head * (1.0 + r) * r ** self.N - (1.0 - r * r)

    def functional(self, f, r):
        return functional_rogosinski_uni(f, (-r + 0.0j,), self.N, self.p)


@record
class RmN(RadiusFamily):
    """Composition head |f(z^m)| with the majorant tail from degree N in
    dimension ``n``: 1 here, where n r is r exactly, and a field of RmnN."""

    m: int
    N: int
    n: ClassVar[int] = 1
    name = "rmn"
    solve_var = "r"

    @property
    def bracket_hi(self) -> float:
        return 1.0 / self.n

    def poly(self, r: float) -> float:
        nr, rm = self.n * r, r ** self.m
        return 2.0 * nr ** self.N * (1.0 + rm) - (1.0 - nr) * (1.0 - rm)

    def functional(self, f, r):
        return functional_B(f, schwarz_power_map(self.n, self.m),
                            branch_diagonal(self.n, self.m, r), FromDegree(self.N), p=1)


@record
class RmnN(RmN):
    """Polydisc composition head with the majorant tail from degree N: RmN
    with the dimension n as a field."""

    m: int
    n: int
    N: int
    name = "rmnn"


@record
class AN(RadiusFamily):
    """Large-m limit family: 2 x^N = 1 - x in x = n r."""

    n: int
    N: int
    name = "an"

    def poly(self, x: float) -> float:
        return 2.0 * x ** self.N + x - 1.0

    def functional(self, f, r):
        raise ValueError("the large-m limit family has no functional to verify; "
                         "use radius or limits")


@record
class ConvexT(RadiusFamily):
    """Convex combination t |f(w(z))| + (1-t) majorant with a composition
    head of order m in dimension n, both 1 here and fields of ConvexMNT.
    The root of (4t-3) r^2 - 2r + 1 is 1/(1 + 2 sqrt(1-t)) in closed form,
    with no cancellation near t = 3/4."""

    t: float
    m: ClassVar[int] = 1
    n: ClassVar[int] = 1
    name = "convext"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must lie in [0,1], got {self.t}")

    @cached_property
    def _terms(self) -> tuple[float, float, float, float, int, int]:
        # (4t-3) x^(m+1) - (2t-1) x^m + (2t-3) n^(m-1) x + n^(m-1), read on
        # the first poly call, so a scale too large for a float raises
        # inside solve
        t, scale = self.t, float(self.n ** (self.m - 1))
        return (4.0 * t - 3.0, 2.0 * t - 1.0, (2.0 * t - 3.0) * scale, scale,
                self.m + 1, self.m)

    def poly(self, x: float) -> float:
        a, b, c, scale, top, m = self._terms
        return a * x ** top - b * x ** m + c * x + scale

    def closed_form(self) -> RadiusResult:
        r = 1.0 / (1.0 + 2.0 * math.sqrt(1.0 - self.t))
        return RadiusResult(self, r, r, abs(self.poly(r)), (0.0, r), "closed form")

    def functional(self, f, r):
        return functional_C(f, schwarz_power_map(self.n, self.m),
                            branch_diagonal(self.n, self.m, r), self.t)


@record
class ConvexMNT(ConvexT):
    """Polydisc convex combination: ConvexT with the order m and the
    dimension n as fields.  The radius is the minimum positive root of the
    degree m+1 polynomial in x = n r."""

    m: int
    n: int
    t: float
    name = "convexmnt"
    min_root = True

    def closed_form(self) -> None:
        return None


@record
class EulerLambda(RadiusFamily):
    """Radial-derivative functional; quartic in x = n r on (0, sqrt(2)-1)."""

    n: int
    lam: float
    name = "euler"
    bracket_hi = math.sqrt(2.0) - 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.lam > 0.0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if math.isinf(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")

    def poly(self, x: float) -> float:
        if self.lam > 0.5:
            lam = self.lam
            return (((2.0 * lam * x + (4.0 * lam - 1.0)) * x
                     + (2.0 * lam - 1.0)) * x + 3.0) * x - 1.0
        return ((x + 1.0) * x * x + 3.0) * x - 1.0

    def functional(self, f, r):
        return functional_D(f, (-r + 0.0j,) * self.n, self.lam)


@record
class AreaT(RadiusFamily):
    """Majorant plus image-area combination; cubic in x = n r for
    t < branch_t = 9/17, constant 1/3 beyond."""

    n: int
    t: float
    name = "area"
    bracket_hi = 1.0 / 3.0
    branch_t = 9.0 / 17.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.t <= 1.0:
            raise ValueError(f"t must lie in (0,1], got {self.t}")

    def poly(self, x: float) -> float:
        t = self.t
        return ((t * x + t) * x + (4.0 - 5.0 * t)) * x - t

    def closed_form(self) -> RadiusResult | None:
        if self.t < self.branch_t:
            return None
        # Clamped branch: the radius is 1/3 by definition, not a root of the
        # cubic (which is nonnegative on (0, 1/3] here).
        x = 1.0 / 3.0
        return RadiusResult(self, x / self.n, x, 0.0, (0.0, x),
                            "closed form (clamped branch)")

    def functional(self, f, r):
        return functional_E(f, r, self.t)


def solve(family: RadiusFamily) -> RadiusResult:
    """The radius of the family: its closed form where one exists, otherwise
    the unique (or minimum positive) root on the proof-supplied bracket."""
    result = family.closed_form()
    if result is not None:
        return result
    if family.min_root:
        root, lo, hi, note = min_positive_root(family.poly, family.bracket_hi)
    else:
        root, lo, hi = bracketed_bisection(family.poly, 0.0, family.bracket_hi)
        note = ""
    n = family.dim
    r, x = (root, n * root) if family.solve_var == "r" else (root / n, root)
    return RadiusResult(family, r, x, abs(family.poly(root)), (lo, hi), note)


def _sweep(name: str, values: list[int],
           family: Callable[[int], RadiusFamily]) -> list[RadiusResult]:
    """Roots of ``family(v)`` over a non-empty, strictly ascending list."""
    if not values:
        raise ValueError(f"{name} must not be empty")
    if list(values) != sorted(values) or len(set(values)) != len(values):
        raise ValueError(f"{name} must be strictly ascending")
    return [solve(family(v)) for v in values]


def limit_sweep_N(m: int, n: int, N_list: list[int]) -> list[RadiusResult]:
    """Roots of the composition family for ascending N; the sequence is
    strictly increasing toward 1 (n = 1) or toward x = n r -> 1 (n >= 2)."""
    return _sweep("N_list", N_list, lambda N: RmnN(m=m, n=n, N=N))


def limit_sweep_m(n: int, N: int, m_list: list[int]) -> list[RadiusResult]:
    """Roots of the composition family for ascending m; the sequence
    approaches the root of the large-m limit family AN(n, N)."""
    return _sweep("m_list", m_list, lambda m: RmnN(m=m, n=n, N=N))
