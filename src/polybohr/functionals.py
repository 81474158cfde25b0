"""Bohr-type functionals on truncated series, with certified verdicts.

Five functionals are evaluated against 1:

* A: the plain majorant sum over all degrees,
* B: |f(omega(z))|^p plus a majorant tail starting at degree N, where the
  tail index set is either every degree >= N or only multiples of N,
* C: the convex combination t |f(omega(z))| + (1-t) * majorant,
* D: |f(z)| + |Df(z)| + lambda * (majorant over degrees >= 2), D the radial
  derivative,
* E: t * majorant + (1-t) * area sum.

Composition values |f(omega(z))| use the exact closed form when the series
carries one (the extremal and product families do); otherwise the truncated
evaluation is used and its remainder is added to the report's tail bound.
Each report records which path was taken.
"""

from __future__ import annotations

from typing import ClassVar

from .families import SchwarzMapSpec, eval_schwarz
from .report import EvalReport, record
from .series import (
    TruncatedSeries,
    area_sum,
    block_sum,
    eval_series,
    euler_derivative,
    inf_norm,
    majorant_sum,
    Point,
)


@record
class FromDegree:
    """Tail index set {k : k >= N}."""

    N: int
    step: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"tail start must be >= 1, got {self.N}")


@record
class MultiplesOf:
    """Tail index set {N, 2N, 3N, ...}."""

    N: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"tail step must be >= 1, got {self.N}")

    @property
    def step(self) -> int:
        return self.N


def _composition_modulus(f: TruncatedSeries, w: Point) -> tuple[float, float, str]:
    """|f(w)| with an error bound: exact when a closed form is carried,
    otherwise truncated evaluation plus the series tail at |w|."""
    if f.closed_form is not None:
        return abs(f.closed_form(w)), 0.0, "closed-form"
    value = eval_series(f, w)
    err = f.tail_sum(inf_norm(w))
    return abs(value), err, "series"


def functional_A(f: TruncatedSeries, r: float) -> EvalReport:
    """Majorant sum over every degree; delegates to the series layer."""
    return majorant_sum(f, r)


def functional_B(f: TruncatedSeries, omega: SchwarzMapSpec, z: Point,
                 mode: FromDegree | MultiplesOf, p: int = 1) -> EvalReport:
    """|f(omega(z))|^p plus the majorant tail selected by ``mode``."""
    if p not in (1, 2):
        raise ValueError(f"modulus power must be 1 or 2, got {p}")
    if len(z) != f.dim:
        raise ValueError(f"point dimension {len(z)} != series dimension {f.dim}")
    r = inf_norm(z)
    w = eval_schwarz(omega, z)
    head, head_err, path = _composition_modulus(f, w)
    if p == 2:
        # | |f|^2 - head^2 | <= err * (2 head + err)
        head_err = head_err * (2.0 * head + head_err)
        head = head * head
    tail_value, tail_rest = block_sum(f, r, mode.N, mode.step)
    return EvalReport.build(head + tail_value, head_err + tail_rest,
                            detail=f"head={path}")


def functional_C(f: TruncatedSeries, omega: SchwarzMapSpec, z: Point,
                 t: float) -> EvalReport:
    """t |f(omega(z))| + (1-t) * majorant at r = inf-norm of z."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"convex weight must lie in [0,1], got {t}")
    if len(z) != f.dim:
        raise ValueError(f"point dimension {len(z)} != series dimension {f.dim}")
    r = inf_norm(z)
    w = eval_schwarz(omega, z)
    head, head_err, path = _composition_modulus(f, w)
    maj = majorant_sum(f, r)
    value = t * head + (1.0 - t) * maj.value
    tail = t * head_err + (1.0 - t) * maj.tail_bound
    return EvalReport.build(value, tail, detail=f"head={path}")


def functional_D(f: TruncatedSeries, z: Point, lam: float) -> EvalReport:
    """|f(z)| + |Df(z)| + lambda * sum of majorant blocks of degree >= 2."""
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if len(z) != f.dim:
        raise ValueError(f"point dimension {len(z)} != series dimension {f.dim}")
    r = inf_norm(z)
    head, head_err, path = _composition_modulus(f, z)
    df = euler_derivative(f)
    dval = abs(eval_series(df, z))
    derr = df.tail_sum(r)
    mid_value, mid_tail = block_sum(f, r, 2)
    value = head + dval + lam * mid_value
    tail = head_err + derr + lam * mid_tail
    return EvalReport.build(value, tail, detail=f"head={path}")


def functional_E(f: TruncatedSeries, r: float, t: float) -> EvalReport:
    """t * majorant + (1-t) * area sum at the equal polyradius r."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"area weight must lie in (0,1], got {t}")
    maj = majorant_sum(f, r)
    area = area_sum(f, r)
    value = t * maj.value + (1.0 - t) * area.value
    tail = t * maj.tail_bound + (1.0 - t) * area.tail_bound
    return EvalReport.build(value, tail, detail="majorant+area")


def functional_rogosinski_uni(f: TruncatedSeries, z: Point, N: int,
                              p: int = 1) -> EvalReport:
    """Univariate |f(z)|^p + sum_{k>=N} |a_k| r^k."""
    if f.dim != 1:
        raise ValueError(f"univariate functional on a series of dimension {f.dim}")
    return functional_B(f, SchwarzMapSpec(n=1, m=1), z, FromDegree(N), p)
