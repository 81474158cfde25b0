"""Truncated multivariate power series with certified geometric tails.

A function holomorphic near the origin of C^n is held up to total degree K
by its graded data: for each degree k the block sum_{|alpha|=k} |a_alpha|,
the squared block sum_{|alpha|=k} |a_alpha|^2 and the degree-k part P_k(z)
at a point.  Every functional reads only these.  The coefficients a_alpha
are also available as a dict keyed by exponent tuples (absent keys are
zero), which the product series and the a > 0 extremal series build only
when it is asked for; the radial derivative carries none.  An optional
:class:`TailBound` certifies that every discarded degree block satisfies

    sum_{|alpha|=k} |a_alpha|  <=  C * k^weight * q^k      for all k > K,

which bounds truncated majorant, radial-derivative and area sums by closed
forms of degree-weighted geometric series.  All radii are equal polyradii: a
single scalar r with z ranging over the polycircle max_i |z_i| = r.

Every sum over a series runs by ascending degree, and over a dict's terms in
insertion order within each degree.  The package's dicts are built from
:func:`colex_multinomials`, its one multi-index enumerator: by ascending
degree and colexicographically within each degree.

Everything here is a pure function of immutable inputs; concurrent use needs
no synchronisation.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Callable, Iterator, Optional

from .report import EvalReport, record

MultiIndex = tuple[int, ...]
Point = tuple[complex, ...]
CoeffDict = dict[MultiIndex, complex]
# blocks, squared blocks or their first-read thunk, and z -> [P_0(z), ..., P_K(z)]
Graded = tuple[list[float], list[float] | Callable[[], list[float]],
               Callable[[Point], list[complex]]]

# Degree cap for exact multinomial coefficients; far beyond any truncation
# used by the solvers and suites.
MULTINOMIAL_DEGREE_CAP = 60

# Hard cap on the number of multi-indices any one call may materialise.
ENUMERATION_CAP = 10_000_000


class CapacityError(ValueError):
    """Requested enumeration or degree exceeds the documented capacity."""


class DivergentTailError(ValueError):
    """The certified tail does not converge at the requested radius."""


def inf_norm(z: Point) -> float:
    """Max coordinate modulus, the polydisc norm of the point."""
    return max(abs(c) for c in z)


def colex_multinomials(n: int, k: int) -> Iterator[tuple[MultiIndex, int]]:
    """Stream (alpha, k!/alpha!) over dimension n and degree k in colex order,
    the exact multinomial carried as M(head + (last,)) = C(k, last) M(head)."""
    if n == 1:
        yield (k,), 1
        return
    for last in range(k + 1):
        binom = math.comb(k, last)
        if n == 2:
            yield (k - last, last), binom
        else:
            for head, m in colex_multinomials(n - 1, k - last):
                yield head + (last,), binom * m


@record
class TailBound:
    """Certified bound sum_{|alpha|=k} |a_alpha| <= C * k^weight * q^k for
    every degree k above the truncation of the series that carries it.

    ``weight`` is 0 for plainly geometric families and is bumped by one each
    time the radial derivative multiplies blocks by their degree.
    """

    C: float
    q: float
    weight: int = 0

    def __post_init__(self) -> None:
        if self.C < 0 or self.q < 0:
            raise ValueError(f"tail bound needs C, q >= 0, got {self}")
        if self.weight < 0:
            raise ValueError(f"negative tail weight {self.weight}")


def _weighted_geometric_sum(c: float, x: float, weight: int, start: int,
                            step: int = 1) -> float:
    """Sum over k in {start, start+step, ...} of c * k^w * x^k in closed form,
    rounded up past its rounding error.

    With y = x^step and k = start + j step the sum is c x^start sum_{i<=w}
    C(w,i) start^(w-i) step^i M_i(y), where M_i(y) = sum_j j^i y^j is
    1/(1-y) for i = 0 and y A_i(y)/(1-y)^(i+1) otherwise, A_i the Eulerian
    polynomial.  Every term is positive and 1 - y = -expm1(step log x) has no
    cancellation, so a round-up by 4(w+2) units of 2^-52 covers the rounding.
    """
    if c == 0.0 or x == 0.0:
        return 0.0
    if x >= 1.0:
        raise DivergentTailError(f"tail ratio {x} >= 1 at the requested radius")
    if start < 1:
        raise ValueError(f"tail start degree must be >= 1, got {start}")
    y, inv = x ** step, -1.0 / math.expm1(step * math.log(x))
    try:
        eulerian, total = [1], start ** weight * inv
        for i in range(1, weight + 1):
            # A(i, m) = (m+1) A(i-1, m) + (i-m) A(i-1, m-1)
            eulerian = [(m + 1) * b + (i - m) * a for m, (a, b)
                        in enumerate(zip([0] + eulerian, eulerian + [0]))]
            total += (math.comb(weight, i) * start ** (weight - i) * step ** i
                      * y * sum(a * y ** m for m, a in enumerate(eulerian))
                      * inv ** (i + 1))
        total *= c * x ** start * (1.0 + 4 * (weight + 2) * 2.0 ** -52)
    except OverflowError:
        total = math.inf
    if not total < math.inf:
        raise OverflowError(f"weight-{weight} tail from degree {start} at ratio "
                            f"{x} exceeds the float range")
    return total


class TruncatedSeries:
    """A series up to total degree ``max_degree``, held by its graded data:
    ``blocks[k]``, ``squared[k]`` and ``parts(z)[k]`` = P_k(z), k <= max_degree.

    A hand-built dict ``coeffs`` is validated and its graded data derived
    once.  The package's constructors pass ``graded=(blocks, squared, parts)``
    with their dict, or a function that builds the dict on first access;
    ``squared`` may likewise be a function, called on the first read.  A
    derived series (the radial derivative) carries no dict: ``coeffs`` is None.
    ``closed_form``, when present, evaluates the function exactly at a point;
    evaluation-type functionals prefer it over the truncated sum.
    """

    def __init__(self, dim: int, max_degree: int,
                 coeffs: CoeffDict | Callable[[], CoeffDict] | None,
                 tail: Optional[TailBound] = None,
                 closed_form: Optional[Callable[[Point], complex]] = None,
                 graded: Optional[Graded] = None) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if max_degree < 0:
            raise ValueError(f"max degree must be >= 0, got {max_degree}")
        if max_degree + 1 > ENUMERATION_CAP:
            raise CapacityError(f"{max_degree + 1} degree blocks exceed the capacity cap")
        self.dim, self.max_degree, self.tail = dim, max_degree, tail
        self.closed_form, self._coeffs = closed_form, coeffs
        self.blocks, self._squared, self.parts = graded or _graded_from_dict(
            dim, max_degree, coeffs)

    @cached_property
    def coeffs(self) -> CoeffDict | None:
        return self._coeffs() if callable(self._coeffs) else self._coeffs

    @cached_property
    def squared(self) -> list[float]:
        return self._squared() if callable(self._squared) else self._squared

    def tail_sum(self, r: float, start: int = 1, step: int = 1) -> float:
        """Bound for the discarded majorant mass sum_k block_k * r^k.

        The sum ranges over degrees beyond the truncation that are >= start
        and lie in {step, 2*step, 3*step, ...}.
        """
        if not r >= 0:
            raise ValueError(f"radius must be >= 0, got {r}")
        if self.tail is None:
            return 0.0
        first = max(self.max_degree + 1, start)
        first = step * ((first + step - 1) // step)
        return _weighted_geometric_sum(
            self.tail.C, self.tail.q * r, self.tail.weight, first, step)


def _graded_from_dict(dim: int, K: int, coeffs: CoeffDict) -> Graded:
    """Validate a dict and derive its graded data, each degree summed in
    insertion order."""
    blocks, squared = [0.0] * (K + 1), [0.0] * (K + 1)
    for alpha, c in coeffs.items():
        if len(alpha) != dim:
            raise ValueError(f"index {alpha} has dimension {len(alpha)}, expected {dim}")
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative exponent in {alpha}")
        if sum(alpha) > K:
            raise ValueError(f"index {alpha} exceeds max degree {K}")
        blocks[sum(alpha)] += abs(c)
        squared[sum(alpha)] += abs(c) ** 2
    return blocks, squared, partial(dict_parts, coeffs, K)


def dict_parts(coeffs: CoeffDict, K: int, z: Point) -> list[complex]:
    """[P_0(z), ..., P_K(z)] of a dict of degree <= K: each term times the
    nonzero z_i ** alpha_i in coordinate order, from power tables."""
    powers = [[zi ** j for j in range(K + 1)] for zi in z]
    out = [0j] * (K + 1)
    for alpha, term in coeffs.items():
        i = k = 0
        for ai in alpha:
            if ai:
                term *= powers[i][ai]
                k += ai
            i += 1
        out[k] += term
    return out


def eval_series(f: TruncatedSeries, z: Point) -> complex:
    """sum_{k <= K} P_k(z), accumulated by ascending degree."""
    if len(z) != f.dim:
        raise ValueError(f"point dimension {len(z)} != series dimension {f.dim}")
    return sum(f.parts(z), 0j)


def majorant_block_sums(f: TruncatedSeries) -> list[float]:
    """Entry k holds sum_{|alpha|=k} |a_alpha| for 0 <= k <= max_degree."""
    return list(f.blocks)


def squared_block_sums(f: TruncatedSeries) -> list[float]:
    """Entry k holds sum_{|alpha|=k} |a_alpha|^2."""
    return list(f.squared)


def block_sum(f: TruncatedSeries, r: float, start: int = 0,
              step: int = 1) -> tuple[float, float]:
    """Majorant mass sum_k block_k r^k over the degrees {start, start + step,
    ...}: the explicit blocks up to the truncation, and the certified bound
    on the rest.  ``start`` is a multiple of ``step``, as the tail's degrees
    are."""
    blocks = majorant_block_sums(f)
    value = 0.0
    for k in range(start, f.max_degree + 1, step):
        value += blocks[k] * r ** k
    return value, f.tail_sum(r, start, step)


def majorant_sum(f: TruncatedSeries, r: float) -> EvalReport:
    """Majorant value sum_k block_k r^k with a certified remainder, reported
    against 1."""
    return EvalReport.build(*block_sum(f, r), detail="majorant")


def euler_derivative(f: TruncatedSeries) -> TruncatedSeries:
    """The radial derivative sum_k z_k d/dz_k: multiplies the degree-k part
    and block by k and the squared block by k^2.  The tail weight of the
    result is raised by one, so its tail is the closed-form sum of
    C k^(w+1) (q r)^k rather than a loosened geometric constant."""
    tail = None if f.tail is None else TailBound(f.tail.C, f.tail.q, f.tail.weight + 1)
    return TruncatedSeries(f.dim, f.max_degree, None, tail, graded=(
        [k * b for k, b in enumerate(f.blocks)],
        lambda: [k * k * b for k, b in enumerate(f.squared)],
        lambda z: [k * p for k, p in enumerate(f.parts(z))]))


def area_sum(f: TruncatedSeries, r: float) -> EvalReport:
    """Normalised image-area sum: sum_k k (sum_{|alpha|=k} |a_alpha|^2) r^{2k}.

    The remainder uses blockwise l2 <= l1 domination: the squared block at
    degree k is at most (C k^w q^k)^2, so the discarded mass is at most the
    closed-form sum of C^2 k^(2w+1) (q r)^(2k) over k > K.
    """
    if not r >= 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    sq = squared_block_sums(f)
    value = 0.0
    for k, b in enumerate(sq):
        if k >= 1:
            value += k * b * r ** (2 * k)
    tail = 0.0
    if f.tail is not None:
        tail = _weighted_geometric_sum(
            f.tail.C ** 2, (f.tail.q * r) ** 2, 2 * f.tail.weight + 1,
            f.max_degree + 1)
    return EvalReport.build(value, tail, detail="area")
