"""Constructors for concrete bounded functions on the unit polydisc.

Three kinds of inputs feed the functional and verification layers:

* the extremal Moebius family  f_a(z) = (a - s)/(1 - a s)  with s = z_1+...+z_n,
  whose majorant exceeds 1 just above each sharp radius as a -> 1-,
* products of Blaschke factors, one list per coordinate, which are bounded by
  one on the whole polydisc *by construction* and therefore serve as certified
  random test functions,
* componentwise Schwarz maps omega_i(w) = w^m B_i(w) vanishing to order >= m
  at the origin.

Randomness comes from a 64-bit linear congruential generator with fixed
constants so that seeded streams are byte-identical across platforms.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache, partial
from itertools import compress

from .report import record
from .series import (
    CapacityError,
    ENUMERATION_CAP,
    MULTINOMIAL_DEGREE_CAP,
    MultiIndex,
    Point,
    TailBound,
    TruncatedSeries,
    colex_multinomials,
    inf_norm,
)

# Largest pole-parameter modulus the sampler draws; keeps q = (1+|w|)/2 of the
# certified tails at or below 0.875.
SAMPLE_POLE_MODULUS_CAP = 0.75

# Extremal tables of at most this many heads outlive their series: a head
# takes about 90-180 B, so the eight memoized tables hold a few MB at most,
# where one (6, 30) table alone takes 57 MB.
MEMO_HEADS_CAP = 4096


class Lcg64:
    """Deterministic 64-bit linear congruential generator.

    state_{k+1} = (a * state_k + c) mod 2^64 with Knuth's MMIX constants
    a = 6364136223846793005 and c = 1442695040888963407.  Uniform doubles use
    the top 53 bits.  Chosen over library generators so that seeded output is
    reproducible across platforms and library versions.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = (seed ^ 0x9E3779B97F4A7C15) & self.MASK
        self.next_u64()  # decorrelate small seeds

    def next_u64(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self.MASK
        return self.state

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11  # 53 bits
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        span = hi - lo + 1
        return lo + self.next_u64() % span


@record
class ExtremalSpec:
    """Parameters of the extremal family: a in [0, 1), dimension n >= 1."""

    a: float
    n: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.a < 1.0:
            raise ValueError(f"extremal parameter a must lie in [0,1), got {self.a}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")


def extremal_closed_eval(spec: ExtremalSpec, z: Point) -> complex:
    """(a - s)/(1 - a s) with s = z_1 + ... + z_n, the exact value."""
    if len(z) != spec.n:
        raise ValueError(f"point dimension {len(z)} != {spec.n}")
    s = sum(z)
    denom = 1.0 - spec.a * s
    if abs(denom) < 1e-14:
        raise ValueError(f"evaluation too close to the pole: |1 - a s| = {abs(denom)}")
    return (spec.a - s) / denom


def extremal_series(spec: ExtremalSpec, K: int) -> TruncatedSeries:
    """Expansion a - (1-a^2) sum_{k>=1} a^{k-1} (z_1+...+z_n)^k up to degree K.

    The coefficient at alpha with |alpha| = k >= 1 is c_k (k!/alpha!), with
    c_k = -(1-a^2) a^{k-1}.  For a > 0 the block and squared block of degree
    k are closed forms: |c_k| n^k, certified exactly by
    TailBound(C=(1-a^2)/a, q=a n), and c_k^2 S_n(k) with the exact integers
    S_n(k) = sum_{|alpha|=k} (k!/alpha!)^2 = sum_j C(k,j)^2 S_{n-1}(k-j),
    S_1 = 1.  The parts walk the multi-indices: a degree-k one is a head of
    degree k - last in the first n - 1 coordinates, then ``last``, with
    multinomial C(k, last) M(head), ascending ``last`` visiting colex order.
    The parts, and the dict built from :func:`colex_multinomials` on first
    access only, are bit for bit those of the definition.  For a = 0 the
    series terminates at degree 1 and carries no tail.
    """
    if K < 0:
        raise ValueError(f"max degree must be >= 0, got {K}")
    a, n = spec.a, spec.n
    _check_series_capacity(n, K)
    closed_form = partial(extremal_closed_eval, spec)
    if a == 0.0:
        coeffs = {(0,) * n: complex(a)} | {
            alpha: -1.0 + 0.0j for alpha, _ in colex_multinomials(n, 1)}
        return TruncatedSeries(n, max(K, 1), coeffs, None, closed_form)
    if K > MULTINOMIAL_DEGREE_CAP:
        raise CapacityError(
            f"degree {MULTINOMIAL_DEGREE_CAP + 1} exceeds the multinomial "
            f"cap {MULTINOMIAL_DEGREE_CAP}")
    build = (_extremal_tables if math.comb(K + n - 1, n - 1) <= MEMO_HEADS_CAP
             else _extremal_tables.__wrapped__)
    heads, walk, S = build(n, K)
    # the constant a, then ak[k] = c_k = -(1-a^2) a^{k-1}, the factor of
    # every degree-k multinomial
    scale = -(1.0 - a * a)
    ak = [complex(a)] + [scale * a ** (k - 1) for k in range(1, K + 1)]
    blocks = [abs(c) * n ** k for k, c in enumerate(ak)]
    squared = [abs(c) ** 2 * s for c, s in zip(ak, S)]

    def parts(z: Point) -> list[complex]:
        *powers, last_powers = [[zi ** e for e in range(K + 1)] for zi in z]
        # per head: its multinomial and the powers of its nonzero exponents
        factors = [[(m, [*compress(map(operator.getitem, powers, head), head)])
                    for head, m in group] for group in heads]
        out = [0j] * (K + 1)
        out[0] += ak[0]
        for k in range(1, K + 1):
            acc, c = 0j, ak[k]
            for binom, j, last in walk[k]:
                w = last_powers[last]
                for m, head_powers in factors[j]:
                    term = c * (binom * m)
                    for p in head_powers:
                        term *= p
                    if last:
                        term *= w
                    acc += term
            out[k] = acc
        return out

    def coeffs() -> dict[MultiIndex, complex]:
        return {alpha: ak[k] * m for k in range(K + 1) for alpha, m in colex_multinomials(n, k)}

    return TruncatedSeries(n, K, coeffs, TailBound((1.0 - a * a) / a, a * n), closed_form,
                           graded=(blocks, squared, parts))


@lru_cache(maxsize=8)
def _extremal_tables(n: int, K: int) -> tuple[tuple, tuple, tuple[int, ...]]:
    """Heads, walk and S_n of the degree-K extremal series, built once per
    (n, K) when it has at most MEMO_HEADS_CAP heads (C(K+n-1, n-1))."""
    # heads[j] lists (head, M(head)) of degree j; for n = 1 the one head is ()
    heads = ((((), 1),),) if n == 1 else tuple(
        tuple(colex_multinomials(n - 1, j)) for j in range(K + 1))
    # walk[k] lists (C(k, last), k - last, last) by ascending last
    walk = tuple(tuple((math.comb(k, last), k - last, last)
                       for last in (range(k + 1) if n > 1 else (k,))) for k in range(K + 1))
    S = [1] * (K + 1)
    for _ in range(n - 1):
        S = [sum(math.comb(k, j) ** 2 * S[k - j] for j in range(k + 1)) for k in range(K + 1)]
    return heads, walk, tuple(S)


def _check_series_capacity(n: int, K: int) -> None:
    total = math.comb(K + n, n)
    if total > ENUMERATION_CAP:
        raise CapacityError(
            f"series support C({K + n},{n}) = {total} exceeds the capacity cap")


@record
class BlaschkeFactor:
    """A single disc automorphism factor B_w(z) = (w - z)/(1 - conj(w) z).

    |B_w| <= 1 on the closed unit disc whenever |w| < 1, with series
    B_w(z) = w - (1 - |w|^2) sum_{k>=1} conj(w)^{k-1} z^k.
    """

    w: complex

    def __post_init__(self) -> None:
        if abs(self.w) >= 1.0:
            raise ValueError(f"pole parameter must satisfy |w| < 1, got |w| = {abs(self.w)}")

    def eval(self, z: complex) -> complex:
        return (self.w - z) / (1.0 - self.w.conjugate() * z)

    def deriv(self, z: complex) -> complex:
        d = 1.0 - self.w.conjugate() * z
        return (abs(self.w) ** 2 - 1.0) / (d * d)

    def multiply(self, c: list[complex]) -> list[complex]:
        """(sum_k c_k z^k) B_w(z) up to degree len(c) - 1 in O(len(c)): entry k
        is w c_k - (1-|w|^2) S_k, S_k = conj(w) S_{k-1} + c_{k-1}, S_0 = 0."""
        w, wc, scale = self.w, self.w.conjugate(), 1.0 - abs(self.w) ** 2
        out, acc = [w * c[0]], 0j
        for k in range(1, len(c)):
            acc = wc * acc + c[k - 1]
            out.append(w * c[k] - scale * acc)
        return out

    def majorant_at(self, t: float) -> float:
        """sum_k |coefficient_k| t^k in closed form, finite for |w| t < 1."""
        aw = abs(self.w)
        if aw * t >= 1.0:
            raise ValueError(f"majorant of a Blaschke factor diverges at t = {t}")
        return aw + (1.0 - aw * aw) * t / (1.0 - aw * t)


def _convolve_degrees(vectors: list[list], K: int) -> list:
    """Entry k holds the sum over i_1 + ... + i_n = k of prod_j v_j[i_j], for
    one-variable vectors of length K + 1: the degree-k part of their product."""
    out = vectors[0]
    for v in vectors[1:]:
        out = [sum(map(operator.mul, out[:k + 1], v[k::-1])) for k in range(K + 1)]
    return out


@record
class ProductFunctionSpec:
    """g(z) = e^{i phase} * prod_i prod_j B_{ij}(z_i), unit-bounded on the
    open polydisc by construction."""

    factors: tuple[tuple[BlaschkeFactor, ...], ...]
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("dimension must be >= 1, got 0")

    @property
    def dim(self) -> int:
        return len(self.factors)

    def eval(self, z: Point) -> complex:
        if len(z) != self.dim:
            raise ValueError(f"point dimension {len(z)} != {self.dim}")
        value = cmath.exp(1j * self.phase)
        for zi, facs in zip(z, self.factors):
            for f in facs:
                value *= f.eval(zi)
        return value

    def euler_eval(self, z: Point) -> complex:
        """Exact radial derivative sum_i z_i d/dz_i of the product at z, by one
        product-rule pass: after each factor b = B(z_i), ``value`` is the
        product so far and ``total`` its radial derivative."""
        if len(z) != self.dim:
            raise ValueError(f"point dimension {len(z)} != {self.dim}")
        value, total = cmath.exp(1j * self.phase), 0j
        for zi, facs in zip(z, self.factors):
            for f in facs:
                b = f.eval(zi)
                value, total = value * b, total * b + value * zi * f.deriv(zi)
        return total

    def coordinate_coefficients(self, i: int, K: int) -> list[complex]:
        coeffs = [1.0 + 0.0j] + [0j] * K
        for f in self.factors[i]:
            coeffs = f.multiply(coeffs)
        return coeffs

    def series(self, K: int) -> TruncatedSeries:
        """Truncation to total degree K with a certified geometric tail.

        The graded data are degree convolutions of the per-coordinate |c|,
        |c|^2 (on the first read of the squared blocks) and c_j z_i^j
        vectors.  With q0 = (1 + max|w|)/2 strictly above every pole modulus,
        the Cauchy bound on the product of factor majorants at s = 1/q0 gives
        block_k <= C q0^k for every k, C = prod_{ij} M_{w_ij}(1/q0).
        """
        n = self.dim
        _check_series_capacity(n, K)
        # Each factor's recurrence takes K + 1 multiply-adds, and each of the
        # n - 1 convolution steps of the |c| and |c|^2 vectors (K+1)(K+2)/2.
        work = sum(map(len, self.factors)) * (K + 1) + (n - 1) * (K + 1) * (K + 2)
        if work > ENUMERATION_CAP:
            raise CapacityError(
                f"{work} factor and convolution multiply-adds at degree {K} "
                f"exceed the capacity cap {ENUMERATION_CAP}")
        all_w = [abs(f.w) for facs in self.factors for f in facs]
        per_coord = [self.coordinate_coefficients(i, K) for i in range(n)]
        phase = cmath.exp(1j * self.phase)

        def parts(z: Point) -> list[complex]:
            return [phase * p for p in _convolve_degrees(
                [[c * zi ** j for j, c in enumerate(ci)]
                 for ci, zi in zip(per_coord, z)], K)]

        def coeffs() -> dict[MultiIndex, complex]:
            out = {alpha: math.prod((ci[ai] for ci, ai in zip(per_coord, alpha)), start=phase)
                   for k in range(K + 1) for alpha, _ in colex_multinomials(n, k)}
            return {alpha: c for alpha, c in out.items() if c != 0}

        if not all_w:
            tail = None  # a unimodular constant, exact
        else:
            q0 = (1.0 + max(all_w)) / 2.0
            tail = TailBound(C=math.prod(f.majorant_at(1.0 / q0) for facs in self.factors
                                         for f in facs), q=q0)
        return TruncatedSeries(n, K, coeffs, tail, self.eval, graded=(
            _convolve_degrees([[abs(c) for c in ci] for ci in per_coord], K),
            lambda: _convolve_degrees([[abs(c) ** 2 for c in ci] for ci in per_coord], K),
            parts))


def sample_product_spec(seed: int, n: int, factors_per_coordinate: int) -> ProductFunctionSpec:
    """Deterministic draw of a product function: pole parameters have modulus
    uniform in [0, 0.75] and uniform argument; the global phase is uniform."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if factors_per_coordinate < 0:
        raise ValueError(f"factor count must be >= 0, got {factors_per_coordinate}")
    rng = Lcg64(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    factors = []
    for _ in range(n):
        coord = []
        for _ in range(factors_per_coordinate):
            rho = rng.uniform(0.0, SAMPLE_POLE_MODULUS_CAP)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            coord.append(BlaschkeFactor(rho * cmath.exp(1j * theta)))
        factors.append(tuple(coord))
    return ProductFunctionSpec(factors=tuple(factors), phase=phase)


@record
class SchwarzMapSpec:
    """Componentwise self-maps omega_i(w) = w^m B_i(w) of the unit disc,
    vanishing to order >= m at the origin (B_i a finite Blaschke product,
    possibly empty)."""

    n: int
    m: int
    tails: tuple[tuple[BlaschkeFactor, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"vanishing order must be >= 1, got {self.m}")
        if self.tails and len(self.tails) != self.n:
            raise ValueError(
                f"{len(self.tails)} tail factor lists for dimension {self.n}")

    def component(self, i: int, w: complex) -> complex:
        value = w ** self.m
        if self.tails:
            for f in self.tails[i]:
                value *= f.eval(w)
        return value


def schwarz_power_map(n: int, m: int) -> SchwarzMapSpec:
    """The power map omega(z) = (z_1^m, ..., z_n^m); m = 1 is the identity."""
    return SchwarzMapSpec(n=n, m=m)


def sample_schwarz_map(seed: int, n: int, m: int,
                       factors_per_coordinate: int = 1) -> SchwarzMapSpec:
    """Seeded Schwarz map with Blaschke tail factors on every coordinate."""
    base = sample_product_spec(seed, n, factors_per_coordinate)
    return SchwarzMapSpec(n=n, m=m, tails=base.factors)


def eval_schwarz(omega: SchwarzMapSpec, z: Point) -> Point:
    """Componentwise image; the output inf-norm is at most (inf-norm)^m."""
    if len(z) != omega.n:
        raise ValueError(f"point dimension {len(z)} != {omega.n}")
    if inf_norm(z) >= 1.0:
        raise ValueError("Schwarz maps are defined on the open unit polydisc")
    return tuple(omega.component(i, w) for i, w in enumerate(z))
