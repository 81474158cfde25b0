"""Independent radius oracle: polynomial roots from numpy, polished in mpmath.

The defining equation of every radius family is rebuilt here from its
published form, never from polybohr.  ``numpy.roots`` supplies candidate
roots, each is polished with ``mpmath.findroot`` at 40 digits, and the
smallest one on the family's bracket is the radius.  Keys are plain tuples:

    ("classical", n)            ("rogosinski", N, p)     ("rmn", m, N)
    ("rmnn", m, n, N)           ("an", n, N)             ("convext", t)
    ("convexmnt", m, n, t)      ("euler", n, lam)        ("area", n, t)
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy

mpmath.mp.dps = 40

_SQRT2_MINUS_1 = mpmath.sqrt(2) - 1


def _poly(terms):
    """Sum (power, coefficient) pairs into descending mpf coefficients with
    leading zeros removed."""
    acc: dict[int, mpmath.mpf] = {}
    for k, c in terms:
        acc[k] = acc.get(k, mpmath.mpf(0)) + mpmath.mpf(c)
    desc = [acc.get(k, mpmath.mpf(0)) for k in range(max(acc), -1, -1)]
    while desc and desc[0] == 0:
        desc.pop(0)
    return desc


def _equation(key):
    """(descending coefficients or None, bracket end, n with x = n r, whether
    the variable is x, whether a root at the bracket end counts, closed x)."""
    kind, *p = key
    mpf = mpmath.mpf
    if kind == "classical":
        (n,) = p
        return _poly([(1, 3), (0, -1)]), mpf(1), n, True, True, None
    if kind == "rogosinski":
        N, pw = p
        h = 2 if pw == 1 else 1
        return _poly([(N + 1, h), (N, h), (2, 1), (0, -1)]), mpf(1), 1, False, True, None
    if kind == "rmn":
        m, N = p
        return (_poly([(N, 2), (N + m, 2), (0, -1), (1, 1), (m, 1), (m + 1, -1)]),
                mpf(1), 1, False, True, None)
    if kind == "rmnn":
        m, n, N = p
        c = 2 * mpf(n) ** N
        return (_poly([(N, c), (N + m, c), (0, -1), (1, n), (m, 1), (m + 1, -n)]),
                1 / mpf(n), n, False, True, None)
    if kind == "an":
        n, N = p
        return _poly([(N, 2), (1, 1), (0, -1)]), mpf(1), n, True, True, None
    if kind == "convext":
        (t,) = p
        t = mpf(t)
        return _poly([(2, 4 * t - 3), (1, -2), (0, 1)]), mpf(1), 1, False, True, None
    if kind == "convexmnt":
        m, n, t = p
        t, s = mpf(t), mpf(n) ** (m - 1)
        # The minimum-root scan covers (0, 1] but reports a zero at x = 1
        # without a sign change as "no root", so only interior roots count.
        return (_poly([(m + 1, 4 * t - 3), (m, -(2 * t - 1)), (1, (2 * t - 3) * s), (0, s)]),
                mpf(1), n, True, False, None)
    if kind == "euler":
        n, lam = p
        lam = mpf(lam)
        if lam > mpf(1) / 2:
            terms = [(4, 2 * lam), (3, 4 * lam - 1), (2, 2 * lam - 1), (1, 3), (0, -1)]
        else:
            terms = [(4, 1), (3, 1), (1, 3), (0, -1)]
        return _poly(terms), _SQRT2_MINUS_1, n, True, True, None
    if kind == "area":
        n, t = p
        if t >= 9 / 17:
            return None, mpf(1) / 3, n, True, True, mpf(1) / 3
        t = mpf(t)
        return (_poly([(3, t), (2, t), (1, 4 - 5 * t), (0, -t)]),
                mpf(1) / 3, n, True, True, None)
    raise KeyError(f"unknown family key {key!r}")


def _polish(desc, x0):
    f = lambda x: mpmath.polyval(desc, x)  # noqa: E731
    try:
        return mpmath.findroot(f, mpmath.mpf(x0))
    except (ValueError, ZeroDivisionError):
        # A multiple root defeats the secant step; high-precision roots of
        # the whole polynomial resolve it.
        near = min(mpmath.polyroots(desc, maxsteps=400, extraprec=400),
                   key=lambda z: abs(z - x0))
        return mpmath.re(near)


@functools.lru_cache(maxsize=None)
def radius(key) -> tuple[float, float] | None:
    """(r, x) of the smallest root on the family's bracket, x = n r, or None
    when the bracket holds no root."""
    desc, hi, n, is_x, closed_end, closed = _equation(key)
    if closed is not None:
        root = closed
    else:
        roots = []
        for z in numpy.roots([float(c) for c in desc]):
            if abs(z.imag) > 1e-6 or not -1e-9 < z.real < float(hi) + 1e-6:
                continue
            x = _polish(desc, z.real)
            inside = x <= hi + mpmath.mpf(10) ** -30 if closed_end else x < hi - mpmath.mpf(10) ** -12
            if x > 0 and inside:
                roots.append(x)
        if not roots:
            return None
        root = min(roots)
    if is_x:
        return float(root / n), float(root)
    return float(root), float(root * n)


def close(got: float, want: float, tol: float = 1e-12) -> bool:
    return isinstance(got, float) and math.isfinite(got) and abs(got - want) <= tol
