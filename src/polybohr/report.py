"""Three-valued evaluation reports shared by the series and functional layers.

Every functional evaluation returns a value together with a rigorous upper
bound on the truncated tail.  Every inequality of the theory compares its
functional against 1, so the verdict is against 1; it is three-valued so
that truncation can never silently mislabel a result:

* ``HOLDS``        value + tail_bound <= 1, conclusive,
* ``VIOLATED``     value alone exceeds 1, conclusive,
* ``INCONCLUSIVE`` value <= 1 < value + tail_bound; raising the
  truncation degree shrinks the tail and resolves the case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Verdict(str, enum.Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class EvalReport:
    """A functional value, its certified tail bound, and the verdict."""

    value: float
    tail_bound: float
    verdict: Verdict = Verdict.HOLDS
    detail: str = ""

    @staticmethod
    def build(value: float, tail_bound: float, detail: str = "") -> "EvalReport":
        if tail_bound < 0.0:
            raise ValueError(f"negative tail bound {tail_bound}")
        if value > 1.0:
            verdict = Verdict.VIOLATED
        elif value + tail_bound <= 1.0:
            verdict = Verdict.HOLDS
        else:
            verdict = Verdict.INCONCLUSIVE
        return EvalReport(value, tail_bound, verdict, detail)
