"""Three-valued evaluation reports shared by the series and functional layers.

Every functional evaluation returns a value together with a rigorous upper
bound on the truncated tail.  Every inequality of the theory compares its
functional against 1, so the verdict is against 1; it is three-valued so
that truncation can never silently mislabel a result:

* ``HOLDS``        value + tail_bound <= 1, conclusive,
* ``VIOLATED``     value alone exceeds 1, conclusive,
* ``INCONCLUSIVE`` value <= 1 < value + tail_bound; raising the
  truncation degree shrinks the tail and resolves the case.

``record`` makes the value classes of every module frozen records.
"""

from __future__ import annotations

import enum


def _values(self) -> tuple:
    return tuple(getattr(self, k) for k in self.__match_args__)


def _repr(self) -> str:
    body = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__match_args__)
    return f"{type(self).__qualname__}({body})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """Make ``cls`` a frozen record, as ``dataclass(frozen=True)`` would: its
    fields, named by ``__match_args__``, are its own non-``ClassVar``
    annotations (strings, under ``from __future__ import annotations``) with
    defaults from the class body.  ``__init__`` stores them and then calls
    ``__post_init__`` if there is one; ``__repr__``, ``__eq__`` (same class
    only) and ``__hash__`` read the field tuple; assignment and deletion raise
    ``AttributeError``."""
    names = tuple(k for k, a in cls.__annotations__.items() if not a.startswith("ClassVar"))
    env = {"_set": object.__setattr__}
    env.update((f"_d_{k}", vars(cls)[k]) for k in names if k in vars(cls))
    params = ", ".join(f"{k}=_d_{k}" if f"_d_{k}" in env else k for k in names)
    body = "".join(f"    _set(self, {k!r}, {k})\n" for k in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    exec(f"def __init__(self, {params}):\n{body}", env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = env["__init__"]
    cls.__match_args__ = names
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls


class Verdict(str, enum.Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    INCONCLUSIVE = "INCONCLUSIVE"


@record
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
