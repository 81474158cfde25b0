"""The record classes: fields, repr, equality, hashing, immutability and
construction, pinned to what ``dataclass(frozen=True)`` gave each of them,
and a cold import that loads neither ``dataclasses`` nor ``inspect``."""

from __future__ import annotations

import math
import subprocess
import sys
from typing import ClassVar

import pytest

from polybohr import families, functionals, radii, report, series, verify
from polybohr.families import BlaschkeFactor, ExtremalSpec, ProductFunctionSpec, SchwarzMapSpec
from polybohr.functionals import FromDegree, MultiplesOf
from polybohr.radii import (
    AN,
    AreaT,
    Classical,
    ConvexMNT,
    ConvexT,
    EulerLambda,
    RadiusResult,
    RmN,
    RmnN,
    RogosinskiUni,
)
from polybohr.report import EvalReport, Verdict, record
from polybohr.series import TailBound
from polybohr.verify import AuditStats, CaseResult, ClosedFormCheck, SuiteConfig, SuiteReport

CASE = CaseResult(1, 42, "HOLDS", 0.5, 1e-12, 16, "d")
CASE_REPR = ("CaseResult(index=1, seed=42, verdict='HOLDS', value=0.5, "
             "tail_bound=1e-12, k_used=16, detail='d')")

# class, its fields in order, its defaults, a positional sample, the sample's repr
RECORDS = [
    (EvalReport, ("value", "tail_bound", "verdict", "detail"),
     {"verdict": Verdict.HOLDS, "detail": ""},
     (0.5, 0.25, Verdict.INCONCLUSIVE, "x"),
     "EvalReport(value=0.5, tail_bound=0.25, "
     "verdict=<Verdict.INCONCLUSIVE: 'INCONCLUSIVE'>, detail='x')"),
    (TailBound, ("C", "q", "weight"), {"weight": 0}, (2.0, 0.5, 1),
     "TailBound(C=2.0, q=0.5, weight=1)"),
    (ExtremalSpec, ("a", "n"), {}, (0.5, 2), "ExtremalSpec(a=0.5, n=2)"),
    (BlaschkeFactor, ("w",), {}, (0.25 + 0.5j,), "BlaschkeFactor(w=(0.25+0.5j))"),
    (ProductFunctionSpec, ("factors", "phase"), {"phase": 0.0},
     (((BlaschkeFactor(0.5),),), 0.25),
     "ProductFunctionSpec(factors=((BlaschkeFactor(w=0.5),),), phase=0.25)"),
    (SchwarzMapSpec, ("n", "m"), {}, (2, 3), "SchwarzMapSpec(n=2, m=3)"),
    (FromDegree, ("N",), {}, (3,), "FromDegree(N=3)"),
    (MultiplesOf, ("N",), {}, (3,), "MultiplesOf(N=3)"),
    (RadiusResult,
     ("family", "radius_r", "radius_x", "residual", "bracket", "multiplicity_note"),
     {"multiplicity_note": ""},
     (Classical(1), 0.25, 0.25, 0.0, (0.0, 0.5), "closed form"),
     "RadiusResult(family=Classical(n=1), radius_r=0.25, radius_x=0.25, "
     "residual=0.0, bracket=(0.0, 0.5), multiplicity_note='closed form')"),
    (Classical, ("n",), {}, (2,), "Classical(n=2)"),
    (RogosinskiUni, ("N", "p"), {"p": 1}, (1, 2), "RogosinskiUni(N=1, p=2)"),
    (RmN, ("m", "N"), {}, (2, 3), "RmN(m=2, N=3)"),
    (RmnN, ("m", "n", "N"), {}, (2, 3, 4), "RmnN(m=2, n=3, N=4)"),
    (AN, ("n", "N"), {}, (2, 3), "AN(n=2, N=3)"),
    (ConvexT, ("t",), {}, (0.5,), "ConvexT(t=0.5)"),
    (ConvexMNT, ("m", "n", "t"), {}, (2, 3, 0.5), "ConvexMNT(m=2, n=3, t=0.5)"),
    (EulerLambda, ("n", "lam"), {}, (2, 0.5), "EulerLambda(n=2, lam=0.5)"),
    (AreaT, ("n", "t"), {}, (1, 0.4), "AreaT(n=1, t=0.4)"),
    (SuiteConfig,
     ("family", "samples", "margin_below", "margin_above", "seed",
      "factors_per_coordinate", "k_cap"),
     {"samples": 200, "margin_below": 0.99, "margin_above": 0.02, "seed": 0,
      "factors_per_coordinate": 3, "k_cap": 512},
     (Classical(1), 5, 0.9, 0.05, 7, 2, 64),
     "SuiteConfig(family=Classical(n=1), samples=5, margin_below=0.9, "
     "margin_above=0.05, seed=7, factors_per_coordinate=2, k_cap=64)"),
    (CaseResult,
     ("index", "seed", "verdict", "value", "tail_bound", "k_used", "detail"),
     {"detail": ""}, (1, 42, "HOLDS", 0.5, 1e-12, 16, "d"), CASE_REPR),
    (SuiteReport,
     ("suite", "family_label", "radius_r", "eval_radius", "cases", "failures",
      "witness_a", "notes"),
     {"witness_a": None, "notes": ""},
     ("hold-below", "Classical(n=1)", 0.25, 0.5, (CASE,), (), 0.9, "n"),
     "SuiteReport(suite='hold-below', family_label='Classical(n=1)', "
     f"radius_r=0.25, eval_radius=0.5, cases=({CASE_REPR},), "
     "failures=(), witness_a=0.9, notes='n')"),
    (AuditStats, ("pairs", "violations", "checks", "worst_margin"),
     {"worst_margin": math.inf}, (10, 0, {"growth": 10}, 0.125),
     "AuditStats(pairs=10, violations=0, checks={'growth': 10}, worst_margin=0.125)"),
    (ClosedFormCheck,
     ("a", "n", "r", "series_value", "closed_value", "rel_error", "k_used"),
     {}, (0.5, 2, 0.1, 0.2, 0.25, 0.0, 16),
     "ClosedFormCheck(a=0.5, n=2, r=0.1, series_value=0.2, closed_value=0.25, "
     "rel_error=0.0, k_used=16)"),
]

# records with a dict field, which are unhashable like their field tuples
UNHASHABLE = {AuditStats}

each_record = pytest.mark.parametrize(
    "cls,fields,defaults,args,text",
    [pytest.param(*row, id=row[0].__name__) for row in RECORDS])


def test_every_record_class_is_listed():
    found = {cls for mod in (families, functionals, radii, report, series, verify)
             for cls in vars(mod).values()
             if isinstance(cls, type) and "__match_args__" in vars(cls)}
    assert found == {row[0] for row in RECORDS}
    assert len(found) == 23


@each_record
def test_fields_in_order(cls, fields, defaults, args, text):
    assert cls.__match_args__ == fields


@each_record
def test_repr(cls, fields, defaults, args, text):
    assert repr(cls(*args)) == text


@each_record
def test_equal_values_are_equal_and_hash_alike(cls, fields, defaults, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(args)


@each_record
def test_fields_cannot_be_assigned_or_deleted(cls, fields, defaults, args, text):
    x = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert repr(x) == text


@each_record
def test_keyword_positional_and_defaulted_construction(cls, fields, defaults, args, text):
    x = cls(*args)
    assert cls(**dict(zip(fields, args))) == x
    assert tuple(getattr(x, name) for name in fields) == args
    required = args[:len(fields) - len(defaults)]
    y = cls(*required)
    assert tuple(getattr(y, name) for name in fields) == required + tuple(defaults.values())


@each_record
def test_missing_argument_is_a_type_error(cls, fields, defaults, args, text):
    last = len(fields) - len(defaults) - 1
    with pytest.raises(TypeError, match=(rf"{cls.__name__}\.__init__\(\) missing 1 "
                                         rf"required positional argument: '{fields[last]}'")):
        cls(*args[:last])


def test_suite_report_summaries_come_from_its_cases():
    sample = SuiteReport("hold-below", "Classical(n=1)", 0.25, 0.5, (CASE,), ())
    assert sample.counts == {"HOLDS": 1, "VIOLATED": 0, "INCONCLUSIVE": 0}
    assert sample.worst_slack == 1 - (0.5 + 1e-12)
    cases = (CASE, CaseResult(2, 43, "VIOLATED", 1.25, 0.0, 32),
             CaseResult(3, 44, "INCONCLUSIVE", 0.875, 0.25, 64))
    report = SuiteReport("hold-below", "Classical(n=1)", 0.25, 0.5, cases,
                         failures=cases[1:])
    assert report.counts == {"HOLDS": 1, "VIOLATED": 1, "INCONCLUSIVE": 1}
    assert report.worst_slack == min(1 - (c.value + c.tail_bound) for c in cases) == -0.25
    assert (report.total, report.passed) == (3, False)


@record
class Pair:
    x: int
    y: int = 0
    kind: ClassVar[str] = "pair"


@record
class OtherPair:
    x: int
    y: int = 0


def test_same_fields_in_two_classes_are_not_equal():
    assert Pair.__match_args__ == OtherPair.__match_args__ == ("x", "y")
    assert Pair(1, 2) == Pair(1, 2)
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert Pair(1, 2) != Pair(1, 3)
    assert FromDegree(3) != MultiplesOf(3)


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; bare = set(sys.modules); import polybohr, polybohr.cli; "
            "print(*sorted(set(sys.modules) - bare))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "polybohr.cli" in added
    assert not added & {"dataclasses", "inspect"}
