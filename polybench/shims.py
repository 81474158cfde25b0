"""Timing shims around polybohr's public functions, and the per-layer metrics
derived from the spans they record.

A shim replaces the function in every polybohr module namespace that holds
it (``functionals`` and ``verify`` bind ``from .series import ...`` names at
import time) and on the class for methods.  Spans stay in memory: name,
start, end, parent, item id and thread id.  A span opened on a worker thread
with no open span of its own is a child of the suite span that started the
pool.  ``poly`` and ``EvalReport.build`` run too often for spans and are
counted only.
"""

from __future__ import annotations

import copy
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

# (layer, module, attribute); "Class.method" patches the class.
SPANNED = [
    ("families.series", "polybohr.families", "ProductFunctionSpec.series"),
    ("families.series", "polybohr.families", "extremal_series"),
    ("families.sample", "polybohr.families", "sample_product_spec"),
    ("series.block_sums", "polybohr.series", "majorant_block_sums"),
    ("series.block_sums", "polybohr.series", "squared_block_sums"),
    ("series.majorant_sum", "polybohr.series", "majorant_sum"),
    ("series.area_sum", "polybohr.series", "area_sum"),
    ("series.tail_sum", "polybohr.series", "TruncatedSeries.tail_sum"),
    ("series.eval", "polybohr.series", "eval_series"),
    ("series.euler_derivative", "polybohr.series", "euler_derivative"),
    *[("functionals", "polybohr.functionals", f"functional_{x}")
      for x in ("A", "B", "C", "D", "E", "rogosinski_uni")],
    ("radii.solve", "polybohr.radii", "solve"),
    ("radii.min_root", "polybohr.radii", "min_positive_root"),
    ("radii.bisection", "polybohr.radii", "bracketed_bisection"),
    ("verify.suite", "polybohr.verify", "check_holds_below"),
    ("verify.suite", "polybohr.verify", "check_sharpness_above"),
    ("cli.main", "polybohr.cli", "main"),
]
COUNTED = [("report.build", "polybohr.report", "EvalReport.build")]
POLY_MODULE = "polybohr.radii"  # every class defining ``poly`` is counted

# Which workloads call each shim; the self-test asserts each records a call.
EXERCISED_BY = {
    "ProductFunctionSpec.series": ("suites", "deep_series"),
    "extremal_series": ("suites", "deep_series"),
    "sample_product_spec": ("suites", "deep_series"),
    "majorant_block_sums": ("deep_series",),
    "squared_block_sums": ("deep_series",),
    "majorant_sum": ("deep_series",),
    "area_sum": ("deep_series",),
    "TruncatedSeries.tail_sum": ("deep_series",),
    "eval_series": ("deep_series",),
    "euler_derivative": ("deep_series", "suites"),
    "functional_A": ("deep_series", "suites"),
    "functional_B": ("deep_series", "suites"),
    "functional_C": ("deep_series", "suites"),
    "functional_D": ("deep_series", "suites"),
    "functional_E": ("deep_series", "suites"),
    # RogosinskiUni stays out of the suites while its radius is known wrong.
    "functional_rogosinski_uni": (),
    "solve": ("suites", "cli_records"),
    "min_positive_root": ("cli_records",),
    "bracketed_bisection": ("cli_records",),
    "check_holds_below": ("suites",),
    "check_sharpness_above": ("suites",),
    "main": ("cli_records",),
    "EvalReport.build": ("suites", "deep_series"),
    "poly": ("cli_records",),
}

PER_LAYER_UNITS = {
    "families.series_calls": "count", "families.series_ms": "ms",
    "families.terms": "count", "families.sample_calls": "count",
    "series.block_sums_calls": "count", "series.block_sums_ms": "ms",
    "series.majorant_sum_ms": "ms", "series.area_sum_ms": "ms",
    "series.tail_sum_ms": "ms", "series.eval_ms": "ms",
    "series.euler_derivative_ms": "ms",
    "functionals.calls": "count", "functionals.self_ms": "ms",
    "functionals.closed_form_ratio": "ratio",
    "radii.solve_calls": "count", "radii.solve_ms": "ms",
    "radii.min_root_ms": "ms", "radii.bisection_ms": "ms",
    "radii.poly_evals": "count",
    "verify.suite_calls": "count", "verify.cases": "count",
    "verify.self_ms": "ms", "verify.threads_seen": "count",
    "verify.escalations": "count", "verify.k_used_max": "count",
    "report.builds": "count", "report.inconclusive_ratio": "ratio",
    "cli.commands": "count", "cli.self_ms": "ms", "cli.bytes_out": "B",
    "trace.untraced_items_per_s": "1/s", "trace.traced_items_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def _observe_series(tracer, args, result):
    tracer.counts["families.terms"] += len(result.coeffs)


def _observe_functional(tracer, args, result):
    if result.detail.startswith("head="):
        tracer.counts["functionals.heads"] += 1
        tracer.counts["functionals.closed_form"] += result.detail == "head=closed-form"


def _observe_suite(tracer, args, result):
    k_start = args[0].k_start
    tracer.counts["verify.cases"] += len(result.cases)
    tracer.counts["verify.escalations"] += sum(c.k_used > k_start for c in result.cases)
    tracer.k_used_max = max([tracer.k_used_max] + [c.k_used for c in result.cases])


def _observe_build(tracer, args, result):
    tracer.counts["report.inconclusive"] += result.verdict.value == "INCONCLUSIVE"


OBSERVERS = {"families.series": _observe_series, "functionals": _observe_functional,
             "verify.suite": _observe_suite, "report.build": _observe_build}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, layer, start, end, item, thread)
        self.calls: Counter = Counter()  # per shim target
        self.counts: Counter = Counter()
        self.k_used_max = 0
        self.item = None
        self._suite = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._poly_ticks = itertools.count()
        self._undo: list[tuple] = []

    def _spanned(self, layer, target, fn):
        observe = OBSERVERS.get(layer)

        def shim(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._suite
            sid = next(self._ids)
            stack.append(sid)
            is_suite = layer == "verify.suite"
            if is_suite:
                self._suite = sid
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if is_suite:
                    self._suite = parent
                with self._lock:
                    self.spans.append((sid, parent, layer, start, end, self.item,
                                       threading.get_ident()))
                    self.calls[target] += 1
            if observe:
                with self._lock:
                    observe(self, args, result)
            return result

        return shim

    def _counted(self, layer, target, fn):
        observe = OBSERVERS.get(layer)

        def shim(*args, **kwargs):
            result = fn(*args, **kwargs)
            with self._lock:
                self.calls[target] += 1
                if observe:
                    observe(self, args, result)
            return result

        return shim

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "polybohr" or name.startswith("polybohr.")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, modname, attr in table:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    self._patch_method(getattr(owner, cls_name), meth,
                                       lambda fn: make(layer, attr, fn))
                    continue
                fn = getattr(owner, attr)
                shim = make(layer, attr, fn)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, name, fn))
                            setattr(mod, name, shim)
        for cls in vars(sys.modules[POLY_MODULE]).values():
            if isinstance(cls, type) and "poly" in vars(cls):
                self._patch_method(cls, "poly", self._ticked)

    def _ticked(self, fn):
        """Counts calls without a lock: ``next`` on a count is one C call,
        which the interpreter lock keeps atomic."""
        ticks = self._poly_ticks

        def shim(*args, **kwargs):
            next(ticks)
            return fn(*args, **kwargs)

        return shim

    def _patch_method(self, cls, meth, make) -> None:
        raw = vars(cls)[meth]
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        self._undo.append((cls, meth, raw))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def write(self, path) -> None:
        """Spans as JSON lines: [id, parent, layer, start_ns, end_ns, item, thread]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def call_counts(self) -> Counter:
        """Calls recorded per shim target."""
        return self.calls + Counter({"poly": next(copy.copy(self._poly_ticks))})

    def layer_metrics(self) -> dict[str, float]:
        by_layer = defaultdict(list)
        children = defaultdict(list)
        for span in self.spans:
            by_layer[span[2]].append(span)
            children[span[1]].append(span)

        def total_ms(layer):
            return sum(s[4] - s[3] for s in by_layer[layer]) / 1e6

        def self_ms(layer):
            total = 0
            for s in by_layer[layer]:
                covered, edge = 0, s[3]
                for _, _, _, start, end, _, _ in sorted(children[s[0]], key=lambda c: c[3]):
                    start, end = max(start, edge), min(end, s[4])
                    if end > start:
                        covered += end - start
                        edge = end
                total += s[4] - s[3] - covered
            return total / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        builds = self.calls["EvalReport.build"]
        return {
            "families.series_calls": len(by_layer["families.series"]),
            "families.series_ms": total_ms("families.series"),
            "families.terms": c["families.terms"],
            "families.sample_calls": len(by_layer["families.sample"]),
            "series.block_sums_calls": len(by_layer["series.block_sums"]),
            "series.block_sums_ms": total_ms("series.block_sums"),
            "series.majorant_sum_ms": total_ms("series.majorant_sum"),
            "series.area_sum_ms": total_ms("series.area_sum"),
            "series.tail_sum_ms": total_ms("series.tail_sum"),
            "series.eval_ms": total_ms("series.eval"),
            "series.euler_derivative_ms": total_ms("series.euler_derivative"),
            "functionals.calls": len(by_layer["functionals"]),
            "functionals.self_ms": self_ms("functionals"),
            "functionals.closed_form_ratio": ratio(c["functionals.closed_form"],
                                                   c["functionals.heads"]),
            "radii.solve_calls": len(by_layer["radii.solve"]),
            "radii.solve_ms": total_ms("radii.solve"),
            "radii.min_root_ms": total_ms("radii.min_root"),
            "radii.bisection_ms": total_ms("radii.bisection"),
            "radii.poly_evals": self.call_counts()["poly"],
            "verify.suite_calls": len(by_layer["verify.suite"]),
            "verify.cases": c["verify.cases"],
            "verify.self_ms": self_ms("verify.suite"),
            "verify.threads_seen": max((len({k[6] for k in children[s[0]]})
                                        for s in by_layer["verify.suite"]), default=0),
            "verify.escalations": c["verify.escalations"],
            "verify.k_used_max": self.k_used_max,
            "report.builds": builds,
            "report.inconclusive_ratio": ratio(c["report.inconclusive"], builds),
            "cli.commands": len(by_layer["cli.main"]),
            "cli.self_ms": self_ms("cli.main"),
            "cli.bytes_out": c["cli.bytes_out"],
        }
