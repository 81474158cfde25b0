"""polybohr benchmark: closed-loop workloads driven through the public API.

    python3 polybench/run.py --workload suites --seed 1 --seconds 30 --trace 0

One caller in one process sends the next item only after the previous one
returns.  Items come from a list made from ``--seed``; ``POLYBOHR_THREADS`` is
removed from the environment so the package runs at its default.  Every
output is checked; the last line of stdout is the JSON result.  With
``--trace 0`` the run measures items for ``--seconds`` of item time and
reports the end-to-end metrics.  With ``--trace 1`` it runs a fixed number
of rounds with timing shims installed, then the same items without them, and
reports the per-layer metrics and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import shims
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"  # spans of traced runs
SETUP_REPEATS = 9
# Timed items run in this many passes over the same list, spread across the
# run; an item's latency is its fastest pass (see README, "Load model").
PASSES = 4
# The first pass runs at least this many items, so p95 has 10 beyond it.
MIN_ITEMS = 200
END_TO_END_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p95_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import polybohr, polybohr.cli; "
                 "print(time.perf_counter() - t)")


def load_polybohr():
    """Import polybohr from this checkout's src/ and nowhere else."""
    os.environ.pop("POLYBOHR_THREADS", None)
    sys.path.insert(0, str(SRC))
    import polybohr
    import polybohr.cli  # noqa: F401  (binds polybohr.cli)

    if Path(polybohr.__file__).resolve().parent != SRC / "polybohr":
        raise ImportError(f"polybohr imported from {polybohr.__file__}, not {SRC}")
    return polybohr


def import_seconds() -> float:
    """Import time of polybohr and polybohr.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def measure_setup(wl, pb, seed: int, repeats: int = SETUP_REPEATS, rounds: int | None = None):
    """Median over repeats of import time plus input generation time.  Runs
    after ``load_polybohr``, so the child inherits an environment without
    ``POLYBOHR_THREADS``."""
    rounds = rounds or wl.list_rounds
    samples = []
    for _ in range(repeats):
        imported = import_seconds()
        start = time.perf_counter()
        items = wl.make_items(pb, seed, rounds)
        samples.append(imported + time.perf_counter() - start)
    return statistics.median(samples), samples, items


class Pass:
    """Latencies, failures and deferred oracle references of a run of items."""

    def __init__(self) -> None:
        self.latency_ns: list[int] = []
        self.failed: set[int] = set()
        self.refs: list[tuple[int, list]] = []
        self.prints: dict[int, object] = {}


def run_items(wl, pb, items, start: int, *, seconds: float | None = None,
              count: int | None = None, min_count: int = 1, tracer=None,
              expect: dict | None = None) -> Pass:
    """Closed loop from item ``start`` until ``count`` items ran, or until
    their summed latency reached ``seconds`` and at least ``min_count`` ran;
    checks run outside the timed call.
    With ``expect`` (fingerprints from an earlier pass over the same items)
    each output must equal the earlier one instead of being checked again."""
    out = Pass()
    busy, limit, i = 0, (seconds or 0.0) * 1e9, start
    while (len(out.latency_ns) < count if count is not None
           else busy < limit or len(out.latency_ns) < min_count):
        item = items[i % len(items)]
        if tracer is not None:
            tracer.item = i
        t0 = time.perf_counter_ns()
        try:
            result = wl.run(pb, item)
        except (Exception, SystemExit) as exc:  # an item that raises is a failure
            result = exc
        elapsed = time.perf_counter_ns() - t0
        busy += elapsed
        out.latency_ns.append(elapsed)
        if isinstance(result, BaseException):
            print(f"item {i} raised {type(result).__name__}: {result}", file=sys.stderr)
            out.failed.add(i)
        else:
            if tracer is not None and wl.name == "cli_records":
                tracer.counts["cli.bytes_out"] += len(result[1])
            if expect is not None:
                ok, refs = wl.fingerprint(result) == expect.get(i), []
            else:
                try:
                    ok, refs = wl.check(item, result)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    ok, refs = False, []
                    print(f"item {i} output unreadable: {exc!r}", file=sys.stderr)
                out.prints[i] = wl.fingerprint(result)
            if not ok:
                print(f"item {i} failed its output check", file=sys.stderr)
                out.failed.add(i)
            out.refs.append((i, refs))
        i += 1
    return out


def check_deferred(passes) -> None:
    for p in passes:
        for i, refs in p.refs:
            try:
                agrees = workloads.check_refs(refs)
            except (TypeError, ValueError, KeyError) as exc:
                agrees = False
                print(f"item {i} reference unreadable: {exc!r}", file=sys.stderr)
            if not agrees:
                print(f"item {i} disagrees with the oracle", file=sys.stderr)
                p.failed.add(i)


def machine_and_inputs(wl, seed: int, seconds: float, trace: bool, items,
                       setup_samples) -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "polybohr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_model": cpu, "commit": commit, "src_sha256": digest.hexdigest(),
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "setup_samples_s": setup_samples, "sizes": wl.sizes(items),
    }


def quantiles(latency_ns: list[int]) -> tuple[float, float]:
    ms = [x / 1e6 for x in latency_ns]
    if len(ms) < 2:
        return ms[0], ms[0]
    cuts = statistics.quantiles(ms, n=20, method="inclusive")
    return statistics.median(ms), cuts[18]


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        setup_repeats: int = SETUP_REPEATS, list_rounds: int | None = None,
        trace_rounds: int | None = None, min_items: int = MIN_ITEMS) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, machine-and-inputs record)."""
    pb = load_polybohr()
    wl = workloads.WORKLOADS[workload]
    setup_s, setup_samples, items = measure_setup(wl, pb, seed, setup_repeats, list_rounds)
    passes = [run_items(wl, pb, items, 0, count=wl.round_len)]  # warm-up round
    start = wl.round_len
    if trace:
        count = (trace_rounds or wl.trace_rounds) * wl.round_len
        tracer = shims.Tracer()
        tracer.install()
        try:
            passes.append(run_items(wl, pb, items, start, count=count, tracer=tracer))
        finally:
            tracer.uninstall()
        passes.append(run_items(wl, pb, items, start, count=count))
        check_deferred(passes)
        values = tracer.layer_metrics()
        traced_s, untraced_s = (sum(p.latency_ns) / 1e9 for p in passes[1:])
        values["trace.untraced_items_per_s"] = count / untraced_s
        values["trace.traced_items_per_s"] = count / traced_s
        values["trace.overhead_ratio"] = traced_s / untraced_s
        units = shims.PER_LAYER_UNITS
        timed = passes[1]
        shim_calls = dict(tracer.call_counts())
        spans_file = OUT / f"spans-{workload}-{seed}.jsonl"
        tracer.write(spans_file)
    else:
        timed = run_items(wl, pb, items, start, seconds=seconds / PASSES,
                          min_count=min_items)
        passes.append(timed)
        for _ in range(PASSES - 1):
            passes.append(run_items(wl, pb, items, start, count=len(timed.latency_ns),
                                    expect=timed.prints))
        best = [min(runs) for runs in zip(*(p.latency_ns for p in passes[1:]))]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_deferred(passes)
        p50, p95 = quantiles(best)
        values = {"items_per_s": len(best) / (sum(best) / 1e9),
                  "item_p50_ms": p50, "item_p95_ms": p95,
                  "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
        shim_calls = spans_file = None
    attempted = sum(len(p.latency_ns) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }
    record = machine_and_inputs(wl, seed, seconds, trace, items, setup_samples)
    record["timed_items"] = len(timed.latency_ns)
    record["shim_calls"] = shim_calls
    record["spans_file"] = spans_file and str(spans_file.relative_to(ROOT))
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import polybohr from {SRC}: {exc}", file=sys.stderr)
        return 2
    print("inputs " + json.dumps(record))
    n = record["timed_items"]
    print(f"{args.workload}: {n} timed items, {n - n * 19 // 20} at or beyond p95; "
          f"fail_ratio {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
