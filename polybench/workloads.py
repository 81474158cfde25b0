"""The three workloads: item lists made from a seed, the call each item makes
into polybohr, and the checks on its output.

Items come in rounds.  Every round holds the same mix of item kinds with
fresh seeded parameters, so each run measures the same mix whatever the seed,
and the heaviest kind (one tenth or more of the items) is where p95 falls.

Every call goes through an attribute of a polybohr module at call time, so
the tracing shims installed on those modules see it.

Each workload's item list holds ``list_rounds`` rounds (a run that gets
through them all starts over from the first); a traced run times
``trace_rounds`` rounds, a fixed count so that layer counts repeat exactly
for a seed.

``check`` returns whether the output passed the checks that need nothing
beyond the item, plus references to compare against the radius oracle once
timing is over (the oracle imports numpy and mpmath, which would otherwise
count in the process's peak memory).
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import random

import exact

# The acceptance-gate families of the hold-below and sharpness suites.
SUITE_FAMILIES = (
    ("classical", 1), ("classical", 2), ("classical", 3),
    ("rmnn", 1, 1, 1), ("rmnn", 2, 2, 2),
    ("euler", 1, 0.5), ("euler", 1, 2.0),
    ("area", 1, 0.4), ("area", 2, 0.8),
    ("convext", 0.5),
)
SUITE_SAMPLES = 60
# Suite defaults the checks depend on (SuiteConfig).
MARGIN_ABOVE = 0.02
A_SCHEDULE = (0.9, 0.99, 0.999)

# (n, K) truncations of deep_series; the largest rung sets peak memory.
LADDER = ((2, 48), (3, 28), (4, 24))
# Items per rung in one round: the largest rung is one item in eleven, so p95
# falls in the middle of its latencies, and p50 inside the (3, 28) items.
RUNG_ITEMS = (4, 6, 1)
RADII_PER_ITEM = 1
FUNCTIONALS = ("A", "B_from", "B_mult", "C", "D", "E")

_CONSTRUCTORS = {
    "classical": "Classical", "rogosinski": "RogosinskiUni", "rmn": "RmN",
    "rmnn": "RmnN", "an": "AN", "convext": "ConvexT", "convexmnt": "ConvexMNT",
    "euler": "EulerLambda", "area": "AreaT",
}


def make_family(pb, key):
    return getattr(pb, _CONSTRUCTORS[key[0]])(*key[1:])


class Suites:
    name = "suites"
    round_len = len(SUITE_FAMILIES)
    list_rounds = 80
    trace_rounds = 25

    def make_items(self, pb, seed: int, rounds: int) -> list:
        rng = random.Random(seed)
        return [(key, make_family(pb, key), rng.randrange(1 << 31))
                for _ in range(rounds) for key in SUITE_FAMILIES]

    def run(self, pb, item):
        _, family, seed = item
        below = pb.check_holds_below(
            pb.SuiteConfig(family=family, samples=SUITE_SAMPLES, seed=seed))
        above = pb.check_sharpness_above(pb.SuiteConfig(family=family, seed=seed))
        return below, above

    def fingerprint(self, out):
        below, above = out
        return hash((tuple((c.verdict, c.value, c.tail_bound, c.k_used) for c in below.cases),
                     tuple((c.verdict, c.value, c.tail_bound, c.k_used) for c in above.cases),
                     below.radius_r, above.radius_r, above.witness_a))

    def check(self, item, out):
        key = item[0]
        below, above = out
        ok = (below.passed and below.total == SUITE_SAMPLES
              and below.counts["HOLDS"] == SUITE_SAMPLES)
        refs = [("r", key, below.radius_r), ("r", key, above.radius_r),
                ("witness", key, above.witness_a)]
        return ok, refs

    def sizes(self, items) -> dict:
        return {"families": [list(k) for k in SUITE_FAMILIES],
                "samples_per_suite": SUITE_SAMPLES, "a_schedule": list(A_SCHEDULE),
                "suite_seeds": [it[2] for it in items]}


def _point(rng: random.Random, n: int, r: float) -> tuple:
    """Random point of inf-norm exactly r."""
    pin = rng.randrange(n)
    return tuple((r if i == pin else rng.uniform(0.0, r))
                 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for i in range(n))


class DeepSeries:
    name = "deep_series"
    round_len = sum(RUNG_ITEMS)
    list_rounds = 80
    trace_rounds = 30

    def make_items(self, pb, seed: int, rounds: int) -> list:
        """Each rung alternates extremal and product series."""
        rng = random.Random(seed)
        items = []
        made = [0] * len(LADDER)
        for _ in range(rounds):
            for rung, ((n, K), count) in enumerate(zip(LADDER, RUNG_ITEMS)):
                for _ in range(count):
                    kind = ("extremal", "product")[made[rung] % 2]
                    made[rung] += 1
                    source = (rng.uniform(0.3, 0.95) if kind == "extremal"
                              else (rng.randrange(1 << 31), rng.randint(2, 3)))
                    evals = []
                    for _ in range(RADII_PER_ITEM):
                        r = rng.uniform(0.1, 0.75) / n
                        evals.append({"z": _point(rng, n, r), "r": r,
                                      "m": rng.randint(1, 3), "N": rng.randint(1, 4),
                                      "p": rng.choice((1, 2)), "t": rng.uniform(0.05, 0.95),
                                      "lam": rng.uniform(0.2, 3.0)})
                    items.append((kind, n, K, source, evals))
        return items

    def run(self, pb, item):
        kind, n, K, source, evals = item
        if kind == "extremal":
            spec = None
            f = pb.extremal_series(pb.ExtremalSpec(a=source, n=n), K)
        else:
            spec = pb.sample_product_spec(source[0], n, source[1])
            f = spec.series(K)
        reports = []
        for e in evals:
            z, r = e["z"], e["r"]
            omega = pb.schwarz_power_map(n, e["m"])
            reports += [
                pb.functional_A(f, r),
                pb.functional_B(f, omega, z, pb.FromDegree(e["N"]), e["p"]),
                pb.functional_B(f, omega, z, pb.MultiplesOf(e["N"]), e["p"]),
                pb.functional_C(f, omega, z, e["t"]),
                pb.functional_D(f, z, e["lam"]),
                pb.functional_E(f, r, e["t"]),
            ]
        return spec, [(rep.value, rep.tail_bound) for rep in reports]

    def fingerprint(self, out):
        return hash(tuple(out[1]))

    def check(self, item, out):
        kind, n, K, source, evals = item
        spec, values = out
        if kind == "extremal":
            g = exact.Extremal(source, n)
        else:
            g = exact.Product([[fac.w for fac in coord] for coord in spec.factors],
                              spec.phase, K)
        ok = len(values) == len(FUNCTIONALS) * len(evals)
        for i, e in enumerate(evals):
            want = exact.functionals(g, e["z"], e["r"], e["m"], e["N"], e["p"],
                                     e["t"], e["lam"])
            for j, name in enumerate(FUNCTIONALS):
                value, tail = values[i * len(FUNCTIONALS) + j]
                # D's |Df| is a truncated evaluation, so it may sit on either
                # side of the exact value; every other term is a majorant sum
                # of nonnegative blocks or an exact closed form.
                ok = ok and exact.encloses(value, tail, want[name], two_sided=name == "D")
        return ok, []

    def sizes(self, items) -> dict:
        return {"ladder": [list(p) for p in LADDER], "rung_items_per_round": list(RUNG_ITEMS),
                "radii_per_item": RADII_PER_ITEM,
                "functionals": list(FUNCTIONALS),
                "items": [[it[0], it[1], it[2], it[3]] for it in items]}


def _ascending(rng: random.Random, pool: list[int], count: int) -> list[int]:
    return sorted(rng.sample(pool, count))


def _radius_spec(rng: random.Random, kind: str) -> dict:
    grid40 = [k / 40 for k in range(40)]
    params = {
        "classical": lambda: {"n": rng.randint(1, 8)},
        "rogosinski": lambda: {"N": rng.randint(1, 12), "p": rng.choice((1, 2))},
        "rmn": lambda: {"m": rng.randint(1, 4), "N": rng.randint(1, 12)},
        "rmnn": lambda: {"m": rng.randint(1, 4), "n": rng.randint(1, 4), "N": rng.randint(1, 12)},
        "an": lambda: {"n": rng.randint(1, 4), "N": rng.randint(1, 16)},
        "convext": lambda: {"t": rng.choice(grid40)},
        "convexmnt": lambda: {"m": rng.randint(1, 3), "n": rng.randint(1, 3), "t": rng.choice(grid40)},
        "euler": lambda: {"n": rng.randint(1, 4), "lambda": rng.randint(1, 40) / 8},
        "area": lambda: {"n": rng.randint(1, 4), "t": rng.randint(1, 40) / 40},
    }[kind]()
    # Parameters are listed in oracle key order.
    return {"cmd": "radius", "family": kind, "params": params}


RADIUS_KINDS = ("classical", "rogosinski", "rmn", "rmnn", "an", "convext",
                "convexmnt", "euler", "area")


def _cli_round(rng: random.Random) -> list[dict]:
    fmt = lambda: rng.choice(("csv", "json"))  # noqa: E731
    specs = [{"cmd": "table", "name": "thm2.3-grid", "m": m, "n": rng.randint(1, 3),
              "t_steps": 20, "format": fmt()} for m in (1, 2, 3)]
    specs += [
        {"cmd": "table", "name": "thmC-limits", "N_max": rng.randint(6, 16), "format": fmt()},
        {"cmd": "table", "name": "thm2.2-sweepN", "m": rng.randint(1, 3),
         "n": rng.randint(1, 3), "N_max": rng.randint(6, 14), "format": fmt()},
        {"cmd": "table", "name": "thm2.2-sweepM", "n": rng.randint(1, 3), "N": rng.randint(1, 4),
         "m_list": _ascending(rng, [1, 2, 3, 5, 8, 13, 20, 50, 100], 5), "format": fmt()},
        {"cmd": "table", "name": "thmF-piecewise", "n": rng.randint(1, 3),
         "t_steps": rng.randint(10, 30), "format": fmt()},
        {"cmd": "limits", "m": rng.randint(1, 3), "n": rng.randint(1, 3),
         "N_list": _ascending(rng, list(range(1, 25)), 6)},
        {"cmd": "limits", "n": rng.randint(1, 3), "N": rng.randint(1, 4),
         "m_list": _ascending(rng, [1, 2, 3, 5, 8, 13, 20, 50, 100], 4)},
    ]
    n = rng.randint(1, 3)
    specs.append({"cmd": "expand", "source": "extremal", "n": n, "a": rng.randint(0, 9) / 10,
                  "K": rng.randint(*{1: (30, 60), 2: (20, 40), 3: (10, 16)}[n])})
    n = rng.randint(1, 3)
    specs.append({"cmd": "expand", "source": "blaschke-sample", "n": n,
                  "K": rng.randint(*{1: (20, 40), 2: (10, 24), 3: (8, 14)}[n]),
                  "seed": rng.randrange(1 << 31), "factors": rng.randint(1, 3)})
    specs += [_radius_spec(rng, kind) for kind in RADIUS_KINDS + RADIUS_KINDS + ("convexmnt",)]
    rng.shuffle(specs)
    return specs


def argv(spec: dict) -> list[str]:
    if spec["cmd"] == "radius":
        out = ["radius", "--family", spec["family"]]
        for flag, value in spec["params"].items():
            out += [f"--{flag}", repr(value)]
        return out
    if spec["cmd"] == "table":
        out = ["table", "--name", spec["name"], "--format", spec["format"]]
        for key, flag in (("n", "--n"), ("m", "--m"), ("N", "--N"), ("N_max", "--N-max"),
                          ("t_steps", "--t-steps")):
            if key in spec:
                out += [flag, str(spec[key])]
        if "m_list" in spec:
            out += ["--m-list", ",".join(map(str, spec["m_list"]))]
        return out
    if spec["cmd"] == "limits":
        out = ["limits", "--n", str(spec["n"])]
        if "N_list" in spec:
            return out + ["--m", str(spec["m"]), "--N-list", ",".join(map(str, spec["N_list"]))]
        return out + ["--N", str(spec["N"]), "--m-list", ",".join(map(str, spec["m_list"]))]
    out = ["expand", "--family", spec["source"], "--n", str(spec["n"]), "--K", str(spec["K"])]
    if spec["source"] == "extremal":
        return out + ["--a", repr(spec["a"])]
    return out + ["--seed", str(spec["seed"]), "--factors", str(spec["factors"])]


def _table_rows(spec: dict, text: str) -> list[dict]:
    """Rows keyed by column name, every cell as text."""
    if spec["format"] == "json":
        payload = json.loads(text)["payload"]
        columns, rows = payload["columns"], [[str(v) for v in row] for row in payload["rows"]]
    else:
        columns, *rows = list(csv.reader(io.StringIO(text)))
    return [dict(zip(columns, row)) for row in rows]


def _check_table(spec: dict, text: str) -> tuple[bool, list]:
    rows, name, refs = _table_rows(spec, text), spec["name"], []
    if name == "thmC-limits":
        ok = [int(row["N"]) for row in rows] == list(range(1, spec["N_max"] + 1))
        refs += [("x", ("an", 1, int(row["N"])), float(row["limit_x"])) for row in rows]
        return ok, refs
    if name == "thm2.2-sweepN":
        ok = [int(row["N"]) for row in rows] == list(range(1, spec["N_max"] + 1))
        keys = [("rmnn", spec["m"], spec["n"], int(row["N"])) for row in rows]
    elif name == "thm2.2-sweepM":
        ok = [int(row["m"]) for row in rows] == spec["m_list"]
        keys = [("rmnn", int(row["m"]), spec["n"], spec["N"]) for row in rows]
        refs += [("x", ("an", spec["n"], spec["N"]), float(row["limit_x"])) for row in rows]
    elif name == "thmF-piecewise":
        ts = [(i + 1) / spec["t_steps"] for i in range(spec["t_steps"])]
        ok = [float(row["t"]) for row in rows] == ts and [row["branch"] for row in rows] == [
            "cubic" if t < 9 / 17 else "clamped" for t in ts]
        keys = [("area", spec["n"], t) for t in ts]
    else:  # thm2.3-grid
        ts = [i / spec["t_steps"] for i in range(spec["t_steps"] + 1)]
        ok = [float(row["t"]) for row in rows] == ts
        keys = [("convexmnt", spec["m"], spec["n"], t) for t in ts]
    for key, row in zip(keys, rows):
        if row["radius_r"] == "":
            ok = ok and row["note"].startswith("no root")
            refs.append(("none", key, None))
        else:
            refs += [("r", key, float(row["radius_r"])), ("x", key, float(row["radius_x"]))]
    return ok, refs


def _check_expand(spec: dict, text: str) -> bool:
    rec = json.loads(text)
    payload, n, K = rec["payload"], spec["n"], spec["K"]
    coeffs = {tuple(int(a) for a in row[0].split()): complex(row[1], row[2])
              for row in payload["coefficients"]}
    ok = (rec["command"] == "expand" and payload["dim"] == n
          and payload["count"] == len(payload["coefficients"]) == len(coeffs))
    if spec["source"] == "extremal":
        a = spec["a"]
        top = K if a > 0 else max(K, 1)
        ok = ok and payload["max_degree"] == top and len(coeffs) == (
            math.comb(K + n, n) if a > 0 else n + 1)
        for alpha, c in coeffs.items():
            k = sum(alpha)
            want = a if k == 0 else -(1 - a * a) * a ** (k - 1) * (
                math.factorial(k) // math.prod(math.factorial(e) for e in alpha))
            ok = ok and abs(c - want) <= 1e-12 * max(1.0, abs(want))
        return ok
    # Coefficients of a function bounded by one: |c_0| <= 1 and every other
    # coefficient at most 1 - |c_0|^2.
    c0 = abs(coeffs.get((0,) * n, 0.0))
    cap = 1.0 - c0 * c0 + 1e-12
    return (ok and payload["max_degree"] == K and len(coeffs) <= math.comb(K + n, n)
            and c0 <= 1.0 and payload["tail"]["q"] < 1.0
            and all(abs(c) <= cap for alpha, c in coeffs.items() if any(alpha)))


class CliRecords:
    name = "cli_records"
    round_len = 30
    list_rounds = 120
    trace_rounds = 22

    def make_items(self, pb, seed: int, rounds: int) -> list:
        rng = random.Random(seed)
        return [(spec, argv(spec)) for _ in range(rounds) for spec in _cli_round(rng)]

    def run(self, pb, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pb.cli.main(item[1])
        return code, buf.getvalue()

    def fingerprint(self, out):
        return hash(out)

    def check(self, item, out):
        spec, (code, text) = item[0], out
        if code != 0:
            return False, []
        if spec["cmd"] == "table":
            return _check_table(spec, text)
        if spec["cmd"] == "expand":
            return _check_expand(spec, text), []
        rec = json.loads(text)
        payload = rec["payload"]
        if spec["cmd"] == "radius":
            key = (spec["family"], *spec["params"].values())
            return rec["command"] == "radius", [("r", key, payload["radius_r"]),
                                                ("x", key, payload["radius_x"])]
        axis_values = spec.get("N_list") or spec["m_list"]
        axis = "N" if "N_list" in spec else "m"
        xs = [row["radius_x"] for row in payload["rows"]]
        # Roots increase along either axis; for large m they agree to the
        # last bit, so only the flag's consistency with the values is checked.
        ok = (payload["axis"] == axis and [row[axis] for row in payload["rows"]] == axis_values
              and all(a <= b for a, b in zip(xs, xs[1:]))
              and payload["strictly_increasing"] == all(a < b for a, b in zip(xs, xs[1:])))
        refs = []
        for row in payload["rows"]:
            key = (("rmnn", spec["m"], spec["n"], row["N"]) if axis == "N"
                   else ("rmnn", row["m"], spec["n"], spec["N"]))
            refs += [("r", key, row["radius_r"]), ("x", key, row["radius_x"])]
        if axis == "m":
            refs.append(("x", ("an", spec["n"], spec["N"]), payload["limit_x"]))
        return ok, refs

    def sizes(self, items) -> dict:
        return {"round_len": self.round_len, "argv": [" ".join(it[1]) for it in items]}


WORKLOADS = {w.name: w for w in (Suites(), DeepSeries(), CliRecords())}


def check_refs(refs) -> bool:
    """Compare deferred references with the radius oracle and, for suites, the
    expected sharpness witness: the first schedule member whose exact value
    exceeds one at the oracle radius plus the margin."""
    import oracle

    for kind, key, got in refs:
        want = oracle.radius(key)
        if kind == "none":
            ok = want is None
        elif kind == "witness":
            r = want[0] + MARGIN_ABOVE
            expected = next((a for a in A_SCHEDULE
                             if exact.extremal_sharpness_value(key, a, r) > 1.0), None)
            ok = got == expected
        else:
            ok = want is not None and oracle.close(got, want[0 if kind == "r" else 1])
        if not ok:
            return False
    return True

