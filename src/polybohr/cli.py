"""Command-line front end emitting machine-readable records and CSV tables.

Commands: ``radius`` (solve one family), ``table`` (named reproduction
tables), ``verify`` / ``sharpness`` (run the hold-below and sharpness-above
suites), ``expand`` (coefficient dumps), ``limits`` (convergence sweeps).

Every command writes one ``json.dumps(record, indent=2)`` record with
``schema_version``, an echo of the arguments, and a family-specific payload;
tables stream ``csv.writer`` rows with ``--format csv``.  Floats are written
as their ``repr``, which parses back to the same binary64.  Exit status: 0
on success, 1 when a suite fails or the computation fails (an ``error``
record), 2 on usage errors, such as a flag the command does not read,
printed under the subcommand's own usage line.  The first ``main`` call
builds the parser; later calls reuse it.  The first word picks the
subcommand's parser, which parses the rest once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from typing import Any, Sequence

from .families import ExtremalSpec, extremal_series, sample_product_spec
from .radii import (
    AN,
    FAMILIES,
    AreaT,
    ConvexMNT,
    NoSignChangeError,
    RadiusFamily,
    limit_sweep_m,
    limit_sweep_N,
    solve,
)
from .series import CapacityError, DivergentTailError
from .verify import SuiteConfig, SuiteReport, check_holds_below, check_sharpness_above

SCHEMA_VERSION = 1

# The flags each table reads besides --format, by parser dest
TABLE_READS = {"thmC-limits": ("N_max",), "thm2.2-sweepN": ("m", "n", "N_max"),
               "thm2.2-sweepM": ("n", "N", "m_list"), "thmF-piecewise": ("n", "t_steps"),
               "thm2.3-grid": ("m", "n", "t_steps")}

# The suite flags of verify and sharpness, by parser dest, in echo order, and
# the SuiteConfig field each sets; SuiteConfig gives each its default and type
SUITE_FLAGS = {"samples": "samples", "seed": "seed", "factors": "factors_per_coordinate",
               "k_cap": "k_cap", "margin_below": "margin_below",
               "margin_above": "margin_above"}


def _emit_record(command: str, args_echo: dict, payload: dict) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "args": args_echo,
        "payload": payload,
    }
    sys.stdout.write(json.dumps(record, indent=2) + "\n")


def _emit_csv(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _flag(dest: str) -> str:
    return "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")


def _take_flags(args: argparse.Namespace, owner: str, reads: Sequence[str],
                **defaults: Any) -> None:
    """Set each flag in ``defaults`` that is absent (None, the parser's
    default) to its default; a given one that ``owner`` does not read is an error."""
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif dest not in reads:
            raise ValueError(f"{owner} does not take {_flag(dest)}")


def _build_family(args: argparse.Namespace) -> RadiusFamily:
    """The family named by --family, its fields read from the flags of the
    same names.  A flag the family does not take is an error; --n and --p
    default to 1, and every other field's flag must be given."""
    cls = FAMILIES[args.family]
    owner = f"family {args.family!r}"
    _take_flags(args, owner, cls.__match_args__, n=1, m=None, N=None, p=1, t=None, lam=None)
    for name in cls.__match_args__:
        if getattr(args, name) is None:
            raise ValueError(f"{owner} requires {_flag(name)}")
    return cls(**{name: getattr(args, name) for name in cls.__match_args__})


def _family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True,
                     type=lambda s: s.lower(),
                     choices=tuple(FAMILIES),
                     help="radius family (case-insensitive)")
    sub.add_argument("--n", type=int, default=None, help="polydisc dimension")
    sub.add_argument("--m", type=int, default=None, help="composition order")
    sub.add_argument("--N", type=int, default=None, help="tail start degree")
    sub.add_argument("--p", type=int, default=None, choices=(1, 2),
                     help="modulus power for the rogosinski family")
    sub.add_argument("--t", type=float, default=None, help="convex weight")
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="tail weight for the euler family")


def _echo_family_args(family: RadiusFamily) -> dict:
    echo: dict[str, Any] = {"family": family.name, "n": family.dim}
    echo.update(("lambda" if k == "lam" else k, getattr(family, k))
                for k in family.__match_args__ if k != "n")
    return echo


def _result_payload(res) -> dict:
    return {
        "family": repr(res.family),
        "radius_r": res.radius_r,
        "radius_x": res.radius_x,
        "residual": res.residual,
        "bracket_lo": res.bracket[0],
        "bracket_hi": res.bracket[1],
        "multiplicity_note": res.multiplicity_note,
    }


def cmd_radius(args: argparse.Namespace) -> int:
    family = _build_family(args)
    res = solve(family)
    _emit_record("radius", _echo_family_args(family), _result_payload(res))
    return 0


def _parse_int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _table_rows(args: argparse.Namespace) -> tuple[list[str], list[list[Any]]]:
    name = args.name
    _take_flags(args, f"table {name!r}", TABLE_READS[name], n=1, m=None, N=None,
                N_max=10, m_list="1,2,5,20,100", t_steps=20)
    if args.t_steps < 1:
        raise ValueError(f"--t-steps must be >= 1, got {args.t_steps}")
    if args.N_max < 1:
        raise ValueError(f"--N-max must be >= 1, got {args.N_max}")
    # Absent --m and --N default to 1; a given value, 0 included, is kept
    # for the family to validate.
    m = 1 if args.m is None else args.m
    N = 1 if args.N is None else args.N
    if name == "thmC-limits":
        columns = ["N", "limit_x", "residual"]
        rows = []
        for N in range(1, args.N_max + 1):
            res = solve(AN(n=1, N=N))
            rows.append([N, res.radius_x, res.residual])
        return columns, rows
    if name == "thm2.2-sweepN":
        columns = ["N", "radius_r", "radius_x", "residual"]
        sweep = limit_sweep_N(m, args.n, list(range(1, args.N_max + 1)))
        return columns, [[res.family.N, res.radius_r, res.radius_x, res.residual]
                         for res in sweep]
    if name == "thm2.2-sweepM":
        columns = ["m", "radius_r", "radius_x", "limit_x", "gap_x"]
        target = solve(AN(n=args.n, N=N)).radius_x
        m_list = _parse_int_list(args.m_list)
        sweep = limit_sweep_m(args.n, N, m_list)
        return columns, [[res.family.m, res.radius_r, res.radius_x, target,
                          target - res.radius_x] for res in sweep]
    if name == "thmF-piecewise":
        columns = ["t", "radius_r", "radius_x", "branch"]
        rows = []
        steps = args.t_steps
        for i in range(1, steps + 1):
            t = i / steps
            res = solve(AreaT(n=args.n, t=t))
            branch = "cubic" if t < AreaT.branch_t else "clamped"
            rows.append([t, res.radius_r, res.radius_x, branch])
        return columns, rows
    # thm2.3-grid, the last of TABLE_READS, which --name is restricted to
    columns = ["t", "radius_r", "radius_x", "note"]
    rows = []
    steps = args.t_steps
    for i in range(steps + 1):
        t = i / steps
        try:
            res = solve(ConvexMNT(m=m, n=args.n, t=t))
            rows.append([t, res.radius_r, res.radius_x, res.multiplicity_note])
        except NoSignChangeError as exc:
            rows.append([t, "", "", f"no root: {exc}"])
    return columns, rows


def cmd_table(args: argparse.Namespace) -> int:
    columns, rows = _table_rows(args)
    if args.format == "csv":
        _emit_csv(columns, rows)
    else:
        echo: dict[str, Any] = {"name": args.name, "n": args.n}
        for key in ("m", "N"):
            if getattr(args, key) is not None:
                echo[key] = getattr(args, key)
        echo.update({"N_max": args.N_max, "m_list": args.m_list,
                     "t_steps": args.t_steps})
        _emit_record("table", echo, {"columns": columns, "rows": rows})
    return 0


def _suite_payload(report: SuiteReport) -> dict:
    return {
        "suite": report.suite,
        "family": report.family_label,
        "radius_r": report.radius_r,
        "eval_radius": report.eval_radius,
        "total_cases": report.total,
        "counts": dict(report.counts),
        "worst_slack": report.worst_slack,
        "passed": report.passed,
        "witness_a": report.witness_a,
        "notes": report.notes,
        "failures": [
            {"index": c.index, "seed": c.seed, "verdict": c.verdict,
             "value": c.value, "tail_bound": c.tail_bound, "detail": c.detail}
            for c in report.failures
        ],
    }


def cmd_verify(args: argparse.Namespace) -> int:
    family = _build_family(args)
    config = SuiteConfig(family, **{field: getattr(args, dest)
                                    for dest, field in SUITE_FLAGS.items()})
    # sharpness first: it rejects a radius outside the polydisc before
    # the hold-below suite builds any series
    above = check_sharpness_above(config)
    reports = [above] if args.sharpness_only else [check_holds_below(config), above]
    echo = _echo_family_args(family)
    echo.update({dest: getattr(config, field) for dest, field in SUITE_FLAGS.items()},
                sharpness_only=args.sharpness_only)
    payload = {"suites": [_suite_payload(rep) for rep in reports],
               "passed": all(rep.passed for rep in reports)}
    _emit_record("verify", echo, payload)
    return 0 if payload["passed"] else 1


def cmd_expand(args: argparse.Namespace) -> int:
    reads = ("a",) if args.source == "extremal" else ("seed", "factors")
    _take_flags(args, f"family {args.source!r}", reads, a=0.5, seed=0, factors=2)
    if args.source == "extremal":
        series = extremal_series(ExtremalSpec(a=args.a, n=args.n), args.K)
        echo: dict[str, Any] = {"source": "extremal", "a": args.a,
                                "n": args.n, "K": args.K}
    else:
        series = sample_product_spec(args.seed, args.n, args.factors).series(args.K)
        echo = {"source": "blaschke-sample", "seed": args.seed, "n": args.n,
                "factors": args.factors, "K": args.K}
    rows = [[" ".join(str(a) for a in alpha), c.real, c.imag]
            for alpha, c in series.coeffs.items()]
    payload: dict[str, Any] = {
        "dim": series.dim,
        "max_degree": series.max_degree,
        "count": len(rows),
        "coefficients": rows,
    }
    if series.tail is not None:
        payload["tail"] = {"C": series.tail.C, "q": series.tail.q,
                           "valid_from_degree": series.max_degree + 1,
                           "weight": series.tail.weight}
    if args.format == "csv":
        _emit_csv(["alpha", "re", "im"], rows)
    else:
        _emit_record("expand", echo, payload)
    return 0


def cmd_limits(args: argparse.Namespace) -> int:
    if (args.N_list is None) == (args.m_list is None):
        raise ValueError("limits needs exactly one of --N-list or --m-list")
    axis = "N" if args.N_list is not None else "m"
    # the N sweep holds m fixed, the m sweep N
    _take_flags(args, f"limits --{axis}-list", ("m",) if axis == "N" else ("N",), m=1, N=1)
    if axis == "N":
        values = _parse_int_list(args.N_list)
        sweep = limit_sweep_N(args.m, args.n, values)
        target = None
    else:
        values = _parse_int_list(args.m_list)
        sweep = limit_sweep_m(args.n, args.N, values)
        target = solve(AN(n=args.n, N=args.N)).radius_x
    rows = [{axis: v, "radius_r": res.radius_r, "radius_x": res.radius_x,
             "residual": res.residual}
            for v, res in zip(values, sweep)]
    payload: dict[str, Any] = {
        "axis": axis,
        "rows": rows,
        "strictly_increasing": all(
            sweep[i].radius_x < sweep[i + 1].radius_x for i in range(len(sweep) - 1)),
        "last_radius_x": sweep[-1].radius_x,
    }
    if target is not None:
        payload["limit_x"] = target
        payload["final_gap_x"] = target - sweep[-1].radius_x
    echo = {"m": args.m, "n": args.n, "N": args.N,
            "N_list": args.N_list, "m_list": args.m_list}
    _emit_record("limits", echo, payload)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybohr",
        description="Sharp Bohr-type radii on the unit polydisc: solvers, "
                    "reproduction tables, and verification suites.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_radius = subs.add_parser("radius", help="solve one radius family")
    _family_flags(p_radius)
    p_radius.set_defaults(run=cmd_radius, parser=p_radius)

    p_table = subs.add_parser("table", help="emit a named reproduction table")
    p_table.add_argument("--name", required=True, choices=tuple(TABLE_READS),
                         help="which table to reproduce")
    p_table.add_argument("--n", type=int, default=None)
    p_table.add_argument("--m", type=int, default=None)
    p_table.add_argument("--N", type=int, default=None)
    p_table.add_argument("--N-max", dest="N_max", type=int, default=None)
    p_table.add_argument("--m-list", dest="m_list", default=None)
    p_table.add_argument("--t-steps", dest="t_steps", type=int, default=None)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(run=cmd_table, parser=p_table)

    for cmd, sharp in (("verify", False), ("sharpness", True)):
        p = subs.add_parser(cmd, help="run verification suites"
                            + (" (sharpness only)" if sharp else ""))
        _family_flags(p)
        for dest, field in SUITE_FLAGS.items():
            default = getattr(SuiteConfig, field)
            p.add_argument(_flag(dest), type=type(default), default=default)
        if not sharp:
            p.add_argument("--sharpness", dest="sharpness_only", action="store_true",
                           help="run only the sharpness-above suite")
        p.set_defaults(run=cmd_verify, parser=p, sharpness_only=sharp)

    p_expand = subs.add_parser("expand", help="dump series coefficients")
    p_expand.add_argument("--family", dest="source", required=True,
                          choices=("extremal", "blaschke-sample"))
    p_expand.add_argument("--a", type=float, default=None)
    p_expand.add_argument("--n", type=int, default=1)
    p_expand.add_argument("--K", type=int, default=8)
    p_expand.add_argument("--seed", type=int, default=None)
    p_expand.add_argument("--factors", type=int, default=None)
    p_expand.add_argument("--format", choices=("csv", "json"), default="json")
    p_expand.set_defaults(run=cmd_expand, parser=p_expand)

    p_limits = subs.add_parser("limits", help="convergence sweeps in N or m")
    p_limits.add_argument("--m", type=int, default=None)
    p_limits.add_argument("--n", type=int, default=1)
    p_limits.add_argument("--N", type=int, default=None)
    p_limits.add_argument("--N-list", dest="N_list", default=None)
    p_limits.add_argument("--m-list", dest="m_list", default=None)
    p_limits.set_defaults(run=cmd_limits, parser=p_limits)

    for name, sub in subs.choices.items():
        sub.set_defaults(command=name)
    parser.commands = subs.choices
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # No first word, one that names no command, or an argument the command
    # leaves over goes to the top-level parser, which prints the usage line,
    # error and exit status it always has.
    sub = parser.commands.get(argv[0]) if argv else None
    args, extras = sub.parse_known_args(argv[1:]) if sub else (None, None)
    if sub is None or extras:
        args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (NoSignChangeError, CapacityError, DivergentTailError, OverflowError) as exc:
        _emit_record("error", {"command": args.command},
                     {"error": type(exc).__name__, "message": str(exc)})
        return 1
    except ValueError as exc:
        # argument and domain validation surface as a usage error of the
        # subcommand, under its own usage line
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
