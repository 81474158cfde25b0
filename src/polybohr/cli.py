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
    RadiusResult,
    RmnN,
    limit_sweep_m,
    limit_sweep_N,
    solve,
)
from .series import CapacityError, DivergentTailError
from .verify import SuiteConfig, SuiteReport, check_holds_below, check_sharpness_above

SCHEMA_VERSION = 1

# Each table by --name, in --help order: the family solved at each value of
# its axis, the axis, the columns after it, and the flags it reads besides
# --format, by parser dest
TABLES = {"thmC-limits": (AN, "N", ("limit_x", "residual"), ("N_max",)),
          "thm2.2-sweepN": (RmnN, "N", ("radius_r", "radius_x", "residual"), ("m", "n", "N_max")),
          "thm2.2-sweepM": (RmnN, "m", ("radius_r", "radius_x", "limit_x", "gap_x"),
                            ("n", "N", "m_list")),
          "thmF-piecewise": (AreaT, "t", ("radius_r", "radius_x", "branch"), ("n", "t_steps")),
          "thm2.3-grid": (ConvexMNT, "t", ("radius_r", "radius_x", "note"), ("m", "n", "t_steps"))}

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


def _sweep(family: type[RadiusFamily], axis: str, values: Sequence[Any],
           args: argparse.Namespace, columns: Sequence[str]) -> list[tuple]:
    """The rows (value, *cells) of ``family`` solved at each of ``values`` on
    ``axis``, its other fields read from ``args``; ``columns`` names the
    cells.  On the m axis ``limit_x`` is the root of the large-m limit
    AN(n, N), solved after the sweep; on the N axis of AN it is the row's own
    root.  Only the ConvexMNT grid writes a missing root as a blank row."""
    if family is RmnN:
        results = (limit_sweep_N(args.m, args.n, values) if axis == "N"
                   else limit_sweep_m(args.n, args.N, values))
    else:
        results = []
        for v in values:
            member = family(**{k: v if k == axis else getattr(args, k)
                               for k in family.__match_args__})
            try:
                results.append(solve(member))
            except (NoSignChangeError if family is ConvexMNT else ()) as exc:
                results.append(RadiusResult(None, "", "", "", ("", ""), f"no root: {exc}"))
    x = [res.radius_x for res in results]
    limit = solve(AN(n=args.n, N=args.N)).radius_x if axis == "m" else None
    # each column is built only when a command shows it
    cells = {"radius_r": lambda: [res.radius_r for res in results],
             "radius_x": lambda: x,
             "residual": lambda: [res.residual for res in results],
             "note": lambda: [res.multiplicity_note for res in results],
             "branch": lambda: ["cubic" if t < AreaT.branch_t else "clamped" for t in values],
             "limit_x": lambda: x if limit is None else [limit] * len(x),
             "gap_x": lambda: [limit - xi for xi in x]}
    return list(zip(values, *(cells[c]() for c in columns)))


def cmd_table(args: argparse.Namespace) -> int:
    family, axis, columns, reads = TABLES[args.name]
    # Absent --m and --N default to 1 and are not echoed; a given value, 0
    # included, is kept for the family to validate.
    given = {k: getattr(args, k) for k in ("m", "N") if getattr(args, k) is not None}
    _take_flags(args, f"table {args.name!r}", reads, n=1, m=1, N=1, N_max=10,
                m_list="1,2,5,20,100", t_steps=20)
    if args.t_steps < 1:
        raise ValueError(f"--t-steps must be >= 1, got {args.t_steps}")
    if args.N_max < 1:
        raise ValueError(f"--N-max must be >= 1, got {args.N_max}")
    if axis == "m":
        AN(n=args.n, N=args.N)  # the limit family checks n and N before the m list is read
    # a t axis starts at t = 0 unless the family rejects it (AreaT)
    values = (range(1, args.N_max + 1) if axis == "N"
              else _parse_int_list(args.m_list) if axis == "m"
              else [i / args.t_steps for i in range(family is AreaT, args.t_steps + 1)])
    rows = _sweep(family, axis, values, args, columns)
    if args.format == "csv":
        _emit_csv((axis, *columns), rows)
    else:
        echo = {"name": args.name, "n": args.n, **given, "N_max": args.N_max,
                "m_list": args.m_list, "t_steps": args.t_steps}
        _emit_record("table", echo, {"columns": [axis, *columns], "rows": rows})
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
    """The thm2.2-sweepN or -sweepM table over the given values, with the
    rows as objects and the summary keys after them."""
    if (args.N_list is None) == (args.m_list is None):
        raise ValueError("limits needs exactly one of --N-list or --m-list")
    axis = "N" if args.N_list is not None else "m"
    # the N sweep holds m fixed, the m sweep N
    _take_flags(args, f"limits --{axis}-list", ("m",) if axis == "N" else ("N",), m=1, N=1)
    values = _parse_int_list(args.N_list if axis == "N" else args.m_list)
    columns = ("radius_r", "radius_x", "residual") + (("limit_x", "gap_x") if axis == "m" else ())
    # each row is (value, radius_r, radius_x, residual[, limit_x, gap_x])
    rows = _sweep(RmnN, axis, values, args, columns)
    payload: dict[str, Any] = {
        "axis": axis,
        "rows": [dict(zip((axis, *columns), row[:4])) for row in rows],
        "strictly_increasing": all(a[2] < b[2] for a, b in zip(rows, rows[1:])),
        "last_radius_x": rows[-1][2],
    }
    if axis == "m":
        payload["limit_x"], payload["final_gap_x"] = rows[-1][4:]
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
    p_table.add_argument("--name", required=True, choices=tuple(TABLES),
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
