"""Command-line surface: every capability with machine-readable output.

JSON goes to standard output; `--format csv` is available for the tabular
simulate report.  Exact rationals are serialized as "num/den".  Exit status is
0 on success, 1 on validation errors or when memory runs out, 2 when a
verification suite fails.  Warnings go to standard error as one
`warning: ...` line each.  Only `simulate` imports `montecarlo`, and with it
numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import warnings
from datetime import datetime, timezone
from fractions import Fraction
from typing import Sequence

from . import closedform, enumeration, verify
from .graphs import CircuitMultigraph, DoubleCircuitMultigraph, parse_route
from .weights import AffineAlpha, MomentSequence, preset_alpha, preset_moments


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to status 2
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _frac(x: Fraction | int) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _affine(x: AffineAlpha) -> dict:
    return {"c0": _frac(x.c0), "c1": _frac(x.c1)}


def _rational(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {name} {text!r}") from exc


def _resolve_alpha(args) -> Fraction | None:
    if args.alpha is not None:
        return _rational(args.alpha, "fourth moment")
    if args.dist is not None:
        return preset_alpha(args.dist)
    return None


def _resolve_moments(args, order: int) -> MomentSequence:
    if args.moments is not None:
        moments = MomentSequence.parse(args.moments)
        if moments.order < order:
            raise ValueError(
                f"moment list covers order {moments.order}, need {order}"
            )
        return moments
    if args.dist is not None:
        return preset_moments(args.dist, max(4, order))
    raise ValueError("provide --dist or --moments")


def _emit(payload: dict, args) -> None:
    if not args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps(payload))


def _cmd_mean_closed(args) -> int:
    value, terms = closedform.theorem1_mean(args.l, args.p, args.n)
    alpha = _resolve_alpha(args)
    payload = {
        "op": "mean-closed",
        "l": args.l,
        "p": args.p,
        "n": args.n,
        "coeff": _affine(value),
        "terms": [
            {
                "b": t.b,
                "tree_part": _frac(t.tree_part),
                "ring_part": _affine(t.ring_part),
                "error_order": t.error_order,
            }
            for t in terms
        ],
    }
    if alpha is not None:
        payload["alpha"] = _frac(alpha)
        payload["value"] = _frac(value.evaluate(alpha))
    _emit(payload, args)
    return 0


def _cmd_mean_oracle(args) -> int:
    moments = _resolve_moments(args, 2 * args.l)
    result = enumeration.exact_trace_moment(
        args.l, args.p, args.n, moments, allow_large=args.allow_large
    )
    payload = {
        "op": "mean-oracle",
        "l": args.l,
        "p": args.p,
        "n": args.n,
        "value": _frac(result.value),
        "terms": [
            {
                "r": t.r,
                "b": t.b,
                "multiplicity": _frac(t.multiplicity),
                "inner_sum": _frac(t.inner_sum),
            }
            for t in result.terms
        ],
    }
    _emit(payload, args)
    return 0


def _cmd_cov_closed(args) -> int:
    value, terms = closedform.theorem2_cov(args.l1, args.l2, args.p, args.n)
    alpha = _resolve_alpha(args)
    payload = {
        "op": "cov-closed",
        "l1": args.l1,
        "l2": args.l2,
        "p": args.p,
        "n": args.n,
        "coeff": _affine(value),
        "terms": [
            {"b": t.b, "coeff": _affine(t.coeff), "error_order": t.error_order}
            for t in terms
        ],
    }
    if alpha is not None:
        payload["alpha"] = _frac(alpha)
        payload["value"] = _frac(value.evaluate(alpha))
    _emit(payload, args)
    return 0


def _cmd_cov_oracle(args) -> int:
    moments = _resolve_moments(args, 2 * (args.l1 + args.l2))
    value = enumeration.exact_trace_covariance(
        args.l1, args.l2, args.p, args.n, moments, allow_large=args.allow_large
    )
    payload = {
        "op": "cov-oracle",
        "l1": args.l1,
        "l2": args.l2,
        "p": args.p,
        "n": args.n,
        "value": _frac(value),
    }
    _emit(payload, args)
    return 0


def _cmd_census(args) -> int:
    if args.l is not None:
        if args.l1 is not None or args.l2 is not None:
            raise ValueError("--l and --l1/--l2 are mutually exclusive")
        buckets = enumeration.census_by_seed(args.l, args.b, allow_large=args.allow_large)
        rows = [
            {"seed_class": cls.kind, "ring_length": cls.ring_length, "count": count}
            for cls, count in buckets.items()
        ]
        rows.sort(key=lambda r: (r["seed_class"], r["ring_length"] or 0))
        payload = {"op": "census", "l": args.l, "b": args.b, "buckets": rows}
    elif args.l1 is not None and args.l2 is not None:
        buckets = enumeration.census_double(
            args.l1, args.l2, args.b, allow_large=args.allow_large
        )
        rows = [
            {
                "seed_class": cls.kind,
                "ring_length": cls.ring_length,
                "split": list(split),
                "count": count,
            }
            for (cls, split), count in buckets.items()
        ]
        rows.sort(key=lambda r: (r["seed_class"], r["ring_length"] or 0, r["split"]))
        payload = {
            "op": "census",
            "l1": args.l1,
            "l2": args.l2,
            "b": args.b,
            "buckets": rows,
        }
    else:
        raise ValueError("provide --l for a single census or both --l1 and --l2")
    _emit(payload, args)
    return 0


def _cmd_simulate(args) -> int:
    from . import montecarlo  # numpy loads here, never for an exact subcommand

    try:
        l_list = tuple(int(part) for part in args.l.split(","))
    except ValueError as exc:
        raise ValueError(f"bad power list {args.l!r}") from exc
    config = montecarlo.SimulationConfig(
        p=args.p,
        n=args.n,
        l_list=l_list,
        replications=args.reps,
        distribution=args.dist,
        rng_seed=args.seed,
    )
    reference = None
    if not args.no_reference:
        reference = montecarlo.oracle_references(config, allow_large=args.allow_large)
    report = montecarlo.simulate(config, reference)
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerows(report.csv_rows())
        sys.stdout.write(buffer.getvalue())
    else:
        _emit({"op": "simulate", **report.to_dict()}, args)
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, args.max_l, allow_large=args.allow_large)
    _emit({"op": "verify", **report}, args)
    return 2 if report["failures"] else 0


def _cmd_mp(args) -> int:
    y = _rational(args.y, "ratio")
    value = closedform.mp_moment(args.l, y)
    _emit({"op": "mp", "l": args.l, "y": _frac(y), "value": _frac(value)}, args)
    return 0


def _cmd_bs_check(args) -> int:
    mean_report = verify.run_suite("bs-mean", args.max_l)
    cov_report = verify.run_suite("bs-cov", args.max_l)
    payload = {
        "op": "bs-check",
        "mean": {"cases": mean_report["cases"], "failures": mean_report["failures"]},
        "cov": {"cases": cov_report["cases"], "failures": cov_report["failures"]},
    }
    _emit(payload, args)
    return 2 if mean_report["failures"] or cov_report["failures"] else 0


def _cmd_graph(args) -> int:
    route = parse_route(args.route)
    if args.second is not None:
        double = DoubleCircuitMultigraph(route, parse_route(args.second))
        payload = {"op": "graph", **double.record()}
    else:
        payload = {"op": "graph", **CircuitMultigraph(route).record()}
    _emit(payload, args)
    return 0


_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}
_ALLOW_LARGE = ("--allow-large", _FLAG)
_P_N = (("--p", _INT), ("--n", _INT))
# name: (handler, help, arguments after --no-timestamp as (flag, keywords))
_COMMANDS = {
    "mean-closed": (_cmd_mean_closed, "mean expansion by the closed form", (
        ("--l", _INT), *_P_N,
        ("--alpha", {"help": "fourth moment as a rational, e.g. 3 or 9/5"}),
        ("--dist", {"help": "distribution tag providing the fourth moment"}),
    )),
    "mean-oracle": (_cmd_mean_oracle, "exact mean by enumeration", (
        ("--l", _INT), *_P_N,
        ("--dist", {"help": "preset moment sequence"}),
        ("--moments", {"help": "explicit comma-separated rational moments"}),
        _ALLOW_LARGE,
    )),
    "cov-closed": (_cmd_cov_closed, "covariance expansion by the closed form", (
        ("--l1", _INT), ("--l2", _INT), *_P_N, ("--alpha", {}), ("--dist", {}),
    )),
    "cov-oracle": (_cmd_cov_oracle, "exact covariance by enumeration", (
        ("--l1", _INT), ("--l2", _INT), *_P_N, ("--dist", {}), ("--moments", {}),
        _ALLOW_LARGE,
    )),
    "census": (_cmd_census, "seed-class censuses by enumeration", (
        ("--l", {"type": int}), ("--l1", {"type": int}), ("--l2", {"type": int}),
        ("--b", _INT), _ALLOW_LARGE,
    )),
    "simulate": (_cmd_simulate, "Monte Carlo check against exact values", (
        *_P_N,
        ("--l", {"required": True, "help": "comma-separated trace powers"}),
        ("--reps", _INT), ("--dist", {"required": True}), ("--seed", _INT),
        ("--no-reference", {**_FLAG, "help": "skip the exact reference computation"}),
        _ALLOW_LARGE,
        ("--format", {"choices": ("json", "csv"), "default": "json"}),
    )),
    "verify": (_cmd_verify, "run a named verification suite", (
        ("--suite", {"required": True, "choices": sorted(verify.SUITES)}),
        ("--max-l", {"type": int, "default": None}),
        _ALLOW_LARGE,
    )),
    "mp": (_cmd_mp, "Marchenko-Pastur moment", (
        ("--l", _INT), ("--y", {"required": True, "help": "ratio as a rational, e.g. 1/2"}),
    )),
    "bs-check": (_cmd_bs_check, "comparison identities for the classical limits", (
        ("--max-l", {"type": int, "default": 20}),
    )),
    "graph": (_cmd_graph, "inspect the graph of a route", (
        ("--route", {"required": True, "help": "comma-separated labels, e.g. 2,4,4,3,1,3"}),
        ("--second", {"help": "second route, making it a double graph"}),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, or with `command` alone.

    A parser with one subcommand parses that command's argv exactly as the
    full parser does; its usage line still lists every command.
    """
    parser = _Parser(prog="tracemoments", description=__doc__)
    # the full parser lists its own choices; a metavar there would also
    # rename the action in its "invalid choice" and "required" errors
    listing = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listing)
    for name in _COMMANDS if command is None else (command,):
        handler, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field for byte-identical reruns")
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # building one subparser instead of all of them is most of a cheap call
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning  # one line, no source location
            status = args.handler(args)
        sys.stdout.flush()  # a closed reader shows here, not at shutdown
        return status
    except BrokenPipeError:
        # the reader of standard output is gone: exit 1 quietly, with the
        # stream pointed at devnull so that the flush at shutdown cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
