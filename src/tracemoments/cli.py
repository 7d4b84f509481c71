"""Command-line surface: every capability with machine-readable output.

JSON goes to standard output; `--format csv` is available for the tabular
simulate report.  Exact rationals are serialized as "num/den".  Exit status is
0 on success, 1 on validation errors or when memory runs out, 2 when a
verification suite fails.  Warnings go to standard error as one
`warning: ...` line each.  Only `simulate` imports `montecarlo`, and with it
numpy.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys
import warnings
from datetime import datetime, timezone
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

from . import closedform, enumeration, verify
from .graphs import CircuitMultigraph, DoubleCircuitMultigraph, parse_route
from .weights import MomentSequence, preset_alpha, preset_moments


def _rational(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {name} {text!r}") from exc


def _resolve_alpha(args) -> Fraction | None:
    if args.alpha is not None:
        if args.dist is not None:
            raise ValueError("--alpha and --dist are mutually exclusive")
        return _rational(args.alpha, "fourth moment")
    if args.dist is not None:
        return preset_alpha(args.dist)
    return None


def _resolve_moments(args, order: int) -> MomentSequence:
    if args.moments is not None:
        if args.dist is not None:
            raise ValueError("--moments and --dist are mutually exclusive")
        moments = MomentSequence.parse(args.moments)
        if moments.order < order:
            raise ValueError(
                f"moment list covers order {moments.order}, need {order}"
            )
        return moments
    if args.dist is not None:
        return preset_moments(args.dist, max(4, order))
    raise ValueError("provide --dist or --moments")


def _json(x):
    """The `json.dumps` hook for exact results: a Fraction as "num/den", a
    dataclass as its fields in declaration order."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if dataclasses.is_dataclass(x):
        return vars(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _with_alpha(payload: dict, args) -> dict:
    """A closed-form payload, evaluated at the fourth moment when one is given."""
    alpha = _resolve_alpha(args)
    if alpha is not None:
        payload["alpha"] = alpha
        payload["value"] = payload["coeff"].evaluate(alpha)
    return payload


def _cmd_mean_closed(args) -> dict:
    coeff, terms = closedform.theorem1_mean(args.l, args.p, args.n)
    return _with_alpha(
        {"l": args.l, "p": args.p, "n": args.n, "coeff": coeff, "terms": terms}, args
    )


def _cmd_mean_oracle(args) -> dict:
    moments = _resolve_moments(args, 2 * args.l)
    result = enumeration.exact_trace_moment(
        args.l, args.p, args.n, moments, allow_large=args.allow_large
    )
    return {"l": args.l, "p": args.p, "n": args.n, "value": result.value,
            "terms": result.terms}


def _cmd_cov_closed(args) -> dict:
    coeff, terms = closedform.theorem2_cov(args.l1, args.l2, args.p, args.n)
    return _with_alpha({"l1": args.l1, "l2": args.l2, "p": args.p, "n": args.n,
                        "coeff": coeff, "terms": terms}, args)


def _cmd_cov_oracle(args) -> dict:
    moments = _resolve_moments(args, 2 * (args.l1 + args.l2))
    value = enumeration.exact_trace_covariance(
        args.l1, args.l2, args.p, args.n, moments, allow_large=args.allow_large
    )
    return {"l1": args.l1, "l2": args.l2, "p": args.p, "n": args.n, "value": value}


def _cmd_census(args) -> dict:
    double = args.l is None
    if not double:
        if args.l1 is not None or args.l2 is not None:
            raise ValueError("--l and --l1/--l2 are mutually exclusive")
        payload = {"l": args.l, "b": args.b}
        buckets = enumeration.census_by_seed(args.l, args.b, allow_large=args.allow_large)
    elif args.l1 is not None and args.l2 is not None:
        payload = {"l1": args.l1, "l2": args.l2, "b": args.b}
        buckets = enumeration.census_double(
            args.l1, args.l2, args.b, allow_large=args.allow_large
        )
    else:
        raise ValueError("provide --l for a single census or both --l1 and --l2")
    rows = []
    for key, count in buckets.items():
        cls = key[0] if double else key  # a double key is (seed class, split)
        row = {"seed_class": cls.kind, "ring_length": cls.ring_length}
        if double:
            row["split"] = list(key[1])
        row["count"] = count
        rows.append(row)
    rows.sort(key=lambda r: (r["seed_class"], r["ring_length"] or 0, r.get("split", ())))
    payload["buckets"] = rows
    return payload


def _cmd_simulate(args) -> dict | None:
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
    if args.format == "json":
        return vars(report)
    buffer = io.StringIO()
    csv.writer(buffer).writerows(report.csv_rows())
    sys.stdout.write(buffer.getvalue())
    return None


def _cmd_verify(args) -> dict:
    return verify.run_suite(args.suite, args.max_l, allow_large=args.allow_large)


def _cmd_mp(args) -> dict:
    y = _rational(args.y, "ratio")
    return {"l": args.l, "y": y, "value": closedform.mp_moment(args.l, y)}


def _cmd_bs_check(args) -> dict:
    parts = {}
    for part in ("mean", "cov"):
        report = verify.run_suite(f"bs-{part}", args.max_l)
        parts[part] = {"cases": report["cases"], "failures": report["failures"]}
    return parts


def _cmd_graph(args) -> dict:
    route = parse_route(args.route)
    if args.second is not None:
        return DoubleCircuitMultigraph(route, parse_route(args.second)).record()
    return CircuitMultigraph(route).record()


_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}
_ALLOW_LARGE = ("--allow-large", _FLAG)
_P_N = (("--p", _INT), ("--n", _INT))
_NO_TIMESTAMP = ("--no-timestamp", {
    **_FLAG, "help": "omit the timestamp field for byte-identical reruns"
})
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
        ("--max-l", {"type": int, "default": None}),
    )),
    "graph": (_cmd_graph, "inspect the graph of a route", (
        ("--route", {"required": True, "help": "comma-separated labels, e.g. 2,4,4,3,1,3"}),
        ("--second", {"help": "second route, making it a double graph"}),
    )),
}


def build_parser():
    """The CLI parser with every subcommand, an argparse parser whose usage
    errors raise ValueError."""
    import argparse  # a well-formed call is read without it: see _parse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):  # argparse defaults to status 2
            self.print_usage(sys.stderr)
            raise ValueError(message)

    parser = Parser(prog="tracemoments", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler, op=name)
        for flag, keywords in (_NO_TIMESTAMP, *arguments):
            command.add_argument(flag, **keywords)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """A well-formed call read straight from _COMMANDS, as the full parser
    would read it, or None.

    Well formed means a known command followed only by its own flags, each
    spelled in full and given once, each valued flag followed by a value not
    led by "-" that passes the flag's type and choices, and every required
    flag given.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, arguments = _COMMANDS[argv[0]]
    flags = dict((_NO_TIMESTAMP, *arguments))
    given = {}
    rest = iter(argv[1:])
    for flag in rest:
        keywords = flags.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(rest, "-")  # a missing value declines as a "-" one does
        if value.startswith("-"):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace()
    for flag, keywords in flags.items():
        if flag not in given and keywords.get("required"):
            return None
        switch = keywords.get("action") == "store_true"
        default = keywords.get("default", False if switch else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    args.handler, args.op = handler, argv[0]
    return args


def _parse(argv: list[str]):
    """Read a well-formed call from _COMMANDS.  Anything else, help and every
    usage error included, goes to the full parser, which prints the help or
    the usage line and the error."""
    args = _read(argv)
    return build_parser().parse_args(argv) if args is None else args


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command.  Its handler returns the payload, which is written
    here as one JSON line led by the command name as `op`; exit 2 when the
    payload, or a part of it, lists failures."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning  # one line, no source location
            payload = args.handler(args)
        status = 0
        if payload is not None:  # None: the handler wrote its own output
            payload = {"op": args.op, **payload}
            if not args.no_timestamp:
                payload["timestamp"] = datetime.now(timezone.utc).isoformat()
            print(json.dumps(payload, default=_json))
            # a failed check, in the report or in one of its parts
            parts = (payload, *payload.values())
            if any(isinstance(part, dict) and part.get("failures") for part in parts):
                status = 2
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
