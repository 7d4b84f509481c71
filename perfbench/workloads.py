"""Request lists of the benchmark workloads and the checks on their outputs.

Every request is the argv of one `tracemoments` CLI call.  Requests whose
output is exact (oracle, census, verify) are compared byte for byte with the
pinned output in `expected.json`.  Monte Carlo requests are checked through
z-scores against pinned exact means and covariances, because their floats
change with the `--seed` the benchmark draws for them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("oracle", "simulate", "verify")
DISTS = ("gaussian", "rademacher", "uniform")
ORACLE_SHAPES = ((4, 8), (50, 100), (8, 4))
MEAN_POWERS = (1, 2, 3, 4)
# requests that take well under 0.1 s are sent this many times per pass
CHEAP_SENDS = 4
# the covariance pairs the oracle reaches under its default cost guard
COV_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2))
# Only a request sent several times per run has a steady latency, even after
# speed scaling (see run.py).  So every request must fit about three times in
# a run: the costly ones (0.2-3 s) are sent at one case each instead of at
# every distribution and shape.
COSTLY_ORACLE = (
    ("mean-oracle", "--l", "4", "--p", "4", "--n", "8", "--dist", "gaussian"),
    ("mean-oracle", "--l", "4", "--p", "50", "--n", "100", "--dist", "rademacher"),
    ("mean-oracle", "--l", "4", "--p", "8", "--n", "4", "--dist", "uniform"),
    ("cov-oracle", "--l1", "1", "--l2", "3", "--p", "50", "--n", "100",
     "--dist", "rademacher"),
    ("cov-oracle", "--l1", "2", "--l2", "2", "--p", "8", "--n", "4", "--dist", "uniform"),
)
# (suite arguments, sends per pass); sprouting (18 s), bs-cov (5 s) and
# census l=5 b=3 (3 s) at their default sizes would each outlast a pass
VERIFY_SUITES = (
    (("taylor",), CHEAP_SENDS), (("bs-mean",), CHEAP_SENDS),
    (("bs-cov", "--max-l", "12"), 1), (("mean-coeffs",), CHEAP_SENDS),
    (("tree-counts",), CHEAP_SENDS), (("vanishing",), CHEAP_SENDS),
    (("sprouting", "--max-l", "2"), CHEAP_SENDS), (("ring-census",), 1),
    (("double-census",), 1), (("cov-coeffs",), 1),
)
# acceptance criterion 12 of the test suite: |z| bounds of the MC gate
MEAN_Z_BOUND = 5.0
COV_Z_BOUND = 6.0


@dataclass(frozen=True)
class Request:
    """One CLI call.  `shape` is set for Monte Carlo calls, which take a seed."""

    argv: tuple[str, ...]
    shape: tuple[str, int, int] | None = None
    reference: bool = False
    sends: int = 1

    @property
    def name(self) -> str:
        return " ".join(self.argv)

    def command(self, mc_seed: int) -> list[str]:
        argv = list(self.argv)
        if self.shape is not None:
            argv += ["--seed", str(mc_seed)]
        return argv + ["--no-timestamp"]


def _simulate(dist: str, p: int, n: int, powers: str, reps: int, *, reference=False):
    argv = ("simulate", "--p", str(p), "--n", str(n), "--l", powers,
            "--reps", str(reps), "--dist", dist)
    if not reference:
        argv += ("--no-reference",)
    return Request(argv, (dist, p, n), reference)


def _oracle(tiny: bool) -> list[Request]:
    if tiny:
        return [
            Request(("mean-oracle", "--l", "2", "--p", "4", "--n", "8", "--dist", "gaussian")),
            Request(("cov-oracle", "--l1", "1", "--l2", "1", "--p", "8", "--n", "4",
                     "--dist", "uniform")),
            _simulate("gaussian", 4, 8, "1,2", 2000, reference=True),
        ]
    out = []
    for dist in DISTS:
        for p, n in ORACLE_SHAPES:
            shape = ("--p", str(p), "--n", str(n), "--dist", dist)
            for l in MEAN_POWERS[:3]:
                out.append(Request(("mean-oracle", "--l", str(l)) + shape, sends=CHEAP_SENDS))
            for l1, l2 in COV_PAIRS[:2]:
                out.append(Request(("cov-oracle", "--l1", str(l1), "--l2", str(l2)) + shape,
                                   sends=CHEAP_SENDS))
    out += [Request(argv) for argv in COSTLY_ORACLE]
    # the README example: its reference values cost far more than its sampling
    out.append(_simulate("gaussian", 4, 8, "1,2,3", 200000, reference=True))
    return out


def _simulate_workload(tiny: bool) -> list[Request]:
    big, small = (200, 2000) if tiny else (4000, 50000)
    out = [_simulate(dist, 50, 100, "1,2,3,4", big) for dist in DISTS]
    for dist in ("gaussian", "rademacher"):
        out.append(_simulate(dist, 100, 50, "1,2,3,4", big))
        out.append(_simulate(dist, 4, 8, "1,2,3", small))
    return out


def _verify(tiny: bool) -> list[Request]:
    if tiny:
        return [
            Request(("verify", "--suite", "taylor")),
            Request(("verify", "--suite", "mean-coeffs")),
            Request(("census", "--l1", "1", "--l2", "1", "--b", "1")),
        ]
    out = [Request(("verify", "--suite") + args, sends=sends) for args, sends in VERIFY_SUITES]
    out.append(Request(("census", "--l", "5", "--b", "2")))
    for l1 in range(1, 4):
        for l2 in range(1, 5 - l1):
            for b in range(1, l1 + l2 + 1):
                cheap = l1 + l2 < 4 or b < 3
                out.append(Request(("census", "--l1", str(l1), "--l2", str(l2), "--b", str(b)),
                                   sends=CHEAP_SENDS if cheap else 1))
    return out


def requests(workload: str, tiny: bool = False) -> list[Request]:
    """The request list of a workload, in canonical order."""
    builders = {"oracle": _oracle, "simulate": _simulate_workload, "verify": _verify}
    return builders[workload](tiny)


def exact_shapes() -> list[tuple[str, int, int]]:
    """Every (dist, p, n) whose exact moments the Monte Carlo checks need."""
    shapes = {
        r.shape
        for w in WORKLOADS
        for tiny in (False, True)
        for r in requests(w, tiny)
        if r.shape is not None
    }
    return sorted(shapes)


def shape_key(shape: tuple[str, int, int]) -> str:
    return "{} {} {}".format(*shape)


# ---------------------------------------------------------------------------
# checks


def _close_enough(stats: list[dict], exact: dict, bound: float, kind: str) -> str | None:
    for s in stats:
        key = str(s["l"]) if kind == "mean" else f"{s['l1']},{s['l2']}"
        emp, se = s["empirical"], s["se"]
        if not (math.isfinite(emp) and math.isfinite(se) and se >= 0):
            return f"{kind} {key}: empirical {emp}, se {se}"
        if key not in exact:
            continue
        diff = emp - float(Fraction(exact[key]))
        # se is 0 when the statistic is constant, e.g. tr(S) = p for rademacher
        if (diff != 0) if se == 0 else abs(diff / se) > bound:
            return f"{kind} {key}: empirical {emp}, se {se}, exact {exact[key]}"
    return None


def _check_references(stats: list[dict], exact: dict, kind: str) -> str | None:
    for s in stats:
        key = str(s["l"]) if kind == "mean" else f"{s['l1']},{s['l2']}"
        want = float(Fraction(exact[key])) if key in exact else None
        if s["exact"] != want:
            return f"{kind} {key}: reported exact {s['exact']}, pinned {want}"
        if want is not None:
            bound = MEAN_Z_BOUND if kind == "mean" else COV_Z_BOUND
            if s["z"] is None or abs(s["z"]) > bound:
                return f"{kind} {key}: reported z {s['z']} outside {bound}"
    return None


def check(request: Request, argv: list[str], status: int, stdout: str,
          expected: dict) -> str | None:
    """Return why the output of one request is wrong, or None when it is right."""
    if status != 0:
        return f"exit status {status}"
    if request.shape is None:
        want = expected["outputs"].get(request.name)
        if want is None:
            return "no pinned output"
        if stdout != want:
            return "output differs from the pinned output"
        if request.argv[0] == "verify" and json.loads(stdout)["failures"]:
            return "verify reported failures"
        return None
    report = json.loads(stdout)
    config = report["config"]
    dist, p, n = request.shape
    seed = int(argv[argv.index("--seed") + 1])
    powers = [int(x) for x in request.argv[request.argv.index("--l") + 1].split(",")]
    reps = int(request.argv[request.argv.index("--reps") + 1])
    if (config["p"], config["n"], config["distribution"], config["l_list"],
            config["replications"], config["rng_seed"]) != (p, n, dist, powers, reps, seed):
        return f"config echo {config} does not match the request"
    exact = expected["exact"][shape_key(request.shape)]
    if request.reference:
        return (_check_references(report["means"], exact["means"], "mean")
                or _check_references(report["covariances"], exact["covs"], "cov"))
    if any(s["exact"] is not None for s in report["means"] + report["covariances"]):
        return "exact values reported although --no-reference was given"
    return (_close_enough(report["means"], exact["means"], MEAN_Z_BOUND, "mean")
            or _close_enough(report["covariances"], exact["covs"], COV_Z_BOUND, "cov"))
