"""Write `expected.json`: the pinned outputs every benchmark request is checked against.

    python3 perfbench/pin.py

Run once, at the commit whose outputs are taken as correct.  It records the
`--no-timestamp` stdout of every request with an exact output, and the exact
means E tr(S^l), l = 1..4, and covariances for l1 + l2 <= 4 of every
(distribution, p, n) that a Monte Carlo request samples.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import run
import workloads


def _call(tm, argv: list[str]) -> str:
    tm.enumeration.clear_caches()
    out = io.StringIO()
    with redirect_stdout(out):
        status = tm.cli.main(argv + ["--no-timestamp"])
    if status != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {status}")
    return out.getvalue()


def main() -> None:
    run.cap_blas_threads()
    tm = run.import_package()
    outputs = {}
    for workload in workloads.WORKLOADS:
        for tiny in (False, True):
            for req in workloads.requests(workload, tiny):
                if req.shape is None and req.name not in outputs:
                    outputs[req.name] = _call(tm, list(req.argv))
    exact = {}
    for dist, p, n in workloads.exact_shapes():
        shape = ["--p", str(p), "--n", str(n), "--dist", dist]
        means = {
            str(l): json.loads(_call(tm, ["mean-oracle", "--l", str(l)] + shape))["value"]
            for l in workloads.MEAN_POWERS
        }
        covs = {
            f"{l1},{l2}": json.loads(
                _call(tm, ["cov-oracle", "--l1", str(l1), "--l2", str(l2)] + shape)
            )["value"]
            for l1, l2 in workloads.COV_PAIRS
        }
        exact[workloads.shape_key((dist, p, n))] = {"means": means, "covs": covs}
    with open(run.EXPECTED, "w") as fh:
        json.dump({"outputs": outputs, "exact": exact}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
