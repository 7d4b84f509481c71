"""Paired A/B runs of the benchmark between two commits.

    python3 tools/ab.py BASE [HEAD] --out BENCH_<k>.json

Run from a git checkout.  Each commit is `git archive`d into a temporary
directory, and each tree runs its own `perfbench/run.py --workload W --seed S
--seconds T`, so the benchmark code is whatever that commit holds.  The
workloads and the run length T are those of the head's BENCHMARK.json, the
same on both sides.  For each workload, ten pairs run one after the other;
both sides of pair i share the seed i, and the side that runs first
alternates from pair to pair, because the host's speed drifts over minutes.
Before the pairs, each tree runs its own tier-1 suite once, base first.

The report goes to the file `--out` names.  Per workload and end-to-end
metric of BENCHMARK.json it gives, scaled and unscaled, both medians, the
base's quartiles and the pairs the head won (ties count for neither), and
whether the head's gain clears the rule for claiming one: at least nine
tenths of the pairs won and the medians apart by more than the base's
interquartile range.  A metric whose scaled and unscaled medians move in
opposite directions is marked as noise.  Every run's figures, the speed
probe's `reference_ms`, the environment, both commits and the command are
kept too, and so are each side's tier-1 wall time, exit status, summary line
and ten slowest tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "head")
PAIRS = 10
ENV_KEYS = ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=10")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(commit: str, into: Path) -> None:
    """Write the tree of `commit` into the empty directory `into`."""
    archive = subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")


def _env(**extra: str) -> dict:
    return {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, **extra}


def _tier1(tree: Path) -> dict:
    """One tier-1 run in `tree`: its wall time, exit status, summary line and
    ten slowest tests."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=_env(PYTHONPATH="src"),
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    return {
        "wall_s": round(time.perf_counter() - start, 2),
        "returncode": proc.returncode,
        "summary": lines[-1].strip("= ") if lines else "",
        "slowest": [line for line in lines if re.match(r"\d+\.\d+s \w+ ", line)],
    }


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in `tree`: (report, result line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=_env(), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return report, result


def _figures(report: dict, result: dict) -> dict:
    """The figures of one run that the summary reads."""
    return {
        "scaled": {k: v["value"] for k, v in result["metrics"].items()},
        "unscaled": report["unscaled"],
        "reference_ms": report["reference_ms"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def _compare(base: list[float], head: list[float], better: str) -> dict:
    """Medians, the base's quartiles and the pairs the head won."""
    sign = 1 if better == "lower" else -1
    q1, _, q3 = statistics.quantiles(base, n=4)
    base_median, head_median = statistics.median(base), statistics.median(head)
    won = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    return {
        "base_median": base_median,
        "base_quartiles": [q1, q3],
        "head_median": head_median,
        "change": head_median / base_median - 1 if base_median else None,
        "pairs_won": won,
        "gain": won >= math.ceil(0.9 * len(base))
        and sign * (base_median - head_median) > q3 - q1,
    }


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric, the scaled and, where the report has it, the
    unscaled comparison of one workload's pairs."""
    summary = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        entry = {"unit": metric["unit"], "better": better, "bound": metric["bound"]}
        for kind in ("scaled", "unscaled"):
            if all(name in run[side][kind] for run in runs for side in SIDES):
                entry[kind] = _compare(*([run[side][kind][name] for run in runs]
                                         for side in SIDES), better)
        scaled = entry["scaled"]
        sign = 1 if better == "lower" else -1
        entry["within_bound"] = (
            sign * (scaled["head_median"] - scaled["base_median"])
            <= metric["bound"] * abs(scaled["base_median"])
        )
        if "unscaled" in entry:
            moves = [entry[kind]["head_median"] - entry[kind]["base_median"]
                     for kind in ("scaled", "unscaled")]
            entry["noise"] = moves[0] * moves[1] < 0
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the commit compared against")
    parser.add_argument("head", nargs="?", default="HEAD", help="default HEAD")
    parser.add_argument("--out", type=Path, required=True, help="the report to write")
    args = parser.parse_args(argv)

    commits = {side: _git("rev-parse", "--verify", f"{ref}^{{commit}}")
               for side, ref in zip(SIDES, (args.base, args.head))}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        for side, tree in trees.items():
            tree.mkdir()
            _export(commits[side], tree)
        # the head's benchmark declaration names the workloads and metrics
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        tier1 = {}
        for side in SIDES:
            tier1[side] = _tier1(trees[side])
            print(f"tier-1 {side}: {tier1[side]['wall_s']} s, {tier1[side]['summary']}",
                  file=sys.stderr, flush=True)
        env, results = None, {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for seed in range(1, PAIRS + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    report, result = _run(trees[side], workload, seed, seconds)
                    env = env or {k: report["env"][k] for k in ENV_KEYS}
                    run[side] = _figures(report, result)
                runs.append(run)
                print(f"{workload} pair {seed}/{PAIRS}: " + ", ".join(
                    f"{side} req_p50_ms {run[side]['scaled']['req_p50_ms']:.3f}"
                    for side in SIDES), file=sys.stderr, flush=True)
            results[workload] = {
                "failed": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
                "attempted": {side: sum(r[side]["attempted"] for r in runs)
                              for side in SIDES},
                "reference_ms": {side: statistics.median(r[side]["reference_ms"]
                                                         for r in runs)
                                 for side in SIDES},
                "metrics": summarize(runs, spec["end_to_end"]),
                "runs": runs,
            }
    bench = {
        "command": shlex.join(["python3", "tools/ab.py",
                               *(sys.argv[1:] if argv is None else argv)]),
        "base": {"ref": args.base, "commit": commits["base"]},
        "head": {"ref": args.head, "commit": commits["head"]},
        "pairs": PAIRS,
        "seconds": seconds,
        "env": {**env, "platform": platform.platform()},
        "tier1": {"command": shlex.join(["PYTHONPATH=src", "python3", *TIER1]), **tier1},
        "workloads": results,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
