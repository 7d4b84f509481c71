"""Closed-loop benchmark of the tracemoments command line.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One client sends one CLI request at a time, in process, through
`tracemoments.cli.main(argv)`, and sends the next only when the last has
completed.  The enumeration caches are cleared before every request, because
every real CLI call is a fresh process.  A pass sends the workload's whole
request list, cheap requests several times, in an order drawn from `--seed`,
which also draws the `--seed` of each Monte Carlo request.  Passes repeat
while the next one is expected to end within `--seconds`; there is always at
least one.

Times are scaled to a reference machine speed.  The shared host switches
between full speed and about half speed in phases of a second to minutes,
and a switch slows fixed reference work of the same kind as the requests
about as much as it slows the requests.  So while requests run, a timer
signal times a small piece of the workload's reference work (`REFERENCES`)
every `PROBE_PERIOD_S`, and each request's time is multiplied by the
reference's nominal time over the mean reference time measured during and
around it.  Set-up time is scaled by a reference process that imports
standard-library modules.  The report line also gives the unscaled figures.

With `--trace 0` the last line carries the end-to-end metrics.  With
`--trace 1` the run makes one untraced pass and then the same pass traced,
and the last line carries the per-layer metrics and the tracing overhead;
the spans are written to `perfbench-out/`.  The line before the last is a
report with the seed, the environment, sample counts and failures.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SPAN_DIR = ROOT / "perfbench-out"
SETUP_REPEATS = 9
PROBE_PERIOD_S = 0.05  # wall time between two timings of the reference work
PROBE_WINDOW_S = 0.1  # timings this close to a request also scale it
PROBE_MIN_SAMPLES = 8  # timings that scale a request, at least
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
FAILURES_SHOWN = 5

# a fresh process up to its first request: interpreter, package, expectations
SETUP_CODE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import tracemoments; "
    "json.load(open(sys.argv[2]))"
)
# a fresh process that starts the interpreter and imports modules the package
# does not need: it stands in for the reference loop when set-up is scaled
SETUP_REFERENCE_CODE = (
    "import asyncio, decimal, email.parser, http.client, unittest, xml.dom.minidom"
)
SETUP_REFERENCE_S = 0.15  # the reference process's time at the reference speed


def cap_blas_threads() -> int:
    """Limit BLAS threads to the usable cores; call before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_THREAD_VARS:
        try:
            threads = min(threads, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_package():
    """Import tracemoments from this checkout's `src/`, and nothing else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracemoments
    import tracemoments.cli

    where = Path(tracemoments.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"tracemoments was imported from {where}, not from {SRC}")
    return tracemoments


def load_expected(path: Path = EXPECTED) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment facts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_name() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str | None:
    """The checked-out commit, when the checkout is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tracemoments").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(blas_threads: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_name(),
        "blas_threads": blas_threads,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement


def fraction_reference() -> None:
    """A fixed loop of Fraction sums, about 1.5 ms at the reference speed."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 17, i % 23 + 1)


def numpy_reference() -> None:
    """Fixed Philox draws and batched Gram products, about 1.5 ms at the reference speed."""
    import numpy

    gen = numpy.random.Generator(numpy.random.Philox(key=numpy.array([1, 2], numpy.uint64)))
    x = gen.standard_normal((8, 50, 100))
    gram = x @ x.transpose(0, 2, 1)
    numpy.einsum("rii->r", gram @ gram).sum()


# Each workload's reference work and its time in seconds at the reference
# speed.  The oracle and verify requests are Fraction and dict work in
# Python; the simulate requests are draws and batched products in numpy,
# whose speed drifts apart from Python's on this host.
REFERENCES = {
    "oracle": (fraction_reference, 0.0015),
    "verify": (fraction_reference, 0.0015),
    "simulate": (numpy_reference, 0.0015),
}


class SpeedProbe:
    """Times the reference work every `PROBE_PERIOD_S` of wall time while on.

    The timing runs in a SIGALRM handler, so it falls inside requests as well
    as between them; Python runs the handler between bytecodes, so a timing
    waits for a long native call to return.  One timing is taken on entry
    and one on exit.
    """

    def __init__(self, reference, nominal: float):
        self.reference, self.nominal = reference, nominal
        self.starts: list[float] = []  # perf_counter at the start of each timing
        self.times: list[float] = []  # s

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.reference()
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, start: float, end: float) -> float:
        """The time from start to end at the reference speed.

        It is scaled by the mean of the timings from `PROBE_WINDOW_S` before
        start to `PROBE_WINDOW_S` after end, widened to the nearest
        `PROBE_MIN_SAMPLES` timings when there are fewer.
        """
        starts = self.starts
        lo = bisect.bisect_left(starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(starts, end + PROBE_WINDOW_S)
        while hi - lo < PROBE_MIN_SAMPLES and (lo > 0 or hi < len(starts)):
            if lo > 0 and (hi == len(starts) or start - starts[lo - 1] < starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return (end - start) * self.nominal / statistics.fmean(self.times[lo:hi])


def _process_seconds(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True)
    return time.perf_counter() - start


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Scaled and unscaled wall times of fresh processes that import the
    package and the expectations.

    Each is scaled by the mean time of the reference processes run just
    before and just after it.
    """
    reference = [sys.executable, "-c", SETUP_REFERENCE_CODE]
    refs = [_process_seconds(reference)]
    raw = []
    for _ in range(repeats):
        raw.append(_process_seconds([sys.executable, "-c", SETUP_CODE, str(SRC),
                                     str(EXPECTED)]))
        refs.append(_process_seconds(reference))
    scaled = [t * 2 * SETUP_REFERENCE_S / (a + b) for t, a, b in zip(raw, refs, refs[1:])]
    return scaled, raw


@dataclass
class Pass:
    elapsed: float  # s, with the reference work
    latency: dict[int, list[float]] = field(default_factory=dict)  # index -> scaled s
    raw: dict[int, list[float]] = field(default_factory=dict)  # index -> s
    refs: list[float] = field(default_factory=list)  # reference timings, s
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    output_bytes: int = 0


def run_pass(reqs, rng: random.Random, tm, expected: dict, main, reference,
             repeat: bool = True) -> Pass:
    """Send every request, in an order drawn from rng, then check the outputs.

    With `repeat`, a request is sent `Request.sends` times at places spread
    over the pass, so that a cheap request's latency does not hang on
    the machine's state at one moment; without it each is sent once.
    """
    order = [i for i, r in enumerate(reqs) for _ in range(r.sends if repeat else 1)]
    rng.shuffle(order)
    seeds = [rng.randrange(2**32) for _ in order]
    sent = []
    start = time.perf_counter()
    with SpeedProbe(*reference) as probe:
        for idx, mc_seed in zip(order, seeds):
            argv = reqs[idx].command(mc_seed)
            tm.enumeration.clear_caches()
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    status = main(argv)
            except Exception as exc:  # a request that raises is a failed request
                status = f"{type(exc).__name__}: {exc}"
            sent.append((idx, argv, status, out.getvalue(), t0, time.perf_counter()))
    result = Pass(time.perf_counter() - start, attempted=len(sent), refs=probe.times)
    for idx, argv, status, stdout, t0, t1 in sent:
        result.latency.setdefault(idx, []).append(probe.scale(t0, t1))
        result.raw.setdefault(idx, []).append(t1 - t0)
        result.output_bytes += len(stdout.encode())
        if isinstance(status, str):
            reason = status
        else:
            try:
                reason = workloads.check(reqs[idx], argv, status, stdout, expected)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is not None:
            result.failures.append(f"{' '.join(argv)}: {reason}")
    return result


def midmean(values: list[float]) -> float:
    """Mean of the middle half of the values: a quarter is cut from each end."""
    s = sorted(values)
    cut = len(s) // 4
    return statistics.fmean(s[cut:len(s) - cut])


def tail(values: list[float]) -> tuple[int, float]:
    """Nearest-rank value at the highest whole percentile with >= 10 samples beyond.

    With ten samples or fewer no percentile qualifies, and the maximum is
    reported as percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return 100, s[-1]
    q = 100 * (n - TAIL_BEYOND) // n
    rank = -(-q * n // 100)
    return q, s[rank - 1]


def bench(workload: str, seed: int, seconds: float, trace: bool, *,
          tiny: bool = False, expected: dict | None = None,
          setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; return (report, result line)."""
    blas_threads = cap_blas_threads()
    tm = import_package()
    if expected is None:
        expected = load_expected()
    # what a fresh CLI process would not have to scan: the package, the
    # expectations and the benchmark's own objects
    gc.collect()
    gc.freeze()
    reqs = workloads.requests(workload, tiny)
    rng = random.Random(seed)
    reference = REFERENCES[workload]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "requests": len(reqs), "env": environment(blas_threads),
    }
    if trace:
        from tracing import Tracer

        state = rng.getstate()
        # one send per request, so that the counts repeat exactly
        plain = run_pass(reqs, rng, tm, expected, tm.cli.main, reference, repeat=False)
        rng.setstate(state)
        tracer = Tracer()
        tracer.install(tm)
        try:
            traced = run_pass(reqs, rng, tm, expected, tracer.wrap_main(tm.cli.main),
                              reference, repeat=False)
        finally:
            tracer.restore()
        tracer.counters["cli.output_bytes"] = traced.output_bytes
        passes = [plain, traced]
        metrics = dict(tracer.metrics())
        plain_wall, traced_wall = (sum(sum(v) for v in p.latency.values())
                                   for p in passes)
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        report.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_spans(span_file)
        report["spans"] = str(span_file.relative_to(ROOT))
    else:
        setup, setup_raw = measure_setup(setup_repeats)
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(reqs, rng, tm, expected, tm.cli.main, reference))
            if time.perf_counter() - start + passes[-1].elapsed > seconds:
                break
        samples = [[t for p in passes for t in p.latency[i]] for i in range(len(reqs))]
        raw_samples = [[t for p in passes for t in p.raw[i]] for i in range(len(reqs))]
        # A request's latency is the midmean of its scaled sends in the run.
        # A short request runs wholly at full or at half speed, so its sends
        # fall in two clusters; their median jumps between the clusters as
        # their shares change, while the midmean follows the shares.  The
        # percentiles are those of one pass's mix, in which each request
        # appears as often as a pass sends it, whatever the number of passes.
        per_request = [midmean(v) for v in samples]
        mix = [t for t, r in zip(per_request, reqs) for _ in range(r.sends)]
        q, tail_value = tail(mix)
        raw = [midmean(v) for v in raw_samples]
        raw_mix = [t for t, r in zip(raw, reqs) for _ in range(r.sends)]
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            # the request list sent once, each request at its latency
            "wall_s": (sum(per_request), "s"),
            "req_p50_ms": (1000 * statistics.median(mix), "ms"),
            "req_tail_ms": (1000 * tail_value, "ms"),
            "peak_rss_mb": (rss_kib / 1024, "MB"),
        }
        report.update(
            passes=len(passes), pass_elapsed_s=[p.elapsed for p in passes],
            setup_samples=setup_repeats, latency_samples=len(mix),
            req_tail_percentile=q,
            reference_ms=1000 * statistics.median(t for p in passes for t in p.refs),
            unscaled={"setup_s": statistics.median(setup_raw), "wall_s": sum(raw),
                      "req_p50_ms": 1000 * statistics.median(raw_mix),
                      "req_tail_ms": 1000 * tail(raw_mix)[1]},
            # scaled and unscaled latency and the number of sends of each request
            request_ms={r.name: [1000 * a, 1000 * b, len(v)]
                        for r, a, b, v in zip(reqs, per_request, raw, samples)},
        )
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    report.update(
        attempted=attempted, failed=len(failures),
        error_rate=len(failures) / attempted, failures=failures[:FAILURES_SHOWN],
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def emit(report: dict, result: dict) -> None:
    """Print the report, then the result line, which must come last."""
    print(json.dumps(report))
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    emit(report, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
