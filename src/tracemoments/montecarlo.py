"""Monte Carlo validation of exact trace moments and power-trace covariances.

Sampling is keyed by (seed, batch index) through the counter-based Philox
generator, with a fixed batch size, so a run is bit-reproducible no matter how
batches are scheduled; partial final batches only truncate the stream.  The
batches run on one thread per usable core, each writing its own rows of the
output.  Each batch is drawn, multiplied out and traced in chunks that
continue its stream, so the traces are those of the whole batch; the threads
split a budget of about CHUNK_VALUES doubles between them, so the memory a
run uses grows with neither the batch nor the thread count.

Each replication is a symmetric p x p matrix, p <= n after transposition, with
the eigenvalues of X X^T: the Gram itself for rademacher (exact in float32)
and uniform entries, and for gaussian entries the tridiagonal beta = 1
Laguerre model of Dumitriu and Edelman (2002), 2p - 1 chi-squares per
replication.  The matrix is divided by n before its powers are taken, so
tr(S^l) needs no further scaling and overflows only where its value does.
Grams are raised to their powers as dense matrices; a tridiagonal T is kept
as its bands, as T^k has bandwidth k, so each power costs O(p k), not O(p^3).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import pairwise
from typing import Callable, Mapping

import numpy as np

from .weights import distribution_name, preset_moments

RNG_ALGORITHM = (
    "philox4x64 keyed by (seed, batch); gaussian: tridiagonal (Dumitriu-Edelman), "
    "rademacher: packed bits, uniform: doubles"
)
BATCH_SIZE = 1024
# doubles in the largest arrays of the chunks in flight, split between the
# threads: 1 MB, so each thread's chunk stays in cache
CHUNK_VALUES = 2**17


@dataclass(frozen=True)
class SimulationConfig:
    p: int
    n: int
    l_list: tuple[int, ...]
    replications: int
    distribution: str
    rng_seed: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.n < 1:
            raise ValueError(f"matrix dimensions must be positive, got {self.p}x{self.n}")
        if not self.l_list or any(l < 1 for l in self.l_list):
            raise ValueError(f"trace powers must be positive, got {self.l_list}")
        if len(set(self.l_list)) != len(self.l_list):
            raise ValueError("trace powers must be distinct")
        if self.replications < 100:
            raise ValueError("need at least 100 replications")
        # aliases such as "normal" name the same preset as in the oracle
        object.__setattr__(self, "distribution", distribution_name(self.distribution))
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must fit in 64 bits")


@dataclass(frozen=True)
class ExactReferences:
    means: Mapping[int, Fraction] = field(default_factory=dict)
    covariances: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)


@dataclass(frozen=True)
class MeanStat:
    l: int
    empirical: float
    se: float
    exact: float | None
    z: float | None


@dataclass(frozen=True)
class CovStat:
    l1: int
    l2: int
    empirical: float
    se: float  # leave-one-out jackknife
    exact: float | None
    z: float | None


@dataclass(frozen=True)
class SimulationReport:
    config: SimulationConfig
    rng_algorithm: str
    batch_size: int
    means: tuple[MeanStat, ...]
    covariances: tuple[CovStat, ...]

    def to_dict(self) -> dict:
        return {
            "config": {
                "p": self.config.p,
                "n": self.config.n,
                "l_list": list(self.config.l_list),
                "replications": self.config.replications,
                "distribution": self.config.distribution,
                "rng_seed": self.config.rng_seed,
            },
            "rng_algorithm": self.rng_algorithm,
            "batch_size": self.batch_size,
            "means": [vars(s).copy() for s in self.means],
            "covariances": [vars(s).copy() for s in self.covariances],
        }

    def csv_rows(self) -> list[list[str]]:
        rows = [["kind", "l1", "l2", "empirical", "exact", "se", "z"]]
        for s in self.means:
            rows.append(
                ["mean", str(s.l), "", repr(s.empirical),
                 "" if s.exact is None else repr(s.exact),
                 repr(s.se), "" if s.z is None else repr(s.z)]
            )
        for s in self.covariances:
            rows.append(
                ["cov", str(s.l1), str(s.l2), repr(s.empirical),
                 "" if s.exact is None else repr(s.exact),
                 repr(s.se), "" if s.z is None else repr(s.z)]
            )
        return rows


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return os.cpu_count() or 1


class _Buffers:
    """One worker's arrays for chunks of up to `capacity` replications, p <= n.

    Each is a flat buffer whose leading elements a chunk views at its own
    shape (`_view`).  The calling thread allocates them once per
    `sample_traces` call, and the kernels of every chunk write into them with
    out=, so the worker threads allocate little: glibc gives each thread its
    own malloc arena, which keeps the pages of what the thread frees.
    - draws: gaussian chi-squares, the float32 or float64 entries otherwise;
    - gram: the rademacher Gram, in the entries' dtype;
    - halves: the powers S .. S^top, in band storage for gaussian;
    - scratch: gaussian only, the band products of `_band_powers` and
      `_band_pair_trace`.
    """

    def __init__(self, distribution: str, p: int, n: int, top: int, capacity: int):
        if distribution == "gaussian":
            widths = [min(k, p - 1) + 1 for k in range(1, top + 1)]
            self.draws = np.empty(capacity * (2 * p - 1))
            self.halves = [np.empty(capacity * width * p) for width in widths]
            self.scratch = np.empty(capacity * widths[-1] * p)
            return
        # rademacher Grams are integers of size at most n, exact in float32
        # while n < 2^24
        single = distribution == "rademacher" and n < 2**24
        self.draws = np.empty(capacity * p * n, np.float32 if single else np.float64)
        if distribution == "rademacher":
            self.gram = np.empty(capacity * p * p, self.draws.dtype)
        self.halves = [np.empty(capacity * p * p) for _ in range(top)]


def _view(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of a flat buffer as a C-contiguous array."""
    return flat[: math.prod(shape)].reshape(shape)


def _batch_generator(seed: int, batch_index: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, batch_index): one batch's stream."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, batch_index], np.uint64)))


def _draw_batch(
    distribution: str,
    gen: np.random.Generator,
    count: int,
    p: int,
    n: int,
    buffers: _Buffers,
) -> np.ndarray:
    """The next `count` replications of a batch from its generator, p <= n,
    in `buffers`: symmetric p x p matrices whose eigenvalues have the joint
    law of those of X X^T for a p x n matrix X.

    The chunks of a batch are drawn in order from one generator, each draw
    made row-major as (count, ...), so the chunks continue one stream and a
    shorter batch is a prefix of the full one.
    - gaussian: the tridiagonal B B^T of the beta = 1 Laguerre model
      (Dumitriu and Edelman 2002), B lower bidiagonal with
      d_i = sqrt(chi^2_{n-i}) on the diagonal, i = 0..p-1, and
      e_i = sqrt(chi^2_{p-1-i}) below it, i = 0..p-2: 2p - 1 chi-squares per
      draw.  Returned in the band storage of `_band_powers`, shape
      (min(2, p), p, count): the diagonal d_i^2 + e_{i-1}^2 and the d_i e_i
      beside it.  B B^T is not the Gram X X^T, but every tr(S^l) depends only
      on the eigenvalues.
    - rademacher: the Gram X X^T of one bit per entry, unpacked from
      ceil(p n / 8) uniform bytes per draw.  `integers` with dtype uint8
      takes the bytes of 4-byte words and drops what is left of the last
      word at the end of each call, so a chunk continues the batch's stream
      only when it starts at a multiple of 4 bytes.  The Gram's
      entries and sums are integers of size at most n, exact in float32
      while n < 2^24, so the product runs in float32 there.
    - uniform: the Gram X X^T of sqrt(3) (2 U - 1) per entry.
    """
    if distribution == "gaussian":
        dfs = np.concatenate([np.arange(n, n - p, -1), np.arange(p - 1, 0, -1)])
        chi2 = _view(buffers.draws, (count, 2 * p - 1))
        gen.standard_gamma(dfs / 2, out=chi2)
        chi2 *= 2.0  # chisquare(df) is 2 standard_gamma(df / 2), bit for bit
        d2, e2 = chi2[:, :p].T, chi2[:, p:].T
        tri = _view(buffers.halves[0], (min(2, p), p, count))
        tri[0, 0] = d2[0]
        np.add(d2[1:], e2, out=tri[0, 1:])
        if p > 1:
            tri[1, 0] = 0.0
            np.multiply(d2[:-1], e2, out=tri[1, 1:])
            np.sqrt(tri[1, 1:], out=tri[1, 1:])
        return tri
    x = _view(buffers.draws, (count, p, n))
    gram = _view(buffers.halves[0], (count, p, p))
    if distribution == "rademacher":
        packed = gen.integers(0, 256, size=(count, -(-p * n // 8)), dtype=np.uint8)
        np.copyto(x, np.unpackbits(packed, axis=1, count=p * n).reshape(x.shape))
        x *= 2.0
        x -= 1.0
        single = np.matmul(x, x.transpose(0, 2, 1), out=_view(buffers.gram, gram.shape))
        np.copyto(gram, single)
        return gram
    gen.random(out=x)
    x *= 2.0
    x -= 1.0
    x *= math.sqrt(3.0)
    return np.matmul(x, x.transpose(0, 2, 1), out=gram)


def _chunk_edges(count: int, widest: int, budget: int, align: int) -> list[int]:
    """Edges of near-equal chunks of a batch of `count` replications, each
    about budget / widest replications but at least 2, every edge but the
    last a multiple of `align`.

    One-replication chunks are avoided because numpy sums them along another
    path, whose last bits differ: einsum for one matrix, a contiguous pairwise
    sum for one replication's bands.  A batch of 1 is its own chunk.
    """
    size = max(2, budget // widest)
    units = count // align
    chunks = max(1, min(-(-count // size), count // 2, units))
    return [align * (units * k // chunks) for k in range(chunks)] + [count]


def _band_powers(tri: np.ndarray, top: int, buffers: _Buffers) -> list[np.ndarray]:
    """T, T^2, ..., T^top of a stack of symmetric tridiagonal matrices, in
    band storage, each in its buffer of `buffers.halves`.

    A power P is an array (bands, p, count): band j holds P[c - j, c] at
    column c (zero for c < j), and the replications run along the last axis,
    so no shift mixes them.  T^k has bandwidth min(k, p - 1), and with d the
    diagonal of T and e_c = T[c, c + 1], each product takes three shifted
    multiply-adds:
        (P T)[c - j, c] = P[c - j, c - 1] e_{c-1} + P[c - j, c] d_c
                          + P[c - j, c + 1] e_c,
    bands j - 1 at c - 1, j at c and j + 1 at c + 1; on the diagonal, the
    first term is band 1 at c, by symmetry.
    """
    p, count = tri.shape[1:]
    d, e = tri[0], tri[-1, 1:]
    powers = [tri]
    while len(powers) < top:
        power = powers[-1]
        width = len(power) - 1
        wider = min(width + 1, p - 1)
        product = _view(buffers.halves[len(powers)], (wider + 1, p, count))
        np.multiply(power, d, out=product[: width + 1])
        if wider > width:
            product[wider] = 0.0
        below = _view(buffers.scratch, (wider, p - 1, count))
        product[1:, 1:] += np.multiply(power[:wider, :-1], e, out=below)
        if width:
            above = _view(buffers.scratch, (width, p - 1, count))
            np.multiply(power[1:, 1:], e, out=above)
            product[:width, :-1] += above
            product[0, 1:] += above[0]
        powers.append(product)
    return powers


def _band_diagonal_sum(x: np.ndarray) -> np.ndarray:
    return x[0].sum(axis=0)


def _band_pair_trace(x: np.ndarray, y: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """sum(X * Y), elementwise, per replication, of symmetric X and Y in band
    storage: the diagonal once, each band above it twice for its mirror."""
    bands = min(len(x), len(y))
    product = _view(scratch, (bands,) + x.shape[1:])
    per_band = np.multiply(x[:bands], y[:bands], out=product).sum(axis=1)
    return per_band[0] + 2.0 * per_band[1:].sum(axis=0)


def _dense_powers(gram: np.ndarray, top: int, buffers: _Buffers) -> list[np.ndarray]:
    halves = [gram]
    for flat in buffers.halves[1:top]:
        halves.append(np.matmul(halves[-1], gram, out=_view(flat, gram.shape)))
    return halves


def _dense_diagonal_sum(x: np.ndarray) -> np.ndarray:
    return np.einsum("rii->r", x)


def _dense_pair_trace(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("rij,rij->r", x, y)


def _trace_batches(
    config: SimulationConfig,
    next_batch: Callable[[], int | None],
    buffers: _Buffers,
    edges: Mapping[int, list[int]],
    out: np.ndarray,
) -> None:
    """Draw, multiply out and trace each batch that `next_batch` hands out
    until it returns None, a batch of `count` replications in the chunks
    between `edges[count]`; each batch writes its own rows of `out`."""
    p, n = sorted((config.p, config.n))
    top = (max(config.l_list) + 1) // 2
    if config.distribution == "gaussian":
        powers, diagonal_sum = _band_powers, _band_diagonal_sum
        pair = partial(_band_pair_trace, scratch=buffers.scratch)
    else:
        powers, diagonal_sum, pair = _dense_powers, _dense_diagonal_sum, _dense_pair_trace
    # overflow is reported per power by `sample_traces`, not as a numpy
    # warning; the error state is local to each thread
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in iter(next_batch, None):
            done = batch * BATCH_SIZE
            count = min(BATCH_SIZE, config.replications - done)
            gen = _batch_generator(config.rng_seed, batch)
            for start, stop in pairwise(edges[count]):
                chunk = _draw_batch(config.distribution, gen, stop - start, p, n, buffers)
                chunk /= config.n
                halves = powers(chunk, top, buffers)
                rows = out[done + start : done + stop]
                for idx, l in enumerate(config.l_list):
                    if l == 1:  # exact wherever the diagonal is
                        rows[:, idx] = diagonal_sum(halves[0])
                    else:
                        rows[:, idx] = pair(halves[(l + 1) // 2 - 1], halves[l // 2 - 1])


def sample_traces(config: SimulationConfig) -> np.ndarray:
    """Per-replication values of tr(S^l), shape (replications, len(l_list)).

    The keyed batches run on min(batches, usable cores) threads, the calling
    thread among them; numpy releases the interpreter lock in its draws and
    products, so the threads run at once.  Each takes the next batch not yet
    taken and writes its rows of the output, so the traces do not depend on
    which thread draws which batch.  Each batch is drawn, multiplied out and
    traced in chunks whose largest array holds about CHUNK_VALUES / threads
    doubles, in buffers made once per call, so the working set stays in
    cache and the memory a run uses grows with neither the batch nor the
    thread count.  The chunks continue the batch's stream, so the traces are
    those of drawing the batch whole.  For p > n the draw is transposed:
    tr((X^T X / n)^l) = tr((X X^T / n)^l), so the traces need no rescaling.
    A gaussian tridiagonal T is multiplied out in band storage, O(p k) work
    and memory for T^k; the Grams of the other distributions as dense
    matrices.
    Raises ValueError when a trace is not finite in double precision, for
    the first such power of the first such batch; an exception in any
    thread is raised here, once every thread has stopped.
    """
    p, n = sorted((config.p, config.n))
    gaussian = config.distribution == "gaussian"
    # S is symmetric, so tr(S^l) is the sum of the entries of
    # S^ceil(l/2) * S^floor(l/2), elementwise: only the powers up to
    # ceil(max_l/2) are multiplied out
    top = (max(config.l_list) + 1) // 2
    widest = (min(top, p - 1) + 1) * p if gaussian else p * n
    reps = config.replications
    starts = range(0, reps, BATCH_SIZE)
    workers = min(len(starts), _usable_cores())
    # a rademacher chunk starts on a 4-byte word of its batch's bytes (`_draw_batch`)
    align = 4 // math.gcd(-(-p * n // 8), 4) if config.distribution == "rademacher" else 1
    edges = {
        count: _chunk_edges(count, widest, CHUNK_VALUES // workers, align)
        for count in (min(BATCH_SIZE, reps), reps - starts[-1])
    }
    capacity = max(stop - start for cuts in edges.values() for start, stop in pairwise(cuts))
    buffers = [_Buffers(config.distribution, p, n, top, capacity) for _ in range(workers)]
    out = np.empty((reps, len(config.l_list)), dtype=np.float64)
    lock = threading.Lock()
    batches = iter(range(len(starts)))
    errors: list[BaseException] = []

    def next_batch() -> int | None:
        with lock:
            return None if errors else next(batches, None)

    def work(own: _Buffers) -> None:
        try:
            _trace_batches(config, next_batch, own, edges, out)
        except BaseException as exc:  # raised again by the calling thread
            with lock:
                errors.append(exc)

    threads = []
    try:
        for own in buffers[1:]:
            thread = threading.Thread(target=work, args=(own,), daemon=True)
            try:
                thread.start()
            except RuntimeError:  # no thread to spare: the others take its batches
                break
            threads.append(thread)
        work(buffers[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    for done in starts:
        for idx, l in enumerate(config.l_list):
            if not np.isfinite(out[done : done + BATCH_SIZE, idx]).all():
                raise ValueError(f"tr(S^{l}) is not finite in double precision")
    return out


def _z_score(empirical: float, exact: float | None, se: float) -> float | None:
    if exact is None:
        return None
    if se > 0.0:
        return (empirical - exact) / se
    return 0.0 if empirical == exact else math.inf


def _jackknife_cov_se(products: np.ndarray) -> float:
    """Leave-one-out jackknife standard error of a sample covariance, from the
    products c_x,i c_y,i of its two centred columns.

    The covariance leaving out i is (sum(c_x c_y) - r/(r-1) c_x,i c_y,i) / (r-2),
    so the leave-one-out values spread as the products do.  Centring the
    columns first keeps large means from cancelling the spread away, as raw
    sums would.
    """
    r = len(products)
    deviations = products - products.mean()
    spread = math.sqrt((r - 1) / r * float(deviations @ deviations))
    return r / ((r - 1) * (r - 2)) * spread


def simulate(
    config: SimulationConfig, reference: ExactReferences | None = None
) -> SimulationReport:
    """Estimate trace means and covariances and score them against exact values."""
    reference = reference or ExactReferences()
    traces = sample_traces(config)
    r = config.replications
    means: list[MeanStat] = []
    for idx, l in enumerate(config.l_list):
        col = traces[:, idx]
        empirical = float(col.mean())
        se = float(col.std(ddof=1)) / math.sqrt(r)
        exact = reference.means.get(l)
        exact_f = None if exact is None else float(exact)
        means.append(MeanStat(l, empirical, se, exact_f, _z_score(empirical, exact_f, se)))
    # centre each column once, in place: a copy of every column would hold
    # as much memory as the traces do
    for col in traces.T:
        col -= col.mean()
    covs: list[CovStat] = []
    for a in range(len(config.l_list)):
        for b in range(a, len(config.l_list)):
            l1, l2 = config.l_list[a], config.l_list[b]
            products = traces[:, a] * traces[:, b]
            empirical = float(products.sum() / (r - 1))
            se = _jackknife_cov_se(products)
            exact = reference.covariances.get((l1, l2))
            if exact is None:
                exact = reference.covariances.get((l2, l1))
            exact_f = None if exact is None else float(exact)
            covs.append(
                CovStat(l1, l2, empirical, se, exact_f, _z_score(empirical, exact_f, se))
            )
    return SimulationReport(config, RNG_ALGORITHM, BATCH_SIZE, tuple(means), tuple(covs))


def oracle_references(
    config: SimulationConfig,
    *,
    cov_pairs: tuple[tuple[int, int], ...] | None = None,
    allow_large: bool = False,
) -> ExactReferences:
    """Exact references for a simulation, computed by the enumeration oracle.

    Covariance references default to every pair of configured powers that fits
    the oracle's cost guard; pass cov_pairs to pin the selection explicitly.
    """
    from .enumeration import (
        COVARIANCE_POWER_LIMIT,
        exact_trace_covariance,
        exact_trace_moment,
    )

    max_l = max(config.l_list)
    means: dict[int, Fraction] = {}
    mean_moments = preset_moments(config.distribution, max(4, 2 * max_l))
    for l in config.l_list:
        means[l] = exact_trace_moment(
            l, config.p, config.n, mean_moments, allow_large=allow_large
        ).value
    if cov_pairs is None:
        limit = COVARIANCE_POWER_LIMIT + (1 if allow_large else 0)
        cov_pairs = tuple(
            (config.l_list[a], config.l_list[b])
            for a in range(len(config.l_list))
            for b in range(a, len(config.l_list))
            if config.l_list[a] + config.l_list[b] <= limit
        )
    covs: dict[tuple[int, int], Fraction] = {}
    for l1, l2 in cov_pairs:
        cov_moments = preset_moments(config.distribution, 2 * (l1 + l2))
        covs[(l1, l2)] = exact_trace_covariance(
            l1, l2, config.p, config.n, cov_moments, allow_large=allow_large
        )
    return ExactReferences(means, covs)
