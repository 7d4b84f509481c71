"""Monte Carlo validation of exact trace moments and power-trace covariances.

Sampling is keyed by (seed, batch index): each batch draws from its own SFC64
stream, seeded by SeedSequence(seed, spawn_key=(batch,)), numpy's recipe for
independent parallel streams.  With a fixed batch size a run is
bit-reproducible no matter how batches are scheduled; partial final batches
only truncate the stream.  The batches run on one thread per usable core
in spans of consecutive batches, each span writing its own rows of the
column-major output.  A span is one batch, drawn, multiplied out and traced
in chunks that continue its stream, or, for small shapes, several whole
batches traced as one chunk, each drawing its own rows from its own stream;
either way the traces are those of each whole batch.  The threads split a
budget of about CHUNK_VALUES doubles between them, so the memory a run uses
grows with neither the batch nor the thread count.

Each replication is a symmetric p x p matrix, p <= n after transposition, with
the eigenvalues of X X^T: the Gram itself for rademacher (exact in float32)
and uniform entries, and for gaussian entries the tridiagonal beta = 1
Laguerre model of Dumitriu and Edelman (2002), 2p - 1 chi-squares per
replication.  The matrix is divided by n before its powers are taken, so
tr(S^l) needs no further scaling and overflows only where its value does.
Grams are raised to their powers as dense matrices; a tridiagonal T is kept
as its bands, as T^k has bandwidth k, so each power costs O(p k), not O(p^3).

The statistics of `simulate` (means, covariances, their errors) are numpy
pairwise sums over the contiguous trace columns, each taken once, with no
BLAS call: a BLAS dot would run on as many threads as BLAS has, leaving them
spinning on the cores the sampler needs next, and its rounding would change
with their number.  So a seeded report is the same whatever the BLAS thread
count.
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
    "sfc64 spawned by SeedSequence(seed, spawn_key=(batch,)); "
    "gaussian: tridiagonal (Dumitriu-Edelman), rademacher: packed bits, uniform: doubles"
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

    def csv_rows(self) -> list[list]:
        """Rows of raw values: `csv` writes None as an empty field."""
        rows = [["kind", "l1", "l2", "empirical", "exact", "se", "z"]]
        for s in self.means:
            rows.append(["mean", s.l, None, s.empirical, s.exact, s.se, s.z])
        for s in self.covariances:
            rows.append(["cov", s.l1, s.l2, s.empirical, s.exact, s.se, s.z])
        return rows


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return os.cpu_count() or 1


class _Buffers:
    """One worker's arrays for chunks of up to `capacity` replications, p <= n:
    part of one batch, or several whole batches of a span (`_spans`).

    Each is a flat buffer whose leading elements a chunk views at its own
    shape (`_view`).  The calling thread allocates them once per
    `sample_traces` call, and the kernels of every chunk write into them with
    out=, so the worker threads allocate little: glibc gives each thread its
    own malloc arena, which keeps the pages of what the thread frees.
    - draws: gaussian chi-squares, the float32 or float64 entries otherwise,
      each batch of a chunk in its own rows;
    - gram: the rademacher Gram, in the entries' dtype;
    - transposed: rademacher only, a contiguous copy of X^T, so that the Gram
      is a product of two buffers (`_chunk_matrices`);
    - halves: the powers S .. S^top, in band storage for gaussian;
    - scratch: gaussian only, the band products of `_band_powers` and
      `_band_pair_trace`.
    """

    def __init__(self, distribution: str, p: int, n: int, top: int, capacity: int):
        layout = self.layout(distribution, p, n, top, capacity)
        self.halves = [np.empty(size, dtype) for dtype, size in layout.pop("halves")]
        for name, (dtype, size) in layout.items():
            setattr(self, name, np.empty(size, dtype))

    @staticmethod
    def layout(distribution: str, p: int, n: int, top: int, capacity: int) -> dict:
        """The (dtype, size) of each buffer by name, a list of them for halves."""
        if distribution == "gaussian":
            widths = [min(k, p - 1) + 1 for k in range(1, top + 1)]
            return {
                "draws": (np.float64, capacity * (2 * p - 1)),
                "halves": [(np.float64, capacity * width * p) for width in widths],
                "scratch": (np.float64, capacity * widths[-1] * p),
            }
        # rademacher Grams are integers of size at most n, exact in float32
        # while n < 2^24
        single = distribution == "rademacher" and n < 2**24
        dtype = np.float32 if single else np.float64
        layout = {
            "draws": (dtype, capacity * p * n),
            "halves": [(np.float64, capacity * p * p)] * top,
        }
        if distribution == "rademacher":
            layout["gram"] = (dtype, capacity * p * p)
            layout["transposed"] = (dtype, capacity * n * p)
        return layout

    @classmethod
    def nbytes(cls, distribution: str, p: int, n: int, top: int, capacity: int) -> int:
        """The bytes the buffers of one worker take, computed without them."""
        layout = cls.layout(distribution, p, n, top, capacity)
        entries = layout.pop("halves") + list(layout.values())
        return sum(np.dtype(dtype).itemsize * size for dtype, size in entries)


def _physical_memory() -> int | None:
    """The bytes of physical memory of this machine, None where unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return None


def _view(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of a flat buffer as a C-contiguous array."""
    return flat[: math.prod(shape)].reshape(shape)


def _batch_generator(seed: int, batch_index: int) -> np.random.Generator:
    """One batch's stream: SFC64 seeded by the batch_index-th child of
    SeedSequence(seed).  SeedSequence((seed, batch_index)) would alias, as
    short entropy is zero-padded: (5, 1) and (2^32 + 5, 0) give one state;
    the spawn key is appended after the padded seed, so the key is injective."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(batch_index,)))
    )


def _draw_batch(
    distribution: str, gen: np.random.Generator, rows: np.ndarray, shapes: np.ndarray | None
) -> None:
    """Draw `rows`, the next replications of one batch, from the batch's
    generator, in one call, into their rows of a chunk's draws (`_view` of
    `_Buffers.draws`); `_chunk_matrices` then makes them matrices.

    The replications of a batch are drawn in order from one generator, each
    draw made row-major as (count, ...), so the chunks of a batch continue
    one stream and a shorter batch is a prefix of the full one.
    - gaussian: rows (count, 2p - 1) of standard gammas of `shapes`, the
      gamma shapes (n - i)/2, i = 0..p-1, then (p - 1 - i)/2, i = 0..p-2,
      made once per `sample_traces` call; twice each is a chi-square on
      twice its shape degrees of freedom, bit for bit.
    - rademacher: rows (count, p, n) of bits, unpacked from ceil(p n / 8)
      uniform bytes per draw.  `integers` with dtype uint8 takes the bytes
      of 4-byte words and drops what is left of the last word at the end of
      each call, so a chunk continues the batch's stream only when it starts
      at a multiple of 4 bytes.
    - uniform: rows (count, p, n) of doubles U in [0, 1).
    """
    if distribution == "gaussian":
        gen.standard_gamma(shapes, out=rows)
    elif distribution == "rademacher":
        size = math.prod(rows.shape[1:])
        packed = gen.integers(0, 256, size=(len(rows), -(-size // 8)), dtype=np.uint8)
        np.copyto(rows, np.unpackbits(packed, axis=1, count=size).reshape(rows.shape))
    else:
        gen.random(out=rows)


def _chunk_matrices(distribution: str, draws: np.ndarray, buffers: _Buffers) -> np.ndarray:
    """The matrices of a chunk's `draws`, in `buffers`: symmetric p x p
    matrices, p <= n, whose eigenvalues have the joint law of those of
    X X^T for a p x n matrix X.  The draws are overwritten.

    - gaussian: the tridiagonal B B^T of the beta = 1 Laguerre model
      (Dumitriu and Edelman 2002), B lower bidiagonal with
      d_i = sqrt(chi^2_{n-i}) on the diagonal, i = 0..p-1, and
      e_i = sqrt(chi^2_{p-1-i}) below it, i = 0..p-2: 2p - 1 chi-squares per
      draw.  Returned in the band storage of `_band_powers`, shape
      (min(2, p), p, count): the diagonal d_i^2 + e_{i-1}^2 and the d_i e_i
      beside it.  B B^T is not the Gram X X^T, but every tr(S^l) depends only
      on the eigenvalues.
    - rademacher: the Gram X X^T of the entries 2 b - 1.  The Gram's
      entries and sums are integers of size at most n, exact in float32
      while n < 2^24, so the product runs in float32 there.  It multiplies X
      by a contiguous copy of X^T: numpy sends X times a view of itself to
      BLAS syrk, which on stacks of small matrices runs no faster on two
      threads than on one, and a product of two buffers to GEMM, which does.
      Either way the integers are exact, so the Gram is the same.
    - uniform: the Gram X X^T of sqrt(3) (2 U - 1) per entry, taken as
      12 (U - 1/2)(U - 1/2)^T: U - 1/2 is exact in float64, so the entries
      take one pass and the scale one pass over the p x p Gram.
    Every step works on each replication alone, so the matrices do not
    depend on how the replications are split into chunks.
    """
    count = len(draws)
    if distribution == "gaussian":
        p = (draws.shape[1] + 1) // 2
        draws *= 2.0  # chisquare(df) is 2 standard_gamma(df / 2), bit for bit
        d2, e2 = draws[:, :p].T, draws[:, p:].T
        tri = _view(buffers.halves[0], (min(2, p), p, count))
        tri[0, 0] = d2[0]
        np.add(d2[1:], e2, out=tri[0, 1:])
        if p > 1:
            tri[1, 0] = 0.0
            np.multiply(d2[:-1], e2, out=tri[1, 1:])
            np.sqrt(tri[1, 1:], out=tri[1, 1:])
        return tri
    p, n = draws.shape[1:]
    gram = _view(buffers.halves[0], (count, p, p))
    if distribution == "rademacher":
        draws *= 2.0
        draws -= 1.0
        xt = _view(buffers.transposed, (count, n, p))
        np.copyto(xt, draws.transpose(0, 2, 1))
        single = np.matmul(draws, xt, out=_view(buffers.gram, gram.shape))
        np.copyto(gram, single)
        return gram
    draws -= 0.5
    np.matmul(draws, draws.transpose(0, 2, 1), out=gram)
    gram *= 12.0
    return gram


def _chunk_edges(count: int, widest: int, budget: int, align: int) -> list[int]:
    """Edges of near-equal chunks of a batch of `count` replications, each
    about budget / widest replications but at least 2, every edge but the
    last a multiple of `align`: the chunks of a span of one batch.

    One-replication chunks are avoided because numpy sums them along another
    path, whose last bits differ: einsum for one matrix, a contiguous pairwise
    sum for one replication's bands.  A batch of 1 is its own chunk.
    """
    size = max(2, budget // widest)
    units = count // align
    chunks = max(1, min(-(-count // size), count // 2, units))
    return [align * (units * k // chunks) for k in range(chunks)] + [count]


def _spans(
    reps: int, widest: int, budget: int, workers: int, align: int
) -> list[tuple[int, list[int]]]:
    """The spans the threads take in turn, in order, each as (its first
    replication, the edges of its chunks counted from there).

    A span is k consecutive whole batches, cut by `_chunk_edges`, where
    k = max(1, min(budget // (widest * BATCH_SIZE), batches // workers)):
    a span of several batches fits the budget as one chunk, and every thread
    has a span to take.  A final batch of one replication is a span alone,
    as `_chunk_edges` keeps it.
    """
    batches = -(-reps // BATCH_SIZE)
    k = max(1, min(budget // (widest * BATCH_SIZE), batches // workers))
    lone = reps % BATCH_SIZE == 1
    firsts = list(range(0, reps - lone, k * BATCH_SIZE))
    if lone:
        firsts.append(reps - 1)
    return [
        (first, _chunk_edges(stop - first, widest, budget, align))
        for first, stop in pairwise([*firsts, reps])
    ]


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
    next_span: Callable[[], tuple[int, list[int]] | None],
    buffers: _Buffers,
    out: np.ndarray,
    shapes: np.ndarray | None,
) -> None:
    """Draw, multiply out and trace each span of `_spans` that `next_span`
    hands out until it returns None, chunk by chunk; each span writes its own
    rows of `out`.  A chunk draws its replications batch by batch, each from
    the batch's stream, which the next chunk of a one-batch span continues.
    `shapes` are the gaussian gamma shapes of `_draw_batch`."""
    p, n = sorted((config.p, config.n))
    top = (max(config.l_list) + 1) // 2
    if config.distribution == "gaussian":
        draw_shape = (2 * p - 1,)
        powers, diagonal_sum = _band_powers, _band_diagonal_sum
        pair = partial(_band_pair_trace, scratch=buffers.scratch)
    else:
        draw_shape = (p, n)
        powers, diagonal_sum, pair = _dense_powers, _dense_diagonal_sum, _dense_pair_trace
    # overflow is reported per power by `sample_traces`, not as a numpy
    # warning; the error state is local to each thread
    with np.errstate(over="ignore", invalid="ignore"):
        for first, edges in iter(next_span, None):
            for start, stop in pairwise(first + edge for edge in edges):
                draws = _view(buffers.draws, (stop - start, *draw_shape))
                cuts = [start, *range((start // BATCH_SIZE + 1) * BATCH_SIZE, stop, BATCH_SIZE)]
                for lo, hi in pairwise([*cuts, stop]):
                    if lo % BATCH_SIZE == 0:
                        gen = _batch_generator(config.rng_seed, lo // BATCH_SIZE)
                    _draw_batch(config.distribution, gen, draws[lo - start : hi - start], shapes)
                chunk = _chunk_matrices(config.distribution, draws, buffers)
                chunk /= config.n
                halves = powers(chunk, top, buffers)
                rows = out[start:stop]
                for idx, l in enumerate(config.l_list):
                    if l == 1:  # exact wherever the diagonal is
                        rows[:, idx] = diagonal_sum(halves[0])
                    else:
                        rows[:, idx] = pair(halves[(l + 1) // 2 - 1], halves[l // 2 - 1])


def sample_traces(config: SimulationConfig) -> np.ndarray:
    """Per-replication values of tr(S^l), shape (replications, len(l_list)),
    column-major: each power's traces are contiguous.

    The keyed batches run on min(batches, usable cores) threads, the calling
    thread among them; numpy releases the interpreter lock in its draws and
    products, so the threads can run at once, and gain where the kernels do
    (not BLAS syrk on stacks of small matrices, which `_chunk_matrices`
    avoids for rademacher).  Each thread takes the next span of `_spans` not
    yet taken and writes its rows of the output, so the traces do not depend
    on which thread draws which batch.  A span is traced in chunks whose
    largest array holds about CHUNK_VALUES / threads doubles: several whole
    batches at once where a batch is far smaller than that, so small shapes
    pay numpy's fixed cost per call once for several batches, or else one
    batch cut into chunks.  The chunks are made in buffers allocated once per
    call, so the working set stays in cache and the memory a run uses grows
    with neither the batch nor the thread count.  Every batch draws from its
    own stream, continued from chunk to chunk, and every step after the draw
    works on each replication alone, so the traces are those of drawing each
    batch whole.  For p > n the draw is transposed:
    tr((X^T X / n)^l) = tr((X X^T / n)^l), so the traces need no rescaling.
    A gaussian tridiagonal T is multiplied out in band storage, O(p k) work
    and memory for T^k; the Grams of the other distributions as dense
    matrices.
    Raises MemoryError, before allocating, when the output, the threads'
    buffers and the column of pair products of `simulate` would take more
    than the machine's physical memory.
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
    spans = _spans(reps, widest, CHUNK_VALUES // workers, workers, align)
    capacity = max(stop - start for _, edges in spans for start, stop in pairwise(edges))
    # each of the arrays below succeeds lazily, so a run too large for the
    # machine would fail only once its pages are touched: refuse it first
    # the output, the column of pair products `simulate` takes from it, and
    # the threads' buffers
    need = reps * (len(config.l_list) + 1) * 8 + workers * _Buffers.nbytes(
        config.distribution, p, n, top, capacity
    )
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise MemoryError(
            f"this run needs {need / 1e6:,.1f} MB of arrays, more than the "
            f"{memory / 1e6:,.1f} MB of physical memory"
        )
    buffers = [_Buffers(config.distribution, p, n, top, capacity) for _ in range(workers)]
    shapes = (
        np.concatenate([np.arange(n, n - p, -1), np.arange(p - 1, 0, -1)]) / 2
        if gaussian else None
    )
    out = np.empty((len(config.l_list), reps), dtype=np.float64).T
    lock = threading.Lock()
    taken = iter(spans)
    errors: list[BaseException] = []

    def next_span() -> tuple[int, list[int]] | None:
        with lock:
            return None if errors else next(taken, None)

    def work(own: _Buffers) -> None:
        try:
            _trace_batches(config, next_span, own, out, shapes)
        except BaseException as exc:  # raised again by the calling thread
            with lock:
                errors.append(exc)

    threads = []
    try:
        for own in buffers[1:]:
            thread = threading.Thread(target=work, args=(own,), daemon=True)
            try:
                thread.start()
            except RuntimeError:  # no thread to spare: the others take its spans
                break
            threads.append(thread)
        work(buffers[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    # one pass that makes no boolean copy of `out`: a sum of finite terms
    # is finite unless it overflows, and then the search below finds nothing
    with np.errstate(over="ignore", invalid="ignore"):
        total = out.sum()
    if not math.isfinite(total):
        # name the first such power of the first such batch, as one thread would
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


def _jackknife_cov_se(products: np.ndarray, total: float) -> float:
    """Leave-one-out jackknife standard error of a sample covariance, from the
    products c_x,i c_y,i of its two centred columns and their sum `total`.
    It centres and squares `products` in place.

    The covariance leaving out i is (sum(c_x c_y) - r/(r-1) c_x,i c_y,i) / (r-2),
    so the leave-one-out values spread as the products do.  Centring the
    columns first keeps large means from cancelling the spread away, as raw
    sums would.  The products are centred on total / r, which is
    products.mean() bit for bit, and their squares are summed pairwise, as
    every statistic of `simulate` is: no BLAS call, so the error does not
    depend on how many threads BLAS runs, and leaves none of them busy.
    """
    r = len(products)
    products -= total / r
    squares = float(np.square(products, out=products).sum())
    return r / ((r - 1) * (r - 2)) * math.sqrt((r - 1) / r * squares)


def simulate(
    config: SimulationConfig, reference: ExactReferences | None = None
) -> SimulationReport:
    """Estimate trace means and covariances and score them against exact values.

    Every statistic is a numpy pairwise sum over the contiguous trace columns,
    taken once, with no BLAS call, so a seeded report does not depend on the
    BLAS thread count.  Each column is centred in place on its mean; the
    covariance of a pair is the sum of the products of its centred columns
    over r - 1, and the standard error of a mean is sqrt(cov(l, l)) / sqrt(r)
    from the diagonal pair, bit for bit col.std(ddof=1) / sqrt(r), which
    sums the same squares of the same deviations.
    """
    reference = reference or ExactReferences()
    traces = sample_traces(config)
    r = config.replications
    # centre each column once, in place: a copy of every column would hold
    # as much memory as the traces do
    column_means = []
    for col in traces.T:
        mean = col.mean()
        column_means.append(float(mean))
        col -= mean
    means: list[MeanStat] = []
    covs: list[CovStat] = []
    # every pair's products in one buffer, which `sample_traces` counts in
    # its memory estimate
    products = np.empty(r)
    for a, l1 in enumerate(config.l_list):
        for b in range(a, len(config.l_list)):
            l2 = config.l_list[b]
            np.multiply(traces[:, a], traces[:, b], out=products)
            total = products.sum()
            empirical = float(total / (r - 1))
            if a == b:  # the variance of l1's traces gives its mean's error
                mean, se = column_means[a], math.sqrt(empirical) / math.sqrt(r)
                exact = reference.means.get(l1)
                exact_f = None if exact is None else float(exact)
                means.append(MeanStat(l1, mean, se, exact_f, _z_score(mean, exact_f, se)))
            se = _jackknife_cov_se(products, total)
            exact = reference.covariances.get((l1, l2))
            if exact is None:
                exact = reference.covariances.get((l2, l1))
            exact_f = None if exact is None else float(exact)
            covs.append(
                CovStat(l1, l2, empirical, se, exact_f, _z_score(empirical, exact_f, se))
            )
    return SimulationReport(config, RNG_ALGORITHM, BATCH_SIZE, tuple(means), tuple(covs))


def oracle_references(
    config: SimulationConfig, *, allow_large: bool = False
) -> ExactReferences:
    """Exact references for a simulation, computed by the enumeration oracle.

    Covariance references cover every pair of configured powers that passes
    the oracle's cost guard.
    """
    from .enumeration import CostGuardError, exact_trace_covariance, exact_trace_moment

    # the longest covariance, (max_l, max_l), reads moments up to 4 max_l
    moments = preset_moments(config.distribution, 4 * max(config.l_list))
    means: dict[int, Fraction] = {}
    for l in config.l_list:
        means[l] = exact_trace_moment(
            l, config.p, config.n, moments, allow_large=allow_large
        ).value
    covs: dict[tuple[int, int], Fraction] = {}
    for a, l1 in enumerate(config.l_list):
        for l2 in config.l_list[a:]:
            try:
                covs[(l1, l2)] = exact_trace_covariance(
                    l1, l2, config.p, config.n, moments, allow_large=allow_large
                )
            except CostGuardError:
                pass
    return ExactReferences(means, covs)
