"""Monte Carlo validation of exact trace moments and power-trace covariances.

Sampling is keyed by (seed, batch index) through the counter-based Philox
generator, with a fixed batch size, so a run is bit-reproducible no matter how
batches are scheduled; partial final batches only truncate the stream.  Each
batch is drawn, multiplied out and traced in chunks of about CHUNK_VALUES
doubles that continue its stream, so the traces are those of the whole batch
while the memory a run uses does not grow with the batch.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .weights import distribution_name, preset_moments

RNG_ALGORITHM = (
    "philox4x64 keyed by (seed, batch); gaussian: tridiagonal (Dumitriu-Edelman), "
    "rademacher: packed bits, uniform: doubles"
)
BATCH_SIZE = 1024
# doubles in the largest array of a chunk of a batch: 1 MB, so a chunk stays in cache
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


def _open_batch(
    distribution: str, seed: int, batch_index: int, count: int, p: int, n: int
) -> tuple[np.random.Generator, np.ndarray | None]:
    """The Philox (seed, batch_index) generator of one batch, and the draws
    that are small enough to make once for the whole batch.

    gaussian draws its count x (2p - 1) chi-squares here and rademacher its
    count x ceil(p n / 8) random bytes; `_draw_batch` expands a chunk of their
    rows.  Drawing the bytes per chunk would change the stream, as `integers`
    with dtype uint8 keeps a 4-byte buffer local to each call.  uniform draws
    nothing here (None): its doubles continue the generator's stream chunk by
    chunk.
    """
    key = np.array([seed, batch_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    if distribution == "gaussian":
        dfs = np.concatenate([np.arange(n, n - p, -1), np.arange(p - 1, 0, -1)])
        return gen, gen.chisquare(dfs, size=(count, 2 * p - 1))
    if distribution == "rademacher":
        return gen, gen.integers(0, 256, size=(count, -(-p * n // 8)), dtype=np.uint8)
    return gen, None


def _draw_batch(
    distribution: str,
    batch: tuple[np.random.Generator, np.ndarray | None],
    start: int,
    stop: int,
    p: int,
    n: int,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Replications start..stop-1 of a batch opened by `_open_batch`, p <= n:
    symmetric p x p matrices whose eigenvalues have the joint law of those of
    X X^T for a p x n matrix X.

    The chunks of a batch must be drawn in order, as uniform takes its doubles
    from the batch's generator.  Every draw is made row-major as (count, ...),
    so the chunks of a batch continue one stream, and a shorter batch is a
    prefix of the full one.
    - gaussian: the tridiagonal B B^T of the beta = 1 Laguerre model
      (Dumitriu and Edelman 2002), B lower bidiagonal with
      d_i = sqrt(chi^2_{n-i}) on the diagonal, i = 0..p-1, and
      e_i = sqrt(chi^2_{p-1-i}) below it, i = 0..p-2: 2p - 1 chi-squares per
      draw.  Returned as its diagonal d_i^2 + e_{i-1}^2, shape (count, p),
      and the d_i e_i beside it, shape (count, p - 1), not as matrices.  B B^T
      is not the Gram X X^T, but every tr(S^l) depends only on the
      eigenvalues.
    - rademacher: the Gram X X^T of one bit per entry, unpacked from uniform
      bytes.  Its entries and sums are integers of size at most n, exact in
      float32 while n < 2^24, so the product runs in float32 there.
    - uniform: the Gram X X^T of sqrt(3) (2 U - 1) per entry.
    """
    gen, drawn = batch
    count = stop - start
    if distribution == "gaussian":
        chi2 = drawn[start:stop]
        d2, e2 = chi2[:, :p], chi2[:, p:]
        diagonal = d2.copy()
        diagonal[:, 1:] += e2
        return diagonal, np.sqrt(d2[:, :-1] * e2)
    if distribution == "rademacher":
        dtype = np.float32 if n < 2**24 else np.float64
        x = np.unpackbits(drawn[start:stop], axis=1, count=p * n)
        x = x.reshape(count, p, n).astype(dtype)
        x *= 2.0
        x -= 1.0
        return (x @ x.transpose(0, 2, 1)).astype(np.float64)
    x = gen.random((count, p, n))
    x *= 2.0
    x -= 1.0
    x *= math.sqrt(3.0)
    return x @ x.transpose(0, 2, 1)


def _chunk_edges(count: int, widest: int) -> list[int]:
    """Edges of near-equal chunks of a batch of `count` replications, each
    about CHUNK_VALUES / widest replications but at least 2.

    One-replication chunks are avoided because numpy sums them along another
    path, whose last bits differ: einsum for one matrix, a contiguous pairwise
    sum for one replication's bands.  A batch of 1 is its own chunk.
    """
    size = max(2, CHUNK_VALUES // widest)
    chunks = max(1, min(-(-count // size), count // 2))
    return [count * k // chunks for k in range(chunks + 1)]


def _tridiagonal_bands(diagonal: np.ndarray, beside: np.ndarray, n: int) -> np.ndarray:
    """The tridiagonals of `_draw_batch`, divided by n, in the band storage
    of `_band_powers`: shape (min(2, p), p, count)."""
    count, p = diagonal.shape
    tri = np.zeros((min(2, p), p, count))
    np.divide(diagonal.T, n, out=tri[0])
    if p > 1:
        np.divide(beside.T, n, out=tri[1, 1:])
    return tri


def _band_powers(tri: np.ndarray, top: int) -> list[np.ndarray]:
    """T, T^2, ..., T^top of a stack of symmetric tridiagonal matrices, in
    band storage.

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
    p = tri.shape[1]
    d, e = tri[0], tri[-1, 1:]
    powers = [tri]
    while len(powers) < top:
        power = powers[-1]
        width = len(power) - 1
        wider = min(width + 1, p - 1)
        product = np.empty((wider + 1,) + power.shape[1:])
        np.multiply(power, d, out=product[: width + 1])
        if wider > width:
            product[wider] = 0.0
        product[1:, 1:] += power[:wider, :-1] * e
        if width:
            above = power[1:, 1:] * e
            product[:width, :-1] += above
            product[0, 1:] += above[0]
        powers.append(product)
    return powers


def _band_diagonal_sum(x: np.ndarray) -> np.ndarray:
    return x[0].sum(axis=0)


def _band_pair_trace(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum(X * Y), elementwise, per replication, of symmetric X and Y in band
    storage: the diagonal once, each band above it twice for its mirror."""
    bands = min(len(x), len(y))
    per_band = (x[:bands] * y[:bands]).sum(axis=1)
    return per_band[0] + 2.0 * per_band[1:].sum(axis=0)


def _dense_diagonal_sum(x: np.ndarray) -> np.ndarray:
    return np.einsum("rii->r", x)


def _dense_pair_trace(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("rij,rij->r", x, y)


def sample_traces(config: SimulationConfig) -> np.ndarray:
    """Per-replication values of tr(S^l), shape (replications, len(l_list)).

    Each keyed batch is drawn, multiplied out and traced in chunks whose
    largest array holds about CHUNK_VALUES doubles, so the working set stays
    in cache and the memory a run uses does not grow with the batch.  The
    chunks continue the batch's stream, so the traces are those of drawing
    the batch whole.  For p > n the draw is transposed:
    tr((X^T X / n)^l) = tr((X X^T / n)^l), so the traces need no rescaling.
    A gaussian tridiagonal T is multiplied out in band storage, O(p k) work
    and memory for T^k; the Grams of the other distributions as dense
    matrices.
    Raises ValueError when a trace is not finite in double precision.
    """
    p, n = sorted((config.p, config.n))
    gaussian = config.distribution == "gaussian"
    # S is symmetric, so tr(S^l) is the sum of the entries of
    # S^ceil(l/2) * S^floor(l/2), elementwise: only the powers up to
    # ceil(max_l/2) are multiplied out
    top = (max(config.l_list) + 1) // 2
    widest = (min(top, p - 1) + 1) * p if gaussian else p * n
    out = np.empty((config.replications, len(config.l_list)), dtype=np.float64)
    for batch, done in enumerate(range(0, config.replications, BATCH_SIZE)):
        count = min(BATCH_SIZE, config.replications - done)
        drawn = _open_batch(config.distribution, config.rng_seed, batch, count, p, n)
        edges = _chunk_edges(count, widest)
        # overflow is reported per power below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for start, stop in zip(edges, edges[1:]):
                chunk = _draw_batch(config.distribution, drawn, start, stop, p, n)
                if gaussian:
                    halves = _band_powers(_tridiagonal_bands(*chunk, config.n), top)
                    diagonal_sum, pair = _band_diagonal_sum, _band_pair_trace
                else:
                    chunk /= config.n
                    halves = [chunk]
                    while len(halves) < top:
                        halves.append(halves[-1] @ chunk)
                    diagonal_sum, pair = _dense_diagonal_sum, _dense_pair_trace
                rows = out[done + start : done + stop]
                for idx, l in enumerate(config.l_list):
                    if l == 1:  # exact wherever the diagonal is
                        rows[:, idx] = diagonal_sum(halves[0])
                    else:
                        rows[:, idx] = pair(halves[(l + 1) // 2 - 1], halves[l // 2 - 1])
        for idx, l in enumerate(config.l_list):
            if not np.isfinite(out[done : done + count, idx]).all():
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
