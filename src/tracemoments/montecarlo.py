"""Monte Carlo validation of exact trace moments and power-trace covariances.

Sampling is keyed by (seed, batch index) through the counter-based Philox
generator, with a fixed batch size, so a run is bit-reproducible no matter how
batches are scheduled; partial final batches only truncate the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .weights import distribution_name, preset_moments

RNG_ALGORITHM = (
    "philox4x64 keyed by (seed, batch); gaussian: Bartlett, rademacher: packed bits, "
    "uniform: doubles"
)
BATCH_SIZE = 1024


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


def _draw_batch(
    distribution: str, seed: int, batch_index: int, count: int, p: int, n: int
) -> np.ndarray:
    """The Gram matrices X X^T of `count` draws of a p x n matrix X, p <= n.

    Every draw is keyed by Philox (seed, batch_index) and made row-major as
    (count, ...), so a shorter batch is a prefix of the full one.
    - gaussian: X X^T ~ Wishart(n, I_p) is drawn as A A^T with the Bartlett
      factor A: lower triangular, N(0, 1) below the diagonal and
      sqrt(chi^2_{n-i}) at (i, i) for i = 0..p-1, the chi-squares drawn
      from the jumped stream.
    - rademacher: one bit per entry, unpacked from uniform bytes.
    - uniform: sqrt(3) (2 U - 1) per entry.
    """
    bits = np.random.Philox(key=np.array([seed, batch_index], dtype=np.uint64))
    gen = np.random.Generator(bits)
    if distribution == "gaussian":
        # jump before drawing: jumped() starts from the current state
        chi2_gen = np.random.Generator(bits.jumped())
        factor = np.zeros((count, p, p))
        below = gen.standard_normal((count, p * (p - 1) // 2))
        start = 0
        for i in range(1, p):  # row i holds i normals
            factor[:, i, :i] = below[:, start : start + i]
            start += i
        chi2 = chi2_gen.chisquare(np.arange(n, n - p, -1), size=(count, p))
        diagonal = np.arange(p)
        factor[:, diagonal, diagonal] = np.sqrt(chi2)
        return factor @ factor.transpose(0, 2, 1)
    if distribution == "rademacher":
        packed = gen.integers(0, 256, size=(count, -(-p * n // 8)), dtype=np.uint8)
        x = np.unpackbits(packed, axis=1, count=p * n).reshape(count, p, n).astype(np.float64)
        x *= 2.0
        x -= 1.0
    else:
        x = gen.random((count, p, n))
        x *= 2.0
        x -= 1.0
        x *= math.sqrt(3.0)
    return x @ x.transpose(0, 2, 1)


def sample_traces(config: SimulationConfig) -> np.ndarray:
    """Per-replication values of tr(S^l), shape (replications, len(l_list)).

    For p > n the draw is transposed and the traces rescaled by (p/n)^l, which
    leaves the distribution unchanged.
    """
    p, n = config.p, config.n
    transposed = p > n
    if transposed:
        p, n = n, p
    max_l = max(config.l_list)
    out = np.empty((config.replications, len(config.l_list)), dtype=np.float64)
    done = 0
    batch = 0
    while done < config.replications:
        count = min(BATCH_SIZE, config.replications - done)
        gram = _draw_batch(config.distribution, config.rng_seed, batch, count, p, n)
        # G is symmetric, so tr(G^l) is the sum of the entries of
        # G^ceil(l/2) * G^floor(l/2), elementwise: only the powers up to
        # ceil(max_l/2) are multiplied out
        halves = [gram]
        while len(halves) < (max_l + 1) // 2:
            halves.append(halves[-1] @ gram)
        for idx, l in enumerate(config.l_list):
            if l == 1:  # the diagonal sum, exact wherever the diagonal is
                traces = np.einsum("rii->r", gram)
            else:
                traces = np.einsum("rij,rij->r", halves[(l + 1) // 2 - 1], halves[l // 2 - 1])
            traces = traces / float(n) ** l
            if transposed:
                traces = traces * (config.p / config.n) ** l
            out[done : done + count, idx] = traces
        done += count
        batch += 1
    return out


def _z_score(empirical: float, exact: float | None, se: float) -> float | None:
    if exact is None:
        return None
    if se > 0.0:
        return (empirical - exact) / se
    return 0.0 if empirical == exact else math.inf


def _jackknife_cov_se(x: np.ndarray, y: np.ndarray) -> float:
    """Leave-one-out jackknife standard error of the sample covariance.

    On centred data c the covariance leaving out i is
    (sum(c_x c_y) - r/(r-1) c_x,i c_y,i) / (r-2), so the leave-one-out values
    spread as the products c_x,i c_y,i do.  Centring first keeps large means
    from cancelling the spread away, as raw sums would.
    """
    r = len(x)
    products = (x - x.mean()) * (y - y.mean())
    products -= products.mean()
    spread = math.sqrt((r - 1) / r * float(products @ products))
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
    covs: list[CovStat] = []
    for a in range(len(config.l_list)):
        for b in range(a, len(config.l_list)):
            l1, l2 = config.l_list[a], config.l_list[b]
            x, y = traces[:, a], traces[:, b]
            empirical = float(((x - x.mean()) * (y - y.mean())).sum() / (r - 1))
            se = _jackknife_cov_se(x, y)
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
