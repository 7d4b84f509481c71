"""Monte Carlo harness: reproducibility, references, statistical sanity."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from helpers import reference_bartlett_gram, reference_sample_traces, reference_tridiagonal
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemoments import montecarlo
from tracemoments.montecarlo import (
    BATCH_SIZE,
    ExactReferences,
    SimulationConfig,
    _draw_batch,
    _jackknife_cov_se,
    _open_batch,
    oracle_references,
    sample_traces,
    simulate,
)
from tracemoments.enumeration import exact_trace_moment
from tracemoments.weights import preset_moments


def _config(**overrides):
    base = dict(
        p=2, n=4, l_list=(1, 2), replications=2000,
        distribution="gaussian", rng_seed=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(replications=50)
    with pytest.raises(ValueError):
        _config(l_list=())
    with pytest.raises(ValueError):
        _config(l_list=(1, 1))
    with pytest.raises(ValueError):
        _config(distribution="cauchy")
    with pytest.raises(ValueError):
        _config(p=0)


DISTS = ("gaussian", "rademacher", "uniform")
# p * n = 15 is not a multiple of 8, so a replication's sign bits end
# mid-byte; 5 x 3 is drawn transposed
SHAPES = ((2, 4), (3, 5), (5, 3))


def _whole_batch(distribution, seed, batch_index, count, p, n):
    """Every matrix of one keyed batch, drawn as a single chunk; for gaussian,
    the dense tridiagonals of its chi-squares."""
    batch = _open_batch(distribution, seed, batch_index, count, p, n)
    if distribution == "gaussian":
        return reference_tridiagonal(batch[1], p)
    return _draw_batch(distribution, batch, 0, count, p, n)


def test_bitwise_reproducibility():
    for dist in DISTS:
        for p, n in SHAPES:
            cfg = _config(p=p, n=n, distribution=dist)
            refs = oracle_references(cfg)
            assert simulate(cfg, refs) == simulate(cfg, refs), (dist, p, n)
            other = simulate(_config(p=p, n=n, distribution=dist, rng_seed=8), refs)
            assert other != simulate(cfg, refs), (dist, p, n)


def test_replication_prefix_property():
    # batching must not couple a replication's draws to the total count;
    # 1000 replications end inside the first batch, 1500 run into the second
    for dist in DISTS:
        for p, n in SHAPES:
            short = sample_traces(_config(p=p, n=n, distribution=dist, replications=1000))
            long = sample_traces(_config(p=p, n=n, distribution=dist, replications=1500))
            assert np.array_equal(long[:1000], short), (dist, p, n)


# (p, n, replications): 1025 ends with a batch of one replication; the others
# end with a partial batch, cut into other chunks than a full batch is; at
# 300 x 300 every dense chunk holds 2 or 3 replications
CHUNKED_CASES = (
    (3, 5, 1025), (5, 3, 1500), (1, 400, 1025), (1, 400, 1500),
    (50, 100, 1025), (100, 50, 1500), (300, 300, 101),
)


@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("p, n, reps", CHUNKED_CASES)
def test_chunked_traces_match_the_whole_batch(dist, p, n, reps, monkeypatch):
    powers = (1, 2, 3, 4, 5) if p * n < 90000 else (1, 2, 3, 4)
    cfg = _config(p=p, n=n, l_list=powers, distribution=dist, replications=reps, rng_seed=3)
    chunked = sample_traces(cfg)
    if dist != "gaussian":
        assert np.array_equal(chunked, reference_sample_traces(cfg))
        return
    # gaussian bands are small, so most of these batches fit in one chunk:
    # also cut every batch into chunks of 2 or 3, and compare both with the
    # band path traced one whole batch at a time
    monkeypatch.setattr(montecarlo, "CHUNK_VALUES", 1)
    smallest = sample_traces(cfg)
    monkeypatch.setattr(montecarlo, "CHUNK_VALUES", 2**62)
    whole = sample_traces(cfg)
    assert np.array_equal(chunked, whole)
    assert np.array_equal(smallest, whole)


@pytest.mark.parametrize("dist", DISTS)
def test_sample_traces_memory_is_bounded(dist):
    # drawn whole, a batch of 200 replications at 300 x 300 holds 144 MB in
    # each stack of matrices
    cfg = _config(p=300, n=300, l_list=(1, 2, 3, 4), distribution=dist, replications=200)
    tracemalloc.start()
    try:
        sample_traces(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16_000_000, peak


@pytest.mark.parametrize("p, n, l_list, reps", [
    (2000, 4000, (1, 2, 3, 4), 100),
    (2, 100, (160,), 1000),
])
def test_gaussian_memory_grows_with_bands_not_matrices(p, n, l_list, reps):
    # one dense 2000 x 2000 matrix holds 32 MB; the bands of T and T^2 hold
    # 5 p doubles per replication.  At p = 2 the bandwidth stops at 1, so the
    # 80 halves of T^160 hold 4 doubles each, not 4 to 162: 2.6 MB, not 53 MB
    cfg = _config(p=p, n=n, l_list=l_list, replications=reps)
    tracemalloc.start()
    try:
        sample_traces(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16_000_000, peak


def test_uniform_draws_are_scaled_philox_doubles():
    # the uniform stream is sqrt(3) (2 U - 1), U the doubles of Philox (seed, batch)
    for p, n in ((3, 5), (4, 8)):
        key = np.array([7, 2], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random((10, p, n))
        x = np.sqrt(3.0) * (2.0 * u - 1.0)
        assert np.array_equal(_whole_batch("uniform", 7, 2, 10, p, n), x @ x.transpose(0, 2, 1))


def test_rademacher_gram_is_the_float64_gram_of_the_same_bits():
    # the float32 product is exact: +-1 Gram entries are integers up to n
    for p, n in ((3, 5), (50, 100)):
        key = np.array([7, 2], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        packed = gen.integers(0, 256, size=(20, -(-p * n // 8)), dtype=np.uint8)
        x = np.unpackbits(packed, axis=1, count=p * n).reshape(20, p, n) * 2.0 - 1.0
        gram = _whole_batch("rademacher", 7, 2, 20, p, n)
        assert gram.dtype == np.float64
        assert np.array_equal(gram, x @ x.transpose(0, 2, 1)), (p, n)


@pytest.mark.parametrize("p, n", [(1, 4), (3, 3), (4, 8), (50, 100)])
def test_gaussian_draw_is_symmetric_tridiagonal(p, n):
    # the draw is the two bands of the dense tridiagonal of its chi-squares
    batch = _open_batch("gaussian", 7, 0, 200, p, n)
    diagonal, beside = _draw_batch("gaussian", batch, 0, 200, p, n)
    assert diagonal.shape == (200, p) and beside.shape == (200, p - 1)
    assert (diagonal > 0).all() and (beside >= 0).all()
    tri = reference_tridiagonal(batch[1], p)
    assert np.array_equal(diagonal, np.diagonal(tri, axis1=1, axis2=2))
    assert np.array_equal(beside, np.diagonal(tri, offset=1, axis1=1, axis2=2))


def _centred_products(x, y):
    # as simulate forms them: each column centred once, then multiplied
    return (x - x.mean()) * (y - y.mean())


def _moment_stats(traces: np.ndarray):
    """Means and covariances of the trace columns, each with its standard error."""
    r = len(traces)
    means = [(c.mean(), c.std(ddof=1) / math.sqrt(r)) for c in traces.T]
    covs = {}
    for a in range(traces.shape[1]):
        for b in range(a, traces.shape[1]):
            products = _centred_products(traces[:, a], traces[:, b])
            covs[(a, b)] = (products.sum() / (r - 1), _jackknife_cov_se(products))
    return means, covs


@pytest.mark.parametrize("p, n", [(3, 3), (1, 4), (4, 8), (5, 3)])
def test_tridiagonal_traces_match_bartlett(p, n):
    # two independent samples of the same law: the tridiagonal model against
    # the Bartlett Wishart Gram, for every power up to 6
    reps = 20000
    powers = tuple(range(1, 7))
    tri = sample_traces(_config(p=p, n=n, l_list=powers, replications=reps, rng_seed=41))
    gram = reference_bartlett_gram(43, 0, reps, *sorted((p, n))) / n
    bartlett = np.stack(
        [np.einsum("rii->r", np.linalg.matrix_power(gram, l)) for l in powers], axis=1
    )
    (tri_means, tri_covs), (ref_means, ref_covs) = map(_moment_stats, (tri, bartlett))
    for l, (m, se), (ref_m, ref_se) in zip(powers, tri_means, ref_means):
        assert abs(m - ref_m) <= 5 * math.hypot(se, ref_se), (l, m, ref_m)
    for key, (c, se) in tri_covs.items():
        ref_c, ref_se = ref_covs[key]
        assert abs(c - ref_c) <= 6 * math.hypot(se, ref_se), (key, c, ref_c)


def test_degenerate_rademacher():
    cfg = _config(p=1, n=1, l_list=(2,), distribution="rademacher", replications=500)
    report = simulate(cfg, ExactReferences(means={2: Fraction(1)}))
    stat = report.means[0]
    assert stat.empirical == 1.0 and stat.se == 0.0 and stat.z == 0.0
    # tr(S) = p exactly for sign entries, also when p * n ends mid-byte
    cfg = _config(p=3, n=5, l_list=(1, 2), distribution="rademacher", replications=500)
    report = simulate(cfg, ExactReferences(means={1: Fraction(3)}))
    stat = report.means[0]
    assert stat.empirical == 3.0 and stat.se == 0.0 and stat.z == 0.0


@pytest.mark.parametrize("p, n", [(3, 3), (1, 4), (5, 3)], ids=["p=n", "p=1", "p>n"])
def test_bartlett_gaussian_edge_cases(p, n):
    # p = n ends the Bartlett diagonal with chi^2 on 1 degree of freedom;
    # p = 1 has no normals below it; 5 x 3 draws the 3 x 3 Gram of 3 x 5
    cfg = _config(p=p, n=n, l_list=(1, 2, 3), replications=20000, rng_seed=31)
    report = simulate(cfg, oracle_references(cfg))
    for stat in report.means:
        assert stat.z is not None and abs(stat.z) <= 5, stat
    checked = {(s.l1, s.l2) for s in report.covariances if s.z is not None}
    assert checked == {(1, 1), (1, 2), (1, 3), (2, 2)}  # the oracle's reach
    for stat in report.covariances:
        assert stat.z is None or abs(stat.z) <= 6, stat


@pytest.mark.parametrize("l_list", [(4,), (3, 1), (1, 2, 3, 4, 5, 6)])
def test_paired_power_traces_match_explicit_powers(l_list):
    reps = BATCH_SIZE + 476
    for dist in DISTS:
        for p, n in ((3, 5), (5, 3)):
            rows, cols = sorted((p, n))
            grams = np.concatenate([
                _whole_batch(dist, 7, 0, BATCH_SIZE, rows, cols),
                _whole_batch(dist, 7, 1, reps - BATCH_SIZE, rows, cols),
            ])
            cfg = _config(p=p, n=n, l_list=l_list, distribution=dist, replications=reps)
            traces = sample_traces(cfg)
            for idx, l in enumerate(l_list):
                power = np.linalg.matrix_power(grams, l)
                want = np.einsum("rii->r", power) / cols**l * (p / rows) ** l
                np.testing.assert_allclose(traces[:, idx], want, rtol=1e-12, atol=0)


# l_lists of 1..9, out of order, and one large power, whose bandwidth stops
# at p - 1 = 1; 9 x 4 is drawn transposed and divided by 4
BANDED_CASES = [
    *((p, n, l_list) for p, n in ((1, 5), (2, 5), (3, 3), (4, 8), (7, 11), (50, 60), (9, 4))
      for l_list in (tuple(range(1, 10)), (3, 1), (6, 1, 5))),
    (2, 100, (160,)),
]


@pytest.mark.parametrize("p, n, l_list", BANDED_CASES)
def test_banded_traces_match_explicit_powers(p, n, l_list):
    cfg = _config(p=p, n=n, l_list=l_list, replications=200)
    tri = _whole_batch("gaussian", 7, 0, 200, *sorted((p, n))) / n
    want = np.stack(
        [np.einsum("rii->r", np.linalg.matrix_power(tri, l)) for l in l_list], axis=1
    )
    np.testing.assert_allclose(sample_traces(cfg), want, rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 6), n=st.integers(1, 6), max_l=st.integers(1, 5))
def test_transposition_identity_is_exact(p, n, max_l):
    # p x n and n x p draw the same small matrix: tr(S_{p,n}^l) = (p/n)^l tr(S_{n,p}^l)
    powers = tuple(range(1, max_l + 1))
    scale = (p / n) ** np.array(powers)
    for dist in DISTS:
        common = dict(l_list=powers, distribution=dist, replications=100)
        wide = sample_traces(_config(p=p, n=n, **common))
        tall = sample_traces(_config(p=n, n=p, **common))
        np.testing.assert_allclose(wide, scale * tall, rtol=1e-12, atol=0, err_msg=dist)


def test_transposition_identity():
    # p > n draws are transposed and rescaled; means must agree statistically
    l = 2
    wide = simulate(_config(p=4, n=2, l_list=(l,), replications=40000, rng_seed=11))
    tall = simulate(_config(p=2, n=4, l_list=(l,), replications=40000, rng_seed=12))
    scale = (4 / 2) ** l
    m_wide = wide.means[0]
    m_tall = tall.means[0]
    assert abs(m_wide.empirical - scale * m_tall.empirical) <= 5 * (
        m_wide.se + scale * m_tall.se
    )


def test_oracle_references_values():
    cfg = _config()
    refs = oracle_references(cfg)
    moments = preset_moments("gaussian", 4)
    assert refs.means[1] == exact_trace_moment(1, 2, 4, moments).value == 2
    assert refs.means[2] == Fraction(7, 2)  # p + p(alpha + p - 2)/n
    assert refs.covariances[(1, 1)] == Fraction(1)  # p(alpha-1)/n


def test_small_run_z_scores():
    cfg = _config(replications=20000)
    report = simulate(cfg, oracle_references(cfg))
    for stat in report.means:
        assert stat.z is not None and abs(stat.z) <= 5
    for stat in report.covariances:
        assert stat.z is not None and abs(stat.z) <= 6


@settings(max_examples=25, deadline=None, derandomize=True)
@given(p=st.integers(1, 6), n=st.integers(1, 6), max_l=st.integers(1, 3))
def test_z_scores_against_the_oracle_property(p, n, max_l):
    # every preset at one seed, scored against the exact oracle: the means
    # within 5 standard errors, the covariances the oracle reaches within 6
    for dist in DISTS:
        cfg = _config(p=p, n=n, l_list=tuple(range(1, max_l + 1)), distribution=dist,
                      replications=20000, rng_seed=2024)
        report = simulate(cfg, oracle_references(cfg))
        for stat in report.means:
            assert stat.z is not None and abs(stat.z) <= 5, (dist, stat)
        for stat in report.covariances:
            assert stat.z is None or abs(stat.z) <= 6, (dist, stat)


def test_jackknife_se_is_sane():
    cfg = _config(replications=5000)
    report = simulate(cfg, oracle_references(cfg))
    for stat in report.covariances:
        assert stat.se > 0
        # the jackknife error of these covariances is far below their size
        assert stat.se < abs(stat.empirical)


def test_jackknife_se_is_shift_invariant():
    # unit-spread data far from zero must not lose the error to cancellation
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2000)
    y = x + rng.standard_normal(2000)
    se = _jackknife_cov_se(_centred_products(x, y))
    assert se > 0
    shifted = _centred_products(x + 1e8, y + 1e8)
    assert _jackknife_cov_se(shifted) == pytest.approx(se, rel=1e-6)


def test_report_serialization():
    cfg = _config(replications=500)
    report = simulate(cfg, oracle_references(cfg))
    payload = report.to_dict()
    assert payload["config"]["p"] == 2
    assert payload["rng_algorithm"].startswith("philox")
    rows = report.csv_rows()
    assert rows[0] == ["kind", "l1", "l2", "empirical", "exact", "se", "z"]
    assert len(rows) == 1 + len(report.means) + len(report.covariances)
