"""Monte Carlo harness: reproducibility, references, statistical sanity."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    reference_bartlett_gram,
    reference_chi2,
    reference_sample_traces,
    reference_tridiagonal,
    sfc64_stream,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemoments import cli, montecarlo
from tracemoments.montecarlo import (
    BATCH_SIZE,
    CHUNK_VALUES,
    ExactReferences,
    SimulationConfig,
    _Buffers,
    _batch_generator,
    _chunk_edges,
    _chunk_matrices,
    _draw_batch,
    _jackknife_cov_se,
    _spans,
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


def _draw_chunk(distribution, gen, count, p, n, buffers):
    """The matrices of the next `count` replications of a batch's stream,
    drawn and multiplied out as one chunk, as `sample_traces` does."""
    if distribution == "gaussian":
        shape = (2 * p - 1,)
        shapes = np.concatenate([np.arange(n, n - p, -1), np.arange(p - 1, 0, -1)]) / 2
    else:
        shape, shapes = (p, n), None
    draws = buffers.draws[: count * math.prod(shape)].reshape(count, *shape)
    _draw_batch(distribution, gen, draws, shapes)
    return _chunk_matrices(distribution, draws, buffers)


def _whole_batch(distribution, seed, batch_index, count, p, n):
    """Every matrix of one keyed batch, drawn as a single chunk; for gaussian,
    the dense tridiagonals of the batch's chi-squares, drawn in one call."""
    if distribution == "gaussian":
        return reference_tridiagonal(reference_chi2(seed, batch_index, count, p, n), p)
    buffers = _Buffers(distribution, p, n, 1, count)
    return _draw_chunk(distribution, _batch_generator(seed, batch_index), count, p, n, buffers)


@pytest.mark.parametrize("dist", DISTS)
def test_buffer_bytes_are_those_allocated(dist):
    # sample_traces bounds its memory by nbytes before it allocates: every
    # buffer of the layout must be allocated as laid out, and counted, also
    # for a chunk of several whole batches
    for capacity in (10, 3 * BATCH_SIZE + 5):
        buffers = _Buffers(dist, 3, 5, 3, capacity)
        layout = _Buffers.layout(dist, 3, 5, 3, capacity)
        halves = layout.pop("halves")
        assert len(buffers.halves) == len(halves)
        pairs = list(zip(buffers.halves, halves))
        pairs += [(getattr(buffers, name), entry) for name, entry in layout.items()]
        for array, (dtype, size) in pairs:
            assert (array.dtype, array.size) == (np.dtype(dtype), size)
        total = sum(array.nbytes for array, _ in pairs)
        assert _Buffers.nbytes(dist, 3, 5, 3, capacity) == total, capacity


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
# 300 x 300 every dense chunk holds 2 or 3 replications.  At 4 x 8, 2 x 3 and
# 8 x 8 whole batches are traced in spans of several, ending with a partial
# batch, a lone batch of one replication or a full batch; from p = 8 on, numpy
# sums a lone replication's 8 or more entries pairwise, not in order
CHUNKED_CASES = (
    (3, 5, 1025), (5, 3, 1500), (1, 400, 1025), (1, 400, 1500),
    (50, 100, 1025), (100, 50, 1500), (300, 300, 101),
    *((p, n, reps) for p, n in ((4, 8), (2, 3))
      for reps in (5 * BATCH_SIZE + 3, 5 * BATCH_SIZE + 1, 7 * BATCH_SIZE)),
    (8, 8, 5 * BATCH_SIZE + 1),
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    reps=st.builds(lambda batches, tail: max(100, batches * BATCH_SIZE + tail),
                   st.integers(0, 40), st.sampled_from([0, 1, 2, 3, 500, 1023])),
    widest=st.integers(1, 5000),
    budget=st.integers(1, 2**22), workers=st.integers(1, 8), align=st.sampled_from([1, 2, 4]),
)
def test_span_plan(reps, widest, budget, workers, align):
    spans = _spans(reps, widest, budget, workers, align)
    chunks = [(first + a, first + b) for first, edges in spans for a, b in pairwise(edges)]
    # every replication once, in order
    assert chunks[0][0] == 0 and chunks[-1][1] == reps
    assert all(a < b for a, b in chunks)
    assert all(stop == start for (_, stop), (start, _) in pairwise(chunks))
    for first, edges in spans:
        stop = first + edges[-1]
        assert first % BATCH_SIZE == 0 and edges[0] == 0
        assert edges == _chunk_edges(stop - first, widest, budget, align)
        if stop > first + BATCH_SIZE:  # whole batches, one chunk within the budget
            assert stop % BATCH_SIZE == 0 or stop == reps
            assert len(edges) == 2 and (stop - first) * widest <= budget
    if -(-reps // BATCH_SIZE) >= workers:  # no thread is left without a span
        assert len(spans) >= workers
    if reps % BATCH_SIZE == 1:  # numpy sums one replication along another path
        assert spans[-1] == (reps - 1, [0, 1])


def test_small_shapes_take_spans_of_several_batches():
    # the README request on two threads: gaussian 4 x 8 bands of T and T^2
    # hold 12 doubles per replication, so five batches fit half the budget
    spans = _spans(200000, 12, CHUNK_VALUES // 2, 2, 1)
    assert [first for first, _ in spans] == list(range(0, 200000, 5 * BATCH_SIZE))
    assert spans[0] == (0, [0, 5 * BATCH_SIZE])
    # a batch that fills the budget is a span alone
    assert _spans(20 * BATCH_SIZE, 64, CHUNK_VALUES // 2, 2, 1)[1] == (BATCH_SIZE, [0, BATCH_SIZE])


@pytest.mark.parametrize("dist", DISTS)
def test_each_power_traces_are_contiguous(dist):
    traces = sample_traces(_config(p=4, n=8, l_list=(1, 2, 3), distribution=dist,
                                   replications=3 * BATCH_SIZE + 5))
    assert traces.shape == (3 * BATCH_SIZE + 5, 3)
    for idx in range(3):
        assert traces[:, idx].flags.c_contiguous


@pytest.mark.parametrize("dist", DISTS)
def test_simulate_does_not_depend_on_the_trace_layout(dist, monkeypatch):
    # the report is the same whether simulate reads the column-major traces
    # or a row-major copy of them
    cfg = _config(p=4, n=8, l_list=(1, 2, 3), distribution=dist, replications=20007)
    refs = oracle_references(cfg)
    want = simulate(cfg, refs)
    real = montecarlo.sample_traces
    assert not real(cfg).flags.c_contiguous
    monkeypatch.setattr(montecarlo, "sample_traces", lambda c: np.ascontiguousarray(real(c)))
    assert simulate(cfg, refs) == want


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


def _use_workers(monkeypatch, workers):
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: workers)


# 1, 2, 3 and 49 batches, each run ending with a partial batch, and 20 full
# batches, which 2 and 3 threads take in spans of several batches at 4 x 8
# (every distribution at 2, gaussian at 3) and 2, 3 and 5 threads at 2 x 3
THREADED_CASES = (
    (3, 5, 1000), (5, 3, 2000), (3, 5, 3000), (4, 8, 49 * BATCH_SIZE - 500),
    (4, 8, 20 * BATCH_SIZE), (2, 3, 20 * BATCH_SIZE),
)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("p, n, reps", THREADED_CASES)
@pytest.mark.parametrize("dist", DISTS)
def test_threaded_traces_match_one_thread(dist, p, n, reps, workers, monkeypatch):
    # more threads than cores, switching often: every batch must still land
    # in its own rows, bit for bit
    cfg = _config(p=p, n=n, l_list=(1, 2, 3, 4, 5), distribution=dist, replications=reps)
    if dist == "gaussian":
        _use_workers(monkeypatch, 1)
        want = sample_traces(cfg)
    else:
        want = reference_sample_traces(cfg)
    _use_workers(monkeypatch, workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sample_traces(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("reps", [5 * BATCH_SIZE - 300, 49 * BATCH_SIZE - 500])
def test_non_finite_trace_is_named_in_batch_order(reps, workers, monkeypatch):
    # tr(S^520) overflows in the first batch and tr(S^480) only in later ones:
    # the first power named is that of the first batch, as one thread names
    # it.  Every thread silences numpy's overflow warnings itself, which the
    # band products of gaussian would raise.
    _use_workers(monkeypatch, workers)
    cfg = _config(p=2, n=3, l_list=(480, 520), distribution="uniform",
                  replications=reps, rng_seed=0)
    with pytest.raises(ValueError, match=r"^tr\(S\^520\) is not finite"):
        reference_sample_traces(cfg)
    with pytest.raises(ValueError, match=r"^tr\(S\^520\) is not finite"):
        sample_traces(cfg)
    with pytest.raises(ValueError, match=r"^tr\(S\^400\) is not finite"):
        sample_traces(_config(p=2, n=3, l_list=(400,), replications=reps))


def test_finite_traces_whose_sum_overflows_are_returned(monkeypatch):
    def huge(config, next_span, own, out, shapes):
        out[:] = 1e308

    monkeypatch.setattr(montecarlo, "_trace_batches", huge)
    out = sample_traces(_config(replications=3 * BATCH_SIZE))
    assert np.all(out == 1e308)


def test_threads_that_cannot_start_leave_their_batches_to_the_others(monkeypatch):
    class Unstartable(threading.Thread):
        def start(self):
            raise RuntimeError("can't start new thread")

    cfg = _config(p=4, n=8, distribution="uniform", replications=5 * BATCH_SIZE)
    _use_workers(monkeypatch, 3)
    monkeypatch.setattr(threading, "Thread", Unstartable)
    assert np.array_equal(sample_traces(cfg), reference_sample_traces(cfg))


@pytest.mark.parametrize("dist", DISTS)
def test_threaded_memory_is_bounded(dist, monkeypatch):
    # two threads, batches of 1024 and 924: whole batches of rademacher bytes
    # at 2 x 40000 take 10 and 9 MB, so holding one per thread would break
    # the bound
    _use_workers(monkeypatch, 2)
    cfg = _config(p=2, n=40000, l_list=(1, 2, 3, 4), distribution=dist,
                  replications=2 * BATCH_SIZE - 100)
    tracemalloc.start()
    try:
        sample_traces(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16_000_000, peak


def test_batch_streams_are_spawned_children_of_the_seed():
    # SeedSequence((seed, batch)) zero-pads short entropy, so (5, 1) and
    # (2^32 + 5, 0) would share a stream; the spawn key keeps them apart
    assert _batch_generator(5, 1).random() != _batch_generator(2**32 + 5, 0).random()
    for seed, batch in ((0, 0), (5, 1), (2**32 + 5, 0), (2**64 - 1, 3)):
        child = np.random.SeedSequence(seed).spawn(batch + 1)[batch]
        expected = np.random.Generator(np.random.SFC64(child)).random(8)
        assert np.array_equal(_batch_generator(seed, batch).random(8), expected)


def test_uniform_draws_are_scaled_sfc64_doubles():
    # the uniform stream is sqrt(3) (2 U - 1), U the doubles of the
    # (seed, batch) stream: the Gram is 12 (U - 1/2)(U - 1/2)^T, to rounding
    for p, n in ((3, 5), (4, 8)):
        u = sfc64_stream(7, 2).random((10, p, n))
        x = np.sqrt(3.0) * (2.0 * u - 1.0)
        gram = _whole_batch("uniform", 7, 2, 10, p, n)
        assert np.allclose(gram, x @ x.transpose(0, 2, 1), rtol=1e-12, atol=1e-12 * n)
        centred = u - 0.5
        assert np.array_equal(gram, 12.0 * (centred @ centred.transpose(0, 2, 1)))


def test_rademacher_gram_is_the_float64_gram_of_the_same_bits():
    # the float32 product is exact: +-1 Gram entries are integers up to n
    for p, n in ((3, 5), (4, 8), (50, 100)):
        gen = sfc64_stream(7, 2)
        packed = gen.integers(0, 256, size=(20, -(-p * n // 8)), dtype=np.uint8)
        x = np.unpackbits(packed, axis=1, count=p * n).reshape(20, p, n) * 2.0 - 1.0
        gram = _whole_batch("rademacher", 7, 2, 20, p, n)
        assert gram.dtype == np.float64
        assert np.array_equal(gram, x @ x.transpose(0, 2, 1)), (p, n)


def test_rademacher_gram_multiplies_two_buffers(monkeypatch):
    # X times a transposed view of itself goes to BLAS syrk, which on a stack
    # of small matrices runs no faster on two threads than on one: 20 Grams
    # of a 1024 x 4 x 8 float32 stack took 4.5 ms on one thread and 13.2 ms
    # split over two, where copying X^T and multiplying by the copy (GEMM)
    # took 3.7 and 2.1 ms (2 vCPUs, OpenBLAS 0.3.31).  Both give the same
    # exact Gram, so only this test sees the difference.
    calls = []

    def matmul(a, b, *args, **kwargs):
        calls.append((a, b))
        return real(a, b, *args, **kwargs)

    real = np.matmul
    monkeypatch.setattr(np, "matmul", matmul)
    _whole_batch("rademacher", 7, 2, 20, 4, 8)
    [(a, b)] = calls
    assert not np.shares_memory(a, b)
    assert a.flags.c_contiguous and b.flags.c_contiguous


@pytest.mark.parametrize("p, n", [(1, 4), (3, 3), (4, 8), (50, 100)])
def test_gaussian_draw_is_symmetric_tridiagonal(p, n):
    # the draw, in two uneven chunks, is the two bands of the dense
    # tridiagonal of the batch's chi-squares drawn in one chisquare call
    gen = _batch_generator(7, 0)
    buffers = _Buffers("gaussian", p, n, 1, 200)
    chunks = [_draw_chunk("gaussian", gen, count, p, n, buffers).copy() for count in (77, 123)]
    bands = np.concatenate(chunks, axis=2)
    assert bands.shape == (min(2, p), p, 200)
    diagonal, beside = bands[0].T, bands[-1, 1:].T
    assert (diagonal > 0).all() and (beside >= 0).all()
    assert p == 1 or (bands[1, 0] == 0).all()
    tri = reference_tridiagonal(reference_chi2(7, 0, 200, p, n), p)
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
            total = products.sum()
            covs[(a, b)] = (total / (r - 1), _jackknife_cov_se(products, total))
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
    products = _centred_products(x, y)
    se = _jackknife_cov_se(products, products.sum())
    assert se > 0
    shifted = _centred_products(x + 1e8, y + 1e8)
    assert _jackknife_cov_se(shifted, shifted.sum()) == pytest.approx(se, rel=1e-6)


def test_jackknife_se_is_the_leave_one_out_jackknife():
    # brute force: the sample covariance of each r - 1 rows, summed exactly
    rng = np.random.default_rng(11)
    r = 60
    x = rng.standard_normal(r) + 3.0
    y = x * x + rng.standard_normal(r)
    left_out = []
    for i in range(r):
        xs, ys = np.delete(x, i), np.delete(y, i)
        mx, my = math.fsum(xs) / (r - 1), math.fsum(ys) / (r - 1)
        left_out.append(math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys)) / (r - 2))
    centre = math.fsum(left_out) / r
    expected = math.sqrt((r - 1) / r * math.fsum((v - centre) ** 2 for v in left_out))
    products = _centred_products(x, y)
    assert _jackknife_cov_se(products, products.sum()) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dist", ["gaussian", "rademacher", "uniform"])
def test_mean_errors_are_the_column_standard_deviations(dist):
    cfg = _config(p=4, n=8, l_list=(1, 2, 3), replications=3073, distribution=dist)
    traces = sample_traces(cfg)
    r = cfg.replications
    for stat, col in zip(simulate(cfg).means, traces.T):
        assert stat.empirical == float(col.mean())
        assert stat.se == float(col.std(ddof=1)) / math.sqrt(r)


def _blas_env(threads: int) -> dict[str, str]:
    return {
        **os.environ,
        "PYTHONPATH": str(Path(montecarlo.__file__).parents[1]),
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
    }


@pytest.mark.parametrize("dist, p, n, reps", [
    ("gaussian", 4, 8, 50000),
    ("rademacher", 4, 8, 50000),
    ("uniform", 4, 8, 50000),
    ("uniform", 50, 100, 4000),
])
def test_reports_do_not_depend_on_the_blas_thread_count(dist, p, n, reps):
    argv = [sys.executable, "-m", "tracemoments", "simulate", "--p", str(p), "--n", str(n),
            "--l", "1,2,3", "--reps", str(reps), "--dist", dist, "--seed", "9",
            "--no-reference", "--no-timestamp"]
    one, two = (
        subprocess.run(argv, capture_output=True, env=_blas_env(threads), timeout=120, check=True)
        for threads in (1, 2)
    )
    assert one.stdout == two.stdout


# prints the process CPU time burned over a 100 ms sleep after a simulation,
# once the process has settled: importing numpy starts BLAS threads that spin
# for a while before they sleep
IDLE_CHECK = """
import time
from tracemoments.montecarlo import SimulationConfig, simulate

def burned(seconds):
    start = time.process_time()
    time.sleep(seconds)
    return time.process_time() - start

settled = time.monotonic() + 5.0
while burned(0.05) >= 0.005 and time.monotonic() < settled:
    pass
simulate(SimulationConfig(4, 8, (1, 2, 3), 50000, "gaussian", 9))
print(burned(0.1))
"""


@pytest.mark.skipif(montecarlo._usable_cores() < 2, reason="needs two cores")
def test_simulate_leaves_no_blas_thread_spinning():
    proc = subprocess.run(
        [sys.executable, "-c", IDLE_CHECK],
        capture_output=True, text=True, env=_blas_env(2), timeout=120, check=True,
    )
    assert float(proc.stdout) < 0.02


def test_report_serialization():
    cfg = _config(replications=500)
    report = simulate(cfg, oracle_references(cfg))
    # the JSON hook writes the report and its parts field by field
    payload = json.loads(json.dumps(vars(report), default=cli._json))
    assert list(payload) == ["config", "rng_algorithm", "batch_size", "means", "covariances"]
    assert payload["config"]["p"] == 2
    assert payload["config"]["l_list"] == list(cfg.l_list)
    assert len(payload["means"]) == len(report.means)
    assert len(payload["covariances"]) == len(report.covariances)
    assert payload["means"][0] == vars(report.means[0])
    assert payload["rng_algorithm"].startswith(
        "sfc64 spawned by SeedSequence(seed, spawn_key=(batch,)); "
    )
    rows = report.csv_rows()
    assert rows[0] == ["kind", "l1", "l2", "empirical", "exact", "se", "z"]
    assert len(rows) == 1 + len(report.means) + len(report.covariances)
