"""Acceptance criteria, one test per criterion, each printing a PASS line.

Exact identities are checked with rational arithmetic at the stated ranges;
statistical criteria use the stated z thresholds; runtime bounds are measured
with cold enumeration caches where the criterion demands them.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from helpers import spanning_trees_of_complete_bipartite
from tracemoments.closedform import (
    A_coeff,
    B_coeff,
    count_bipartite_forced_edge,
    count_colored_trees,
    count_sprouting,
    taylor_identity_check,
    theorem1_mean,
    theorem2_cov,
)
from tracemoments.enumeration import (
    census_sprouting,
    clear_caches,
    exact_trace_covariance,
    exact_trace_moment,
    inner_weight_sum,
)
from tracemoments.montecarlo import SimulationConfig, oracle_references, simulate
from tracemoments.verify import run_suite
from tracemoments.weights import MomentSequence, preset_moments

GAUSSIAN = {2 * l: preset_moments("gaussian", 2 * l) for l in (2, 3, 4, 5)}
RADEMACHER = {2 * l: preset_moments("rademacher", 2 * l) for l in (2, 3, 4, 5)}
CUSTOM = MomentSequence([1, 0, 1, 0, Fraction(7, 3)])


def _passed(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_01_theorem1_inner_sum_identity():
    clear_caches()
    start = time.perf_counter()
    small_elapsed = None
    for l in range(1, 6):
        if l == 5:
            small_elapsed = time.perf_counter() - start
        for b in range(1, l + 1):
            for moments in (GAUSSIAN[2 * max(l, 2)], RADEMACHER[2 * max(l, 2)]):
                alpha = moments.fourth
                got = inner_weight_sum(l, l, b, moments)
                assert got == A_coeff(l, b) + (alpha - 3) * B_coeff(l, b), (l, b, alpha)
                if b == l:
                    assert got == l * factorial(l), (l, alpha)
    elapsed = time.perf_counter() - start
    assert small_elapsed < 60.0, f"l <= 4 took {small_elapsed:.1f}s"
    assert elapsed < 600.0, f"full sweep took {elapsed:.1f}s"
    _passed("01 theorem-1 inner-sum identity (l <= 5, alpha in {1,3})")


def test_criterion_02_colored_tree_counts():
    for l in range(1, 6):
        moments = GAUSSIAN[2 * max(l, 2)]
        for b in range(1, l + 1):
            expected = factorial(l) * comb(l - 1, b - 1)
            assert inner_weight_sum(l, l + 1, b, moments) == expected, (l, b)
            assert expected == count_colored_trees(l, b)
    _passed("02 colored-tree counts (l <= 5)")


def test_criterion_03_vanishing_beyond_tree_range():
    # l = 1 cannot host l + 2 = 3 labels on two edges: outside the domain
    with pytest.raises(ValueError):
        inner_weight_sum(1, 3, 1, GAUSSIAN[4])
    for l in range(2, 5):
        for b in range(1, l + 1):
            for moments in (GAUSSIAN[2 * l], RADEMACHER[2 * l]):
                assert inner_weight_sum(l, l + 2, b, moments) == 0, (l, b)
    _passed("03 vanishing inner sums at r = l + 2 (l <= 4)")


SEEDS_BY_RING_LENGTH = {
    1: [(1, 2), (1, 1)],
    2: [(1, 2, 1, 2), (1, 1, 2, 2)],
    3: [(1, 2, 3, 1, 2, 3), (1, 1, 1, 2, 2, 2), (1, 1, 1, 1, 1, 1)],
}


def test_criterion_04_sprouting_counts():
    for l0, seeds in SEEDS_BY_RING_LENGTH.items():
        for b_prime in range(0, 4):
            for w_prime in range(0, 4 - b_prime):
                expected = Fraction(
                    factorial(l0 + b_prime + w_prime) ** 2,
                    factorial(l0 + b_prime) * factorial(l0 + w_prime),
                )
                assert expected == count_sprouting(l0, b_prime, w_prime)
                counts = [
                    census_sprouting(
                        seed,
                        set(range(101, 101 + b_prime)),
                        set(range(201, 201 + w_prime)),
                    )
                    for seed in seeds
                ]
                # formula value and independence from the shape of the seed
                assert all(c == expected for c in counts), (l0, b_prime, w_prime, counts)
    _passed("04 sprouting censuses (l0 <= 3, b'+w' <= 3, seed-independent)")


def test_criterion_05_ring_and_double_censuses():
    report = run_suite("ring-census", 5)
    assert report["failures"] == [], report
    assert report["cases"] == 15
    report = run_suite("double-census", 4)
    assert report["failures"] == [], report
    _passed("05 ring censuses (l <= 5) and double censuses (l1+l2 <= 4)")


def test_criterion_06_exact_oracle_regression():
    for moments in (GAUSSIAN[4], RADEMACHER[4], CUSTOM):
        alpha = moments.fourth
        for n in range(1, 7):
            for p in range(1, n + 1):
                mean = exact_trace_moment(2, p, n, moments).value
                assert mean == p + Fraction(p * (alpha + p - 2), n), (p, n, alpha)
                cov = exact_trace_covariance(1, 1, p, n, moments)
                assert cov == Fraction(p * (alpha - 1), n), (p, n, alpha)
    _passed("06 exact oracle closed forms at l = 2 and (1,1) on p <= n <= 6")


def test_criterion_07_theorem1_error_scaling():
    for moments in (GAUSSIAN[4], RADEMACHER[4], CUSTOM):
        alpha = moments.fourth
        for n in range(1, 7):
            for p in range(1, n + 1):
                exact = exact_trace_moment(2, p, n, moments).value
                truncated = theorem1_mean(2, p, n)[0].evaluate(alpha)
                assert exact - truncated == Fraction(p * alpha, n**2), (p, n, alpha)
    for l in (3, 5):
        scaled = []
        for n in (8, 16, 32, 64):
            exact = exact_trace_moment(l, 2, n, GAUSSIAN[10], allow_large=True).value
            residual = exact - theorem1_mean(l, 2, n)[0].evaluate(3)
            scaled.append(abs(float(residual)) * n**2)
        for a, b in zip(scaled, scaled[1:]):
            assert a <= 2 * b and b <= 2 * a, (l, scaled)
    _passed("07 theorem-1 residuals: exact p*alpha/n^2 at l=2; bounded n^2-scaling at l=3, 5")


def test_criterion_08_theorem2_small_case():
    for moments in (GAUSSIAN[4], RADEMACHER[4], CUSTOM):
        alpha = moments.fourth
        for n in range(1, 7):
            for p in range(1, n + 1):
                truncated = theorem2_cov(1, 1, p, n)[0]
                expected = Fraction(p * (n - 1), n**2) * (alpha - 1)
                assert truncated.evaluate(alpha) == expected, (p, n, alpha)
                exact = exact_trace_covariance(1, 1, p, n, moments)
                assert exact - truncated.evaluate(alpha) == Fraction(
                    p, n**2
                ) * (alpha - 1), (p, n, alpha)
    scaled = []
    for n in (8, 16, 32):
        exact = exact_trace_covariance(3, 2, 2, n, GAUSSIAN[10], allow_large=True)
        residual = exact - theorem2_cov(3, 2, 2, n)[0].evaluate(3)
        scaled.append(abs(float(residual)) * n**2)
    for a, b in zip(scaled, scaled[1:]):
        assert a <= 2 * b and b <= 2 * a, scaled
    _passed(
        "08 theorem-2 at (1,1): p(n-1)(alpha-1)/n^2 with residual p(alpha-1)/n^2;"
        " bounded n^2-scaling at (3,2)"
    )


def test_criterion_09_taylor_identity():
    start = time.perf_counter()
    cases = 0
    for l in range(2, 31):
        for b in range(1, l):
            assert taylor_identity_check(l, b), (l, b)
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 435
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passed("09 binomial ring-sum identity (435 cases, < 1 s)")


def test_criterion_10_classical_limit_identities():
    start = time.perf_counter()
    report = run_suite("bs-mean", 20)
    assert report["failures"] == [], report
    report = run_suite("bs-cov", 20)
    assert report["failures"] == [], report
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _passed("10 classical-limit mean and covariance identities (l <= 20, < 5 s)")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_criterion_11_bipartite_spanning_trees():
    for b in range(0, 7):
        for w in range(0, 7 - b):
            census: dict[tuple, int] = {}
            forced = frozenset((1, b + 2))
            for edges in spanning_trees_of_complete_bipartite(b + 1, w + 1):
                if not any(frozenset(e) == forced for e in edges):
                    continue
                degree = [0] * (b + w + 3)
                for u, v in edges:
                    degree[u] += 1
                    degree[v] += 1
                d = tuple(degree[1 : b + 2])
                e = tuple(degree[b + 2 : b + w + 3])
                census[(d, e)] = census.get((d, e), 0) + 1
            for d in _compositions(b + w + 1, b + 1):
                for e in _compositions(b + w + 1, w + 1):
                    assert count_bipartite_forced_edge(b, w, d, e) == census.get(
                        (d, e), 0
                    ), (b, w, d, e)
    _passed("11 degree-constrained bipartite spanning trees with a forced edge (b+w <= 6)")


MC_SEED = 20260809
REPS = 200_000


def test_criterion_12_monte_carlo():
    start = time.perf_counter()
    for dist in ("gaussian", "rademacher"):
        small = SimulationConfig(2, 4, (1, 2), REPS, dist, MC_SEED)
        report = simulate(small, oracle_references(small))
        for stat in report.means:
            assert abs(stat.z) <= 5, (dist, "mean", stat)
        large = SimulationConfig(4, 8, (1, 2, 3), REPS, dist, MC_SEED + 1)
        report = simulate(large, oracle_references(large))
        for stat in report.means:
            if stat.l in (2, 3):
                assert abs(stat.z) <= 5, (dist, "mean", stat)
        checked = set()
        for stat in report.covariances:
            if (stat.l1, stat.l2) in {(1, 1), (1, 2), (2, 2)}:
                assert stat.z is not None and abs(stat.z) <= 6, (dist, "cov", stat)
                checked.add((stat.l1, stat.l2))
        assert checked == {(1, 1), (1, 2), (2, 2)}
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"took {elapsed:.1f}s"
    _passed("12 Monte Carlo z-scores (2e5 replications, both distributions)")
