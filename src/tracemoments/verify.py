"""Named verification suites cross-checking closed forms against enumeration."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterator

from . import closedform, enumeration
from .graphs import (
    KIND_ONE_D_RING,
    KIND_TWO_D_RING,
    SeedClass,
    double_one_d_ring,
    double_two_d_ring,
    one_d_ring,
    two_d_ring,
)

# a suite yields one list of failure messages per case
_Cases = Iterator[list[str]]


def _suite_taylor(max_l: int, allow_large: bool) -> _Cases:
    for l in range(2, max_l + 1):
        for b in range(1, l):
            ok = closedform.taylor_identity_check(l, b)
            yield [] if ok else [f"taylor identity fails at l={l}, b={b}"]


def _suite_bs_mean(max_l: int, allow_large: bool) -> _Cases:
    for l in range(1, max_l + 1):
        coeffs = closedform.bs_mean_coefficients(l)
        for j in range(0, l + 1):
            expected = Fraction(0)
            if 1 <= j <= l - 1:
                expected = Fraction(comb(2 * l, 2 * j) - comb(l, j) ** 2, 2)
            ok = coeffs[j] == expected
            yield [] if ok else [f"mean coefficient mismatch at l={l}, j={j}"]


def _suite_bs_cov(max_l: int, allow_large: bool) -> _Cases:
    # the classical-limit row and Theorem 2's row are computed independently
    for l1 in range(1, max_l + 1):
        for l2 in range(1, max_l + 1):
            bs_row = closedform.bs_cov_coefficients(l1, l2)
            c_row = closedform.C_coeffs(l1, l2)
            for b in range(1, l1 + l2 + 1):
                ok = bs_row[b] * factorial(b) * factorial(l1 + l2 - b) == c_row[b]
                yield [] if ok else [
                    f"covariance coefficient mismatch at l1={l1}, l2={l2}, b={b}"
                ]


def _polynomial(c0: Fraction | int, c1: int = 0) -> dict[tuple[int, ...], int]:
    """c0 + c1*m4 written as the oracle writes a moment polynomial."""
    return {monomial: c for monomial, c in (((), c0), ((4,), c1)) if c}


def _suite_mean_coeffs(max_l: int, allow_large: bool) -> _Cases:
    for l in range(1, max_l + 1):
        for b in range(1, l + 1):
            got = enumeration.signature_census((l,), l, b)
            a_lb, b_lb = closedform.A_coeff(l, b), closedform.B_coeff(l, b)
            ok = got == _polynomial(a_lb - 3 * b_lb, b_lb)
            yield [] if ok else [f"mean coefficient law fails at l={l}, b={b}"]


def _suite_tree_counts(max_l: int, allow_large: bool) -> _Cases:
    for l in range(1, max_l + 1):
        for b in range(1, l + 1):
            got = enumeration.signature_census((l,), l + 1, b)
            ok = got == _polynomial(closedform.count_colored_trees(l, b))
            yield [] if ok else [f"tree count law fails at l={l}, b={b}"]


def _suite_vanishing(max_l: int, allow_large: bool) -> _Cases:
    for l in range(2, max_l + 1):  # l = 1 cannot even host l + 2 labels
        for b in range(1, l + 1):
            ok = enumeration.signature_census((l,), l + 2, b) == {}
            yield [] if ok else [f"sum does not vanish at l={l}, r={l + 2}, b={b}"]


_SPROUTING_SEEDS = {
    1: [(1, 2)],
    2: [(1, 2, 1, 2), (1, 1, 2, 2)],
    3: [(1, 2, 3, 1, 2, 3), (1, 1, 1, 2, 2, 2), (1, 1, 1, 1, 1, 1)],
}


def _suite_sprouting(max_l: int, allow_large: bool) -> _Cases:
    max_l0 = min(max_l, 3)
    max_sprouts = 3 if max_l >= 3 else 2
    for l0, seeds in _SPROUTING_SEEDS.items():
        if l0 > max_l0:
            continue
        for b_prime in range(0, max_sprouts + 1):
            for w_prime in range(0, max_sprouts + 1 - b_prime):
                expected = closedform.count_sprouting(l0, b_prime, w_prime)
                blacks = set(range(101, 101 + b_prime))
                whites = set(range(201, 201 + w_prime))
                for seed in seeds:
                    got = enumeration.census_sprouting(seed, blacks, whites)
                    yield [] if got == expected else [
                        f"sprouting census {got} != {expected} for seed {seed}, "
                        f"b'={b_prime}, w'={w_prime}"
                    ]


def _expected_ring_buckets(l: int, b: int) -> dict[SeedClass, int]:
    expected: dict[SeedClass, int] = {}
    w = l - b
    for l0 in range(1, l + 1):
        b_prime = b - (l0 + 1) // 2
        w_prime = w - l0 // 2
        if b_prime >= 0 and w_prime >= 0:
            count = closedform.count_ring_sprouts(
                closedform.TWO_DIRECTIONAL, l0, b_prime, w_prime
            )
            if count:
                expected[two_d_ring(l0)] = count
        if l0 >= 4 and l0 % 2 == 0:
            b_prime = b - l0 // 2
            w_prime = w - l0 // 2
            if b_prime >= 0 and w_prime >= 0:
                count = closedform.count_ring_sprouts(
                    closedform.ONE_DIRECTIONAL, l0, b_prime, w_prime
                )
                if count:
                    expected[one_d_ring(l0)] = count
    return expected


def _suite_ring_census(max_l: int, allow_large: bool) -> _Cases:
    for l in range(1, max_l + 1):
        for b in range(1, l + 1):
            census = enumeration.census_by_seed(l, b, allow_large=allow_large)
            # the counting formulas cover opposed rings of any length and
            # aligned rings of even length; odd aligned rings carry weight 0
            rings = {
                cls: count
                for cls, count in census.items()
                if cls.kind == KIND_TWO_D_RING
                or (cls.kind == KIND_ONE_D_RING and (cls.ring_length or 0) % 2 == 0)
            }
            ok = rings == _expected_ring_buckets(l, b)
            yield [] if ok else [f"ring census mismatch at l={l}, b={b}"]


def _expected_double_buckets(
    l1: int, l2: int, b: int
) -> dict[enumeration.DoubleBucket, int]:
    expected: dict[enumeration.DoubleBucket, int] = {}
    half_max = min(l1, l2)
    for half in range(1, half_max + 1):
        l0 = 2 * half
        for b1 in range(0, l1 - half + 1):
            b2 = b - half - b1
            w1 = l1 - half - b1
            w2 = l2 - b + b1
            if b2 < 0 or w2 < 0:
                continue
            split = (b1, b2, w1, w2)
            count = closedform.count_double_ring_sprouts(
                closedform.TWO_DIRECTIONAL, l0, b1, b2, w1, w2
            )
            if count:
                expected[(double_two_d_ring(l0), split)] = count
            if l0 >= 4:
                count = closedform.count_double_ring_sprouts(
                    closedform.ONE_DIRECTIONAL, l0, b1, b2, w1, w2
                )
                if count:
                    expected[(double_one_d_ring(l0), split)] = count
    return expected


def _suite_double_census(max_l: int, allow_large: bool) -> _Cases:
    for l1 in range(1, max_l):
        for l2 in range(1, max_l - l1 + 1):
            for b in range(1, l1 + l2 + 1):
                census = enumeration.census_double(l1, l2, b, allow_large=allow_large)
                rings = {
                    key: count
                    for key, count in census.items()
                    if key[0].ring_length is not None
                }
                ok = rings == _expected_double_buckets(l1, l2, b)
                yield [] if ok else [
                    f"double census mismatch at l1={l1}, l2={l2}, b={b}"
                ]


def _suite_cov_coeffs(max_l: int, allow_large: bool) -> _Cases:
    for l1 in range(1, max_l):
        for l2 in range(1, max_l - l1 + 1):
            c_row, d_row = closedform.C_coeffs(l1, l2), closedform.D_coeffs(l1, l2)
            for b in range(1, l1 + l2 + 1):
                got = enumeration.signature_census((l1, l2), l1 + l2, b)
                c, d = c_row[b], d_row[b]
                yield [] if got == _polynomial(c - 3 * d, d) else [
                    f"covariance coefficient law fails at l1={l1}, l2={l2}, b={b}"
                ]


_Suite = Callable[[int, bool], _Cases]

SUITES: dict[str, tuple[_Suite, int]] = {
    # name -> (runner, default max_l)
    "taylor": (_suite_taylor, 30),
    "bs-mean": (_suite_bs_mean, 20),
    "bs-cov": (_suite_bs_cov, 20),
    "mean-coeffs": (_suite_mean_coeffs, 4),
    "tree-counts": (_suite_tree_counts, 4),
    "vanishing": (_suite_vanishing, 4),
    "sprouting": (_suite_sprouting, 3),
    "ring-census": (_suite_ring_census, 4),
    "double-census": (_suite_double_census, 4),
    "cov-coeffs": (_suite_cov_coeffs, 4),
}


def run_suite(name: str, max_l: int | None = None, *, allow_large: bool = False) -> dict:
    """Run one named suite and return {suite, cases, failures}."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {sorted(SUITES)})")
    if max_l is not None and max_l < 1:
        raise ValueError(f"max_l must be positive, got {max_l}")
    runner, default_max = SUITES[name]
    cases, failures = 0, []
    for case_failures in runner(default_max if max_l is None else max_l, allow_large):
        cases += 1
        failures += case_failures
    return {"suite": name, "cases": cases, "failures": failures}
