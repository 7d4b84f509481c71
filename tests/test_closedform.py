"""Closed-form coefficients, expansion theorems, corollaries, comparison identities."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from helpers import (
    reference_bs_cov_coefficient,
    reference_bs_mean_coefficients,
    reference_C_coeff,
    reference_D_coeff,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemoments.closedform import (
    A_coeff,
    B_coeff,
    C_coeffs,
    D_coeffs,
    binom,
    bs_cov_coefficients,
    bs_mean,
    bs_mean_coefficients,
    corollary_cov_const_p,
    corollary_cov_ratio,
    corollary_mean_const_p,
    corollary_mean_ratio,
    count_bipartite_forced_edge,
    count_colored_trees,
    count_double_ring_sprouts,
    count_ring_sprouts,
    count_sprouting,
    count_trees_per_adjacency,
    mp_moment,
    taylor_identity_check,
    theorem1_mean,
    theorem2_cov,
)
from tracemoments.weights import AffineAlpha


def test_binom():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(4, -1) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


@given(st.integers(0, 40), st.integers(-5, 45))
def test_binom_matches_stdlib(n, k):
    expected = math.comb(n, k) if 0 <= k <= n else 0
    assert binom(n, k) == expected


def test_A_coeff():
    assert A_coeff(1, 1) == 1
    assert A_coeff(2, 1) == 5
    assert A_coeff(2, 2) == 4
    for l in range(1, 8):
        assert A_coeff(l, l) == l * math.factorial(l)
    with pytest.raises(ValueError):
        A_coeff(2, 3)


def test_B_coeff():
    assert B_coeff(2, 1) == 1
    assert B_coeff(2, 2) == 0
    assert B_coeff(3, 1) == 6
    assert all(B_coeff(l, l) == 0 for l in range(1, 8))


def test_C_D_examples():
    assert C_coeffs(1, 1) == (0, 2, 0)
    assert D_coeffs(1, 1) == (0, 1, 0)
    assert D_coeffs(2, 2)[1] == 24  # frozen from the formula, census cross-checked
    # frozen values for the symmetric pair (2, 3)
    assert C_coeffs(2, 3) == (0, 288, 720, 720, 288, 0)
    assert C_coeffs(3, 2) == (0, 288, 720, 720, 288, 0)


def test_C_D_symmetry():
    for l1 in range(1, 9):
        for l2 in range(1, 9):
            assert C_coeffs(l1, l2) == C_coeffs(l2, l1)
            assert D_coeffs(l1, l2) == D_coeffs(l2, l1)


def test_theorem1_mean_examples():
    for p, n in [(1, 1), (2, 5), (3, 7)]:
        value, terms = theorem1_mean(1, p, n)
        assert value == AffineAlpha.constant(p)
        assert len(terms) == 1 and terms[0].error_order == "O(p^1/n^2)"
    value, _ = theorem1_mean(2, 2, 3)
    assert value.evaluate(3) == Fraction(10, 3)
    assert value == AffineAlpha(Fraction(2), Fraction(4, 9))
    # n = 1 degenerates: every multiplicity vanishes, residual is alpha itself
    value, _ = theorem1_mean(2, 1, 1)
    assert value == AffineAlpha()
    with pytest.raises(ValueError):
        theorem1_mean(2, 3, 2)  # p > n


def test_theorem2_cov_examples():
    for p in (1, 2, 3):
        for n in range(p, 6):
            value, _ = theorem2_cov(1, 1, p, n)
            scale = Fraction(p * (n - 1), n**2)
            assert value == AffineAlpha(-scale, scale)
    value, _ = theorem2_cov(1, 1, 1, 1)
    assert value == AffineAlpha()  # degenerate at n = 1, flagged not asserted
    value, terms = theorem2_cov(2, 1, 2, 4)
    # frozen fixture; the truncation error shrinks like 1/n^2 (checked below)
    assert value == AffineAlpha(Fraction(-1, 2), Fraction(1, 2))
    assert [t.error_order for t in terms] == ["O(p^1/n^2)", "O(p^2/n^3)"]


def test_theorem2_cov_error_scaling_against_oracle():
    from tracemoments.enumeration import exact_trace_covariance
    from tracemoments.weights import preset_moments

    moments = preset_moments("gaussian", 12)
    scaled = []
    for n in (8, 16, 32):
        exact = exact_trace_covariance(2, 1, 2, n, moments)
        residual = exact - theorem2_cov(2, 1, 2, n)[0].evaluate(3)
        scaled.append(abs(float(residual)) * n**2)
    assert max(scaled) <= 2 * min(scaled)


def test_corollary_mean_ratio():
    exp = corollary_mean_ratio(1, 3, 7)
    assert exp.leading[1] == 1 and len(exp.correction) == 2
    assert exp.value == AffineAlpha.constant(3)  # n*y = p, no correction at l=1
    exp = corollary_mean_ratio(2, 3, 7)
    assert exp.leading[1] == 1 and exp.leading[2] == Fraction(1, 2) * 2
    assert exp.correction[1] == AffineAlpha(Fraction(-2), Fraction(1))  # 1 + (a-3)
    y = Fraction(3, 7)
    expected = AffineAlpha.constant(7 * (y + y**2)) + AffineAlpha(-2, 1).scale(y)
    assert exp.value == expected


def test_corollary_mean_ratio_converges_to_theorem():
    # at fixed ratio the two agree up to O(1/n)
    for l in (2, 3):
        gaps = []
        for n in (20, 40, 80):
            p = n // 2
            thm, _ = theorem1_mean(l, p, n)
            cor = corollary_mean_ratio(l, p, n)
            gaps.append(abs(float((thm - cor.value).evaluate(3))))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] / gaps[1] > 1.5 and gaps[1] / gaps[2] > 1.5


def test_corollary_mean_const_p():
    for p, n in [(1, 4), (3, 9)]:
        assert corollary_mean_const_p(1, p, n) == AffineAlpha.constant(p)
    assert corollary_mean_const_p(2, 2, 7) == AffineAlpha(2, Fraction(2, 7))
    assert corollary_mean_const_p(3, 1, 5) == AffineAlpha(
        1 + Fraction(3, 10) * (3 - 6 - 1 + 2), Fraction(3, 10) * 2
    )


def _interpolate_scaled_theorem(l: int, p: int) -> list[AffineAlpha]:
    # theorem1_mean(l, p, n) * n^l is a degree-l polynomial in n; recover its
    # coefficients exactly from l+1 evaluations (Lagrange over rationals)
    points = [p + idx for idx in range(l + 1)]
    values = [theorem1_mean(l, p, n)[0].scale(Fraction(n**l)) for n in points]
    coeffs = [AffineAlpha() for _ in range(l + 1)]
    for n_j, v_j in zip(points, values):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for n_i in points:
            if n_i == n_j:
                continue
            denom *= n_j - n_i
            basis = [Fraction(0)] + basis
            basis = [
                basis[idx] - (n_i * basis[idx + 1] if idx + 1 < len(basis) else 0)
                for idx in range(len(basis))
            ]
        for idx in range(l + 1):
            coeffs[idx] = coeffs[idx] + v_j.scale(basis[idx] / denom)
    return coeffs


def test_corollary_mean_const_p_matches_theorem_truncation():
    # the fixed-p corollary is the theorem's two leading orders in 1/n
    for l in range(1, 5):
        for p in range(1, 5):
            coeffs = _interpolate_scaled_theorem(l, p)
            # value = sum_d coeffs[d] n^(d-l); orders n^0 and n^-1 are d = l, l-1
            assert coeffs[l] == AffineAlpha.constant(p), (l, p)
            bracket = corollary_mean_const_p(l, p, 1) - AffineAlpha.constant(p)
            assert coeffs[l - 1] == bracket, (l, p)


def test_corollary_cov_ratio():
    exp = corollary_cov_ratio(1, 1, 2, 5)
    assert exp.coeffs[1] == AffineAlpha(-1, 1)  # y (alpha - 1)
    assert exp.coeffs[2] == AffineAlpha()
    assert exp.value == AffineAlpha(Fraction(-2, 5), Fraction(2, 5))
    exp = corollary_cov_ratio(1, 1, 5, 5)
    assert exp.value == AffineAlpha(-1, 1)  # alpha - 1 at y = 1


def test_corollary_cov_ratio_converges_to_theorem():
    gaps = []
    for n in (20, 40, 80):
        p = n // 2
        thm, _ = theorem2_cov(1, 2, p, n)
        cor = corollary_cov_ratio(1, 2, p, n)
        gaps.append(abs(float((thm - cor.value).evaluate(3))))
    assert gaps[0] > gaps[1] > gaps[2]


def test_corollary_cov_const_p():
    for p in (1, 2, 4):
        for n in (4, 9):
            expected = AffineAlpha(
                -Fraction(p, n) + Fraction(p, n**2),
                Fraction(p, n) - Fraction(p, n**2),
            )
            assert corollary_cov_const_p(1, 1, p, n) == expected
            # matches the full expansion exactly in this smallest case
            assert corollary_cov_const_p(1, 1, p, n) == theorem2_cov(1, 1, p, n)[0]
    assert corollary_cov_const_p(1, 1, 3, 5).evaluate(1) == 0  # Rademacher kills it
    assert corollary_cov_const_p(2, 2, 1, 6) == AffineAlpha(
        Fraction(4, 6) * (-1) + Fraction(4, 36) * 4, Fraction(4, 6) - Fraction(4, 36) * 4
    )


def test_count_colored_trees():
    assert count_colored_trees(1, 1) == 1
    assert count_colored_trees(2, 1) == 2
    assert count_colored_trees(3, 2) == 12
    assert count_colored_trees(3, 0) == 0
    assert count_colored_trees(3, 4) == 0


def test_count_trees_per_adjacency():
    assert count_trees_per_adjacency((2, 1, 1)) == 4
    assert count_trees_per_adjacency((1, 2, 1)) == 4
    assert count_trees_per_adjacency((3, 1, 1, 1)) == 12
    with pytest.raises(ValueError):
        count_trees_per_adjacency((2, 2, 1))  # degree sum mismatch


def test_count_sprouting():
    assert count_sprouting(3, 0, 0) == 1
    assert count_sprouting(1, 1, 0) == 2
    assert count_sprouting(2, 1, 1) == 16


def test_count_ring_sprouts():
    l = 4
    assert count_ring_sprouts("two-d", 1, l - 1, 0) == l * math.factorial(l)
    assert count_ring_sprouts("two-d", 2, 0, 0) == 1  # the halved case
    assert count_ring_sprouts("one-d", 4, 0, 0) == 4
    with pytest.raises(ValueError):
        count_ring_sprouts("one-d", 3, 0, 0)
    with pytest.raises(ValueError):
        count_ring_sprouts("sideways", 2, 0, 0)


def test_count_double_ring_sprouts():
    assert count_double_ring_sprouts("two-d", 2, 0, 0, 0, 0) == 1
    assert count_double_ring_sprouts("one-d", 2, 0, 0, 0, 0) == 0
    assert count_double_ring_sprouts("two-d", 2, 1, 0, 0, 0) == 4
    with pytest.raises(ValueError):
        count_double_ring_sprouts("two-d", 3, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="kind must be 'one-d' or 'two-d'"):
        count_double_ring_sprouts("x", 4, 0, 0, 0, 0)


def test_count_bipartite_forced_edge_examples():
    assert count_bipartite_forced_edge(0, 0, (1,), (1,)) == 1
    assert count_bipartite_forced_edge(1, 1, (2, 1), (2, 1)) == 1
    assert count_bipartite_forced_edge(1, 1, (1, 2), (1, 2)) == 0
    with pytest.raises(ValueError):
        count_bipartite_forced_edge(1, 1, (2, 2), (2, 1))
    with pytest.raises(ValueError, match="degree lists must have lengths b\\+1 and w\\+1"):
        count_bipartite_forced_edge(1, 1, [1], [1, 1])
    with pytest.raises(ValueError, match="spanning-tree degrees are at least 1"):
        count_bipartite_forced_edge(1, 1, [0, 3], [2, 1])


def test_taylor_identity_examples():
    assert taylor_identity_check(2, 1)
    assert taylor_identity_check(5, 2)
    assert taylor_identity_check(30, 17)
    with pytest.raises(ValueError):
        taylor_identity_check(3, 3)


def test_mp_moment():
    y = Fraction(5, 7)
    assert mp_moment(1, y) == 1
    assert mp_moment(2, y) == 1 + y
    assert mp_moment(3, y) == 1 + 3 * y + y**2
    assert mp_moment(2, Fraction(1, 2)) == Fraction(3, 2)
    assert mp_moment(3, 0) == 1


def test_negative_ratio_is_rejected():
    for y in (-1, Fraction(-1, 2), -2):
        with pytest.raises(ValueError, match="y >= 0"):
            mp_moment(3, y)
        with pytest.raises(ValueError, match="y >= 0"):
            bs_mean(2, y)


def test_bs_mean():
    y = Fraction(2, 3)
    assert bs_mean(1, y) == 0
    assert bs_mean(2, y) == y
    for l in range(1, 8):
        assert bs_mean(l, 0) == 0
    assert bs_mean_coefficients(2) == (0, 1, 0)


def test_bs_mean_rows_match_the_fraction_reference():
    for l in range(1, 31):
        assert bs_mean_coefficients(l) == reference_bs_mean_coefficients(l)


def test_bs_cov_coefficient_examples():
    assert bs_cov_coefficients(1, 1) == (0, 2, 0)
    expected = Fraction(C_coeffs(3, 2)[4], math.factorial(4) * math.factorial(1))
    assert bs_cov_coefficients(3, 2)[4] == expected


def test_covariance_rows_match_per_b_references():
    for l1 in range(1, 13):
        for l2 in range(1, 13):
            bs_row = bs_cov_coefficients(l1, l2)
            c_row, d_row = C_coeffs(l1, l2), D_coeffs(l1, l2)
            assert len(bs_row) == len(c_row) == len(d_row) == l1 + l2 + 1
            assert bs_row[0] == c_row[0] == d_row[0] == 0
            for b in range(1, l1 + l2 + 1):
                assert bs_row[b] == reference_bs_cov_coefficient(l1, l2, b)
                assert c_row[b] == reference_C_coeff(l1, l2, b)
                assert d_row[b] == reference_D_coeff(l1, l2, b)


@pytest.mark.parametrize("l1,l2", [(1, 24), (24, 1), (7, 19), (24, 24)])
def test_bs_cov_rows_match_the_reference_at_unequal_and_large_pairs(l1, l2):
    # the suffix pass's k1 range and the reference's loops differ most here
    bs_row = bs_cov_coefficients(l1, l2)
    assert bs_row[0] == 0
    for b in range(1, l1 + l2 + 1):
        assert bs_row[b] == reference_bs_cov_coefficient(l1, l2, b)


def test_covariance_rows_are_integers_and_refuse_bad_powers():
    for row in (bs_cov_coefficients, C_coeffs, D_coeffs):
        assert all(type(c) is int for c in row(3, 2))
        with pytest.raises(ValueError, match="l1, l2 >= 1"):
            row(0, 2)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_bs_cov_rows_symmetric_and_equal_to_theorem2(l1, l2):
    # the classical-limit sum is not symmetric in (l1, l2) as written
    bs_row = bs_cov_coefficients(l1, l2)
    assert bs_row == bs_cov_coefficients(l2, l1)
    c_row = C_coeffs(l1, l2)
    for b in range(1, l1 + l2 + 1):
        assert bs_row[b] * math.factorial(b) * math.factorial(l1 + l2 - b) == c_row[b]
