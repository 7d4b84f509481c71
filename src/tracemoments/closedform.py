"""Closed-form coefficients and expansions for trace moments and covariances.

Everything returns exact integers, Fractions, or affine expressions in the
fourth entry moment; numeric evaluation is left to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm
from typing import Sequence

from .weights import AffineAlpha, Rational


def binom(n: int, k: int) -> int:
    """Binomial coefficient with C(n, k) = 0 for k < 0 or k > n; n must be >= 0."""
    if n < 0:
        raise ValueError(f"negative upper index {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _check_range(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# expansion coefficients


def _ring_bracket(l: int, b: int) -> int:
    """C(2l, 2b) + (2b - 1) C(l, b)^2: twice A_coeff(l, b) / (b! (l - b)!), 1 <= b <= l."""
    return comb(2 * l, 2 * b) + (2 * b - 1) * comb(l, b) ** 2


def A_coeff(l: int, b: int) -> Fraction:
    """Ring contribution to the order-(l, b) mean coefficient."""
    _check_range(1 <= b <= l, f"need 1 <= b <= l, got b={b}, l={l}")
    return Fraction(factorial(b) * factorial(l - b) * _ring_bracket(l, b), 2)


def B_coeff(l: int, b: int) -> int:
    """Fourth-moment correction to the order-(l, b) mean coefficient; 0 at b = l."""
    _check_range(1 <= b <= l, f"need 1 <= b <= l, got b={b}, l={l}")
    if b >= l:
        return 0
    return factorial(b) * factorial(l - b) * binom(l, b - 1) * binom(l, b + 1)


def _check_powers(l1: int, l2: int) -> None:
    _check_range(min(l1, l2) >= 1, f"need l1, l2 >= 1, got l1={l1}, l2={l2}")


def C_coeffs(l1: int, l2: int) -> tuple[int, ...]:
    """Leading covariance coefficients at every black count b = 0..l1+l2; 0 at b = 0.

    With a_k = C(l1, k) C(l2, b-k), the coefficient is 2 b! (l1+l2-b)! times
    the sum of (j - k) a_k a_j over k < j; running sums of a_k and k a_k give
    it in one pass over j.
    """
    _check_powers(l1, l2)
    total_l = l1 + l2
    row1 = [comb(l1, k) for k in range(l1 + 1)]
    row2 = [comb(l2, k) for k in range(l2 + 1)]
    coeffs = [0] * (total_l + 1)
    for b in range(1, total_l + 1):
        pair_sum = count = weighted = 0
        for j in range(max(0, b - l2), min(b, l1) + 1):
            a = row1[j] * row2[b - j]
            pair_sum += a * (j * count - weighted)
            count += a
            weighted += j * a
        coeffs[b] = 2 * factorial(b) * factorial(total_l - b) * pair_sum
    return tuple(coeffs)


def D_coeffs(l1: int, l2: int) -> tuple[int, ...]:
    """Fourth-moment corrections to the covariance coefficients, b = 0..l1+l2; 0 at b = 0."""
    _check_powers(l1, l2)
    total_l = l1 + l2
    row1 = [comb(l1, k) for k in range(l1 + 1)]
    row2 = [comb(l2, k) for k in range(l2 + 1)]
    coeffs = [0] * (total_l + 1)
    for b in range(1, total_l + 1):
        inner = sum(
            row1[k] * row1[k + 1] * row2[b - 1 - k] * row2[b - k]
            for k in range(max(0, b - l2), min(b, l1))
        )
        coeffs[b] = factorial(b) * factorial(total_l - b) * inner
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# main expansions


@dataclass(frozen=True)
class ExpansionTerm:
    b: int
    tree_part: Fraction  # coefficient of C(p,b) C(n-b, l+1-b) / n^l
    ring_part: AffineAlpha  # coefficient of C(p,b) C(n-b, l-b) / n^l
    error_order: str


@dataclass(frozen=True)
class CovExpansionTerm:
    b: int
    coeff: AffineAlpha  # coefficient of C(p,b) C(n-b, l1+l2-b) / n^(l1+l2)
    error_order: str


def theorem1_mean(l: int, p: int, n: int) -> tuple[AffineAlpha, tuple[ExpansionTerm, ...]]:
    """Mean expansion of tr(S^l) up to the stated error orders, affine in alpha."""
    _check_range(l >= 1 and p >= 1, f"need l, p >= 1, got l={l}, p={p}")
    _check_range(p <= n, f"need p <= n, got p={p}, n={n}")
    scale = Fraction(1, n**l)
    value = AffineAlpha()
    terms: list[ExpansionTerm] = []
    for b in range(1, min(l, p) + 1):
        tree_part = Fraction(count_colored_trees(l, b))
        ring_part = AffineAlpha(A_coeff(l, b) - 3 * B_coeff(l, b), Fraction(B_coeff(l, b)))
        terms.append(
            ExpansionTerm(b, tree_part, ring_part, f"O(p^{b}/n^{b + 1})")
        )
        tree_mult = Fraction(binom(p, b) * binom(n - b, l + 1 - b)) * scale
        ring_mult = Fraction(binom(p, b) * binom(n - b, l - b)) * scale
        value = value + AffineAlpha.constant(tree_mult * tree_part) + ring_part.scale(ring_mult)
    return value, tuple(terms)


def theorem2_cov(
    l1: int, l2: int, p: int, n: int
) -> tuple[AffineAlpha, tuple[CovExpansionTerm, ...]]:
    """Covariance expansion of (tr(S^l1), tr(S^l2)), affine in alpha."""
    _check_range(min(l1, l2, p) >= 1, f"need l1, l2, p >= 1, got {(l1, l2, p)}")
    _check_range(p <= n, f"need p <= n, got p={p}, n={n}")
    total_l = l1 + l2
    scale = Fraction(1, n**total_l)
    value = AffineAlpha()
    terms: list[CovExpansionTerm] = []
    c_row, d_row = C_coeffs(l1, l2), D_coeffs(l1, l2)
    for b in range(1, min(total_l, p) + 1):
        c, d = c_row[b], d_row[b]
        coeff = AffineAlpha(Fraction(c - 3 * d), Fraction(d))
        terms.append(CovExpansionTerm(b, coeff, f"O(p^{b}/n^{b + 1})"))
        mult = Fraction(binom(p, b) * binom(n - b, total_l - b)) * scale
        value = value + coeff.scale(mult)
    return value, tuple(terms)


# ---------------------------------------------------------------------------
# corollaries


@dataclass(frozen=True)
class MeanRatioExpansion:
    """Mean expansion in y = p/n: an n-scaled leading polynomial plus a correction."""

    leading: tuple[Fraction, ...]  # leading[b] multiplies n * y^b, index 0 unused
    correction: tuple[AffineAlpha, ...]  # correction[b] multiplies y^b
    value: AffineAlpha  # both sums evaluated exactly at y = p/n


def corollary_mean_ratio(l: int, p: int, n: int) -> MeanRatioExpansion:
    """Proportional-growth form of the mean expansion, exact at y = p/n."""
    _check_range(l >= 1 and p >= 1 and n >= 1, f"need positive inputs, got {(l, p, n)}")
    y = Fraction(p, n)
    leading = [Fraction(0)] * (l + 1)
    for b in range(1, l + 1):
        leading[b] = Fraction(_narayana(l, b))
    correction = [AffineAlpha()] * (l + 1)
    for b in range(1, l):
        const = Fraction(binom(2 * l, 2 * b), 2) - Fraction(binom(l, b) ** 2, 2)
        alpha_part = Fraction(binom(l, b - 1) * binom(l, b + 1))
        correction[b] = AffineAlpha(const - 3 * alpha_part, alpha_part)
    value = AffineAlpha()
    for b in range(1, l + 1):
        value = value + AffineAlpha.constant(n * leading[b] * y**b)
    for b in range(1, l):
        value = value + correction[b].scale(y**b)
    return MeanRatioExpansion(tuple(leading), tuple(correction), value)


def corollary_mean_const_p(l: int, p: int, n: int) -> AffineAlpha:
    """Fixed-dimension mean expansion: p plus the first 1/n correction."""
    _check_range(min(l, p, n) >= 1, f"need positive inputs, got {(l, p, n)}")
    prefactor = Fraction(p * l, 2 * n)
    bracket_const = Fraction(l * p - 2 * l - p + 2)
    return AffineAlpha(
        Fraction(p) + prefactor * bracket_const, prefactor * (l - 1)
    )


@dataclass(frozen=True)
class CovRatioExpansion:
    coeffs: tuple[AffineAlpha, ...]  # coeffs[b] multiplies y^b, index 0 unused
    value: AffineAlpha  # evaluated exactly at y = p/n


def corollary_cov_ratio(l1: int, l2: int, p: int, n: int) -> CovRatioExpansion:
    """Proportional-growth form of the covariance expansion, exact at y = p/n."""
    _check_range(min(l1, l2, p, n) >= 1, f"need positive inputs, got {(l1, l2, p, n)}")
    y = Fraction(p, n)
    total_l = l1 + l2
    coeffs = [AffineAlpha()] * (total_l + 1)
    value = AffineAlpha()
    c_row, d_row = C_coeffs(l1, l2), D_coeffs(l1, l2)
    for b in range(1, total_l + 1):
        denom = factorial(b) * factorial(total_l - b)
        c = Fraction(c_row[b], denom)
        d = Fraction(d_row[b], denom)
        coeffs[b] = AffineAlpha(c - 3 * d, d)
        value = value + coeffs[b].scale(y**b)
    return CovRatioExpansion(tuple(coeffs), value)


def corollary_cov_const_p(l1: int, l2: int, p: int, n: int) -> AffineAlpha:
    """Fixed-dimension covariance expansion: the displayed two-term truncation."""
    _check_range(min(l1, l2, p, n) >= 1, f"need positive inputs, got {(l1, l2, p, n)}")
    lead = Fraction(p * l1 * l2, n)
    second = Fraction(p * l1 * l2, n**2)
    # (alpha - 1) * lead + second * [(p-1)(l1-1)(l2-1) - (alpha-1) l1 l2]
    alpha_part = lead - second * l1 * l2
    const_part = -lead + second * ((p - 1) * (l1 - 1) * (l2 - 1) + l1 * l2)
    return AffineAlpha(const_part, alpha_part)


# ---------------------------------------------------------------------------
# counting formulas


def count_colored_trees(l: int, b: int) -> int:
    """Number of doubled trees on l+1 labelled vertices with a given b-label black set."""
    if b < 1 or b > l:
        return 0
    return factorial(l) * binom(l - 1, b - 1)


def count_trees_per_adjacency(degrees: Sequence[int]) -> int:
    """Closed walks sharing one doubled-tree adjacency matrix: 2l * prod (deg-1)!."""
    degrees = list(degrees)
    l = len(degrees) - 1
    if l < 1 or sum(degrees) != 2 * l or min(degrees) < 1:
        raise ValueError(f"degree list {degrees} is not that of a tree")
    product = 1
    for d in degrees:
        product *= factorial(d - 1)
    return 2 * l * product


def count_sprouting(l0: int, b_prime: int, w_prime: int) -> int:
    """Sprouting graphs of a fixed seed with given black/white sprout counts:
    l!^2 / ((l0+b')! (l0+w')!) with l = l0+b'+w', two falling factorials."""
    _check_range(l0 >= 1 and b_prime >= 0 and w_prime >= 0, "need l0 >= 1 and b', w' >= 0")
    l = l0 + b_prime + w_prime
    return perm(l, w_prime) * perm(l, b_prime)


ONE_DIRECTIONAL = "one-d"
TWO_DIRECTIONAL = "two-d"


def count_ring_sprouts(kind: str, l0: int, b_prime: int, w_prime: int) -> int:
    """Walks on l0+b'+w' vertices whose seed is a ring of length l0, black set fixed."""
    _check_range(l0 >= 1 and b_prime >= 0 and w_prime >= 0, "need l0 >= 1 and b', w' >= 0")
    l = l0 + b_prime + w_prime
    if kind == ONE_DIRECTIONAL:
        if l0 % 2 != 0 or l0 < 4:
            raise ValueError("aligned rings need even ring length >= 4")
        b = b_prime + l0 // 2
        w = w_prime + l0 // 2
        return factorial(b) * factorial(w) * binom(l, b_prime) * binom(l, w_prime)
    if kind == TWO_DIRECTIONAL:
        b = b_prime + (l0 + 1) // 2
        w = w_prime + l0 // 2
        base = factorial(b) * factorial(w) * binom(l, b_prime) * binom(l, w_prime)
        # length-2 rings admit a single seed route instead of the generic l0 many
        return base if l0 == 2 else l0 * base
    raise ValueError(f"kind must be {ONE_DIRECTIONAL!r} or {TWO_DIRECTIONAL!r}")


def count_double_ring_sprouts(
    kind: str, l0: int, b1_prime: int, b2_prime: int, w1_prime: int, w2_prime: int
) -> int:
    """Double walks whose combined seed is a double ring of even length l0."""
    _check_range(l0 >= 2 and l0 % 2 == 0, f"double rings need even l0 >= 2, got {l0}")
    _check_range(
        min(b1_prime, b2_prime, w1_prime, w2_prime) >= 0, "sprout counts must be >= 0"
    )
    if kind == ONE_DIRECTIONAL and l0 < 4:
        return 0
    if kind not in (ONE_DIRECTIONAL, TWO_DIRECTIONAL):
        raise ValueError(f"kind must be {ONE_DIRECTIONAL!r} or {TWO_DIRECTIONAL!r}")
    half = l0 // 2
    l1 = half + b1_prime + w1_prime
    l2 = half + b2_prime + w2_prime
    b = half + b1_prime + b2_prime
    w = l1 + l2 - b
    return (
        half
        * factorial(b)
        * factorial(w)
        * binom(l1, b1_prime)
        * binom(l1, w1_prime)
        * binom(l2, b2_prime)
        * binom(l2, w2_prime)
    )


def count_bipartite_forced_edge(
    b: int, w: int, d: Sequence[int], e: Sequence[int]
) -> int:
    """Degree-constrained spanning trees of K_{b+1,w+1} containing the edge (a1, c1)."""
    d, e = list(d), list(e)
    if len(d) != b + 1 or len(e) != w + 1:
        raise ValueError("degree lists must have lengths b+1 and w+1")
    if sum(d) != b + w + 1 or sum(e) != b + w + 1:
        raise ValueError(
            f"degree sums must both be b+w+1={b + w + 1}, got {sum(d)} and {sum(e)}"
        )
    if min(d) < 1 or min(e) < 1:
        raise ValueError("spanning-tree degrees are at least 1")

    def multinomial(total: int, parts: list[int]) -> int:
        value = factorial(total)
        for part in parts:
            value //= factorial(part)
        return value

    count = multinomial(b, [x - 1 for x in e]) * multinomial(w, [x - 1 for x in d])
    if b > 0 and w > 0:
        # count * (1 - (b - e1 + 1)(w - d1 + 1) / (bw)), which is an integer
        count, remainder = divmod(count * (b * w - (b - e[0] + 1) * (w - d[0] + 1)), b * w)
        assert remainder == 0
    return count


def taylor_identity_check(l: int, b: int) -> bool:
    """Exact check of the binomial identity folding the two ring sums into one."""
    _check_range(1 <= b < l, f"need 1 <= b < l, got b={b}, l={l}")
    # every binomial index below lies in 0..l, so comb needs no range guard
    lhs = sum(
        (2 * m - 1) * comb(l, b - m) * comb(l, b + m - 1)
        for m in range(1, min(b, l - b + 1) + 1)
    )
    lhs += sum(
        (2 * m + 1) * comb(l, b - m) * comb(l, b + m)
        for m in range(1, min(b, l - b) + 1)
    )
    return 2 * lhs == _ring_bracket(l, b)


# ---------------------------------------------------------------------------
# comparison with the classical limit formulas


def _narayana(l: int, b: int) -> int:
    """Narayana number C(l, b-1) C(l-1, b-1) / b, an integer, 1 <= b <= l."""
    return comb(l, b - 1) * comb(l - 1, b - 1) // b


def mp_moment(l: int, y: Rational) -> Fraction:
    """Moments of the Marchenko-Pastur law with ratio y and unit scale."""
    _check_range(l >= 1, f"need l >= 1, got {l}")
    y = Fraction(y)
    _check_range(y >= 0, f"need y >= 0, got y={y}")
    return sum((_narayana(l, b) * y ** (b - 1) for b in range(1, l + 1)), Fraction(0))


def bs_mean_coefficients(l: int) -> tuple[Fraction, ...]:
    """Coefficients of y^j in the classical limiting mean, via (1 +- sqrt(y))^2l.

    Expands both binomials over the square root and keeps the surviving even
    powers, so the result stays exact without ever forming a square root.
    """
    _check_range(l >= 1, f"need l >= 1, got {l}")
    # in quarters: sum over t of [(-1)^t + 1] C(2l, t) s^t with s^2 = y
    quarters = [0] * (l + 1)
    for t in range(0, 2 * l + 1):
        total = comb(2 * l, t) * ((-1) ** t + 1)
        if total:  # the odd powers of s cancel
            quarters[t // 2] += total
    for j in range(0, l + 1):
        quarters[j] -= 2 * comb(l, j) ** 2
    return tuple(Fraction(q, 4) for q in quarters)


def bs_mean(l: int, y: Rational) -> Fraction:
    """Classical limiting mean of the centred spectral statistic of x^l."""
    y = Fraction(y)
    _check_range(y >= 0, f"need y >= 0, got y={y}")
    return sum(
        (c * y**j for j, c in enumerate(bs_mean_coefficients(l))), Fraction(0)
    )


def bs_cov_coefficients(l1: int, l2: int) -> tuple[int, ...]:
    """Coefficients of y^b, b = 0..l1+l2, in the classical limiting covariance of x^l1, x^l2.

    The classical sum is 2 sum over k1 < l1, k2 <= l2 of C(l1, k1) C(l2, k2)
    C(k1+k2, shift) (-1)^(k1+k2-shift) times an inner sum over m, with
    shift = l1 + l2 - b.  With j = k1 + m and s = k1 + k2 the inner sum is
    sum_{j > k1} (j - k1) first[j] second[j + l2 - 1 - s] = T1 - k1 T0, where
    T0 and T1 (weighted by j) are suffix sums over j > k1 for that s; one
    downward pass over k1 per s grows them and fills by_sum[s], the sum over
    k1 + k2 = s.  The sum over s of C(s, shift) (-1)^(s-shift) by_sum[s] is
    the coefficient of z^shift in sum_s by_sum[s] (z - 1)^s, taken by Horner's
    rule.  The row costs O(l1 (l1 + l2)) products and O((l1 + l2)^2)
    subtractions, and no binomial or sign per term.
    """
    _check_powers(l1, l2)
    total_l = l1 + l2
    row1 = [comb(l1, k) for k in range(l1 + 1)]
    row2 = [comb(l2, k) for k in range(l2 + 1)]
    first = [comb(2 * l1 - 1 - j, l1 - 1) for j in range(l1 + 1)]  # j = k1 + m
    second = [comb(l2 + i, l2 - 1) for i in range(total_l)]  # i = j + l2 - 1 - s
    by_sum = [0] * total_l  # s = k1 + k2 <= l1 + l2 - 1
    for s in range(total_l):
        t0 = t1 = 0
        for k1 in range(l1 - 1, max(0, s - l2) - 1, -1):
            term = first[k1 + 1] * second[k1 + l2 - s]  # j = k1 + 1 joins the suffix
            t0 += term
            t1 += (k1 + 1) * term
            if k1 <= s:
                by_sum[s] += row1[k1] * row2[s - k1] * (t1 - k1 * t0)
    poly: list[int] = []  # coefficients of z^0, z^1, ...
    for value in reversed(by_sum):
        # poly <- poly * (z - 1) + value
        poly = [high - low for high, low in zip([value, *poly], [*poly, 0])]
    return (0, *(2 * c for c in reversed(poly)))
