"""Exact oracle: enumeration behind every closed form, independent of it.

A walk's weight is the product of the entry moments that its
reversed-adjacency exponents pick out: a moment monomial, with the factors
m_2 = 1 left out, or nothing when an exponent is 1 (m_1 = 0).  A double walk
stands for its joint monomial minus that of its two walks apart.  So means
and covariances alike count route pairs by monomial, and every inner sum is
an exact polynomial in the moments; inner_weight_sum_affine alone reads a
walk's polynomial as an affine function of the fourth moment, with a check
that no other monomial carries weight.  The exponents depend only on which
row positions and which column positions share a label, so the census runs
over pairs (pi, sigma) of set partitions of the positions, in blocks
memoized per (lengths, |pi|, |sigma|), and each vertex count r merges the
blocks it admits, weighted by the number of labelled route pairs a pair
stands for.
A value is reduced in integers.  A call reads the blocks it needs, weighs
each distinct monomial in them once, scales the weights to one common
denominator and sums each block to one integer, _block_sums.  A mean's term
(r, b) multiplies these sums by the integer multiplicities of the pairs, so
each term makes one Fraction; a covariance sums them with the falling
factorials (p)_b (n)_s, with no transposition for p > n.
The seed-class censuses trim labelled walks, whose label order matters, so
they keep the labels.  Their buckets depend on the walk's shape and colours,
not on which label of a colour is which, so they visit one route pair per
class of colour-preserving relabellings, weighted by the class size
b! (r-b)!.  Both kinds of census draw their strings from one generator,
_label_strings(length, b, w): strings whose w labels above b first appear in
increasing order, labels 1..b being free.  At b = 0 these are the set
partitions; at the black count b they are the class representatives of the
columns k.
A closed walk's exponents, seed class and double bucket do not depend on
where each walk starts, so every census visits one row (pi, or i) per orbit
of rotating each walk's positions, _row_orbits, weighted by the orbit size,
against every column.  Rotating both strings of one walk and renaming
labels back in order maps the visited pairs onto themselves and, for a fixed
row, the columns one to one, so every row of an orbit has the same column
sum.  The labels two walks share never change while the double walk trims,
so the double census trims each side once per (walk, shared labels) and
joins the two sides' results.  Partial sums are exact integers and
rationals, so any reduction order gives identical results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm, perm
from typing import Iterable, Sequence

from .graphs import (
    DOUBLE_OTHER_SEED,
    Route,
    SeedClass,
    balanced_leaf_labels,
    black_labels,
    classify_leaf_free_double,
    classify_leaf_free_route,
    compact_labels,
    leaf_scan,
    trim_double,  # not called here; perfbench/tracing.py wraps it by this name
    trim_holding,
    trim_route,
    zip_routes,
)
from .weights import (
    AffineAlpha,
    MomentSequence,
    weight_of_exponents,
)

# the total walk length, l or l1+l2, of the oracle and of census_double
WALK_LENGTH_LIMIT = 4
CENSUS_VERTEX_LIMIT = 5


class CostGuardError(ValueError):
    """Raised when an enumeration would exceed its default cost guard."""


def _check_guard(value: int, limit: int, allow_large: bool, what: str) -> None:
    applied = limit + allow_large
    if value > applied:
        hint = (
            " with --allow-large"
            if allow_large
            else "; pass --allow-large (allow_large=True in Python) to go one step further"
        )
        raise CostGuardError(f"{what}={value} exceeds the cost guard {applied}{hint}")


# ---------------------------------------------------------------------------
# label strings


@lru_cache(maxsize=None)
def _label_strings(length: int, b: int, w: int) -> tuple[Route, ...]:
    """Label strings of `length` positions with labels 1..b free and w new ones.

    The strings over [b+w], in lexicographic order, in which every label of
    b+1..b+w appears, first appearing in increasing order: one string per
    orbit under permutations of those w labels.  With b = 0 these are the set
    partitions of the positions into w blocks as restricted growth strings,
    read from one grow of them all.  With b > 0 a string stops growing once
    it can no longer bring in all w labels.
    """
    last = b + w
    if not 0 <= w <= length:
        return ()
    if b == 0:
        return _set_partitions(length)[w]
    strings = [((), b)]  # (string, its top label), in lexicographic order
    for left in reversed(range(length)):  # positions after the one grown
        # any label up to the next new one, if one is left to bring in; only
        # the next new one when every position left must bring one in
        strings = [
            (string + (v,), v if v > top else top)
            for string, top in strings
            for v in (
                range(1, min(top, last - 1) + 2) if last - top <= left else (top + 1,)
            )
        ]
    return tuple(string for string, _ in strings)


@lru_cache(maxsize=None)
def _set_partitions(length: int) -> tuple[tuple[Route, ...], ...]:
    """The restricted growth strings of `length` positions by block count.

    Entry w holds those with w blocks, in lexicographic order: the strings
    are grown in that order, each position taking any label up to one above
    the string's top label.
    """
    strings = [((), 0)]  # (string, its top label), in lexicographic order
    for _ in range(length):
        strings = [
            (string + (v,), v if v > top else top)
            for string, top in strings
            for v in range(1, top + 2)
        ]
    by_blocks: list[list[Route]] = [[] for _ in range(length + 1)]
    for string, top in strings:
        by_blocks[top].append(string)
    return tuple(map(tuple, by_blocks))


@lru_cache(maxsize=None)
def _row_orbits(lengths: tuple[int, ...], b: int) -> tuple[tuple[Route, int], ...]:
    """The rows _label_strings(sum(lengths), 0, b), one per rotation orbit.

    A row is cut into one segment per walk.  A step rotates one segment by
    one position and renames the labels in order of first appearance, so
    the orbits are those of the set partitions under rotating each walk's
    positions.  Each orbit is given as (its first row, its size).
    """
    rows = _label_strings(sum(lengths), 0, b)
    # a lone row (b = 1 or b = sum(lengths)) is its own orbit; stepping it
    # would cost more than the small censuses that ask for it
    if len(rows) == 1:
        return ((rows[0], 1),)
    segments = tuple(zip(accumulate(lengths, initial=0), accumulate(lengths)))
    seen: set[Route] = set()
    orbits: list[tuple[Route, int]] = []
    for row in rows:
        if row in seen:
            continue
        seen.add(row)
        orbit = [row]
        for string in orbit:  # orbits are disjoint: an unseen step is new here
            for start, end in segments:
                step = _first_appearance(
                    string[:start] + string[start + 1 : end]
                    + string[start : start + 1] + string[end:]
                )
                if step not in seen:
                    seen.add(step)
                    orbit.append(step)
        orbits.append((row, len(orbit)))
    return tuple(orbits)


def _first_appearance(string: Route) -> Route:
    """`string` with its labels renamed 1, 2, ... in order of first appearance."""
    names: dict[int, int] = {}
    return tuple([names.setdefault(v, len(names) + 1) for v in string])


# ---------------------------------------------------------------------------
# the monomial census and its weighted inner sums


def _validate_pair_params(l: int, r: int, b: int) -> None:
    if l < 1 or r < 1 or b < 1:
        raise ValueError(f"l, r, b must be positive, got {(l, r, b)}")
    if b > min(l, r):
        raise ValueError(f"b={b} exceeds min(l, r)={min(l, r)}")
    if r > 2 * l:
        raise ValueError(f"r={r} exceeds 2l={2 * l}")


def _walk_counts(i: Route, k: Route) -> dict[tuple[int, int], int]:
    """Reversed-adjacency counts of the zipped walk of (i, k)."""
    l = len(i)
    counts: dict[tuple[int, int], int] = {}
    for t in range(l):
        kt = k[t]
        e = (i[t], kt)
        counts[e] = counts.get(e, 0) + 1
        e = (i[(t + 1) % l], kt)
        counts[e] = counts.get(e, 0) + 1
    return counts


def _monomial(exponents: Iterable[int]) -> tuple[int, ...]:
    """The moment monomial of exponents with no 1 among them: m_2 = 1 left out."""
    return tuple(sorted([e for e in exponents if e != 2]))


@lru_cache(maxsize=None)
def _census_block(lengths: tuple[int, ...], b: int, s: int) -> Counter:
    """Partition pairs (pi, sigma) with |pi| = b and |sigma| = s, by monomial.

    A walk adds the monomial of its exponents.  A double walk adds that of its
    joint exponents and subtracts that of its two walks' exponents together.
    A term whose exponents hold a 1 is m_1 = 0 and adds nothing; a 1 among the
    joint exponents is an edge one walk crosses once, so it drops both terms.
    One pi per rotation orbit is visited against every sigma, counted once
    for each pi of its orbit.
    """
    rows = _row_orbits(lengths, b)
    columns = _label_strings(sum(lengths), 0, s)
    block: Counter = Counter()
    if len(lengths) == 1:
        for k in columns:
            for i, size in rows:
                exponents = _walk_counts(i, k).values()
                if 1 not in exponents:
                    block[_monomial(exponents)] += size
    else:
        l1 = lengths[0]
        for km in columns:
            k, m = km[:l1], km[l1:]
            for ij, size in rows:
                first = _walk_counts(ij[:l1], k)
                second = _walk_counts(ij[l1:], m)
                joint = dict(first)
                for edge, c in second.items():
                    joint[edge] = joint.get(edge, 0) + c
                if 1 in joint.values():
                    continue
                block[_monomial(joint.values())] += size
                apart = [*first.values(), *second.values()]
                if 1 not in apart:
                    block[_monomial(apart)] -= size
    return block


def _pair_multiplicity(r: int, b: int, s: int) -> int:
    """Labelled route pairs on r vertices that one pair (pi, sigma) stands for.

    With |pi| = b and |sigma| = s: b! (s)_{r-b} (b)_{s-r+b}.  i labels pi's
    blocks with [b] in any order, and k gives the r-b labels of [r]\\[b] to
    distinct blocks of sigma and distinct labels of [b] to the rest.
    """
    return factorial(b) * perm(s, r - b) * perm(b, s - r + b)


def signature_census(
    lengths: tuple[int, ...], r: int, b: int
) -> dict[tuple[int, ...], int]:
    """The canonical route pairs of (lengths, r, b) as a moment polynomial.

    `lengths` is (l,) for one walk or (l1, l2) for a double walk, whose route
    pairs of length l1+l2 are split after l1.  The result is {monomial:
    count}, a monomial being the sorted tuple of its moment orders, () being
    1: a walk stands for the monomial of its reversed-adjacency exponents, a
    double walk for that of its joint exponents minus that of its two walks'
    exponents together.  Factors m_2 = 1 are left out, exponents with an
    m_1 = 0 stand for nothing, and monomials that cancel are dropped.

    The exponents depend only on which row positions (of i) and which column
    positions (of k) share a label, so the census runs over pairs (pi, sigma)
    of set partitions of the positions.  A pair with |pi| = b and |sigma| = s
    stands for _pair_multiplicity(r, b, s) route pairs.  The pairs are
    counted once per (lengths, b, s), in memoized blocks that every r with
    r - b <= s <= r merges with its own multiplicity.  Rotating a walk's
    positions keeps its exponents, so a block visits one pi per rotation
    orbit (at l = 5, 12 of the 52 partitions) against every sigma and counts
    it once per pi of the orbit.
    """
    if len(lengths) not in (1, 2):
        raise ValueError(f"need one or two walk lengths, got {lengths}")
    total = sum(lengths)
    _validate_pair_params(total, r, b)
    census: Counter = Counter()
    for s in range(max(r - b, 1), min(r, total) + 1):
        multiplicity = _pair_multiplicity(r, b, s)
        for monomial, count in _census_block(lengths, b, s).items():
            census[monomial] += multiplicity * count
    return {monomial: count for monomial, count in census.items() if count}


def _block_sums(
    lengths: tuple[int, ...],
    moments: MomentSequence,
    bs: Sequence[int],
    ss: Sequence[int],
) -> tuple[int, dict[tuple[int, int], int]]:
    """(den, {(b, s): W(b, s)}): the blocks of bs x ss weighed in integers.

    W(b, s) is den times the sum of count * weight over _census_block(lengths,
    b, s).  Each distinct monomial of these blocks is weighed once, and den
    is the least common denominator of the weights.
    """
    order = 2 * sum(lengths)
    if moments.order < order:
        raise ValueError(f"moment sequence must cover order {order}")
    blocks = {(b, s): _census_block(lengths, b, s) for b in bs for s in ss}
    weights = {
        monomial: weight_of_exponents(monomial, moments)
        for monomial in set().union(*blocks.values())
    }
    den = lcm(*(w.denominator for w in weights.values()))
    scaled = {m: w.numerator * (den // w.denominator) for m, w in weights.items()}
    sums = {
        key: sum([count * scaled[m] for m, count in block.items()])
        for key, block in blocks.items()
    }
    return den, sums


def _row_sum(sums: dict[tuple[int, int], int], total: int, r: int, b: int) -> int:
    """The inner sum of (r, b) times den: sum over s of its pairs' W(b, s)."""
    return sum(
        _pair_multiplicity(r, b, s) * sums[b, s]
        for s in range(max(r - b, 1), min(r, total) + 1)
    )


def _inner_sum(
    lengths: tuple[int, ...], r: int, b: int, moments: MomentSequence
) -> Fraction:
    """The moment polynomial of (lengths, r, b) evaluated at the given moments."""
    total = sum(lengths)
    _validate_pair_params(total, r, b)
    den, sums = _block_sums(lengths, moments, (b,), range(1, total + 1))
    return Fraction(_row_sum(sums, total, r, b), den)


def inner_weight_sum(l: int, r: int, b: int, moments: MomentSequence) -> Fraction:
    """Sum of walk weights over all canonical route pairs for (l, r, b)."""
    return _inner_sum((l,), r, b, moments)


def inner_weight_sum_affine(l: int, r: int, b: int) -> AffineAlpha:
    """Inner weight sum as c0 + c1*m4; ValueError if another monomial carries weight."""
    lengths = (l,)
    polynomial = signature_census(lengths, r, b)
    others = sorted(set(polynomial) - {(), (4,)})
    if others:
        named = ", ".join("*".join(f"m{e}" for e in monomial) for monomial in others)
        raise ValueError(
            f"inner sum at lengths={lengths}, r={r}, b={b} is not affine in the "
            f"fourth moment: it carries {named}"
        )
    return AffineAlpha(Fraction(polynomial.get((), 0)), Fraction(polynomial.get((4,), 0)))


def covariance_inner_sum(
    l1: int, l2: int, b: int, moments: MomentSequence
) -> Fraction:
    """Inner covariance sum at exactly r = l1 + l2 vertices (Theorem 2's core)."""
    return _inner_sum((l1, l2), l1 + l2, b, moments)


# ---------------------------------------------------------------------------
# exact trace moments and power-trace covariances


@dataclass(frozen=True)
class MomentTerm:
    r: int
    b: int
    multiplicity: Fraction  # C(p,b) * C(n-b, r-b)
    inner_sum: Fraction


@dataclass(frozen=True)
class ExactMomentResult:
    value: Fraction
    terms: tuple[MomentTerm, ...]


def exact_trace_moment(
    l: int, p: int, n: int, moments: MomentSequence, *, allow_large: bool = False
) -> ExactMomentResult:
    """Exact E[tr(S^l)] for a p x n data matrix with the given entry moments.

    The sum of C(rows, b) C(cols-b, r-b) inner(r, b) / n^l over the terms
    (r, b), b counting distinct indexes of the smaller dimension: for p > n,
    tr(S_{p,n}^l) = (p/n)^l tr(S_{n,p}^l), and the 1/n^l scale absorbs the
    ratio exactly.
    """
    if l < 1 or p < 1 or n < 1:
        raise ValueError(f"l, p, n must be positive, got {(l, p, n)}")
    _check_guard(l, WALK_LENGTH_LIMIT, allow_large, "l")
    rows, cols = min(p, n), max(p, n)
    den, sums = _block_sums(
        (l,), moments, range(1, min(l, rows) + 1), range(1, min(l, cols) + 1)
    )
    terms: list[MomentTerm] = []
    total = 0
    for r in range(1, min(2 * l, cols) + 1):
        # k has only l slots to cover the r - b new labels
        for b in range(max(r - l, 1), min(l, r, rows) + 1):
            inner = _row_sum(sums, l, r, b)
            if inner:
                multiplicity = comb(rows, b) * comb(cols - b, r - b)
                terms.append(
                    MomentTerm(r, b, Fraction(multiplicity), Fraction(inner, den))
                )
                total += multiplicity * inner
    return ExactMomentResult(Fraction(total, den * n**l), tuple(terms))


def exact_trace_covariance(
    l1: int,
    l2: int,
    p: int,
    n: int,
    moments: MomentSequence,
    *,
    allow_large: bool = False,
) -> Fraction:
    """Exact Cov[tr(S^l1), tr(S^l2)] from the double-walk monomial census.

    A pair (pi, sigma) with |pi| = b and |sigma| = s stands for (p)_b (n)_s
    labelled double walks, so n^(l1+l2) times the value is the sum of
    (p)_b (n)_s W(b, s) over the blocks, for p > n as for p <= n.
    """
    if min(l1, l2, p, n) < 1:
        raise ValueError(f"l1, l2, p, n must be positive, got {(l1, l2, p, n)}")
    total = l1 + l2
    _check_guard(total, WALK_LENGTH_LIMIT, allow_large, "l1+l2")
    den, sums = _block_sums(
        (l1, l2), moments, range(1, min(total, p) + 1), range(1, min(total, n) + 1)
    )
    value = sum(perm(p, b) * perm(n, s) * w for (b, s), w in sums.items())
    return Fraction(value, den * n**total)


# ---------------------------------------------------------------------------
# censuses


def census_by_seed(
    l: int, b: int, *, allow_large: bool = False
) -> dict[SeedClass, int]:
    """Seed-class census of walks on exactly l vertices with black set [b].

    Counts the route pairs (i, k) with i covering [b] exactly and k in [l]^l
    covering the white labels [l]\\[b], by the class of their trimmed walk.
    Permuting the black labels among themselves and the white labels among
    themselves keeps the class: every black label is below every white one,
    so the lowest-label-first trim only reorders leaves of one colour.  Each
    walk visits every label, so the b! (l-b)! relabellings of a pair are
    distinct; one pair per class is counted that many times: i from
    _label_strings(l, 0, b), its labels in order, and k from
    _label_strings(l, b, l - b), its white labels in order.  Rotating i and
    k together keeps the class too, and maps the pairs of one i onto those
    of its rotation, relabelled, one to one; so only one i per rotation
    orbit (_row_orbits) is trimmed against every k, counted for the whole
    orbit.
    """
    if not 1 <= b <= l:
        raise ValueError(f"need 1 <= b <= l, got b={b}, l={l}")
    _check_guard(l, CENSUS_VERTEX_LIMIT, allow_large, "l")
    ks = _label_strings(l, b, l - b)
    class_size = factorial(b) * factorial(l - b)
    buckets: dict[SeedClass, int] = {}
    for i, size in _row_orbits((l,), b):
        weight = class_size * size
        for k in ks:
            seed_class = classify_leaf_free_route(trim_route(zip_routes(i, k)))
            buckets[seed_class] = buckets.get(seed_class, 0) + weight
    return buckets


DoubleBucket = tuple[SeedClass, tuple[int, int, int, int]]


def _label_mask(route: Route) -> int:
    """The labels of a route as a bitmask: bit v is set when v is visited."""
    mask = 0
    for v in route:
        mask |= 1 << v
    return mask


class _SideTable:
    """One side of a double walk: its row zipped with each k, trimmed on demand.

    The ks are the distinct parts, before or after the split, of the column
    routes that census_double visits.  By the lemma behind trim_double, a
    walk trims on its own once the labels it shares with the other walk are
    held, so its result depends only on its row and the shared-label mask,
    and not even on the mask when the walk has no balanced leaf.
    `result(row, key)` computes the result for
    `key = shared & keys[row]`, memoizes it in `memo[row]` and returns its
    index into `results`.  A result is (ring seed, black sprouts, white
    sprouts), where the ring seed is None when the seed repeats a label: no
    double ring has such a walk, so only the sprout counts matter then.
    """

    def __init__(self, i: Route, ks: Sequence[Route], blacks: int):
        self.routes = [zip_routes(i, k) for k in ks]
        self.masks = [_label_mask(route) for route in self.routes]
        self.scans: list[tuple[dict[int, int], tuple[int, ...]] | None] = []
        self.keys: list[int] = []
        self.memo: list[dict[int, int]] = []
        self.results: list[tuple[Route | None, int, int]] = []
        self._indexes: dict[tuple[Route | None, int, int], int] = {}
        self._blacks = blacks
        for route, mask in zip(self.routes, self.masks):
            scan = leaf_scan(route)
            if scan[1]:
                self.scans.append(scan)
                self.keys.append(mask)
                self.memo.append({})
            else:
                self.scans.append(None)
                self.keys.append(0)
                self.memo.append({0: self._index(route, mask, 0)})

    def _index(self, seed: Route, seed_mask: int, sprouts: int) -> int:
        result = (
            seed if len(seed) == seed_mask.bit_count() else None,
            (sprouts & self._blacks).bit_count(),
            (sprouts & ~self._blacks).bit_count(),
        )
        index = self._indexes.setdefault(result, len(self.results))
        if index == len(self.results):
            self.results.append(result)
        return index

    def result(self, row: int, key: int) -> int:
        route = self.routes[row]
        held = {v for v in route if key >> v & 1}
        seed = trim_holding(route, held, self.scans[row])
        seed_mask = _label_mask(seed)
        index = self.memo[row][key] = self._index(
            seed, seed_mask, self.masks[row] & ~seed_mask
        )
        return index


def census_double(
    l1: int, l2: int, b: int, *, allow_large: bool = False
) -> dict[DoubleBucket, int]:
    """Census of double walks on exactly l1+l2 vertices with black set [b].

    Buckets carry the double seed class together with the sprout split
    (b1', b2', w1', w2'): black/white vertices of each component outside the
    component's share of the seed.  The route quadruples (i, k, j, m) are
    the route pairs (ij, km) of census_by_seed at length l1+l2, split after
    l1.  As there, a colour-preserving relabelling keeps the bucket, so one
    quadruple per class is counted b! (l1+l2-b)! times: ij from
    _label_strings(l1+l2, 0, b) and km from _label_strings(l1+l2, b, l1+l2-b).
    Rotating (i, k) or (j, m) keeps the bucket, so only one ij per orbit of
    rotating each walk (_row_orbits) is visited, counted for the whole
    orbit.  Running one walk backwards does not keep it (two 2-walks round
    one 4-cycle form a double 1-D ring, or a 2-D ring when one is reversed),
    so reversal is not used.

    Trimming never changes the labels the two walks share, so each walk
    trims on its own with them held.  Per ij, each side keeps a table of
    its walks, one per distinct k (or m), and trims a walk once per shared
    label set.  The quadruples are counted by the pair of side results, and
    the ring seeds of each such pair are classified once.
    """
    if l1 < 1 or l2 < 1:
        raise ValueError(f"l1 and l2 must be positive, got {(l1, l2)}")
    if not 1 <= b <= l1 + l2:
        raise ValueError(f"need 1 <= b <= l1+l2, got b={b}")
    _check_guard(l1 + l2, WALK_LENGTH_LIMIT, allow_large, "l1+l2")
    r = l1 + l2
    firsts: dict[Route, int] = {}
    seconds: dict[Route, int] = {}
    rows1: list[int] = []
    rows2: list[int] = []
    for km in _label_strings(r, b, r - b):
        rows1.append(firsts.setdefault(km[:l1], len(firsts)))
        rows2.append(seconds.setdefault(km[l1:], len(seconds)))
    ks, ms = tuple(firsts), tuple(seconds)
    blacks = _label_mask(tuple(range(1, b + 1)))
    class_size = factorial(b) * factorial(r - b)
    buckets: dict[DoubleBucket, int] = {}
    for ij, size in _row_orbits((l1, l2), b):
        side1 = _SideTable(ij[:l1], ks, blacks)
        side2 = _SideTable(ij[l1:], ms, blacks)
        masks1, keys1, memo1 = side1.masks, side1.keys, side1.memo
        masks2, keys2, memo2 = side2.masks, side2.keys, side2.memo
        joined: Counter = Counter()
        for row1, row2 in zip(rows1, rows2):
            shared = masks1[row1] & masks2[row2]
            key1, key2 = shared & keys1[row1], shared & keys2[row2]
            result1 = memo1[row1].get(key1)
            if result1 is None:
                result1 = side1.result(row1, key1)
            result2 = memo2[row2].get(key2)
            if result2 is None:
                result2 = side2.result(row2, key2)
            joined[result1, result2] += 1
        for (result1, result2), count in joined.items():
            ring1, black1, white1 = side1.results[result1]
            ring2, black2, white2 = side2.results[result2]
            if ring1 is None or ring2 is None:
                seed_class = DOUBLE_OTHER_SEED
            else:
                seed_class = classify_leaf_free_double(ring1, ring2)
            key = (seed_class, (black1, black2, white1, white2))
            buckets[key] = buckets.get(key, 0) + class_size * size * count
    return buckets


# ---------------------------------------------------------------------------
# sprouting census (sprouts re-inserted into the seed, exact final verification)


def census_sprouting(
    seed_route: Sequence[int],
    black_sprouts: Iterable[int],
    white_sprouts: Iterable[int],
) -> int:
    """Count walks trimming to the given seed with the prescribed sprout colors.

    Trimming keeps every seed label and removes each sprout L with a
    neighbour u in one of graphs._drop_leaf's three shapes, so every such walk
    is the seed with its sprouts put back, one at a time, by the reversed
    shapes.  The grown walks with the right colors that trim exactly to the
    seed are counted.  Seed vertices are relabelled above the sprouts so that
    the known order-sensitivity of two-vertex seeds cannot bite.
    """
    seed_route = tuple(seed_route)
    blacks = frozenset(black_sprouts)
    whites = frozenset(white_sprouts)
    if blacks & whites:
        raise ValueError("black and white sprout sets overlap")
    if (blacks | whites) & set(seed_route):
        raise ValueError("sprout labels must be disjoint from the seed labels")
    if balanced_leaf_labels(compact_labels(seed_route)):
        raise ValueError(f"seed route {seed_route} still has balanced leaves")
    n_sprouts = len(blacks) + len(whites)
    if n_sprouts == 0:
        return 1

    # sprouts become 1..n_sprouts, seed labels sit above them in order
    sprout_map = {v: idx for idx, v in enumerate(sorted(blacks | whites), start=1)}
    seed_map = {v: n_sprouts + idx for idx, v in enumerate(sorted(set(seed_route)), start=1)}
    i0 = tuple(seed_map[v] for v in seed_route)
    black_set = frozenset(sprout_map[v] for v in blacks)
    white_set = frozenset(sprout_map[v] for v in whites)

    walks = {i0}
    for _ in range(n_sprouts):
        grown = set()
        for w in walks:
            for leaf in range(1, n_sprouts + 1):
                if leaf not in w:
                    grown.update(w[:t] + (leaf, w[t - 1]) + w[t:] for t in range(len(w) + 1))
                    grown.add(w + (w[0], leaf))
        walks = grown
    count = 0
    for w in walks:
        on_black = black_labels(w)
        if black_set <= on_black and not on_black & white_set and trim_route(w) == i0:
            count += 1
    return count


def clear_caches() -> None:
    """Drop memoized enumerations (mostly useful in long-lived sessions)."""
    _census_block.cache_clear()
    _label_strings.cache_clear()
    _set_partitions.cache_clear()
    _row_orbits.cache_clear()
