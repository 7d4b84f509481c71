"""Exact oracle: enumeration behind every closed form, independent of it.

A walk's weight depends only on the multiset of its reversed-adjacency
exponents, so means and covariances alike count route pairs by exponent
signature.  The signature depends only on which row positions and which
column positions share a label, so the census runs over pairs (pi, sigma) of
set partitions of the positions.  Each pair is visited once, in a block
memoized per (lengths, |pi|, |sigma|), and each vertex count r merges the
blocks it admits, weighted by the number of labelled route pairs a pair
stands for.  Since m_0 = 1, m_1 = 0 and m_2 = 1, a signature is a
moment monomial, so every inner sum is an exact polynomial in the moments:
evaluated with one weighing per monomial, or read off as an affine function
of the fourth moment, with a check that no other monomial carries weight.
The seed-class censuses trim labelled walks, whose label order matters, so
they keep the labels and instead visit one route pair per rotation orbit,
weighted by the orbit size.  The labels two walks share never change while
the double walk trims, so the double census trims each side once per
(walk, shared labels) and joins the two sides' results.  Partial sums are
exact rationals, so any reduction order gives identical results.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from typing import Callable, Iterable, Iterator, Sequence

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

MEAN_POWER_LIMIT = 4
COVARIANCE_POWER_LIMIT = 4
CENSUS_VERTEX_LIMIT = 5


class CostGuardError(ValueError):
    """Raised when an enumeration would exceed its default cost guard."""


def _check_guard(value: int, limit: int, allow_large: bool, what: str) -> None:
    if value <= limit:
        return
    if allow_large and value <= limit + 1:
        return
    hint = (
        ""
        if allow_large
        else "; pass --allow-large (allow_large=True in Python) to go one step further"
    )
    raise CostGuardError(f"{what}={value} exceeds the cost guard {limit}{hint}")


# ---------------------------------------------------------------------------
# canonical route pairs


@lru_cache(maxsize=None)
def _covering_tuples(length: int, r: int, b: int) -> tuple[Route, ...]:
    """All tuples in [r]^length containing every label in {b+1..r}.

    With b = 0 these are the surjections onto [r].
    """
    needed = set(range(b + 1, r + 1))
    if len(needed) > length:
        return ()
    return tuple(
        t
        for t in itertools.product(range(1, r + 1), repeat=length)
        if needed.issubset(t)
    )


def _validate_pair_params(l: int, r: int, b: int) -> None:
    if l < 1 or r < 1 or b < 1:
        raise ValueError(f"l, r, b must be positive, got {(l, r, b)}")
    if b > min(l, r):
        raise ValueError(f"b={b} exceeds min(l, r)={min(l, r)}")
    if r > 2 * l:
        raise ValueError(f"r={r} exceeds 2l={2 * l}")


def iter_route_pairs(l: int, r: int, b: int) -> Iterator[tuple[Route, Route]]:
    """Pairs (i, k): i covers [b] exactly, k lives in [r] and covers [r]\\[b]."""
    _validate_pair_params(l, r, b)
    ks = _covering_tuples(l, r, b)
    for i in _covering_tuples(l, b, 0):
        for k in ks:
            yield i, k


@lru_cache(maxsize=None)
def _rotation_orbits(lengths: tuple[int, ...], b: int) -> tuple[tuple[Route, int], ...]:
    """Surjections onto [b], one per orbit of rotating each segment, with orbit size.

    A surjection of length sum(lengths) is cut into consecutive segments of the
    given lengths; the group rotating every segment independently acts on the
    surjections, since rotation keeps the value set.
    """
    seen: set[Route] = set()
    orbits: list[tuple[Route, int]] = []
    for t in _covering_tuples(sum(lengths), b, 0):
        if t in seen:
            continue
        rotations = []
        start = 0
        for length in lengths:
            segment = t[start : start + length]
            start += length
            rotations.append([segment[s:] + segment[:s] for s in range(length)])
        orbit = {sum(parts, ()) for parts in itertools.product(*rotations)}
        seen |= orbit
        orbits.append((t, len(orbit)))
    return tuple(orbits)


# ---------------------------------------------------------------------------
# the signature census and its weighted inner sums


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


@lru_cache(maxsize=None)
def _set_partitions(length: int) -> tuple[tuple[Route, ...], ...]:
    """Set partitions of `length` positions as restricted growth strings.

    Each string labels its blocks 1, 2, ... in order of first occurrence;
    entry s holds the strings with s blocks.
    """
    by_blocks: list[list[Route]] = [[] for _ in range(length + 1)]

    def grow(prefix: list[int], blocks: int) -> None:
        if len(prefix) == length:
            by_blocks[blocks].append(tuple(prefix))
            return
        for v in range(1, blocks + 2):
            prefix.append(v)
            grow(prefix, max(blocks, v))
            prefix.pop()

    grow([], 0)
    return tuple(tuple(strings) for strings in by_blocks)


@lru_cache(maxsize=None)
def _census_block(lengths: tuple[int, ...], b: int, s: int) -> Counter:
    """Partition pairs (pi, sigma) with |pi| = b and |sigma| = s, by signature."""
    partitions = _set_partitions(sum(lengths))
    rows, columns = partitions[b], partitions[s]
    block: Counter = Counter()
    if len(lengths) == 1:
        for k in columns:
            for i in rows:
                block[tuple(sorted(_walk_counts(i, k).values()))] += 1
    else:
        l1 = lengths[0]
        for km in columns:
            k, m = km[:l1], km[l1:]
            for ij in rows:
                first = _walk_counts(ij[:l1], k)
                second = _walk_counts(ij[l1:], m)
                joint = dict(first)
                for edge, c in second.items():
                    joint[edge] = joint.get(edge, 0) + c
                block[(
                    tuple(sorted(joint.values())),
                    tuple(sorted(first.values())),
                    tuple(sorted(second.values())),
                )] += 1
    return block


def signature_census(lengths: tuple[int, ...], r: int, b: int) -> Counter:
    """Count canonical route pairs by the exponent signature of their walks.

    `lengths` is (l,) for one walk or (l1, l2) for a double walk, whose route
    pairs of length l1+l2 are split after l1.  A walk's key is its sorted
    reversed-adjacency exponents; a double walk's key is (joint, first,
    second), the sorted exponents of the pair and of each walk.

    The key depends only on which row positions (of i) and which column
    positions (of k) share a label, so the census runs over pairs (pi, sigma)
    of set partitions of the positions.  With |pi| = b and |sigma| = s, a
    pair stands for b! (s)_{r-b} (b)_{s-r+b} route pairs: i labels pi's
    blocks with [b] in any order, and k gives the r-b labels of [r]\\[b] to
    distinct blocks of sigma and distinct labels of [b] to the rest.  The
    pairs are counted once per (lengths, b, s), in memoized blocks that every
    r with r - b <= s <= r merges with its own multiplicity.
    """
    if len(lengths) not in (1, 2):
        raise ValueError(f"need one or two walk lengths, got {lengths}")
    total = sum(lengths)
    _validate_pair_params(total, r, b)
    census: Counter = Counter()
    for s in range(max(r - b, 1), min(r, total) + 1):
        multiplicity = factorial(b) * perm(s, r - b) * perm(b, s - r + b)
        for signature, count in _census_block(lengths, b, s).items():
            census[signature] += multiplicity * count
    return census


def _moment_polynomial(
    lengths: tuple[int, ...], r: int, b: int
) -> dict[tuple[int, ...], int]:
    """The census of (lengths, r, b) as an exact polynomial {monomial: count}.

    A monomial is the sorted tuple of its moment orders, () being 1.  A walk
    stands for the monomial of its exponents, a double walk for that of its
    joint exponents minus that of its two walks' exponents together.  Factors
    m_2 = 1 are left out, and exponents with an m_1 = 0 stand for nothing.
    """
    polynomial: Counter = Counter()
    for signature, count in signature_census(lengths, r, b).items():
        if len(lengths) == 1:
            terms = ((signature, count),)
        else:
            joint, first, second = signature
            terms = ((joint, count), (tuple(sorted(first + second)), -count))
        for exponents, c in terms:
            if 1 not in exponents:
                polynomial[tuple(e for e in exponents if e != 2)] += c
    return {monomial: c for monomial, c in polynomial.items() if c}


def _inner_sum(
    lengths: tuple[int, ...], r: int, b: int, moments: MomentSequence
) -> Fraction:
    """The moment polynomial of (lengths, r, b) evaluated at the given moments."""
    order = 2 * sum(lengths)
    if moments.order < order:
        raise ValueError(f"moment sequence must cover order {order}")
    total = Fraction(0)
    for monomial, count in _moment_polynomial(lengths, r, b).items():
        total += count * weight_of_exponents(monomial, moments)
    return total


def _affine_part(lengths: tuple[int, ...], r: int, b: int) -> AffineAlpha:
    """The moment polynomial of (lengths, r, b) as c0 + c1*m4, checked to be one."""
    polynomial = _moment_polynomial(lengths, r, b)
    others = sorted(set(polynomial) - {(), (4,)})
    if others:
        named = ", ".join("*".join(f"m{e}" for e in monomial) for monomial in others)
        raise ValueError(
            f"inner sum at lengths={lengths}, r={r}, b={b} is not affine in the "
            f"fourth moment: it carries {named}"
        )
    c0, c1 = polynomial.get((), 0), polynomial.get((4,), 0)
    return AffineAlpha(Fraction(c0), Fraction(c1))


def inner_weight_sum(l: int, r: int, b: int, moments: MomentSequence) -> Fraction:
    """Sum of walk weights over all canonical route pairs for (l, r, b)."""
    return _inner_sum((l,), r, b, moments)


def inner_weight_sum_affine(l: int, r: int, b: int) -> AffineAlpha:
    """Inner weight sum as c0 + c1*m4; ValueError if another monomial carries weight."""
    return _affine_part((l,), r, b)


def covariance_inner_sum(
    l1: int, l2: int, b: int, moments: MomentSequence
) -> Fraction:
    """Inner covariance sum at exactly r = l1 + l2 vertices (Theorem 2's core)."""
    return _inner_sum((l1, l2), l1 + l2, b, moments)


def covariance_inner_sum_affine(l1: int, l2: int, b: int) -> AffineAlpha:
    """covariance_inner_sum as c0 + c1*m4, checked like inner_weight_sum_affine."""
    return _affine_part((l1, l2), l1 + l2, b)


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


def _exact_sum(
    total: int, p: int, n: int, inner: Callable[[int, int], Fraction]
) -> ExactMomentResult:
    """Sum of C(rows,b) C(cols-b,r-b) inner(r, b) / n^total over (r, b).

    The route decomposition needs the smaller dimension on the row side; for
    p > n the value is reduced through tr(S_{p,n}^l) = (p/n)^l tr(S_{n,p}^l),
    which folds into the same sum with the roles of p and n swapped in the
    binomials (the 1/n^total scale absorbs the ratio exactly).  The reported
    b then counts distinct indexes of the smaller dimension.
    """
    rows, cols = min(p, n), max(p, n)
    scale = Fraction(1, n**total)
    terms: list[MomentTerm] = []
    value = Fraction(0)
    for r in range(1, min(2 * total, cols) + 1):
        for b in range(1, min(total, r, rows) + 1):
            if r - b > total:  # k has only `total` slots to cover the new labels
                continue
            inner_sum = inner(r, b)
            if inner_sum == 0:
                continue
            multiplicity = Fraction(comb(rows, b) * comb(cols - b, r - b))
            terms.append(MomentTerm(r, b, multiplicity, inner_sum))
            value += multiplicity * inner_sum * scale
    return ExactMomentResult(value, tuple(terms))


def exact_trace_moment(
    l: int, p: int, n: int, moments: MomentSequence, *, allow_large: bool = False
) -> ExactMomentResult:
    """Exact E[tr(S^l)] for a p x n data matrix with the given entry moments."""
    if l < 1 or p < 1 or n < 1:
        raise ValueError(f"l, p, n must be positive, got {(l, p, n)}")
    _check_guard(l, MEAN_POWER_LIMIT, allow_large, "l")
    return _exact_sum(l, p, n, lambda r, b: inner_weight_sum(l, r, b, moments))


def exact_trace_covariance(
    l1: int,
    l2: int,
    p: int,
    n: int,
    moments: MomentSequence,
    *,
    allow_large: bool = False,
) -> Fraction:
    """Exact Cov[tr(S^l1), tr(S^l2)] from the double-walk signature census."""
    if min(l1, l2, p, n) < 1:
        raise ValueError(f"l1, l2, p, n must be positive, got {(l1, l2, p, n)}")
    _check_guard(l1 + l2, COVARIANCE_POWER_LIMIT, allow_large, "l1+l2")
    return _exact_sum(
        l1 + l2, p, n, lambda r, b: _inner_sum((l1, l2), r, b, moments)
    ).value


# ---------------------------------------------------------------------------
# censuses


def census_by_seed(
    l: int, b: int, *, allow_large: bool = False
) -> dict[SeedClass, int]:
    """Seed-class census of walks on exactly l vertices with black set [b].

    Counts the route pairs of iter_route_pairs(l, l, b) by the class of their
    trimmed walk.  Rotating i and k together by one step rotates the zipped
    walk by two positions, which keeps the trimmed walk's class; k ranges over
    a rotation-closed set, so each rotation orbit of i is visited once, through
    one representative, and weighted by its size.
    """
    if not 1 <= b <= l:
        raise ValueError(f"need 1 <= b <= l, got b={b}, l={l}")
    _check_guard(l, CENSUS_VERTEX_LIMIT, allow_large, "l")
    ks = _covering_tuples(l, l, b)
    buckets: dict[SeedClass, int] = {}
    for i, orbit_size in _rotation_orbits((l,), b):
        for k in ks:
            seed_class = classify_leaf_free_route(trim_route(zip_routes(i, k)))
            buckets[seed_class] = buckets.get(seed_class, 0) + orbit_size
    return buckets


DoubleBucket = tuple[SeedClass, tuple[int, int, int, int]]


def _label_mask(route: Route) -> int:
    """The labels of a route as a bitmask: bit v is set when v is visited."""
    mask = 0
    for v in route:
        mask |= 1 << v
    return mask


class _SideTable:
    """One walk of a double walk zipped with every distinct k, trimmed on demand.

    By the lemma behind trim_double, a walk trims on its own once the labels
    it shares with the other walk are held, so its result depends only on
    its row and the shared-label mask, and not even on the mask when the
    walk has no balanced leaf.  `result(row, key)` computes the result for
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
    component's share of the seed.  The route quadruples are those of
    iter_route_pairs(l1+l2, l1+l2, b) split after l1.  Rotating (i, k), or
    (j, m), by one step keeps the bucket, so as in census_by_seed each orbit
    of (i, j) under independent rotations of i and j is visited once.

    Trimming never changes the labels the two walks share, so each walk
    trims on its own with them held.  Per orbit, each side keeps a table of
    its walks, one per distinct k (or m), and trims a walk once per shared
    label set.  The quadruples are counted by the pair of side results, and
    each pair of distinct ring seeds is classified once per call.
    """
    if l1 < 1 or l2 < 1:
        raise ValueError(f"l1 and l2 must be positive, got {(l1, l2)}")
    if not 1 <= b <= l1 + l2:
        raise ValueError(f"need 1 <= b <= l1+l2, got b={b}")
    _check_guard(l1 + l2, COVARIANCE_POWER_LIMIT, allow_large, "l1+l2")
    r = l1 + l2
    firsts: dict[Route, int] = {}
    seconds: dict[Route, int] = {}
    rows1: list[int] = []
    rows2: list[int] = []
    for km in _covering_tuples(r, r, b):
        rows1.append(firsts.setdefault(km[:l1], len(firsts)))
        rows2.append(seconds.setdefault(km[l1:], len(seconds)))
    ks, ms = tuple(firsts), tuple(seconds)
    blacks = _label_mask(tuple(range(1, b + 1)))
    classes: dict[tuple[Route, Route], SeedClass] = {}
    buckets: dict[DoubleBucket, int] = {}
    for ij, orbit_size in _rotation_orbits((l1, l2), b):
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
                seed_class = classes.get((ring1, ring2))
                if seed_class is None:
                    seed_class = classes[ring1, ring2] = classify_leaf_free_double(
                        ring1, ring2
                    )
            key = (seed_class, (black1, black2, white1, white2))
            buckets[key] = buckets.get(key, 0) + orbit_size * count
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
    _set_partitions.cache_clear()
    _rotation_orbits.cache_clear()
    _covering_tuples.cache_clear()
