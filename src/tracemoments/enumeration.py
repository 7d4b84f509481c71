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
weighted by the orbit size.  Partial sums are exact rationals, so any
reduction order gives identical results.
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
    Route,
    SeedClass,
    balanced_leaf_labels,
    black_labels,
    classify_leaf_free_double,
    classify_leaf_free_route,
    compact_labels,
    route_edges,
    trim_double,
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
    """
    if l1 < 1 or l2 < 1:
        raise ValueError(f"l1 and l2 must be positive, got {(l1, l2)}")
    if not 1 <= b <= l1 + l2:
        raise ValueError(f"need 1 <= b <= l1+l2, got b={b}")
    _check_guard(l1 + l2, COVARIANCE_POWER_LIMIT, allow_large, "l1+l2")
    r = l1 + l2
    split_ks = [(km[:l1], km[l1:]) for km in _covering_tuples(r, r, b)]
    blacks = frozenset(range(1, b + 1))
    buckets: dict[DoubleBucket, int] = {}
    for ij, orbit_size in _rotation_orbits((l1, l2), b):
        i, j = ij[:l1], ij[l1:]
        for k, m in split_ks:
            first = zip_routes(i, k)
            second = zip_routes(j, m)
            seed1, seed2 = trim_double(first, second)
            seed_class = classify_leaf_free_double(seed1, seed2)
            split = (
                len((set(first) & blacks) - set(seed1)),
                len((set(second) & blacks) - set(seed2)),
                len((set(first) - blacks) - set(seed1)),
                len((set(second) - blacks) - set(seed2)),
            )
            key = (seed_class, split)
            buckets[key] = buckets.get(key, 0) + orbit_size
    return buckets


# ---------------------------------------------------------------------------
# sprouting census (walk search with exact final verification)


def census_sprouting(
    seed_route: Sequence[int],
    black_sprouts: Iterable[int],
    white_sprouts: Iterable[int],
) -> int:
    """Count walks trimming to the given seed with the prescribed sprout colors.

    The search walks candidate routes edge by edge under necessary conditions
    (edge budgets between seed vertices, single opposite pairs on any sprout
    connection, color parity) and then verifies each completed route by
    actually trimming it.  Seed vertices are relabelled above the sprouts so
    that the known order-sensitivity of two-vertex seeds cannot bite.
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
    seed_map = {
        v: n_sprouts + idx for idx, v in enumerate(sorted(set(seed_route)), start=1)
    }
    i0 = tuple(seed_map[v] for v in seed_route)
    black_set = frozenset(sprout_map[v] for v in blacks)
    white_set = frozenset(sprout_map[v] for v in whites)
    seed_labels = frozenset(i0)
    sprout_labels = tuple(range(1, n_sprouts + 1))
    all_labels = sprout_labels + tuple(sorted(seed_labels))
    total_len = len(i0) + 2 * n_sprouts

    budgets: dict[tuple[int, int], int] = {}
    for e in route_edges(i0):
        budgets[e] = budgets.get(e, 0) + 1
    seed_edges_left = len(i0)

    route: list[int] = []
    sprout_edges_used: set[tuple[int, int]] = set()
    count = 0

    def edge_ok(a: int, c: int) -> bool:
        if a in seed_labels and c in seed_labels:
            return budgets.get((a, c), 0) > 0
        if a == c:
            return False  # sprout self-loops can never trim away
        return (a, c) not in sprout_edges_used

    def consume(a: int, c: int) -> None:
        nonlocal seed_edges_left
        if a in seed_labels and c in seed_labels:
            budgets[(a, c)] -= 1
            seed_edges_left -= 1
        else:
            sprout_edges_used.add((a, c))

    def release(a: int, c: int) -> None:
        nonlocal seed_edges_left
        if a in seed_labels and c in seed_labels:
            budgets[(a, c)] += 1
            seed_edges_left += 1
        else:
            sprout_edges_used.discard((a, c))

    def finish() -> None:
        nonlocal count
        if seed_edges_left != 0:
            return
        filled = tuple(route)
        visited = set(filled)
        if not (black_set | white_set) <= visited:
            return
        if black_labels(filled) & white_set:
            return
        if not black_set <= black_labels(filled):
            return
        if trim_route(filled) != i0:
            return
        count += 1

    def extend(position: int) -> None:
        if position == total_len:
            a, c = route[-1], route[0]
            if edge_ok(a, c):
                consume(a, c)
                finish()
                release(a, c)
            return
        if seed_edges_left > total_len - position + 1:
            return  # cannot place the remaining seed edges any more
        current = route[-1]
        even_position = position % 2 == 0
        for nxt in all_labels:
            if nxt in white_set and even_position:
                continue  # whites may only stand at even walk positions
            if not edge_ok(current, nxt):
                continue
            consume(current, nxt)
            route.append(nxt)
            extend(position + 1)
            route.pop()
            release(current, nxt)

    for start in all_labels:
        if start in white_set:
            continue  # position 1 is odd, hence black
        route.append(start)
        extend(1)
        route.pop()
    return count


def clear_caches() -> None:
    """Drop memoized enumerations (mostly useful in long-lived sessions)."""
    _census_block.cache_clear()
    _set_partitions.cache_clear()
    _rotation_orbits.cache_clear()
    _covering_tuples.cache_clear()
