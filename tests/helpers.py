"""Shared enumeration utilities for the tests: route spaces that filter
every label string of a length (built here, never by the oracle's
label-string generator), the labelled route pairs and their rotation
orbits, Prufer trees, a route-pair reference for the signature census,
inner sums weighed one signature at a time and their affine reading at two
formal moment sequences, a per-quadruple reference for the covariance
oracle, rescanning trims with label-level seed-class censuses that visit
every route pair, the orbit-loop double census that trims one route
quadruple at a time, per-b references for the closed-form covariance
coefficients, the Bartlett Wishart sampler, the whole-batch Monte Carlo
trace loop, and the edge-by-edge sprouting walk search."""

from __future__ import annotations

import heapq
import warnings
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from tracemoments.closedform import binom
from tracemoments.enumeration import _validate_pair_params, signature_census
from tracemoments.graphs import (
    Route,
    balanced_leaf_labels,
    black_labels,
    build_double_graph,
    classify_leaf_free_double,
    classify_leaf_free_route,
    compact_labels,
    reversed_edge_counts,
    route_edges,
    trim_double,
    trim_route,
    zip_routes,
)
from tracemoments.montecarlo import BATCH_SIZE
from tracemoments.weights import (
    AffineAlpha,
    MomentSequence,
    covariance_weight,
    covariance_weight_of_exponents,
    weight_of_exponents,
)


def canonical_patterns(length: int, blocks: int | None = None):
    """Restricted-growth label sequences of a given length.

    First occurrences appear in increasing order, so each sequence is one
    representative per relabelling orbit; `blocks` restricts to sequences
    using exactly that many distinct labels.
    """

    def rec(prefix: list[int], used: int):
        if len(prefix) == length:
            if blocks is None or used == blocks:
                yield tuple(prefix)
            return
        for v in range(1, min(used + 1, length) + 1):
            prefix.append(v)
            yield from rec(prefix, max(used, v))
            prefix.pop()

    yield from rec([], 0)


def surjective_routes(length: int, r: int):
    """All label sequences of the given length whose value set is exactly [r]."""
    full = set(range(1, r + 1))
    for t in product(range(1, r + 1), repeat=length):
        if set(t) == full:
            yield t


@lru_cache(maxsize=None)
def covering_routes(length: int, r: int, b: int) -> tuple[Route, ...]:
    """All routes in [r]^length that visit every label of [r]\\[b]."""
    needed = set(range(b + 1, r + 1))
    return tuple(t for t in product(range(1, r + 1), repeat=length) if needed <= set(t))


def white_ordered_routes(length: int, r: int, b: int) -> tuple[Route, ...]:
    """The routes in [r]^length in which every label of b+1..r appears, first
    appearing in increasing order, in lexicographic order.

    A filter of all r^length routes, held as one numpy array with a column
    per route, so that [12]^6 takes a fraction of a second.
    """
    routes = np.indices((r,) * length, dtype=np.int8).reshape(length, -1) + 1
    keep = np.ones(routes.shape[1], dtype=bool)
    previous = np.full(routes.shape[1], -1, dtype=np.int8)
    for v in range(b + 1, r + 1):
        first = np.full(routes.shape[1], length, dtype=np.int8)  # length: absent
        for t in reversed(range(length)):
            first[routes[t] == v] = t
        keep &= (first < length) & (first > previous)
        previous = first
    return tuple(map(tuple, routes[:, keep].T.tolist()))


def all_canonical_routes(length: int):
    """All routes of the given length over every canonical prefix [r]."""
    for r in range(1, length + 1):
        yield from surjective_routes(length, r)


def prufer_to_tree(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Decode a Prufer sequence over vertices 1..n into tree edges."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = leaves[0], leaves[1]
    edges.append((u, w))
    return edges


def spanning_trees_of_complete_bipartite(b_side: int, w_side: int):
    """All spanning trees of K_{b_side,w_side} by filtering Prufer decodings.

    Vertices 1..b_side form the left part, b_side+1..b_side+w_side the right;
    yields edge lists of the trees whose edges all cross the parts.
    """
    n = b_side + w_side
    if n == 1:
        yield []
        return
    left = set(range(1, b_side + 1))
    for seq in product(range(1, n + 1), repeat=n - 2):
        edges = prufer_to_tree(seq, n)
        if all((u in left) != (v in left) for u, v in edges):
            yield edges


def iter_route_pairs(l: int, r: int, b: int) -> Iterator[tuple[Route, Route]]:
    """Pairs (i, k): i covers [b] exactly, k lives in [r] and covers [r]\\[b]."""
    _validate_pair_params(l, r, b)
    ks = covering_routes(l, r, b)
    for i in surjective_routes(l, b):
        for k in ks:
            yield i, k


@lru_cache(maxsize=None)
def rotation_orbits(lengths: tuple[int, ...], b: int) -> tuple[tuple[Route, int], ...]:
    """Surjections onto [b], one per orbit of rotating each segment, with orbit size.

    A surjection of length sum(lengths) is cut into consecutive segments of the
    given lengths; the group rotating every segment independently acts on the
    surjections, since rotation keeps the value set.
    """
    seen: set[Route] = set()
    orbits: list[tuple[Route, int]] = []
    for t in surjective_routes(sum(lengths), b):
        if t in seen:
            continue
        rotations = []
        start = 0
        for length in lengths:
            segment = t[start : start + length]
            start += length
            rotations.append([segment[s:] + segment[:s] for s in range(length)])
        orbit = {sum(parts, ()) for parts in product(*rotations)}
        seen |= orbit
        orbits.append((t, len(orbit)))
    return tuple(orbits)


def split_route_pairs(l1: int, l2: int, r: int, b: int):
    """Route quadruples (i, k, j, m): iter_route_pairs(l1+l2, r, b) split after l1."""
    for ij, km in iter_route_pairs(l1 + l2, r, b):
        yield ij[:l1], km[:l1], ij[l1:], km[l1:]


def reference_signature_census(lengths: tuple[int, ...], r: int, b: int) -> Counter:
    """signature_census by visiting every labelled route pair, one at a time."""
    census: Counter = Counter()
    if len(lengths) == 1:
        for i, k in iter_route_pairs(lengths[0], r, b):
            counts = reversed_edge_counts(zip_routes(i, k))
            census[tuple(sorted(counts.values()))] += 1
        return census
    for i, k, j, m in split_route_pairs(*lengths, r, b):
        first = reversed_edge_counts(zip_routes(i, k))
        second = reversed_edge_counts(zip_routes(j, m))
        joint = Counter(first) + Counter(second)
        census[(
            tuple(sorted(joint.values())),
            tuple(sorted(first.values())),
            tuple(sorted(second.values())),
        )] += 1
    return census


def reference_inner_sum(lengths: tuple[int, ...], r: int, b: int, moments) -> Fraction:
    """The oracle's inner sum with every census signature weighed on its own:
    walk weights for one walk, covariance weights for two."""
    total = Fraction(0)
    for signature, count in signature_census(lengths, r, b).items():
        if len(lengths) == 1:
            total += count * weight_of_exponents(signature, moments)
        else:
            total += count * covariance_weight_of_exponents(*signature, moments)
    return total


def reference_affine(lengths: tuple[int, ...], r: int, b: int) -> AffineAlpha:
    """reference_inner_sum as c0 + c1*alpha, read off at alpha = 0 and 1.

    The two moment sequences, [1, 0, 1, 0, alpha, 0, ...], belong to no
    distribution, and the reading is right only where no moment other than
    the fourth carries weight.
    """
    zeros = [0] * (2 * sum(lengths) - 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # both are infeasible
        at0 = reference_inner_sum(lengths, r, b, MomentSequence([1, 0, 1, 0, 0] + zeros))
        at1 = reference_inner_sum(lengths, r, b, MomentSequence([1, 0, 1, 0, 1] + zeros))
    return AffineAlpha(at0, at1 - at0)


@lru_cache(maxsize=None)
def reference_covariance_inner_sum(
    l1: int, l2: int, r: int, b: int, moments
) -> Fraction:
    """Covariance weights summed one double graph at a time, with no census."""
    total = Fraction(0)
    for i, k, j, m in split_route_pairs(l1, l2, r, b):
        double = build_double_graph(zip_routes(i, k), zip_routes(j, m))
        total += covariance_weight(double, moments)
    return total


def reference_trace_covariance(l1: int, l2: int, p: int, n: int, moments) -> Fraction:
    """Cov[tr(S^l1), tr(S^l2)] by the per-quadruple sum, a reference for the oracle.

    The smaller dimension sits on the row side, as in the oracle; for p > n
    the 1/n^(l1+l2) scale carries the transposition ratio.
    """
    total = l1 + l2
    rows, cols = min(p, n), max(p, n)
    value = Fraction(0)
    for r in range(1, min(2 * total, cols) + 1):
        for b in range(1, min(total, r, rows) + 1):
            if r - b <= total:
                inner = reference_covariance_inner_sum(l1, l2, r, b, moments)
                value += comb(rows, b) * comb(cols - b, r - b) * inner
    return value / n**total


# ---------------------------------------------------------------------------
# trimming and seed-class censuses, one full rescan per removed leaf


def _reference_drop(route: tuple[int, ...], leaf: int) -> tuple[int, ...]:
    n = len(route)
    t = route.index(leaf)
    out = list(route)
    if t == n - 1:
        del out[n - 2 : n]
    else:
        del out[t : t + 2]
    return tuple(out)


def reference_trim_route(route) -> tuple[int, ...]:
    """trim_route by rescanning the whole route after every removal."""
    current = tuple(route)
    while True:
        leaves = balanced_leaf_labels(current)
        if not leaves:
            return current
        current = _reference_drop(current, leaves[0])


def reference_trim_double(first, second) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """trim_double by rescanning both routes after every removal."""
    r1, r2 = tuple(first), tuple(second)
    while True:
        s1, s2 = set(r1), set(r2)
        candidates = [(v, 1) for v in balanced_leaf_labels(r1) if v not in s2]
        candidates += [(v, 2) for v in balanced_leaf_labels(r2) if v not in s1]
        if not candidates:
            return r1, r2
        v, side = min(candidates)
        if side == 1:
            r1 = _reference_drop(r1, v)
        else:
            r2 = _reference_drop(r2, v)


def double_bucket(i, k, j, m, b: int, trim=reference_trim_double):
    """census_double's bucket of one route quadruple: (seed class, split)."""
    blacks = frozenset(range(1, b + 1))
    first, second = zip_routes(i, k), zip_routes(j, m)
    seed1, seed2 = trim(first, second)
    split = (
        len((set(first) & blacks) - set(seed1)),
        len((set(second) & blacks) - set(seed2)),
        len((set(first) - blacks) - set(seed1)),
        len((set(second) - blacks) - set(seed2)),
    )
    return classify_leaf_free_double(seed1, seed2), split


def reference_census_by_seed(l: int, b: int) -> Counter:
    """census_by_seed by trimming every labelled route pair."""
    return Counter(
        classify_leaf_free_route(reference_trim_route(zip_routes(i, k)))
        for i, k in iter_route_pairs(l, l, b)
    )


def reference_census_double(l1: int, l2: int, b: int) -> Counter:
    """census_double by trimming every labelled route quadruple."""
    return Counter(
        double_bucket(i, k, j, m, b)
        for i, k, j, m in split_route_pairs(l1, l2, l1 + l2, b)
    )


def reference_orbit_census_double(l1: int, l2: int, b: int) -> dict:
    """census_double by trimming both walks of one route quadruple at a time.

    Each orbit of (i, j) under independent rotations of i and j is visited
    once and weighted by its size: rotating (i, k), or (j, m), by one step
    rotates a zipped walk by two positions and keeps the bucket.  This is a
    reduction independent of census_double's colour-preserving relabellings.
    """
    r = l1 + l2
    split_ks = [(km[:l1], km[l1:]) for km in covering_routes(r, r, b)]
    buckets: dict = {}
    for ij, orbit_size in rotation_orbits((l1, l2), b):
        i, j = ij[:l1], ij[l1:]
        for k, m in split_ks:
            key = double_bucket(i, k, j, m, b, trim_double)
            buckets[key] = buckets.get(key, 0) + orbit_size
    return buckets


# ---------------------------------------------------------------------------
# per-b covariance coefficients, one full sum per black count b


def reference_C_coeff(l1: int, l2: int, b: int) -> int:
    """Theorem 2's leading covariance coefficient at black count b."""
    double_sum = 0
    for k in range(0, b + 1):
        outer = binom(l1, k) * binom(l2, b - k)
        if outer == 0:
            continue
        double_sum += outer * sum(
            m * binom(l1, k + m) * binom(l2, b - m - k) for m in range(0, b - k + 1)
        )
    return 2 * factorial(b) * factorial(l1 + l2 - b) * double_sum


def reference_D_coeff(l1: int, l2: int, b: int) -> int:
    """Fourth-moment correction to the covariance coefficient at black count b."""
    inner = sum(
        binom(l1, k) * binom(l1, k + 1) * binom(l2, b - 1 - k) * binom(l2, b - k)
        for k in range(0, b)
    )
    return factorial(b) * factorial(l1 + l2 - b) * inner


def reference_bs_cov_coefficient(l1: int, l2: int, b: int) -> Fraction:
    """Coefficient of y^b in the classical limiting covariance of (x^l1, x^l2)."""
    shift = l1 + l2 - b
    total = Fraction(0)
    for k1 in range(0, l1):
        for k2 in range(0, l2 + 1):
            if k1 + k2 < shift:
                continue
            outer = (
                binom(l1, k1)
                * binom(l2, k2)
                * binom(k1 + k2, shift)
                * (-1) ** (k1 + k2 - shift)
            )
            if outer == 0:
                continue
            inner = sum(
                m
                * binom(2 * l1 - 1 - (k1 + m), l1 - 1)
                * binom(2 * l2 - 1 - k2 + m, l2 - 1)
                for m in range(1, l1 - k1 + 1)
            )
            total += 2 * outer * inner
    return total


def sfc64_stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """SFC64 seeded by SeedSequence(seed, spawn_key=spawn_key), built here
    rather than through the package, so the references check its keying."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=spawn_key))
    )


def reference_bartlett_gram(seed: int, batch_index: int, count: int, p: int, n: int):
    """`count` Wishart(n, I_p) matrices, p <= n, by the Bartlett decomposition.

    X X^T of a p x n standard normal X has the law of A A^T, A lower
    triangular with N(0, 1) below the diagonal and sqrt(chi^2_{n-i}) at
    (i, i) (Bartlett 1933).  The normals and the chi-squares come from two
    independent children of the (seed, batch_index) stream, spawn keys
    (batch_index, 0) and (batch_index, 1).
    """
    gen = sfc64_stream(seed, batch_index, 0)
    chi2_gen = sfc64_stream(seed, batch_index, 1)
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


def reference_chi2(seed: int, batch_index: int, count: int, p: int, n: int) -> np.ndarray:
    """The count x (2p - 1) chi-squares of the gaussian (seed, batch_index)
    batch, p <= n, drawn in one `chisquare` call: n - i degrees of freedom
    for B's diagonal, i = 0..p-1, then p - 1 - i below it."""
    gen = sfc64_stream(seed, batch_index)
    dfs = np.concatenate([np.arange(n, n - p, -1), np.arange(p - 1, 0, -1)])
    return gen.chisquare(dfs, size=(count, 2 * p - 1))


def reference_tridiagonal(chi2: np.ndarray, p: int) -> np.ndarray:
    """The dense p x p tridiagonals B B^T of the beta = 1 Laguerre model from
    their count x (2p - 1) chi-squares: d_i^2 = chi2[:, i] on B's diagonal,
    e_i^2 = chi2[:, p + i] below it."""
    d2, e2 = chi2[:, :p], chi2[:, p:]
    tri = np.zeros((len(chi2), p, p))
    i = np.arange(p)
    tri[:, i, i] = d2
    tri[:, i[1:], i[1:]] += e2
    beside = np.sqrt(d2[:, :-1] * e2)
    tri[:, i[:-1], i[1:]] = beside
    tri[:, i[1:], i[:-1]] = beside
    return tri


def _reference_whole_batch(
    distribution: str, seed: int, batch_index: int, count: int, p: int, n: int
) -> np.ndarray:
    """All `count` matrices of the (seed, batch_index) batch, p <= n, drawn
    at once: the tridiagonal Laguerre model for gaussian, the float32 Gram of
    packed sign bits for rademacher, 12 (U - 1/2)(U - 1/2)^T of doubles U
    for uniform."""
    if distribution == "gaussian":
        return reference_tridiagonal(reference_chi2(seed, batch_index, count, p, n), p)
    gen = sfc64_stream(seed, batch_index)
    if distribution == "rademacher":
        packed = gen.integers(0, 256, size=(count, -(-p * n // 8)), dtype=np.uint8)
        dtype = np.float32 if n < 2**24 else np.float64
        x = np.unpackbits(packed, axis=1, count=p * n).reshape(count, p, n).astype(dtype)
        x *= 2.0
        x -= 1.0
        return (x @ x.transpose(0, 2, 1)).astype(np.float64)
    x = gen.random((count, p, n)) - 0.5
    return 12.0 * (x @ x.transpose(0, 2, 1))


def reference_sample_traces(config) -> np.ndarray:
    """tr(S^l) per replication, each keyed batch drawn, multiplied out and
    traced as one array of dense matrices: the loop the chunked
    `sample_traces` must match bit for bit for rademacher and uniform, and to
    rounding for the banded gaussian powers."""
    p, n = sorted((config.p, config.n))
    max_l = max(config.l_list)
    out = np.empty((config.replications, len(config.l_list)), dtype=np.float64)
    done = 0
    batch = 0
    while done < config.replications:
        count = min(BATCH_SIZE, config.replications - done)
        gram = _reference_whole_batch(config.distribution, config.rng_seed, batch, count, p, n)
        gram /= config.n
        with np.errstate(over="ignore", invalid="ignore"):
            halves = [gram]
            while len(halves) < (max_l + 1) // 2:
                halves.append(halves[-1] @ gram)
            for idx, l in enumerate(config.l_list):
                if l == 1:
                    traces = np.einsum("rii->r", gram)
                else:
                    traces = np.einsum(
                        "rij,rij->r", halves[(l + 1) // 2 - 1], halves[l // 2 - 1]
                    )
                if not np.isfinite(traces).all():
                    raise ValueError(f"tr(S^{l}) is not finite in double precision")
                out[done : done + count, idx] = traces
        done += count
        batch += 1
    return out


# ---------------------------------------------------------------------------
# the edge-by-edge sprouting walk search that census_sprouting replaced


def reference_census_sprouting(
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
