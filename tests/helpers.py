"""Shared enumeration utilities for the tests: route spaces, Prufer trees, a
route-pair reference for the signature census and a per-quadruple reference
for the covariance oracle."""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from tracemoments.enumeration import iter_route_pairs
from tracemoments.graphs import build_double_graph, reversed_edge_counts, zip_routes
from tracemoments.weights import covariance_weight


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
