"""Graph construction, coloring, trimming and classification."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_canonical_routes,
    canonical_patterns,
    reference_trim_double,
    reference_trim_route,
    split_route_pairs,
    surjective_routes,
)
from tracemoments.graphs import (
    BALANCED_PAIR_SEED,
    DOUBLE_OTHER_SEED,
    KIND_TWO_D_RING,
    OTHER_SEED,
    CircuitMultigraph,
    DoubleCircuitMultigraph,
    SeedClass,
    balanced_leaf_labels,
    build_double_graph,
    build_graph,
    classify_leaf_free_double,
    classify_leaf_free_route,
    compact_labels,
    double_one_d_ring,
    double_two_d_ring,
    format_route,
    one_d_ring,
    parse_route,
    remove_leaf_from_route,
    reversed_edge_counts,
    route_edges,
    trim_double,
    trim_holding,
    trim_route,
    two_d_ring,
    zip_routes,
)

routes_st = st.lists(st.integers(1, 6), min_size=1, max_size=12).map(
    lambda vals: compact_labels(tuple(vals))
)


def test_zip_routes():
    assert zip_routes((1,), (2,)) == (1, 2)
    assert zip_routes((1, 1), (2, 3)) == (1, 2, 1, 3)
    assert zip_routes((1, 2), (2, 1)) == (1, 2, 2, 1)
    with pytest.raises(ValueError):
        zip_routes((1, 2), (1,))


def test_build_graph_edges():
    assert build_graph((1, 2)).edges == ((1, 2), (2, 1))
    assert build_graph((2, 4, 4, 3, 1, 3)).edges == (
        (2, 4), (4, 4), (4, 3), (3, 1), (1, 3), (3, 2),
    )
    assert build_graph((1,)).edges == ((1, 1),)


def test_build_graph_rejects_label_gap():
    with pytest.raises(ValueError):
        build_graph((1, 3))
    with pytest.raises(ValueError):
        build_graph((2,))
    with pytest.raises(ValueError):
        build_graph(())


def test_graph_views_are_values_of_their_routes():
    # equal routes give equal views with equal hashes, usable as set members
    single, double = build_graph((1, 2, 1, 2)), build_double_graph((1, 2), (2, 1))
    assert single == CircuitMultigraph([1, 2, 1, 2])
    assert hash(single) == hash(CircuitMultigraph([1, 2, 1, 2]))
    assert double == DoubleCircuitMultigraph([1, 2], [2, 1])
    assert hash(double) == hash(DoubleCircuitMultigraph([1, 2], [2, 1]))
    views = {single, build_graph((1, 2, 1, 2)), double, build_double_graph((1, 2), (2, 1))}
    assert views == {single, double}
    assert single != build_graph((1, 2, 2, 1)) and double != build_double_graph((2, 1), (1, 2))
    # a view never equals a view of the other class or a bare tuple
    assert build_graph((1,)) != build_double_graph((1,), (1,))
    assert single != (1, 2, 1, 2) and double != ((1, 2), (2, 1))


@pytest.mark.parametrize("make, message", [
    (lambda: build_graph((1, "2")), "route labels must be positive integers: (1, '2')"),
    (lambda: build_double_graph((), (1,)), "both routes must be non-empty"),
    (lambda: build_double_graph((1, 0), (1,)), "route labels must be positive integers"),
    (lambda: build_double_graph((1, 3), (1,)), "routes jointly miss labels [2] below 3"),
], ids=["label-type", "double-empty", "double-label", "double-gap"])
def test_graph_refusals_name_their_fault(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_reversed_adjacency():
    assert build_graph((1, 2)).reversed_adjacency() == [[0, 2], [0, 0]]
    assert build_graph((1, 2, 1, 2)).reversed_adjacency() == [[0, 4], [0, 0]]
    assert build_graph((1, 1)).reversed_adjacency() == [[2]]


def test_black_set():
    assert build_graph((1, 2, 1, 3)).black_set == {1}
    assert build_graph((2, 4, 4, 3, 1, 3)).black_set == {1, 2, 4}
    assert build_graph((1, 2)).black_set == {1}


def test_black_set_double():
    assert build_double_graph((1,), (1,)).black_set == {1}
    assert build_double_graph((1, 2), (2, 1)).black_set == {1, 2}
    assert build_double_graph((1, 2, 1, 3), (3, 1)).black_set == {1, 3}


def test_balanced_leaves():
    assert build_graph((1, 2)).balanced_leaves() == frozenset()
    assert build_graph((1, 2, 1, 3)).balanced_leaves() == {2, 3}
    # both 1 and 3 sit between two copies of 2 once the walk wraps around
    assert build_graph((1, 2, 3, 2)).balanced_leaves() == {1, 3}


def test_remove_leaf():
    assert build_graph((1, 2, 1, 3)).remove_leaf(2).route == (1, 2)  # (1,3) compacted
    assert build_graph((1, 2, 1, 3)).remove_leaf(3).route == (1, 2)
    assert remove_leaf_from_route((1, 2, 3, 2, 1, 4), 3) == (1, 2, 1, 4)
    assert build_graph((1, 2, 3, 2, 1, 4)).remove_leaf(3).route == (1, 2, 1, 3)


def test_remove_leaf_errors():
    with pytest.raises(ValueError):
        build_graph((1, 2)).remove_leaf(2)  # too short to have leaves
    with pytest.raises(ValueError):
        build_graph((1, 2, 1, 2)).remove_leaf(1)  # not a leaf


def test_seed_examples():
    assert build_graph((2, 4, 4, 3, 1, 3)).seed().route == (1, 3, 3, 2)
    assert build_graph((1, 2)).seed().route == (1, 2)
    assert build_graph((3, 1, 2, 1, 5, 1, 2, 4, 2, 1)).seed().route == (2, 1, 2, 1)
    # the class is that of the seed, not of the route with its leaves
    assert build_graph((1, 2, 1, 3)).seed_class() == BALANCED_PAIR_SEED
    assert build_graph((1, 2, 1, 2, 3, 2)).seed_class() == two_d_ring(2)
    assert build_graph((1, 2, 3, 1, 2, 4, 2, 3)).seed_class() == one_d_ring(3)


def test_seed_double_examples():
    assert build_double_graph((1,), (1,)).seed() == build_double_graph((1,), (1,))
    assert build_double_graph((1, 2), (2, 1)).seed() == build_double_graph((1, 2), (2, 1))
    seed = build_double_graph((1, 2, 1, 3), (1, 4)).seed()
    assert (seed.first, seed.second) == ((1, 2), (1, 3))
    g = build_double_graph((1, 3, 1, 2), (1, 2))
    assert g.seed() == build_double_graph((1, 2), (1, 2))
    assert g.seed_class() == double_two_d_ring(2)
    g = build_double_graph((1, 4, 1, 2, 3), (1, 2, 3))
    assert g.seed() == build_double_graph((1, 2, 3), (1, 2, 3))
    assert g.seed_class() == double_one_d_ring(3)


def test_classify_seed_examples():
    assert classify_leaf_free_route((1, 1)) == two_d_ring(1)
    assert classify_leaf_free_route((1, 2, 1, 2)) == two_d_ring(2)
    assert classify_leaf_free_route((1, 2, 3, 1, 2, 3)) == one_d_ring(3)
    assert classify_leaf_free_route((1, 2)) == BALANCED_PAIR_SEED
    assert classify_leaf_free_route((1, 1, 2, 2)) == OTHER_SEED
    # the classifier takes leaf-free routes; this one still has leaves
    assert balanced_leaf_labels((1, 2, 1, 3)) == (2, 3)


def test_classify_seed_double_examples():
    assert classify_leaf_free_double((1,), (1,)) == double_two_d_ring(1)
    assert classify_leaf_free_double((1, 2, 4, 3), (1, 2, 4, 3)) == double_one_d_ring(4)
    # starting points one step apart: excluded by the even-offset condition
    assert classify_leaf_free_double((1, 2, 4, 3), (3, 1, 2, 4)) == DOUBLE_OTHER_SEED
    # two steps apart: included
    assert classify_leaf_free_double((1, 2, 4, 3), (4, 3, 1, 2)) == double_one_d_ring(4)
    assert classify_leaf_free_double((1, 2), (1, 2)) == double_two_d_ring(2)
    assert classify_leaf_free_double((1, 2), (2, 1)) == DOUBLE_OTHER_SEED
    # the classifier takes leaf-free pairs; this one still has leaves
    assert build_double_graph((1, 2, 1, 3), (1, 4)).balanced_leaves() == {2, 3}


def test_seed_class_validation():
    with pytest.raises(ValueError):
        SeedClass("one_d_ring", 2)  # aligned rings start at length 3
    with pytest.raises(ValueError):
        SeedClass("other", 3)
    with pytest.raises(ValueError):
        SeedClass("nonsense")
    with pytest.raises(ValueError, match="^two_d_ring needs a positive ring length$"):
        SeedClass(KIND_TWO_D_RING, 0)


def test_route_serialization():
    assert parse_route("2,4,4,3,1,3") == (2, 4, 4, 3, 1, 3)
    assert format_route((2, 4, 4, 3, 1, 3)) == "2,4,4,3,1,3"
    with pytest.raises(ValueError):
        parse_route("1,x")
    with pytest.raises(ValueError):
        parse_route("0,1")


@given(routes_st)
def test_route_roundtrip(route):
    assert parse_route(format_route(route)) == route


@given(routes_st)
def test_graph_record_is_consistent(route):
    g = build_graph(route)
    rec = g.record()
    assert parse_route(rec["route"]) == route
    assert rec["black_set"] == sorted(g.black_set)
    assert parse_route(rec["seed_route"]) == g.seed().route


# ---------------------------------------------------------------------------
# invariant sweeps


def test_coloring_preserved_by_leaf_removal_exhaustive():
    # canonical representatives suffice: both sides are relabelling-equivariant
    for length in range(3, 9):
        for route in canonical_patterns(length):
            blacks = frozenset(route[0::2])
            for leaf in balanced_leaf_labels(route):
                trimmed = remove_leaf_from_route(route, leaf)
                assert frozenset(trimmed[0::2]) == blacks - {leaf}, (route, leaf)


@given(routes_st)
def test_coloring_preserved_by_leaf_removal_random(route):
    g = build_graph(route)
    for leaf in g.balanced_leaves():
        raw = remove_leaf_from_route(route, leaf)
        assert frozenset(raw[0::2]) == g.black_set - {leaf}


# raw labels (gaps allowed), odd lengths, walks of at most two steps
raw_routes_st = st.lists(st.integers(1, 5), min_size=1, max_size=13).map(tuple)


@given(raw_routes_st)
@settings(max_examples=300)
def test_incremental_trim_matches_rescanning_reference(route):
    assert trim_route(route) == reference_trim_route(route)


@given(raw_routes_st, raw_routes_st)
@settings(max_examples=300)
def test_incremental_double_trim_matches_rescanning_reference(first, second):
    assert trim_double(first, second) == reference_trim_double(first, second)


def _assert_sides_trim_on_their_own(first, second):
    # trimming never changes the labels both routes share, so each route
    # trims alone with those labels held; census_double relies on this
    shared = set(first) & set(second)
    by_side = trim_holding(first, shared), trim_holding(second, shared)
    assert trim_double(first, second) == reference_trim_double(first, second) == by_side


def test_double_trim_is_two_one_sided_trims_exhaustive():
    for total in range(2, 5):
        for l1 in range(1, total):
            for r in range(1, 2 * total + 1):
                for b in range(1, min(total, r) + 1):
                    for i, k, j, m in split_route_pairs(l1, total - l1, r, b):
                        first, second = zip_routes(i, k), zip_routes(j, m)
                        _assert_sides_trim_on_their_own(first, second)


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=10).map(tuple),
    st.lists(st.integers(1, 6), min_size=1, max_size=10).map(tuple),
)
@settings(max_examples=300)
def test_double_trim_is_two_one_sided_trims_random(first, second):
    _assert_sides_trim_on_their_own(first, second)


def test_seed_idempotent_exhaustive():
    for length in range(1, 9):
        for route in canonical_patterns(length):
            seed = trim_route(route)
            assert trim_route(seed) == seed


@given(routes_st)
def test_seed_idempotent_random(route):
    g = build_graph(route)
    assert g.seed().seed() == g.seed()


def test_balanced_tree_characterization():
    # walks on l+1 vertices with 2l edges are balanced iff their connection
    # skeleton is a tree with one opposite pair per connection; l <= 5
    for l in range(1, 6):
        for route in canonical_patterns(2 * l, blocks=l + 1):
            connections: dict[frozenset, list] = {}
            adjacency: dict[tuple[int, int], int] = {}
            has_self_loop = False
            for a, b in route_edges(route):
                if a == b:
                    has_self_loop = True
                adjacency[(a, b)] = adjacency.get((a, b), 0) + 1
                connections.setdefault(frozenset((a, b)), []).append((a, b))
            balanced = all(
                adjacency.get((a, b), 0) == adjacency.get((b, a), 0)
                for (a, b) in adjacency
            )
            tree_of_pairs = (
                not has_self_loop
                and len(connections) == l
                and all(
                    len(es) == 2 and es[0] == (es[1][1], es[1][0])
                    for es in connections.values()
                )
            )
            assert balanced == tree_of_pairs, route
            if balanced:
                # every connection of a balanced tree joins a black and a white vertex
                blacks = frozenset(route[0::2])
                for pair in connections:
                    a, b = tuple(pair)
                    assert (a in blacks) != (b in blacks), route


def classify_leaf_free(route):
    if balanced_leaf_labels(route):
        return None
    return classify_leaf_free_route(route)


def _two_directional_rings(l0: int) -> set[tuple[int, ...]]:
    # walk forward to a turning point, back to the start, backward across the
    # wrap, then forward home; over all orderings and turning points
    from itertools import permutations

    rings = set()
    for sigma in permutations(range(1, l0 + 1)):
        for k in range(1, l0 + 1):
            fwd = list(sigma[:k])
            back = list(reversed(sigma[: k - 1]))
            wrap = [sigma[idx] for idx in range(l0 - 1, k - 2, -1)]
            home = list(sigma[k:])
            rings.add(tuple(fwd + back + wrap + home))
    return rings


def test_two_directional_ring_generator_is_complete_small():
    for l0 in (1, 2, 3):
        brute = {
            route
            for route in surjective_routes(2 * l0, l0)
            if classify_leaf_free(route) == two_d_ring(l0)
        }
        assert _two_directional_rings(l0) == brute


def _cycle_order(route, l0):
    # read the ring order off the undirected connections
    if l0 <= 2:
        return sorted(set(route))
    neighbours: dict[int, set[int]] = {}
    for a, b in route_edges(route):
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    order = [route[0]]
    prev = None
    while len(order) < l0:
        nxt = min(neighbours[order[-1]] - {prev})
        prev = order[-1]
        order.append(nxt)
    return order


def test_ring_colorings():
    # opposed rings: alternating colors for even length, exactly one adjacent
    # black pair for odd length; aligned rings: alternating for even length
    for l0 in range(1, 7):
        for route in _two_directional_rings(l0):
            assert classify_leaf_free(route) == two_d_ring(l0), route
            blacks = frozenset(route[0::2])
            order = _cycle_order(route, l0)
            adjacent_black_pairs = sum(
                1
                for idx in range(l0)
                if order[idx] in blacks and order[(idx + 1) % l0] in blacks
            )
            if l0 % 2 == 0:
                assert len(blacks) == l0 // 2 and adjacent_black_pairs == 0, route
            elif l0 >= 3:
                assert adjacent_black_pairs == 1, route
    from itertools import permutations

    for l0 in (4, 6):
        for sigma in permutations(range(1, l0 + 1)):
            route = sigma + sigma
            assert classify_leaf_free(route) == one_d_ring(l0)
            blacks = frozenset(route[0::2])
            assert all(
                (sigma[idx] in blacks) != (sigma[(idx + 1) % l0] in blacks)
                for idx in range(l0)
            ), route


def test_undirected_leaves_with_small_connections_are_balanced():
    for length in range(3, 9):
        for route in canonical_patterns(length):
            connections: dict[frozenset, int] = {}
            neighbours: dict[int, set[int]] = {}
            for a, b in route_edges(route):
                if a == b:
                    neighbours.setdefault(a, set())
                    continue
                connections[frozenset((a, b))] = connections.get(frozenset((a, b)), 0) + 1
                neighbours.setdefault(a, set()).add(b)
                neighbours.setdefault(b, set()).add(a)
            leaves = frozenset(balanced_leaf_labels(route))
            for v, ns in neighbours.items():
                if len(ns) == 1 and connections.get(frozenset((v, next(iter(ns)))), 0) < 4:
                    has_self_loop = (v, v) in route_edges(route)
                    if not has_self_loop:
                        assert v in leaves, (route, v)


def test_degree_balance():
    for length in range(1, 8):
        for route in canonical_patterns(length):
            indeg: dict[int, int] = {}
            outdeg: dict[int, int] = {}
            for a, b in route_edges(route):
                outdeg[a] = outdeg.get(a, 0) + 1
                indeg[b] = indeg.get(b, 0) + 1
            assert indeg == outdeg, route


def test_route_reconstruction_from_seed_and_sprout_positions():
    # the seed route plus the positions/values of entries at sprouted vertices
    # pins down the whole route: the projection must be collision-free
    for length in range(2, 9):
        seen: dict[tuple, tuple] = {}
        for route in all_canonical_routes(length):
            seed = trim_route(route)
            sprout_labels = set(route) - set(seed)
            key = (
                seed,
                tuple(
                    (pos, v) for pos, v in enumerate(route) if v in sprout_labels
                ),
            )
            assert seen.setdefault(key, route) == route, (key, route)


@given(routes_st)
@settings(max_examples=150)
def test_double_graph_never_trims_shared_vertices(route):
    # every vertex of one component is visited by the other, so nothing trims
    g = DoubleCircuitMultigraph(route, route)
    seed1, seed2 = g.seed_routes_original_labels()
    assert seed1 == route and seed2 == route
