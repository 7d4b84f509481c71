"""Closed-walk multigraphs: construction, coloring, leaf trimming and seed extraction.

A route is a tuple of positive vertex labels read as a closed walk; the graph it
traces carries a linear edge order, which is what the black/white coloring and
the reversal operator depend on.  All graph objects are immutable; derived data
(colorings, seeds, classifications) is cached on first access, and a duplicated
computation under concurrent access is benign because the result is always the
same immutable value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Sequence

Route = tuple[int, ...]

KIND_BALANCED_PAIR = "balanced_pair"
KIND_ONE_D_RING = "one_d_ring"
KIND_TWO_D_RING = "two_d_ring"
KIND_OTHER = "other"
KIND_DOUBLE_ONE_D_RING = "double_one_d_ring"
KIND_DOUBLE_TWO_D_RING = "double_two_d_ring"
KIND_DOUBLE_OTHER = "double_other"

_RING_KINDS = {
    KIND_ONE_D_RING,
    KIND_TWO_D_RING,
    KIND_DOUBLE_ONE_D_RING,
    KIND_DOUBLE_TWO_D_RING,
}
_ALL_KINDS = _RING_KINDS | {KIND_BALANCED_PAIR, KIND_OTHER, KIND_DOUBLE_OTHER}


@dataclass(frozen=True)
class SeedClass:
    """Structural class of a leaf-free graph, with ring length where applicable."""

    kind: str
    ring_length: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown seed class kind {self.kind!r}")
        if self.kind in _RING_KINDS:
            if self.ring_length is None or self.ring_length < 1:
                raise ValueError(f"{self.kind} needs a positive ring length")
            # aligned rings only exist from length 3 on
            if self.kind in (KIND_ONE_D_RING, KIND_DOUBLE_ONE_D_RING) and self.ring_length < 3:
                raise ValueError(f"{self.kind} needs ring length >= 3")
        elif self.ring_length is not None:
            raise ValueError(f"{self.kind} carries no ring length")

    def __str__(self) -> str:
        if self.ring_length is None:
            return self.kind
        return f"{self.kind}({self.ring_length})"


BALANCED_PAIR_SEED = SeedClass(KIND_BALANCED_PAIR)
OTHER_SEED = SeedClass(KIND_OTHER)
DOUBLE_OTHER_SEED = SeedClass(KIND_DOUBLE_OTHER)


def one_d_ring(ring_length: int) -> SeedClass:
    return SeedClass(KIND_ONE_D_RING, ring_length)


def two_d_ring(ring_length: int) -> SeedClass:
    return SeedClass(KIND_TWO_D_RING, ring_length)


def double_one_d_ring(ring_length: int) -> SeedClass:
    return SeedClass(KIND_DOUBLE_ONE_D_RING, ring_length)


def double_two_d_ring(ring_length: int) -> SeedClass:
    return SeedClass(KIND_DOUBLE_TWO_D_RING, ring_length)


# ---------------------------------------------------------------------------
# routes


def parse_route(text: str) -> Route:
    """Parse a comma-separated label list such as "2,4,4,3,1,3"."""
    try:
        route = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad route literal {text!r}") from exc
    if not route or any(v < 1 for v in route):
        raise ValueError(f"route labels must be positive integers, got {text!r}")
    return route


def format_route(route: Sequence[int]) -> str:
    return ",".join(str(v) for v in route)


def zip_routes(first: Sequence[int], second: Sequence[int]) -> Route:
    """Interleave two equal-length routes into (i1,k1,i2,k2,...)."""
    if len(first) != len(second):
        raise ValueError(f"cannot zip routes of lengths {len(first)} and {len(second)}")
    out: list[int] = []
    for a, b in zip(first, second):
        out.append(a)
        out.append(b)
    return tuple(out)


def compact_labels(route: Sequence[int]) -> Route:
    """Relabel to the canonical prefix [r], preserving the order of labels."""
    relabel = {v: i for i, v in enumerate(sorted(set(route)), start=1)}
    return tuple(relabel[v] for v in route)


def route_edges(route: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Directed edges of the closed walk, in walk order."""
    n = len(route)
    return tuple((route[t], route[(t + 1) % n]) for t in range(n))


def reversed_edge_counts(route: Sequence[int]) -> dict[tuple[int, int], int]:
    """Multiplicities of directed edges after flipping every even-numbered edge."""
    counts: dict[tuple[int, int], int] = {}
    n = len(route)
    for t in range(n):
        a, b = route[t], route[(t + 1) % n]
        if t % 2 == 1:  # edge number t+1 is even
            a, b = b, a
        counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def black_labels(route: Sequence[int]) -> frozenset[int]:
    """Labels occurring at odd walk positions (1-based)."""
    return frozenset(route[t] for t in range(0, len(route), 2))


# ---------------------------------------------------------------------------
# balanced leaves and trimming (raw-route helpers, original labels kept)


def leaf_scan(route: Sequence[int]) -> tuple[dict[int, int], tuple[int, ...]]:
    """Label counts of a route and its balanced leaves, in first-visit order."""
    counts: dict[int, int] = {}
    for v in route:
        counts[v] = counts.get(v, 0) + 1
    return counts, tuple(v for v in counts if _is_leaf(route, counts, v))


def _is_leaf(route: Sequence[int], counts: dict[int, int], v: int) -> bool:
    """Whether v is a balanced leaf: one entry, between two entries of one label."""
    if counts[v] != 1 or len(route) <= 2:
        return False
    t = route.index(v)
    return route[t - 1] == route[(t + 1) % len(route)]


def balanced_leaf_labels(route: Sequence[int]) -> tuple[int, ...]:
    """Balanced leaves in increasing label order; none when the walk has <= 2 steps."""
    return tuple(sorted(leaf_scan(route)[1]))


def remove_leaf_from_route(route: Sequence[int], leaf: int) -> Route:
    """Drop the leaf entry and the adjacent neighbour entry, keeping entry parity.

    The entry after the leaf is dropped with it; when the leaf is the last entry
    the one before it is dropped instead.  Labels are kept as they are.
    """
    n = len(route)
    if n <= 2:
        raise ValueError("walks with at most two steps have no balanced leaves")
    if leaf not in balanced_leaf_labels(route):
        raise ValueError(f"vertex {leaf} is not a balanced leaf of {tuple(route)}")
    out = list(route)
    _drop_leaf(out, leaf)
    return tuple(out)


def _drop_leaf(route: list[int], leaf: int) -> int:
    """Remove a known balanced leaf in place; return its neighbour's label.

    Both neighbour copies carry the same label, so dropping either leaves the
    same cyclic sequence.
    """
    n = len(route)
    t = route.index(leaf)
    neighbour = route[t - 1]
    if t == n - 1:
        del route[n - 2 :]
    else:
        del route[t : t + 2]
    return neighbour


def trim_holding(
    route: Sequence[int],
    held: Collection[int] = (),
    scan: tuple[dict[int, int], tuple[int, ...]] | None = None,
) -> Route:
    """Iteratively remove the lowest-labelled balanced leaf not in `held`.

    Labels are kept.  Removing leaf L from ... x u L u y ... leaves
    ... x u y ...: no label other than u changes count or neighbours, so only
    u is re-tested.  `scan` is the route's leaf_scan when the caller already
    has it; it is left unchanged.
    """
    counts, leaves = leaf_scan(route) if scan is None else scan
    current, counts = list(route), dict(counts)
    leaves = [v for v in leaves if v not in held]
    while leaves and len(current) > 2:
        leaf = min(leaves)
        leaves.remove(leaf)
        del counts[leaf]
        neighbour = _drop_leaf(current, leaf)
        counts[neighbour] -= 1
        if neighbour not in held and _is_leaf(current, counts, neighbour):
            leaves.append(neighbour)
    return tuple(current)


def trim_route(route: Sequence[int]) -> Route:
    """Iteratively remove the lowest-labelled balanced leaf; labels are kept."""
    return trim_holding(route)


def classify_leaf_free_route(route: Sequence[int]) -> SeedClass:
    """Classify a leaf-free route as a balanced pair, a ring, or other."""
    n = len(route)
    verts = set(route)
    r = len(verts)
    if n == 2:
        return BALANCED_PAIR_SEED if r == 2 else two_d_ring(1)
    if r == 2 and n == 4:
        a, b = route[0], route[1]
        if a != b and route[2] == a and route[3] == b:
            return two_d_ring(2)
        return OTHER_SEED
    if r >= 3 and n == 2 * r:
        # a ring vertex meets two connections of two edges each
        if any(route.count(v) != 2 for v in verts):
            return OTHER_SEED
        connections: dict[frozenset[int], list[tuple[int, int]]] = {}
        neighbours: dict[int, set[int]] = {v: set() for v in verts}
        for a, b in route_edges(route):
            if a == b:
                return OTHER_SEED
            connections.setdefault(frozenset((a, b)), []).append((a, b))
            neighbours[a].add(b)
            neighbours[b].add(a)
        if len(connections) != r or any(len(ns) != 2 for ns in neighbours.values()):
            return OTHER_SEED
        if any(len(es) != 2 for es in connections.values()):
            return OTHER_SEED
        opposed = all(e1 == (e2[1], e2[0]) for e1, e2 in connections.values())
        if opposed:
            return two_d_ring(r)
        aligned = all(e1 == e2 for e1, e2 in connections.values())
        if aligned:
            return one_d_ring(r)
    return OTHER_SEED


# ---------------------------------------------------------------------------
# circuit multigraphs


class CircuitMultigraph:
    """The linearly edge-ordered directed multigraph traced by a closed walk.

    The walk must visit every label of the canonical prefix [r] for
    r = max(route); this makes the graph exhaustive and connected.
    """

    def __init__(self, route: Sequence[int]):
        route = tuple(route)
        if not route:
            raise ValueError("route must be non-empty")
        if any(not isinstance(v, int) or v < 1 for v in route):
            raise ValueError(f"route labels must be positive integers: {route}")
        r = max(route)
        missing = set(range(1, r + 1)) - set(route)
        if missing:
            raise ValueError(f"route {route} misses labels {sorted(missing)} below {r}")
        self.route: Route = route
        self.vertex_count: int = r

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CircuitMultigraph) and self.route == other.route

    def __hash__(self) -> int:
        return hash(self.route)

    def __repr__(self) -> str:
        return f"CircuitMultigraph({format_route(self.route)!r})"

    def __len__(self) -> int:
        return len(self.route)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return route_edges(self.route)

    @cached_property
    def black_set(self) -> frozenset[int]:
        return black_labels(self.route)

    def reversed_adjacency(self) -> list[list[int]]:
        """Dense r x r matrix counting edges of the reversed graph.

        This is the paper's reversed adjacency matrix, kept as the readable
        form of what `reversed_edge_counts` computes for the weights.
        """
        r = self.vertex_count
        matrix = [[0] * r for _ in range(r)]
        for (a, b), c in reversed_edge_counts(self.route).items():
            matrix[a - 1][b - 1] += c
        return matrix

    def balanced_leaves(self) -> frozenset[int]:
        return frozenset(balanced_leaf_labels(self.route))

    def remove_leaf(self, leaf: int) -> "CircuitMultigraph":
        """Graph with the leaf removed, relabelled back to a canonical prefix."""
        return CircuitMultigraph(compact_labels(remove_leaf_from_route(self.route, leaf)))

    @cached_property
    def _seed_route_raw(self) -> Route:
        return trim_route(self.route)

    def seed(self) -> "CircuitMultigraph":
        return CircuitMultigraph(compact_labels(self._seed_route_raw))

    @cached_property
    def _seed_class(self) -> SeedClass:
        return classify_leaf_free_route(self._seed_route_raw)

    def seed_class(self) -> SeedClass:
        return self._seed_class

    def record(self) -> dict:
        """JSON-ready structured record of the graph."""
        return {
            "route": format_route(self.route),
            "edges": [list(e) for e in self.edges],
            "black_set": sorted(self.black_set),
            "seed_route": format_route(self.seed().route),
            "seed_class": {
                "kind": self._seed_class.kind,
                "ring_length": self._seed_class.ring_length,
            },
        }


def build_graph(route: Sequence[int]) -> CircuitMultigraph:
    return CircuitMultigraph(route)


# ---------------------------------------------------------------------------
# double-circuit multigraphs


def _rotations(seq: Route) -> set[Route]:
    n = len(seq)
    return {seq[s:] + seq[:s] for s in range(n)}


def classify_leaf_free_double(first: Sequence[int], second: Sequence[int]) -> SeedClass:
    """Classify a leaf-free pair of routes as a double ring or double-other.

    Both routes must be simple cycles through the same vertex set; the pair is
    two-directional when one route is a rotation of the other read backwards,
    one-directional when it is a rotation read forwards.  Membership in the
    named classes additionally needs the two starting vertices an even number
    of ring steps apart.
    """
    first, second = tuple(first), tuple(second)
    n = len(first)
    if len(second) != n:
        return DOUBLE_OTHER_SEED
    if len(set(first)) != n or set(second) != set(first):
        return DOUBLE_OTHER_SEED
    kind = None
    if second[::-1] in _rotations(first):
        kind = KIND_DOUBLE_TWO_D_RING
    elif n >= 3 and second in _rotations(first):
        kind = KIND_DOUBLE_ONE_D_RING
    if kind is None:
        return DOUBLE_OTHER_SEED
    offset = first.index(second[0])
    if offset % 2 != 0:
        return DOUBLE_OTHER_SEED
    return SeedClass(kind, n)


def trim_double(first: Sequence[int], second: Sequence[int]) -> tuple[Route, Route]:
    """Trim a pair of routes; a leaf must be unvisited by the other route.

    A removed leaf is visited by one route only, and its neighbour keeps an
    entry, so the labels the two routes share never change while they are
    trimmed.  Each route is therefore trimmed on its own, lowest label first,
    with the shared labels held.
    """
    shared = set(first) & set(second)
    return trim_holding(first, shared), trim_holding(second, shared)


class DoubleCircuitMultigraph:
    """An ordered pair of closed walks jointly covering the vertex set [r]."""

    def __init__(self, first: Sequence[int], second: Sequence[int]):
        first, second = tuple(first), tuple(second)
        if not first or not second:
            raise ValueError("both routes must be non-empty")
        labels = set(first) | set(second)
        if any(not isinstance(v, int) or v < 1 for v in labels):
            raise ValueError("route labels must be positive integers")
        r = max(labels)
        missing = set(range(1, r + 1)) - labels
        if missing:
            raise ValueError(f"routes jointly miss labels {sorted(missing)} below {r}")
        self.first: Route = first
        self.second: Route = second
        self.vertex_count: int = r

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DoubleCircuitMultigraph)
            and self.first == other.first
            and self.second == other.second
        )

    def __hash__(self) -> int:
        return hash((self.first, self.second))

    def __repr__(self) -> str:
        return f"DoubleCircuitMultigraph({format_route(self.first)!r}, {format_route(self.second)!r})"

    @cached_property
    def black_set(self) -> frozenset[int]:
        return black_labels(self.first) | black_labels(self.second)

    def balanced_leaves(self) -> frozenset[int]:
        s1, s2 = set(self.first), set(self.second)
        leaves = {v for v in balanced_leaf_labels(self.first) if v not in s2}
        leaves |= {v for v in balanced_leaf_labels(self.second) if v not in s1}
        return frozenset(leaves)

    @cached_property
    def _seed_routes_raw(self) -> tuple[Route, Route]:
        return trim_double(self.first, self.second)

    def seed_routes_original_labels(self) -> tuple[Route, Route]:
        return self._seed_routes_raw

    def seed(self) -> "DoubleCircuitMultigraph":
        r1, r2 = self._seed_routes_raw
        relabel = {v: i for i, v in enumerate(sorted(set(r1) | set(r2)), start=1)}
        return DoubleCircuitMultigraph(
            tuple(relabel[v] for v in r1), tuple(relabel[v] for v in r2)
        )

    @cached_property
    def _seed_class(self) -> SeedClass:
        return classify_leaf_free_double(*self._seed_routes_raw)

    def seed_class(self) -> SeedClass:
        return self._seed_class

    def record(self) -> dict:
        seed = self.seed()
        return {
            "routes": [format_route(self.first), format_route(self.second)],
            "black_set": sorted(self.black_set),
            "seed_routes": [format_route(seed.first), format_route(seed.second)],
            "seed_class": {
                "kind": self._seed_class.kind,
                "ring_length": self._seed_class.ring_length,
            },
        }


def build_double_graph(
    first: Sequence[int], second: Sequence[int]
) -> DoubleCircuitMultigraph:
    return DoubleCircuitMultigraph(first, second)
