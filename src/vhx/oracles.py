"""Ground truth on the abstract multigraph.

Everything here ignores the ribbon structure: perfect matchings, their
even/odd classification, Tait colorings (proper 3-edge-colorings), and
bridges serve as independent oracles for the theorems the homology side
computes categorically.  Counts come from an edge-label sweep
(:func:`~vhx.poly._edge_labelings`), refused past the same ``cap`` as the
state sums; lists come from enumeration.  Bridges and cycle profiles are
component counts (:func:`~vhx.vpd.components`).
"""

from __future__ import annotations

from collections import Counter

from .poly import _edge_labelings
from .states import DEFAULT_STATE_CAP
from .vpd import Frozen, RotationSystem, components


class AbstractGraph(Frozen):
    """A multigraph (loops allowed) as a vertex count plus an edge list."""

    _fields = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", edges)

    @staticmethod
    def from_rotation_system(rs: RotationSystem) -> "AbstractGraph":
        ends = rs.edge_endpoints()
        return AbstractGraph(
            rs.vertex_count, tuple(tuple(ends[e]) for e in sorted(ends))
        )

    def incident(self) -> list[list[int]]:
        inc: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for i, (u, w) in enumerate(self.edges):
            inc[u].append(i)
            if w != u:
                inc[w].append(i)
        return inc

    def is_trivalent(self) -> bool:
        deg = [0] * self.n_vertices
        for u, w in self.edges:
            deg[u] += 1
            deg[w] += 1
        return all(d == 3 for d in deg)


def perfect_matchings(g: AbstractGraph) -> list[frozenset[int]]:
    """All perfect matchings (as sets of edge indices), by backtracking in
    deterministic order.  Loops never participate."""
    inc = g.incident()
    out: list[frozenset[int]] = []
    covered = [False] * g.n_vertices

    def rec(chosen: list[int]) -> None:
        try:
            v = covered.index(False)
        except ValueError:
            out.append(frozenset(chosen))
            return
        for e in inc[v]:
            u, w = g.edges[e]
            if u == w:
                continue
            other = w if u == v else u
            if covered[other]:
                continue
            covered[v] = covered[other] = True
            chosen.append(e)
            rec(chosen)
            chosen.pop()
            covered[v] = covered[other] = False

    rec([])
    return out


def classify_matching(g: AbstractGraph, matching: frozenset[int]) -> tuple[bool, list[int]]:
    """(is_even, cycle length profile) of G \\ M for a perfect matching M of
    a trivalent graph.  G \\ M is 2-regular, so each of its components is a
    cycle with as many edges as vertices: the lengths are the edge counts
    per component."""
    if not g.is_trivalent():
        raise ValueError("cycle profiles require a trivalent graph")
    covered = set()
    for e in matching:
        if e not in range(len(g.edges)):
            raise ValueError("not a perfect matching")
        u, w = g.edges[e]
        if u == w or u in covered or w in covered:
            raise ValueError("not a perfect matching")
        covered.update((u, w))
    if len(covered) != g.n_vertices:
        raise ValueError("not a perfect matching")
    rest = [uw for e, uw in enumerate(g.edges) if e not in matching]
    label = components(g.n_vertices, rest)
    lengths = sorted(Counter(label[u] for u, _ in rest).values())
    return all(l % 2 == 0 for l in lengths), lengths


def count_tait_colorings(g: AbstractGraph, cap: int = DEFAULT_STATE_CAP) -> int:
    """Number of proper 3-edge-colorings of a trivalent multigraph, by the
    edge-label sweep; a loop meets its vertex twice with one color."""
    if not g.is_trivalent():
        raise ValueError("Tait colorings require a trivalent graph")
    return _edge_labelings(g.n_vertices, g.edges, 3, lambda ls: len(set(ls)) == 3, cap)


def count_perfect_matchings(g: AbstractGraph, cap: int = DEFAULT_STATE_CAP) -> int:
    """Number of perfect matchings, by the edge-label sweep: each vertex
    meets exactly one matched edge, and a matched loop would meet it twice."""
    return _edge_labelings(g.n_vertices, g.edges, 2, lambda ls: sum(ls) == 1, cap)


def bridges(g: AbstractGraph) -> frozenset[int]:
    """Cut edges: an edge is a bridge iff removing it leaves more
    components.  One component count per edge, O(|E| * (|V| + |E|))."""
    def count(edges) -> int:
        return len(set(components(g.n_vertices, edges)))

    whole = count(g.edges)
    return frozenset(
        e for e in range(len(g.edges)) if count(g.edges[:e] + g.edges[e + 1 :]) > whole
    )
