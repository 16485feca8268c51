"""Ground truth on the abstract multigraph.

Everything here ignores the ribbon structure: perfect matchings, their
even/odd classification, Tait colorings (proper 3-edge-colorings), and
bridges serve as independent oracles for the theorems the homology side
computes categorically.  Counts come from an edge-label sweep
(:func:`~vhx.poly._edge_labelings`), refused past the same ``cap`` as the
state sums; lists come from enumeration.
"""

from __future__ import annotations

from .poly import _edge_labelings
from .states import DEFAULT_STATE_CAP
from .vpd import Frozen, RotationSystem


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
    """(is_even, cycle length profile) of the 2-regular complement G \\ M."""
    covered = set()
    for e in matching:
        u, w = g.edges[e]
        if u == w or u in covered or w in covered:
            raise ValueError("not a perfect matching")
        covered.update((u, w))
    if len(covered) != g.n_vertices:
        raise ValueError("not a perfect matching")
    rest = [i for i in range(len(g.edges)) if i not in matching]
    inc: dict[int, list[int]] = {v: [] for v in range(g.n_vertices)}
    for e in rest:
        u, w = g.edges[e]
        inc[u].append(e)
        inc[w].append(e)
    lengths = []
    seen_e: set[int] = set()
    for start in rest:
        if start in seen_e:
            continue
        length = 0
        e, v = start, g.edges[start][0]
        while e not in seen_e:
            seen_e.add(e)
            length += 1
            u, w = g.edges[e]
            v = w if (u == v and u != w) else u
            nxt = [x for x in inc[v] if x not in seen_e]
            if not nxt:
                break
            e = nxt[0]
        lengths.append(length)
    lengths.sort()
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
    """Cut edges, by the standard low-link computation (iterative)."""
    inc = g.incident()
    disc = [-1] * g.n_vertices
    low = [0] * g.n_vertices
    out: set[int] = set()
    timer = 0
    for root in range(g.n_vertices):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]  # (v, via edge, child idx)
        while stack:
            v, via, idx = stack.pop()
            if idx == 0:
                disc[v] = low[v] = timer
                timer += 1
            if idx < len(inc[v]):
                stack.append((v, via, idx + 1))
                e = inc[v][idx]
                if e == via:
                    continue
                u, w = g.edges[e]
                if u == w:
                    continue
                other = w if u == v else u
                if disc[other] == -1:
                    stack.append((other, e, 0))
                else:
                    low[v] = min(low[v], disc[other])
            elif via != -1:
                u, w = g.edges[via]
                parent = u if disc[u] < disc[v] else w
                low[parent] = min(low[parent], low[v])
                if low[v] > disc[parent]:
                    out.add(via)
    return frozenset(out)
