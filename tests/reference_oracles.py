"""Reference oracles: the traversals that :mod:`vhx.oracles` used before
it counted with an edge-label sweep and with component counts.

- :func:`backtrack_tait_colorings` counted Tait colorings before the sweep
  of :func:`vhx.oracles.count_tait_colorings`.  Edges are colored one at a
  time, in the order a walk from vertex 0 meets them, and a color is tried
  only where no edge at either end already has it.  Its cost grows with the
  number of colorings, so it is kept to check the sweep, and refuses more
  than ``TAIT_EDGE_CAP`` edges.  Perfect matchings are checked against
  ``len(vhx.oracles.perfect_matchings(g))``, their enumeration.
- :func:`tarjan_bridges` is the iterative low-link computation that found
  bridges before :func:`vhx.oracles.bridges` counted components.
- :func:`walk_cycle_profile` walks the cycles of G \\ M edge by edge, as
  :func:`vhx.oracles.classify_matching` did before it counted edges per
  component.
"""

from __future__ import annotations

from vhx.oracles import AbstractGraph

TAIT_EDGE_CAP = 36


def backtrack_tait_colorings(g: AbstractGraph) -> int:
    """Number of proper 3-edge-colorings of a trivalent multigraph."""
    if not g.is_trivalent():
        raise ValueError("Tait colorings require a trivalent graph")
    if len(g.edges) > TAIT_EDGE_CAP:
        raise ValueError(f"|E| = {len(g.edges)} exceeds the Tait cap {TAIT_EDGE_CAP}")
    if any(u == w for u, w in g.edges):
        return 0  # a loop meets its vertex twice with one color
    inc = g.incident()
    color = [-1] * len(g.edges)
    # order edges to keep the frontier connected (simple BFS over edges)
    order: list[int] = []
    seen = set()
    stack = [0] if g.edges else []
    seen_v = set()
    while stack:
        v = stack.pop()
        if v in seen_v:
            continue
        seen_v.add(v)
        for e in inc[v]:
            if e not in seen:
                seen.add(e)
                order.append(e)
            u, w = g.edges[e]
            stack.extend(x for x in (u, w) if x not in seen_v)
    order += [e for e in range(len(g.edges)) if e not in seen]

    def ok(e: int, c: int) -> bool:
        u, w = g.edges[e]
        for v in (u, w):
            for f in inc[v]:
                if f != e and color[f] == c:
                    return False
        return True

    def rec(i: int) -> int:
        if i == len(order):
            return 1
        e = order[i]
        total = 0
        for c in range(3):
            if ok(e, c):
                color[e] = c
                total += rec(i + 1)
                color[e] = -1
        return total

    return rec(0)


def tarjan_bridges(g: AbstractGraph) -> frozenset[int]:
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


def walk_cycle_profile(g: AbstractGraph, matching: frozenset[int]) -> tuple[bool, list[int]]:
    """(is_even, cycle length profile) of the 2-regular complement G \\ M of
    a perfect matching M, walking each cycle edge by edge."""
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
