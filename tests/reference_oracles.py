"""Reference oracle: the backtracking that counted Tait colorings before the
edge-label sweep of :func:`vhx.oracles.count_tait_colorings`.

Edges are colored one at a time, in the order a walk from vertex 0 meets
them, and a color is tried only where no edge at either end already has
it.  Its cost grows with the number of colorings, so it is kept to check
the sweep, and refuses more than ``TAIT_EDGE_CAP`` edges.  Perfect matchings are checked
against ``len(vhx.oracles.perfect_matchings(g))``, their enumeration.
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
