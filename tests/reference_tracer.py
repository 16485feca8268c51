"""Reference oracle: the dict-and-tuple boundary tracer that predates the
compiled :class:`vhx.vpd.Ribbon`, kept only to gate the kernel, the
realization of a vertex state as a rotation system, and the brute-force
count of harmonic colorings.

The tracer rebuilds its arc and glue tables from token tuples for every
state, so it is slow, but it shares no code with the kernel: its
:class:`CircleDecomposition` record, which vhx once returned too, lives
here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from vhx.vpd import RotationSystem

Token = tuple[int, int]  # (half-edge magnitude, side 1|2)


@dataclass(frozen=True)
class CircleDecomposition:
    """Boundary circles of a ribbon state plus per-vertex corner incidences.

    ``circles[c]`` lists the tokens of circle ``c`` in traversal order;
    circles are sorted by minimal token.  ``corner_map[v]`` gives, for each
    vertex, the circle index of each of its corner arcs, aligned with the
    vertex's half-edge tuple: corner ``i`` is the arc leaving half-edge
    ``i`` toward half-edge ``i+1``.
    """

    circles: tuple[tuple[Token, ...], ...]
    corner_map: tuple[tuple[int, ...], ...]

    @property
    def circle_count(self) -> int:
        return len(self.circles)

    def token_owner(self) -> dict[Token, int]:
        return {t: c for c, circ in enumerate(self.circles) for t in circ}

    def circle_tokens(self, c: int) -> frozenset[Token]:
        return frozenset(self.circles[c])


def _out_token(h: int) -> Token:
    H = abs(h)
    return (H, 2) if H % 2 == 1 else (H, 1)


def _in_token(h: int) -> Token:
    H = abs(h)
    return (H, 1) if H % 2 == 1 else (H, 2)


def reference_trace(rs: RotationSystem, extra_swaps: frozenset[int] = frozenset()) -> CircleDecomposition:
    neg = rs._negative()
    arc: dict[Token, Token] = {}
    for v in rs.vertices:
        r = len(v)
        for i in range(r):
            a, b = _out_token(v[i]), _in_token(v[(i + 1) % r])
            arc[a] = b
            arc[b] = a
    glue: dict[Token, Token] = {}
    for e in range(1, rs.edge_count + 1):
        swap = neg[e] ^ (e in extra_swaps)
        if not swap:
            pairs = (((2 * e - 1, 1), (2 * e, 1)), ((2 * e - 1, 2), (2 * e, 2)))
        else:
            pairs = (((2 * e - 1, 1), (2 * e, 2)), ((2 * e - 1, 2), (2 * e, 1)))
        for a, b in pairs:
            glue[a] = b
            glue[b] = a

    seen: set[Token] = set()
    circles: list[tuple[Token, ...]] = []
    for start in sorted(arc):
        if start in seen:
            continue
        walk: list[Token] = []
        p = start
        while p not in seen:
            seen.add(p)
            q = arc[p]
            seen.add(q)
            walk += [p, q]
            p = glue[q]
        circles.append(tuple(walk))
    circles.sort(key=lambda c: min(c))

    owner = {t: c for c, circ in enumerate(circles) for t in circ}
    corner_map = tuple(
        tuple(owner[_out_token(v[i])] for i in range(len(v)))
        for v in rs.vertices
    )
    return CircleDecomposition(tuple(circles), corner_map)


def vertex_swaps(rs: RotationSystem, bits: tuple[int, ...]) -> frozenset[int]:
    """Edges whose two endpoints are smoothed differently in state ``bits``."""
    return frozenset(
        e for e, (u, w) in rs.edge_endpoints().items() if (bits[u] + bits[w]) % 2 == 1
    )


def vertex_state(rs: RotationSystem, bits: tuple[int, ...]) -> RotationSystem:
    """Realize a vertex state as a rotation system: negate the odd label of
    every edge whose two endpoints are smoothed differently (a loop never)."""
    flips = vertex_swaps(rs, bits)
    return RotationSystem(
        tuple(
            tuple(-h if abs(h) % 2 == 1 and (abs(h) + 1) // 2 in flips else h for h in v)
            for v in rs.vertices
        )
    )


def harmonic_colorings(dec: CircleDecomposition, n: int):
    """Every n-coloring of the circles with no monochromatic vertex, by
    enumerating all n^k colorings."""
    for colors in itertools.product(range(n), repeat=dec.circle_count):
        if all(len({colors[c] for c in corners}) > 1 for corners in dec.corner_map):
            yield colors
