"""Filtered homology ranks via harmonic circle colorings.

The filtered homology rank in homological degree i equals the number of
n-colorings of the boundary circles, summed over weight-i states, in which
every vertex sees at least two colors among its three corner arcs.  Each
rank is an integer polynomial in n, found for all degrees at once by the
vertex sweep :func:`~vhx.poly.rank_polynomials`; every n is then an
evaluation.  This module also derives the total matching polynomial,
extracts the matching a coloring induces, and cross-checks the
combinatorics against exact kernels of the hat maps and their adjoints,
counting each state's colorings by backtracking.
"""

from __future__ import annotations

import itertools

from .poly import _Poly, rank_polynomials
from .states import DEFAULT_STATE_CAP, state_mask
from .vpd import Record, RotationSystem


class TPoly(_Poly):
    """Integer polynomial in the filtration variable t."""

    var = "t"


# ---------------------------------------------------------------------------
# counting


def _count_constrained(constraints, ncircles: int, n: int) -> int:
    """Backtracking count of circle colorings avoiding monochromatic
    constraint triples; circles with most constraints are colored first.
    Colors are interchangeable, so a circle takes one of the ``used`` colors
    already placed or a fresh one standing for the ``n - used`` others: at
    most Bell(ncircles) leaves, not n^ncircles."""
    if any(len(set(c)) == 1 for c in constraints):
        return 0
    load = [0] * ncircles
    for c in constraints:
        for x in set(c):
            load[x] += 1
    order = sorted(range(ncircles), key=lambda x: (-load[x], x))
    pos = {c: i for i, c in enumerate(order)}
    # a constraint becomes checkable once its last circle is colored
    ready: list[list[tuple[int, ...]]] = [[] for _ in range(ncircles)]
    for con in constraints:
        ready[max(pos[c] for c in con)].append(con)
    color = [0] * ncircles

    def rec(depth: int, used: int) -> int:
        if depth == ncircles:
            return 1
        total = 0
        for col in range(min(used + 1, n)):
            color[order[depth]] = col
            if all(len({color[c] for c in con}) > 1 for con in ready[depth]):
                if col < used:
                    total += rec(depth + 1, used)
                else:
                    total += (n - used) * rec(depth + 1, used + 1)
        return total

    return rec(0, 0)


# ---------------------------------------------------------------------------
# filtered ranks


class FaceColoring(Record):
    """A circle coloring of one vertex state (0/1 smoothing per vertex)."""

    _fields = ("state", "colors")

    def __init__(self, state: tuple[int, ...], colors: tuple[int, ...]):
        self.state = state
        self.colors = colors


class FilteredRanks(Record):
    _fields = ("n", "ranks")

    def __init__(self, n: int, ranks: list[int]):
        self.n = n
        self.ranks = ranks  # indexed by homological degree i

    @property
    def euler(self) -> int:
        return sum((-1) ** i * r for i, r in enumerate(self.ranks))

    @property
    def total(self) -> int:
        return sum(self.ranks)

    def tm_poly(self) -> TPoly:
        return TPoly({i: r for i, r in enumerate(self.ranks) if r})

    def to_json(self) -> str:
        import json

        return json.dumps(
            {"n": self.n, "ranks": self.ranks, "euler": self.euler, "tm": self.total}
        )


def filtered_ranks(
    rs: RotationSystem,
    n: int,
    cap: int = DEFAULT_STATE_CAP,
) -> FilteredRanks:
    """Filtered homology ranks: :func:`~vhx.poly.rank_polynomials`
    evaluated at n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return FilteredRanks(n, [p(n) for p in rank_polynomials(rs, cap)])


def total_matching_polynomial(
    rs: RotationSystem, n: int, cap: int = DEFAULT_STATE_CAP
) -> TPoly:
    """TM(Gamma, n, t) = sum_i t^i rank_i; TM(Gamma, n) is its value at 1."""
    return filtered_ranks(rs, n, cap).tm_poly()


# ---------------------------------------------------------------------------
# induced matchings


def induced_matching(coloring: FaceColoring, rs: RotationSystem) -> tuple[frozenset[int], str]:
    """Edges whose two band sides lie on same-colored circles.

    Returns (edge set, classification): ``empty`` when the coloring is
    proper at every vertex, ``perfect matching`` when it is partial (exactly
    two colors) at every vertex, ``mixed`` otherwise.
    """
    owner, walks = rs.ribbon.trace(state_mask(rs, coloring.state))
    colors = coloring.colors
    if len(colors) != len(walks):
        raise ValueError("coloring length does not match the state's circles")
    # the number of colors each vertex sees at its corners
    kinds = {len({colors[owner[a]] for a in outs}) for outs in rs.ribbon.corners}
    if 1 in kinds:
        raise ValueError("coloring violates the partial condition")
    # an edge's odd half-edge carries token ids 4e - 4 and 4e - 3, its two sides
    edges = frozenset(
        e
        for e in range(1, rs.edge_count + 1)
        if colors[owner[4 * e - 4]] == colors[owner[4 * e - 3]]
    )
    if kinds == {3}:
        cls = "empty"
    elif kinds == {2}:
        cls = "perfect matching"
    else:
        cls = "mixed"
    return edges, cls


# ---------------------------------------------------------------------------
# exact cross-check of the harmonic characterization


class KernelReport(Record):
    _fields = ("n", "per_state")

    def __init__(self, n: int, per_state: dict[tuple[int, ...], tuple[int, int, str]]):
        self.n = n
        self.per_state = per_state  # (count, kernel dimension, status) per state

    @property
    def ok(self) -> bool:
        return all(s == "ok" for _, _, s in self.per_state.values())


def harmonic_kernel_check(
    rs: RotationSystem, n: int, cap: int = DEFAULT_STATE_CAP
) -> KernelReport:
    """Check dim(ker delta-hat intersect ker of its adjoint) per state
    against the combinatorial coloring count.

    The kernel is n^k minus the exact rank of the state's outgoing hat maps
    stacked on the transposes of its incoming ones, each map's integer
    entries being its coefficients over one power of sqrt n
    (:meth:`LocalMaps.edge_map`), a scalar per map that leaves the rank as
    it is.  The traces and band models are the ribbon's, shared with the
    complexes built on it, and the check is refused, before any trace, where
    the complex at ``n`` would be.
    """
    from .homology import _sized_maps, matrix_rank

    maps = _sized_maps(rs, n, cap)
    ribbon = maps.ribbon

    per_state: dict[tuple[int, ...], tuple[int, int, str]] = {}
    for bits in itertools.product([0, 1], repeat=rs.vertex_count):
        mask = state_mask(rs, bits)
        # a corner's circle is its out token's rank over the token count
        firsts, rank = maps.trace(mask)
        k = len(firsts)
        corners = [[rank[a] // ribbon.ntok for a in outs] for outs in ribbon.corners]
        count = _count_constrained(corners, k, n)
        # monomials are orthogonal of norm n^k, so an adjoint is a scaled transpose
        block, rows = {}, 0
        for v, path in enumerate(ribbon.bands):
            incoming = bits[v]
            # an incoming edge starts where vertex v is 0-smoothed
            kb, ka, local, stable = maps.edge_map(
                mask ^ ribbon.vertex_masks[v] if incoming else mask, path, (("hat",) * 3,)
            )
            for sp, tp, c in local:
                for ss, st in stable:
                    src, tgt = sp + ss, tp + st
                    block[(rows + src, tgt) if incoming else (rows + tgt, src)] = c
            rows += n ** (kb if incoming else ka)
        kernel = n**k - matrix_rank(block)
        per_state[bits] = (count, kernel, "ok" if kernel == count else "mismatch")
    return KernelReport(n, per_state)
