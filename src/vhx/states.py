"""Hypercubes of smoothing states and circle correspondences.

Two hypercubes are used: the *vertex hypercube* over {0,1}^|V| (a vertex
1-smoothing half-twists all three bands at that vertex) and the *matching
hypercube* over {0,1}^|M| of a perfect matching diagram (a 1-smoothing
half-twists one matching band).

Vertex states are refined by *sites*: site ``3v + i`` is vertex ``v``'s
``i``-th band end.  Flipping a site toggles the side-swap of the underlying
edge, so a full vertex flip is three site flips — the three matching
half-edges at that vertex's blowup cycle in the bubbled blowup.  Intermediate
site states realize the 3-edge paths along which vertex differentials are
composed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .vpd import (
    CircleDecomposition,
    PerfectMatchingDiagram,
    RotationSystem,
    edge_tokens,
)

DEFAULT_STATE_CAP = 24


class StateSpaceError(ValueError):
    pass


class InvariantError(RuntimeError):
    """An internal invariant of a computation is violated (a bug, not bad input)."""


@dataclass(frozen=True)
class StateIndex:
    bits: tuple[int, ...]

    @property
    def weight(self) -> int:
        return sum(self.bits)

    def flip(self, site: int) -> "StateIndex":
        b = list(self.bits)
        b[site] ^= 1
        return StateIndex(tuple(b))

    def sign_at(self, site: int) -> int:
        """(-1)^(number of 1s strictly left of the site)."""
        return -1 if sum(self.bits[:site]) % 2 else 1


@dataclass(frozen=True)
class HypercubeEdge:
    tail: StateIndex
    head: StateIndex
    site: int
    sign: int


@dataclass(frozen=True)
class CircleCorrespondence:
    kind: str  # merge | split | same-circle
    stable_pairs: tuple[tuple[int, int], ...]  # (before idx, after idx)
    active_before: tuple[int, ...]
    active_after: tuple[int, ...]


def all_states(sites: int):
    for mask in range(1 << sites):
        yield StateIndex(tuple((mask >> (sites - 1 - i)) & 1 for i in range(sites)))


def hypercube_edges(state: StateIndex):
    for site, b in enumerate(state.bits):
        if b == 0:
            yield HypercubeEdge(state, state.flip(site), site, state.sign_at(site))


def vertex_state(rs: RotationSystem, nu: StateIndex) -> RotationSystem:
    """Realize a vertex state: multiply each edge sign by (-1)^(1-smoothed ends)."""
    if len(nu.bits) != rs.vertex_count:
        raise StateSpaceError("state length != vertex count")
    flips = rs.ribbon.state_mask(nu.bits)
    verts = []
    for v in rs.vertices:
        tup = []
        for h in v:
            e = (abs(h) + 1) // 2
            if flips >> (e - 1) & 1 and abs(h) % 2 == 1:
                tup.append(-h)
            else:
                tup.append(h)
        verts.append(tuple(tup))
    return RotationSystem(tuple(verts))


def pm_state(pmd: PerfectMatchingDiagram, alpha: StateIndex) -> RotationSystem:
    """Realize a matching state: flip the sign of each 1-smoothed matching edge."""
    if len(alpha.bits) != len(pmd.matching):
        raise StateSpaceError("state length != matching size")
    flips = frozenset(e for e, b in zip(pmd.matching, alpha.bits) if b)
    verts = []
    for v in pmd.rs.vertices:
        tup = []
        for h in v:
            e = (abs(h) + 1) // 2
            if e in flips and abs(h) % 2 == 1:
                tup.append(-h)
            else:
                tup.append(h)
        verts.append(tuple(tup))
    return RotationSystem(tuple(verts))


def circle_correspondence(
    before: CircleDecomposition, after: CircleDecomposition, edge: int
) -> CircleCorrespondence:
    """Match circles across a single band flip on ``edge``.

    Stable circles avoid the flipped band's four tokens and are paired by
    token-set equality; active circles meet the band.  The kind follows the
    circle-count delta.
    """
    pts = edge_tokens(edge)
    act_b = tuple(i for i, c in enumerate(before.circles) if set(c) & pts)
    act_a = tuple(i for i, c in enumerate(after.circles) if set(c) & pts)
    stable_b = [i for i in range(before.circle_count) if i not in act_b]
    by_tokens = {
        after.circle_tokens(i): i
        for i in range(after.circle_count)
        if i not in act_a
    }
    pairs = []
    for i in stable_b:
        j = by_tokens.get(before.circle_tokens(i))
        if j is None:
            raise InvariantError("stable circle has no token-set partner")
        pairs.append((i, j))
    if len(pairs) != after.circle_count - len(act_a):
        raise InvariantError("stable circle matching is not a bijection")
    delta = after.circle_count - before.circle_count
    if (len(act_b), len(act_a)) == (2, 1) and delta == -1:
        kind = "merge"
    elif (len(act_b), len(act_a)) == (1, 2) and delta == 1:
        kind = "split"
    elif (len(act_b), len(act_a)) == (1, 1) and delta == 0:
        kind = "same-circle"
    elif not act_b and not act_a and delta == 0:
        kind = "same-circle"
    else:
        raise InvariantError(
            f"impossible correspondence: {len(act_b)} -> {len(act_a)} circles"
        )
    return CircleCorrespondence(kind, tuple(pairs), act_b, act_a)


def vertex_to_bubbled_path(
    nu_tail: StateIndex, nu_head: StateIndex, bubbled: PerfectMatchingDiagram
) -> tuple[int, ...]:
    """Canonical 3-edge path in the bubbled blowup for a vertex flip.

    Returns the three matching-site indices incident to the flipped vertex's
    blowup cycle, in ascending site order.
    """
    diff = [i for i, (a, b) in enumerate(zip(nu_tail.bits, nu_head.bits)) if a != b]
    if len(diff) != 1 or nu_tail.bits[diff[0]] != 0:
        raise StateSpaceError("states do not differ by a single raised bit")
    v = diff[0]
    sites = tuple(
        s for s, (ov, _pos) in enumerate(bubbled.site_origin) if ov == v
    )
    if len(sites) != 3:
        raise StateSpaceError("flipped vertex does not own exactly 3 matching sites")
    return sites


class VertexHypercube:
    """Lazy, memoized boundary circles of vertex and site smoothing states.

    Every state is named by its edge-swap mask (see :class:`~vhx.vpd.Ribbon`).
    A vertex state ``nu`` swaps the edges whose endpoints are smoothed
    differently, so ``nu`` and its complement share one mask; flipping site
    ``3v + i`` swaps the edge of vertex ``v``'s ``i``-th band end.
    """

    def __init__(self, rs: RotationSystem, cap: int = DEFAULT_STATE_CAP):
        if not rs.is_trivalent():
            raise StateSpaceError("vertex hypercube requires a trivalent diagram")
        self.ribbon = rs.ribbon
        self.cap = cap
        self.n_vertices = rs.vertex_count
        self.site_edge = [
            (abs(h) + 1) // 2 for v in rs.vertices for h in v
        ]
        self._dec_cache: dict[int, CircleDecomposition] = {}

    def check_cap(self) -> None:
        if self.n_vertices > self.cap:
            raise StateSpaceError(
                f"|V| = {self.n_vertices} exceeds the state cap {self.cap}"
            )

    def decomposition(self, mask: int) -> CircleDecomposition:
        dec = self._dec_cache.get(mask)
        if dec is None:
            dec = self._dec_cache[mask] = self.ribbon.decomposition(mask)
        return dec

    def vertex_decomposition(self, nu: StateIndex) -> CircleDecomposition:
        return self.decomposition(self.ribbon.state_mask(nu.bits))

    def site_path(self, nu: StateIndex, vertex: int, order=(0, 1, 2)):
        """Swap masks and flipped edges along a 3-edge path flipping ``vertex``."""
        mask = self.ribbon.state_mask(nu.bits)
        masks = [mask]
        edges = []
        for i in order:
            e = self.site_edge[3 * vertex + i]
            mask ^= 1 << (e - 1)
            masks.append(mask)
            edges.append(e)
        return masks, edges
