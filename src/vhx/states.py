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

from .vpd import CircleDecomposition, PerfectMatchingDiagram, RotationSystem

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
class CircleCorrespondence:
    kind: str  # merge | split | same-circle
    stable_pairs: tuple[tuple[int, int], ...]  # (before idx, after idx)
    active_before: tuple[int, ...]
    active_after: tuple[int, ...]


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


def circle_correspondence(before, after, edge: int) -> CircleCorrespondence:
    """Match circles across a single band flip on ``edge``.

    ``before`` and ``after`` are :meth:`~vhx.vpd.Ribbon.trace` results
    (owner array, walks).  Active circles meet the flipped band's four
    tokens; every other circle must reappear with the same token set.  The
    kind follows the circle-count delta.
    """
    (own_b, walks_b), (own_a, walks_a) = before, after
    q = 4 * edge - 4
    act_b = tuple(sorted({own_b[q], own_b[q + 1], own_b[q + 2], own_b[q + 3]}))
    act_a = tuple(sorted({own_a[q], own_a[q + 1], own_a[q + 2], own_a[q + 3]}))
    kb, ka = len(walks_b), len(walks_a)
    # name a stable circle by its partner (the after circle holding its
    # first token) and an active one by -1: the token sets agree exactly
    # when every token gets the same name on both sides
    partner = [own_a[walk[0]] for walk in walks_b]
    for c in act_b:
        partner[c] = -1
    name_a = list(range(ka))
    for c in act_a:
        name_a[c] = -1
    if list(map(partner.__getitem__, own_b)) != list(map(name_a.__getitem__, own_a)):
        raise InvariantError("stable circle has no token-set partner")
    pairs = tuple((b, a) for b, a in enumerate(partner) if a >= 0)
    if len(pairs) != ka - len(act_a):
        raise InvariantError("stable circle matching is not a bijection")
    shape = (len(act_b), len(act_a), ka - kb)
    if shape == (2, 1, -1):
        kind = "merge"
    elif shape == (1, 2, 1):
        kind = "split"
    elif shape == (1, 1, 0):
        kind = "same-circle"
    else:
        raise InvariantError(
            f"impossible correspondence: {len(act_b)} -> {len(act_a)} circles"
        )
    return CircleCorrespondence(kind, pairs, act_b, act_a)


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
