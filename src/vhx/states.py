"""Hypercubes of smoothing states and circle correspondences.

Two hypercubes are used: the *vertex hypercube* over {0,1}^|V| (a vertex
1-smoothing half-twists all three bands at that vertex) and the *matching
hypercube* over {0,1}^|M| of a perfect matching diagram (a 1-smoothing
half-twists one matching band).  Inside vhx every state is the edge-swap
mask of :class:`~vhx.vpd.Ribbon`; a 0/1 tuple names a vertex state only
where a caller passes one in or a result labels one, and :func:`state_mask`
is the one conversion.
"""

from __future__ import annotations

import functools

from .vpd import Frozen, Ribbon, RotationSystem

DEFAULT_STATE_CAP = 24


class StateSpaceError(ValueError):
    pass


class InvariantError(RuntimeError):
    """An internal invariant of a computation is violated (a bug, not bad input)."""


def hypercube_ribbon(
    rs: RotationSystem, cap: int | None = None, matching: tuple[int, ...] | None = None
) -> Ribbon:
    """The compiled ribbon of a trivalent diagram whose hypercube, over its
    vertices or over the edges of ``matching``, has at most ``cap``
    dimensions (no bound when ``cap`` is None)."""
    if not rs.is_trivalent():
        raise StateSpaceError("vertex hypercube requires a trivalent diagram")
    name, dim = ("|V|", rs.vertex_count) if matching is None else ("|M|", len(matching))
    if cap is not None and dim > cap:
        raise StateSpaceError(f"{name} = {dim} exceeds the state cap {cap}")
    return rs.ribbon


def cache_per_graph(fn):
    """``fn(rs, cap)`` kept for the 64 latest keys (rs, cap), one key however
    ``cap`` is passed or defaulted."""
    cached = functools.lru_cache(maxsize=64)(fn)
    call = functools.wraps(fn)(lambda rs, cap=DEFAULT_STATE_CAP: cached(rs, cap))
    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


def state_mask(rs: RotationSystem, bits, flip: int | None = None) -> int:
    """Swap mask of the vertex state with 0/1 smoothings ``bits``.

    With ``flip``, the state is the tail of the hypercube edge that
    1-smooths vertex ``flip``, so that vertex must be 0-smoothed.
    """
    vertex_masks = hypercube_ribbon(rs).vertex_masks
    if len(bits) != len(vertex_masks):
        raise StateSpaceError(
            f"state {tuple(bits)} has {len(bits)} entries for {len(vertex_masks)} vertices"
        )
    if any(b not in (0, 1) for b in bits):
        raise StateSpaceError(f"state {tuple(bits)} has an entry other than 0/1")
    if flip is not None and not (0 <= flip < len(bits) and bits[flip] == 0):
        raise StateSpaceError(
            f"no hypercube edge 1-smooths vertex {flip} from state {tuple(bits)}"
        )
    mask = 0
    for bit, vm in zip(bits, vertex_masks):
        if bit:
            mask ^= vm
    return mask


class CircleCorrespondence(Frozen):
    _fields = ("kind", "stable_pairs", "active_before", "active_after")

    def __init__(
        self,
        kind: str,  # merge | split | same-circle
        stable_pairs: tuple[tuple[int, int], ...],  # (before idx, after idx)
        active_before: tuple[int, ...],
        active_after: tuple[int, ...],
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "stable_pairs", stable_pairs)
        object.__setattr__(self, "active_before", active_before)
        object.__setattr__(self, "active_after", active_after)


def circle_correspondence(before, after, edge: int) -> CircleCorrespondence:
    """Match circles across a single band flip on ``edge``.

    ``before`` and ``after`` are (owner array, walks) traces of a ribbon or
    of a band model (:class:`~vhx.homology.LocalMaps`).  Active circles meet
    the flipped band's four tokens; every other circle must reappear with
    the same token set.  The kind follows the circle-count delta.
    """
    (own_b, walks_b), (own_a, walks_a) = before, after
    q = 4 * edge - 4
    act_b = tuple(sorted({own_b[q], own_b[q + 1], own_b[q + 2], own_b[q + 3]}))
    act_a = tuple(sorted({own_a[q], own_a[q + 1], own_a[q + 2], own_a[q + 3]}))
    kb, ka = len(walks_b), len(walks_a)
    # name a stable circle by its partner (the after circle holding its
    # first token) and an active one by -1: the token sets agree exactly
    # when every token gets the same name on both sides
    partner = [-1 if c in act_b else own_a[walk[0]] for c, walk in enumerate(walks_b)]
    name_a = [-1 if c in act_a else c for c in range(ka)]
    if list(map(partner.__getitem__, own_b)) != list(map(name_a.__getitem__, own_a)):
        raise InvariantError("stable circle has no token-set partner")
    pairs = tuple((b, a) for b, a in enumerate(partner) if a >= 0)
    if len(pairs) != ka - len(act_a):
        raise InvariantError("stable circle matching is not a bijection")
    shape = (len(act_b), len(act_a), ka - kb)
    kind = {(2, 1, -1): "merge", (1, 2, 1): "split", (1, 1, 0): "same-circle"}.get(shape)
    if kind is None:
        raise InvariantError(f"impossible correspondence: {len(act_b)} -> {len(act_a)} circles")
    return CircleCorrespondence(kind, pairs, act_b, act_a)
