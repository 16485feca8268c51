"""The vertex hypercube of smoothing states: its ribbon and state masks.

The vertex hypercube is {0,1}^|V|: a vertex 1-smoothing half-twists all
three bands at that vertex.  Inside vhx every state is the edge-swap mask
of :class:`~vhx.vpd.Ribbon`; a 0/1 tuple names a vertex state only where a
caller passes one in or a result labels one, and :func:`state_mask` is the
one conversion.  ``DEFAULT_STATE_CAP`` bounds the open strands of a vertex
sweep's widest cut (:mod:`~vhx.poly`), which also sizes every complex.
"""

from __future__ import annotations

import functools

from .vpd import Ribbon, RotationSystem

DEFAULT_STATE_CAP = 24


class StateSpaceError(ValueError):
    pass


class InvariantError(RuntimeError):
    """An internal invariant of a computation is violated (a bug, not bad input)."""


def hypercube_ribbon(rs: RotationSystem) -> Ribbon:
    """The compiled ribbon of a trivalent diagram."""
    if not rs.is_trivalent():
        raise StateSpaceError("vertex hypercube requires a trivalent diagram")
    return rs.ribbon


def cache_per_graph(fn):
    """``fn(rs, cap)`` kept for the 64 latest keys (rs.vertices, cap), one key
    however ``cap`` is passed or defaulted.  A miss runs ``fn`` on a fresh
    system, so the cache holds no caller's ribbon and its traces."""
    cached = functools.lru_cache(maxsize=64)(lambda vs, cap: fn(RotationSystem(vs), cap))
    call = functools.wraps(fn)(lambda rs, cap=DEFAULT_STATE_CAP: cached(rs.vertices, cap))
    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


def state_mask(rs: RotationSystem, bits) -> int:
    """Swap mask of the vertex state with 0/1 smoothings ``bits``."""
    vertex_masks = hypercube_ribbon(rs).vertex_masks
    if len(bits) != len(vertex_masks):
        raise StateSpaceError(
            f"state {tuple(bits)} has {len(bits)} entries for {len(vertex_masks)} vertices"
        )
    if any(b not in (0, 1) for b in bits):
        raise StateSpaceError(f"state {tuple(bits)} has an entry other than 0/1")
    mask = 0
    for bit, vm in zip(bits, vertex_masks):
        if bit:
            mask ^= vm
    return mask
