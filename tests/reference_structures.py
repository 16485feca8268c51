"""Reference oracle: the half-cube walk that counted filtered ranks before
the inclusion-exclusion sweep of :func:`vhx.colorings.rank_polynomials`.

Every state whose last vertex is 0-smoothed is traced with
:meth:`~vhx.vpd.Ribbon.corner_labels`, the states are grouped by their
corner triples, and each distinct structure's harmonic colorings are
counted by backtracking with :func:`vhx.colorings._count_constrained`.  It
costs 2^(|V|-1) traces, so it is kept to check the sweep, not to run.
"""

from __future__ import annotations

from vhx.colorings import _count_constrained, _structure
from vhx.vpd import Ribbon, RotationSystem


def half_cube(ribbon: Ribbon):
    """Yield ``(weight, swap mask)`` for every vertex state whose last
    vertex is 0-smoothed, in Gray-code order.

    The swap on edge uv is ``sign ^ bit[u] ^ bit[w]``, so the complement
    of each yielded state (weight ``|V| - weight``) has the same swap mask
    and the same circles.
    """
    vertex_masks = ribbon.vertex_masks
    mask = 0
    for i in range(1 << (len(vertex_masks) - 1)):
        if i:
            mask ^= vertex_masks[(i & -i).bit_length() - 1]
        yield (i ^ (i >> 1)).bit_count(), mask


def structure_histogram(
    rs: RotationSystem,
) -> dict[tuple[tuple[int, ...], ...], tuple[int, tuple[int, ...]]]:
    """Sorted corner triples (circles numbered by first occurrence) -> (k,
    number of states of each weight with that structure and k circles)."""
    ribbon = rs.ribbon
    nv = rs.vertex_count
    hist: dict[tuple, tuple[int, list[int]]] = {}
    for w, mask in half_cube(ribbon):
        labels, k = ribbon.corner_labels(mask)
        row = hist.setdefault(_structure(labels), (k, [0] * (nv + 1)))[1]
        # the state and its complement share their circles
        row[w] += 1
        row[nv - w] += 1
    return {key: (k, tuple(row)) for key, (k, row) in hist.items()}


def reference_filtered_ranks(hist, n: int) -> list[int]:
    """Harmonic n-coloring counts summed by state weight, one backtracking
    count per distinct structure of ``hist`` (a :func:`structure_histogram`)."""
    ranks = [0] * len(next(iter(hist.values()))[1])
    for constraints, (k, row) in hist.items():
        cnt = _count_constrained(constraints, k, n)
        for w, states in enumerate(row):
            ranks[w] += states * cnt
    return ranks
