"""Reference oracle: the half-cube walk that counted filtered ranks before
the inclusion-exclusion sweep of :func:`vhx.poly.rank_polynomials`.

Every state whose last vertex is 0-smoothed is walked by
:func:`corner_walk`, which labels only corners, the states are grouped by
their corner triples, and each distinct structure's harmonic colorings are
counted by backtracking with :func:`vhx.colorings._count_constrained`.  It
costs 2^(|V|-1) walks, so it is kept to check the sweep, not to run.
"""

from __future__ import annotations

from vhx.colorings import _count_constrained
from vhx.vpd import Ribbon, RotationSystem


def corner_walk(ribbon: Ribbon):
    """The function of a swap mask giving the circle label of every corner
    in vertex and tuple order, circles numbered by first occurrence, and the
    number of circles.  Each circle is walked once from its first unlabelled
    corner, labelling corners only; every circle crosses a corner arc."""
    outs = [a for corners in ribbon.corners for a in corners]
    corner_of = [0] * ribbon.ntok  # the out token of each token's corner arc
    for a in outs:
        corner_of[a] = corner_of[ribbon.arc[a]] = a
    # successor of token p: cross p's corner arc, then the edge there;
    # under a swapped edge the successor is succ[p] ^ 1
    succ = [q ^ 2 for q in ribbon.arc]
    succ_edge = [q >> 2 for q in ribbon.arc]

    def corner_labels(mask: int) -> tuple[list[int], int]:
        sw = mask ^ ribbon.sign_mask
        label = [-1] * ribbon.ntok
        k = 0
        for s in outs:
            if label[s] >= 0:
                continue
            p = s
            while True:
                label[corner_of[p]] = k
                p = succ[p] ^ (sw >> succ_edge[p] & 1)
                if p == s:
                    break
            k += 1
        return list(map(label.__getitem__, outs)), k

    return corner_labels


def structure(labels: list[int]) -> tuple[tuple[int, ...], ...]:
    """Sorted corner triples of flat corner labels numbered by first
    occurrence, as :func:`corner_walk` gives them."""
    it = iter(labels)
    return tuple(sorted(zip(it, it, it)))


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
    corner_labels = corner_walk(ribbon)
    hist: dict[tuple, tuple[int, list[int]]] = {}
    for w, mask in half_cube(ribbon):
        labels, k = corner_labels(mask)
        row = hist.setdefault(structure(labels), (k, [0] * (nv + 1)))[1]
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
