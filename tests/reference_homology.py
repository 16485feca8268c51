"""Reference oracle: the dict-of-monomials complex assembly that predates
:class:`vhx.homology.LocalMaps`, kept only to gate the assembler.

Every hypercube edge enumerates all n^k exponent tuples of its state,
matches circles by token sets, and composes dicts of ``QuadScalar``s.
Circles come from the reference tracer in ``reference_tracer.py`` and
scalars are the ``QuadScalar``s of ``reference_algebra.py``, so this shares
only :func:`vhx.algebra.structure_terms` (the step tables) and
:func:`vhx.algebra.half_m` with the assembler.

:func:`matrix_rank` is the rank that predates the fraction-free one in
:mod:`vhx.homology`: elimination over Q(sqrt n) in ``QuadScalar``, with
``Fraction`` coefficients and the same pivot rule, kept to gate it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from reference_algebra import QuadScalar, map_delta, map_eta, map_m, qdeg
from reference_tracer import CircleDecomposition, reference_trace, vertex_swaps

from vhx.algebra import half_m
from vhx.states import InvariantError
from vhx.vpd import RotationSystem


def edge_tokens(e: int) -> frozenset:
    """The four side tokens living on edge ``e``'s band."""
    return frozenset({(2 * e - 1, 1), (2 * e - 1, 2), (2 * e, 1), (2 * e, 2)})


@dataclass
class ReferenceComplex:
    """A chain complex with its basis: per-(i, j) lists of (state bits,
    exponents) elements, and ``QuadScalar`` differentials indexed into
    them."""

    n: int
    bases: dict
    diff: dict
    bigrade_j: int = 0


@dataclass(frozen=True)
class CircleCorrespondence:
    kind: str  # merge | split | same-circle
    stable_pairs: tuple[tuple[int, int], ...]  # (before idx, after idx)
    active_before: tuple[int, ...]
    active_after: tuple[int, ...]


def circle_correspondence(
    before: CircleDecomposition, after: CircleDecomposition, edge: int
) -> CircleCorrespondence:
    """Stable circles avoid the flipped band's four tokens and are paired by
    token-set equality; active circles meet the band."""
    pts = edge_tokens(edge)
    act_b = tuple(i for i, c in enumerate(before.circles) if set(c) & pts)
    act_a = tuple(i for i, c in enumerate(after.circles) if set(c) & pts)
    stable_b = [i for i in range(before.circle_count) if i not in act_b]
    by_tokens = {
        after.circle_tokens(i): i for i in range(after.circle_count) if i not in act_a
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


@lru_cache(maxsize=None)
def trace(rs: RotationSystem, swaps: frozenset) -> CircleDecomposition:
    return reference_trace(rs, swaps)


def monomials(n: int, k: int):
    """Exponent tuples in colexicographic order (first slot varies fastest)."""
    for rev in itertools.product(range(n), repeat=k):
        yield tuple(reversed(rev))


def elementary_tensor_map(before, after, edge, n, variant):
    """The m / Delta / eta map on full tensor bases for one band flip."""
    corr = circle_correspondence(before, after, edge)
    out = {}
    for exps in monomials(n, before.circle_count):
        if corr.kind == "merge":
            local = map_m(n, variant, exps[corr.active_before[0]], exps[corr.active_before[1]])
        elif corr.kind == "split":
            local = map_delta(n, variant, exps[corr.active_before[0]])
        else:
            local = map_eta(n, variant, exps[corr.active_before[0]])
        results = []
        for out_exps, coeff in local:
            target = [0] * after.circle_count
            for pos, e in zip(corr.active_after, out_exps):
                target[pos] = e
            for bi, ai in corr.stable_pairs:
                target[ai] = exps[bi]
            results.append((tuple(target), coeff))
        if results:
            out[exps] = results
    return out


def compose(step1, step2):
    out = {}
    for key, lst in step1.items():
        acc = {}
        for mid, c in lst:
            for final, c2 in step2.get(mid, ()):
                prev = acc.get(final)
                acc[final] = c * c2 if prev is None else prev + c * c2
        res = [(t, c) for t, c in acc.items() if c]
        if res:
            out[key] = res
    return out


def site_path(rs, bits, vertex, order=(0, 1, 2)):
    """Decompositions and flipped edges along the 3-edge path of a vertex flip."""
    swaps = vertex_swaps(rs, bits)
    decs, edges = [trace(rs, swaps)], []
    for i in order:
        e = (abs(rs.vertices[vertex][i]) + 1) // 2
        swaps = swaps ^ {e}
        decs.append(trace(rs, swaps))
        edges.append(e)
    return decs, edges


def vertex_edge_map(rs, n, bits, vertex, variants, order=(0, 1, 2)):
    """Composition of three elementary maps, one variant each, for one vertex flip."""
    decs, edges = site_path(rs, bits, vertex, order)
    cur = None
    for idx in range(3):
        step = elementary_tensor_map(decs[idx], decs[idx + 1], edges[idx], n, variants[idx])
        cur = step if cur is None else compose(cur, step)
    return cur


def graded_sum(emaps):
    """Sum of edge maps, accumulated in order."""
    acc = {}
    for emap in emaps:
        for a, lst in emap.items():
            row = acc.setdefault(a, {})
            for b, c in lst:
                prev = row.get(b)
                row[b] = c if prev is None else prev + c
    return {a: [(b, c) for b, c in row.items() if c] for a, row in acc.items() if row}


def placements(tilde_count):
    for spots in itertools.combinations(range(3), tilde_count):
        yield tuple("tilde" if i in spots else "plain" for i in range(3))


def vertex_edge_map_graded(rs, n, bits, vertex, tilde_count, order=(0, 1, 2)):
    """Sum of compositions with exactly ``tilde_count`` tilde factors."""
    return graded_sum(
        vertex_edge_map(rs, n, bits, vertex, variants, order)
        for variants in placements(tilde_count)
    )


def graded_edge_maps(rs, n, bits, vertex):
    """``vertex_edge_map_graded`` for tilde counts 0..3 at once, sharing the
    six elementary maps and the four two-step compositions of the edge."""
    decs, edges = site_path(rs, bits, vertex)
    step = {
        (idx, var): elementary_tensor_map(decs[idx], decs[idx + 1], edges[idx], n, var)
        for idx in range(3)
        for var in ("plain", "tilde")
    }
    pairs = {}
    for variants in itertools.product(("plain", "tilde"), repeat=2):
        pairs[variants] = compose(step[0, variants[0]], step[1, variants[1]])
    return [
        graded_sum(compose(pairs[v[:2]], step[2, v[2]]) for v in placements(t))
        for t in range(4)
    ]


def _drop_zeros(diff):
    for key in list(diff):
        block = {rc: c for rc, c in diff[key].items() if c}
        if block:
            diff[key] = block
        else:
            del diff[key]


def vertex_pieces(rs, n) -> list[ReferenceComplex]:
    """The vertex complex's graded pieces for tilde counts 0..3."""
    m = half_m(n)
    nv = rs.vertex_count
    bases = {}
    for bits in itertools.product([0, 1], repeat=nv):
        dec = trace(rs, vertex_swaps(rs, bits))
        i = sum(bits)
        for exps in monomials(n, dec.circle_count):
            j = sum(qdeg(n, e) for e in exps) + 3 * m * i
            bases.setdefault((i, j), []).append((bits, exps))
    index = {key: {be: r for r, be in enumerate(lst)} for key, lst in bases.items()}
    diffs = [{} for _ in range(4)]
    for bits in itertools.product([0, 1], repeat=nv):
        i = sum(bits)
        for v in range(nv):
            if bits[v]:
                continue
            head = bits[:v] + (1,) + bits[v + 1 :]
            sign = -1 if sum(bits[:v]) % 2 else 1
            for t, emap in enumerate(graded_edge_maps(rs, n, bits, v)):
                kshift, diff = t * n, diffs[t]
                for a, lst in emap.items():
                    ja = sum(qdeg(n, e) for e in a) + 3 * m * i
                    block = diff.setdefault((i, ja), {})
                    tgt_index = index[(i + 1, ja + kshift)]
                    row_of = index[(i, ja)]
                    for b, c in lst:
                        jb = sum(qdeg(n, e) for e in b) + 3 * m * (i + 1)
                        if jb != ja + kshift:
                            raise InvariantError("bigrading violation in differential")
                        key = (tgt_index[(head, b)], row_of[(bits, a)])
                        prev = block.get(key)
                        val = c if sign > 0 else -c
                        block[key] = val if prev is None else prev + val
    for diff in diffs:
        _drop_zeros(diff)
    return [ReferenceComplex(n, bases, diff, bigrade_j=t * n) for t, diff in enumerate(diffs)]


def matrix_rank(block: dict[tuple[int, int], QuadScalar], nrows: int, ncols: int) -> int:
    """Rank over Q(sqrt n) by elimination; pivots are the first nonzero
    entry in row-major order."""
    rows: list[dict[int, QuadScalar]] = [dict() for _ in range(nrows)]
    for (r, c), v in block.items():
        if v:
            rows[r][c] = v
    pivots: list[tuple[int, dict[int, QuadScalar]]] = []
    rank = 0
    for row in rows:
        cur = dict(row)
        for pc, prow in pivots:
            coef = cur.get(pc)
            if coef:
                del cur[pc]
                for c, v in prow.items():
                    newv = cur.get(c, None)
                    delta = coef * v
                    if newv is None:
                        cur[c] = -delta
                    else:
                        cur[c] = newv - delta
                cur = {c: v for c, v in cur.items() if v}
        if not cur:
            continue
        pc = min(cur)
        pv = cur[pc]
        prow = {c: v / pv for c, v in cur.items() if c != pc}
        pivots.append((pc, prow))
        rank += 1
    return rank
