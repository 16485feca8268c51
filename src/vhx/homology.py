"""Bigraded chain complexes and exact homology ranks.

Two complexes share the machinery:

* the matching complex of a perfect matching diagram: one elementary map
  (m / Delta / eta, chosen by the circle correspondence) per hypercube edge,
  grading shift m|alpha|;
* the vertex complex of a trivalent ribbon diagram: each hypercube edge
  flips one vertex, and its map is the composition of three elementary maps
  along a 3-edge path (the three band ends of the flipped vertex, i.e. the
  matching half-edges at its blowup cycle in the bubbled blowup), grading
  shift 3m|nu|.

All scalars are exact elements of Q(sqrt n); ranks come from Gaussian
elimination with a first-nonzero row-major pivot rule.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .algebra import QuadScalar, half_m, map_delta, map_eta, map_m, qdeg
from .states import (
    DEFAULT_STATE_CAP,
    InvariantError,
    StateIndex,
    StateSpaceError,
    VertexHypercube,
    circle_correspondence,
)
from .vpd import (
    CircleDecomposition,
    PerfectMatchingDiagram,
    RotationSystem,
    trace_boundary,
)

BasisElement = tuple[tuple[int, ...], tuple[int, ...]]  # (state bits, exponents)


def _monomials(n: int, k: int):
    """Exponent tuples in colexicographic order (first slot varies fastest)."""
    for rev in itertools.product(range(n), repeat=k):
        yield tuple(reversed(rev))


@dataclass
class RankTable:
    n: int
    ranks: dict[tuple[int, int], int]

    def rank(self, i: int, j: int) -> int:
        return self.ranks.get((i, j), 0)

    def to_json(self) -> str:
        items = [[i, j, r] for (i, j), r in sorted(self.ranks.items())]
        return json.dumps({"n": self.n, "ranks": items})

    def to_text(self) -> str:
        if not self.ranks:
            return "(trivial)"
        is_ = sorted({i for i, _ in self.ranks})
        js = sorted({j for _, j in self.ranks}, reverse=True)
        width = max(4, *(len(str(r)) for r in self.ranks.values()))
        head = "j\\i |" + "".join(f"{i:>{width + 1}}" for i in is_)
        lines = [head, "-" * len(head)]
        for j in js:
            row = f"{j:>3} |"
            for i in is_:
                r = self.ranks.get((i, j))
                row += f"{r if r else '.':>{width + 1}}"
            lines.append(row)
        return "\n".join(lines)


@dataclass
class ChainComplex:
    """Per-(i, j) bases of labeled monomials with sparse differentials.

    ``diff[(i, j)]`` maps block C^(i,j) -> C^(i+1, j + bigrade_j) as a sparse
    dict (row, col) -> QuadScalar.
    """

    n: int
    bases: dict[tuple[int, int], list[BasisElement]]
    diff: dict[tuple[int, int], dict[tuple[int, int], QuadScalar]]
    bigrade_j: int = 0

    def dim(self, i: int, j: int) -> int:
        return len(self.bases.get((i, j), ()))


# ---------------------------------------------------------------------------
# elementary tensor maps


def elementary_tensor_map(
    before: CircleDecomposition,
    after: CircleDecomposition,
    edge: int,
    n: int,
    variant: str,
) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], QuadScalar]]]:
    """The m / Delta / eta map on full tensor bases for one band flip.

    Keys are exponent tuples aligned with ``before``'s circle order; values
    list (output exponent tuple, coefficient) aligned with ``after``.
    """
    corr = circle_correspondence(before, after, edge)
    out: dict[tuple[int, ...], list[tuple[tuple[int, ...], QuadScalar]]] = {}
    for exps in _monomials(n, before.circle_count):
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


def _compose(step1, step2):
    out = {}
    for key, lst in step1.items():
        acc: dict[tuple[int, ...], QuadScalar] = {}
        for mid, c in lst:
            for final, c2 in step2.get(mid, ()):
                prev = acc.get(final)
                acc[final] = c * c2 if prev is None else prev + c * c2
        res = [(t, c) for t, c in acc.items() if c]
        if res:
            out[key] = res
    return out


def vertex_edge_map(
    hc: VertexHypercube,
    n: int,
    nu: StateIndex,
    vertex: int,
    tildes: tuple[bool, bool, bool] = (False, False, False),
    order: tuple[int, int, int] = (0, 1, 2),
):
    """Composition of three elementary maps for one vertex flip."""
    masks, edges = hc.site_path(nu, vertex, order)
    decs = [hc.decomposition(mask) for mask in masks]
    cur = None
    for idx in range(3):
        variant = "tilde" if tildes[idx] else "plain"
        step = elementary_tensor_map(decs[idx], decs[idx + 1], edges[idx], n, variant)
        cur = step if cur is None else _compose(cur, step)
    return cur


def vertex_edge_map_graded(hc, n, nu, vertex, tilde_count, order=(0, 1, 2)):
    """Sum of compositions with exactly ``tilde_count`` tilde factors."""
    acc: dict[tuple[int, ...], dict[tuple[int, ...], QuadScalar]] = {}
    for spots in itertools.combinations(range(3), tilde_count):
        tv = tuple(i in spots for i in range(3))
        for a, lst in vertex_edge_map(hc, n, nu, vertex, tildes=tv, order=order).items():
            row = acc.setdefault(a, {})
            for b, c in lst:
                prev = row.get(b)
                row[b] = c if prev is None else prev + c
    return {
        a: [(b, c) for b, c in row.items() if c] for a, row in acc.items() if row
    }


# ---------------------------------------------------------------------------
# complex assembly


def _vertex_bases(hc: VertexHypercube, n: int):
    m = half_m(n)
    bases: dict[tuple[int, int], list[BasisElement]] = {}
    nus = sorted(
        itertools.product([0, 1], repeat=hc.n_vertices)
    )
    for bits in nus:
        nu = StateIndex(bits)
        dec = hc.vertex_decomposition(nu)
        i = nu.weight
        for exps in _monomials(n, dec.circle_count):
            j = sum(qdeg(n, e) for e in exps) + 3 * m * i
            bases.setdefault((i, j), []).append((bits, exps))
    return bases


def build_vertex_complex(
    rs: RotationSystem,
    n: int,
    cap: int = DEFAULT_STATE_CAP,
    tilde_count: int = 0,
    verify_paths: bool = False,
) -> ChainComplex:
    """The vertex complex; ``tilde_count`` > 0 builds a graded piece delta_k
    with k = tilde_count * n instead of the bigraded differential."""
    if n < 2:
        raise ValueError("n must be >= 2")
    hc = VertexHypercube(rs, cap)
    hc.check_cap()
    m = half_m(n)
    bases = _vertex_bases(hc, n)
    index = {
        key: {be: r for r, be in enumerate(lst)} for key, lst in bases.items()
    }
    diff: dict[tuple[int, int], dict[tuple[int, int], QuadScalar]] = {}
    kshift = tilde_count * n
    for bits in itertools.product([0, 1], repeat=hc.n_vertices):
        nu = StateIndex(bits)
        i = nu.weight
        for v in range(hc.n_vertices):
            if bits[v]:
                continue
            head = nu.flip(v)
            sign = nu.sign_at(v)
            emap = vertex_edge_map_graded(hc, n, nu, v, tilde_count)
            if verify_paths:
                _assert_path_independence(hc, n, nu, v, tilde_count, emap)
            for a, lst in emap.items():
                ja = sum(qdeg(n, e) for e in a) + 3 * m * i
                block = diff.setdefault((i, ja), {})
                tgt_index = index[(i + 1, ja + kshift)]
                row_of = index[(i, ja)]
                for b, c in lst:
                    jb = sum(qdeg(n, e) for e in b) + 3 * m * (i + 1)
                    if jb != ja + kshift:
                        raise InvariantError("bigrading violation in differential")
                    key = (tgt_index[(head.bits, b)], row_of[(bits, a)])
                    prev = block.get(key)
                    val = c if sign > 0 else -c
                    block[key] = val if prev is None else prev + val
    _drop_zeros(diff)
    return ChainComplex(n, bases, diff, bigrade_j=kshift)


def _assert_path_independence(hc, n, nu, v, tilde_count, reference):
    for order in itertools.permutations(range(3)):
        other = vertex_edge_map_graded(hc, n, nu, v, tilde_count, order=order)
        if _normalize(other) != _normalize(reference):
            raise InvariantError(
                f"path dependence at state {nu.bits}, vertex {v}, order {order}"
            )


def _normalize(emap):
    return {
        a: tuple(sorted((b, (c.a, c.b)) for b, c in lst))
        for a, lst in emap.items()
        if lst
    }


def _drop_zeros(diff):
    for key in list(diff):
        block = {rc: c for rc, c in diff[key].items() if c}
        if block:
            diff[key] = block
        else:
            del diff[key]


def build_pm_complex(
    pmd: PerfectMatchingDiagram, n: int, cap: int = DEFAULT_STATE_CAP
) -> ChainComplex:
    """The matching complex: one elementary map per hypercube edge."""
    if n < 2:
        raise ValueError("n must be >= 2")
    sites = len(pmd.matching)
    if sites > cap:
        raise StateSpaceError(f"|M| = {sites} exceeds the state cap {cap}")
    m = half_m(n)

    def dec_of(bits):
        swaps = frozenset(e for e, b in zip(pmd.matching, bits) if b)
        return trace_boundary(pmd.rs, swaps)

    decs = {}
    bases: dict[tuple[int, int], list[BasisElement]] = {}
    for bits in itertools.product([0, 1], repeat=sites):
        decs[bits] = dec_of(bits)
        i = sum(bits)
        for exps in _monomials(n, decs[bits].circle_count):
            j = sum(qdeg(n, e) for e in exps) + m * i
            bases.setdefault((i, j), []).append((bits, exps))
    index = {
        key: {be: r for r, be in enumerate(lst)} for key, lst in bases.items()
    }
    diff: dict[tuple[int, int], dict[tuple[int, int], QuadScalar]] = {}
    for bits in itertools.product([0, 1], repeat=sites):
        nu = StateIndex(bits)
        i = nu.weight
        for s in range(sites):
            if bits[s]:
                continue
            head = nu.flip(s)
            sign = nu.sign_at(s)
            emap = elementary_tensor_map(
                decs[bits], decs[head.bits], pmd.matching[s], n, "plain"
            )
            for a, lst in emap.items():
                ja = sum(qdeg(n, e) for e in a) + m * i
                block = diff.setdefault((i, ja), {})
                for b, c in lst:
                    key = (index[(i + 1, ja)][(head.bits, b)], index[(i, ja)][(bits, a)])
                    val = c if sign > 0 else -c
                    prev = block.get(key)
                    block[key] = val if prev is None else prev + val
    _drop_zeros(diff)
    return ChainComplex(n, bases, diff, bigrade_j=0)


def delta_graded_pieces(
    rs: RotationSystem, n: int, cap: int = DEFAULT_STATE_CAP
) -> dict[int, ChainComplex]:
    """The graded pieces delta_0, delta_n, delta_2n, delta_3n."""
    return {
        t * n: build_vertex_complex(rs, n, cap, tilde_count=t) for t in range(4)
    }


# ---------------------------------------------------------------------------
# exact rank computation


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


def chain_condition_holds(cx: ChainComplex) -> bool:
    """delta(i+1) o delta(i) = 0 for every consecutive pair of blocks."""
    k = cx.bigrade_j
    for (i, j), block in cx.diff.items():
        nxt = cx.diff.get((i + 1, j + k))
        if not nxt:
            continue
        nxt_cols: dict[int, list[tuple[int, QuadScalar]]] = {}
        for (r2, mid), v2 in nxt.items():
            nxt_cols.setdefault(mid, []).append((r2, v2))
        by_col: dict[int, dict[int, QuadScalar]] = {}
        for (r, c), v in block.items():
            by_col.setdefault(c, {})[r] = v
        for c, col in by_col.items():
            acc: dict[int, QuadScalar] = {}
            for mid, v in col.items():
                for r2, v2 in nxt_cols.get(mid, ()):
                    prev = acc.get(r2)
                    prod = v2 * v
                    acc[r2] = prod if prev is None else prev + prod
            if any(acc.values()):
                return False
    return True


def bigraded_homology(cx: ChainComplex) -> RankTable:
    """rank H^(i,j) = dim ker(out) - rank(in), per j-block."""
    if cx.bigrade_j != 0:
        raise ValueError("homology is defined for the bigraded differential only")
    ranks: dict[tuple[int, int], int] = {}
    keys = sorted(cx.bases)
    rank_cache: dict[tuple[int, int], int] = {}

    def block_rank(i, j):
        key = (i, j)
        if key not in rank_cache:
            block = cx.diff.get(key)
            if not block:
                rank_cache[key] = 0
            else:
                rank_cache[key] = matrix_rank(block, cx.dim(i + 1, j), cx.dim(i, j))
        return rank_cache[key]

    for i, j in keys:
        dim = cx.dim(i, j)
        r = dim - block_rank(i, j) - block_rank(i - 1, j)
        if r < 0:
            raise InvariantError("negative homology rank (broken complex)")
        if r:
            ranks[(i, j)] = r
    return RankTable(cx.n, ranks)


def graded_euler(ranks: RankTable) -> "LaurentPoly":
    """sum (-1)^i q^j rank(i, j)."""
    from .poly import LaurentPoly

    out: dict[int, int] = {}
    for (i, j), r in ranks.ranks.items():
        out[j] = out.get(j, 0) + (-1) ** i * r
    return LaurentPoly(out)


def chain_euler(cx: ChainComplex) -> "LaurentPoly":
    """Graded Euler characteristic from chain-group dimensions (equal to the
    homological one by rank-nullity)."""
    from .poly import LaurentPoly

    out: dict[int, int] = {}
    for (i, j), lst in cx.bases.items():
        out[j] = out.get(j, 0) + (-1) ** i * len(lst)
    return LaurentPoly(out)
