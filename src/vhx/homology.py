"""Bigraded chain complexes and exact homology ranks.

The vertex complex of a trivalent ribbon diagram lives on its vertex
hypercube.  Each hypercube edge flips one vertex, and its map is the
composition of three elementary maps (m / Delta / eta, chosen by the circle
correspondence) along a 3-edge path, the three band ends of the flipped
vertex; this is why :class:`LocalMaps` takes a path.  A weight-i state's
q-degrees are shifted by 3m * i.

An elementary map is the identity on the circles its band does not touch,
so each hypercube edge's map is composed on a model of its bands, read off
the traces of its two end states (:class:`LocalMaps`), and tensored with
the identity on the untouched circles.  :func:`circle_correspondence`
matches a model's circles across each of its band flips, and traces and
band models are kept on the ribbon and shared by every n.  The algebra is
commutative and cocommutative, so an edge map is an unordered sum of terms
that does not depend on which of a split's two new circles is listed first.

The assembler composes only the edges that can be nonzero.  m, Delta and
eta are homogeneous in q, so an edge map moves the exponent sum of the k0
circles through the flipped vertex's bands by one fixed amount onto the k1
circles there; where no sum in [0, k0 (n-1)] can land in [0, k1 (n-1)] the
map is zero and is not composed (:func:`build_vertex_complex`).  Each trace
keeps these counts per vertex.  An edge and its opposite edge join the same
two swap masks, so they share one band pairing.

A complex keeps each block's dimension and differential, never its basis,
and its entries are integers.  Only eta has a coefficient other than 1,
namely sqrt n, and on a hypercube edge s -> t its count e has the parity
of 1 + k(t) - k(s), k counting a state's circles (the parity lemma).
Proof: the edge's three band flips are a merges, b splits and e etas, so
a + b + e = 3, and b - a = k(t) - k(s), since the circles the bands do
not touch are the same at both ends; so e = 3 - (a + b), which is
3 - (b - a) = 1 + k(t) - k(s) mod 2.  Every entry is thus c sqrt n^e with
c an integer.  Scale each element of state s by sqrt n^phi(s), with
phi(s) = (k(s) + i(s)) mod 2, i the weight: an entry from s to t becomes
c n^((e + phi(s) - phi(t)) / 2).  That is an integer, since
phi(s) - phi(t) = k(s) - k(t) - 1 = e mod 2, and phi(s) - phi(t) = -1
only for odd e.  A diagonal change of basis keeps ranks, delta o delta = 0
and kernels, so ranks are exact over Q by fraction-free integer
elimination with a first-nonzero row-major pivot rule.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator

from .algebra import half_m, structure_terms
from .poly import LaurentPoly, state_histogram
from .states import DEFAULT_STATE_CAP, InvariantError, StateSpaceError
from .vpd import Record, Ribbon, RotationSystem, _dumps, walk

# Largest basis a complex may have; a bigger one is refused from its exact
# size, before any state is traced (prism6 at n = 3, 224,784 elements, peaks
# at 87.5 MB).
MAX_BASIS = 1 << 18


class RankTable(Record):
    _fields = ("n", "ranks")

    def __init__(self, n: int, ranks: dict[tuple[int, int], int]):
        self.n = n
        self.ranks = ranks

    def rank(self, i: int, j: int) -> int:
        return self.ranks.get((i, j), 0)

    def to_json(self) -> str:
        items = [[i, j, r] for (i, j), r in sorted(self.ranks.items())]
        return _dumps({"n": self.n, "ranks": items})

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


class ChainComplex(Record):
    """Per-(i, j) dimensions ``dims`` with sparse differentials.

    ``diff[(i, j)]`` maps block C^(i,j) -> C^(i+1, j + bigrade_j) as a sparse
    dict (row, col) -> integer, in the basis scaled by powers of sqrt n (see
    :mod:`vhx.homology`).  No basis is kept: a block's elements are numbered
    state by state (vertex 0 the most significant bit), each state's in the
    code order of :func:`_codes`.
    """

    _fields = ("n", "dims", "diff", "bigrade_j")

    def __init__(
        self,
        n: int,
        dims: dict[tuple[int, int], int],
        diff: dict[tuple[int, int], dict[tuple[int, int], int]],
        bigrade_j: int = 0,
    ):
        self.n = n
        self.dims = dims
        self.diff = diff
        self.bigrade_j = bigrade_j

    def dim(self, i: int, j: int) -> int:
        return self.dims.get((i, j), 0)


# ---------------------------------------------------------------------------
# local maps


def _placements(tilde_count: int) -> tuple[tuple[str, ...], ...]:
    """Per-step variants of a vertex's three band flips, for each placement
    of ``tilde_count`` tilde maps."""
    return tuple(
        tuple("tilde" if i in spots else "plain" for i in range(3))
        for spots in itertools.combinations(range(3), tilde_count)
    )


def _codes(n: int, k: int) -> tuple[list, list[int], list[int], list[int]]:
    """Exponent tuple, exponent sum and rank among equal sums, per code of
    a k-circle state, and the number of codes of each exponent sum.  The
    code of (e_0, ..., e_{k-1}) is sum e_c n^c: codes run in
    colexicographic order and add under tensor products."""
    exps = [tuple(reversed(r)) for r in itertools.product(range(n), repeat=k)]
    dsum = [sum(e) for e in exps]
    seen = [0] * (k * (n - 1) + 1)
    rank = []
    for t in dsum:
        rank.append(seen[t])
        seen[t] += 1
    return exps, dsum, rank, seen


# m, Delta and eta by correspondence kind and input exponents
_step_terms = functools.cache(structure_terms)


def _compose(n: int, k0: int, steps: tuple, variants: tuple) -> list:
    """Entries (x, y, c) of a composite on the touched circles, for every x
    in colexicographic order, over sqrt n^(e mod 2) for its e eta steps:
    c counts the paths from x to y, times n^(e // 2).  Every term is
    positive, so no entry cancels.  Delta is cocommutative, so the band
    model's order of a split's two new circles gives the same entries as
    any other."""
    out = []
    scale = n ** (sum(kind == "same-circle" for kind, *_ in steps) // 2)
    for x in _codes(n, k0)[0]:
        row: dict[tuple[int, ...], int] = {}
        for variant in variants:
            front = {x: scale}
            for (kind, act_b, act_a, stable, k1), var in zip(steps, variant):
                nxt: dict[tuple[int, ...], int] = {}
                for y, c in front.items():
                    for outs in _step_terms(n, var, kind, tuple(y[p] for p in act_b)):
                        z = [0] * k1
                        for p, o in zip(act_a, outs):
                            z[p] = o
                        for pb, pa in stable:
                            z[pa] = y[pb]
                        z = tuple(z)
                        nxt[z] = nxt.get(z, 0) + c
                front = nxt
            for z, c in front.items():
                row[z] = row.get(z, 0) + c
        out.extend((x, z, c) for z, c in row.items())
    return out


def circle_correspondence(before, after, edge: int) -> tuple:
    """Match circles across a single band flip on ``edge``: the
    :func:`_compose` step ``(kind, active_before, active_after,
    stable_pairs, circles_after)``.

    ``before`` and ``after`` are :func:`~vhx.vpd.walk` traces of a ribbon
    or of a band model, read for their owners and first tokens.  Active
    circles meet the flipped band's four tokens; every other circle must
    reappear with the same token set, paired as (before index, after
    index).  The kind (merge, split or same-circle) follows the
    circle-count delta.
    """
    (own_b, firsts_b, _), (own_a, firsts_a, _) = before, after
    q = 4 * edge - 4
    act_b = tuple(sorted({own_b[q], own_b[q + 1], own_b[q + 2], own_b[q + 3]}))
    act_a = tuple(sorted({own_a[q], own_a[q + 1], own_a[q + 2], own_a[q + 3]}))
    kb, ka = len(firsts_b), len(firsts_a)
    # name a stable circle by its partner (the after circle holding its
    # first token) and an active one by -1: the token sets agree exactly
    # when every token gets the same name on both sides
    partner = [-1 if c in act_b else own_a[t] for c, t in enumerate(firsts_b)]
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
    return kind, act_b, act_a, pairs, ka


def _band_model(partner: tuple[int, ...], swaps: int, path: tuple[int, ...]):
    """Flips ``path`` on a band model: band i has tokens 4i..4i+3, glued
    across as q ^ 2 (q ^ 3 while bit i of ``swaps`` is set), and ``partner``
    joins tokens by the arcs outside the bands, which :func:`~vhx.vpd.walk`
    takes for its corner arcs.  Gives the ``steps`` of :func:`_compose`,
    each start circle's first token, and the end owner array and first
    tokens."""
    masks = itertools.accumulate((1 << i for i in path), operator.xor, initial=swaps)
    states = [walk(partner, m) for m in masks]
    steps = [circle_correspondence(states[s], states[s + 1], i + 1) for s, i in enumerate(path)]
    (_, start, _), (owner, end, _) = states[0], states[-1]
    return tuple(steps), start, tuple(owner), end


def _pairing(rank, ntok: int) -> tuple[int, ...]:
    """Pairs a band's tokens, given by their ranks on a state's circles, by
    the arcs outside the bands.  A band crossing is a pair of walk positions
    (odd, even), so an arc outside the bands runs from an even position to
    the next odd one; the arcs through walk starts run from a circle's last
    band token to its first, and are paired last."""
    partner, loose, prev = [-1] * len(rank), [], -1
    for i in sorted(range(len(rank)), key=rank.__getitem__):
        if rank[i] & 1 and prev >= 0 and rank[prev] // ntok == rank[i] // ntok:
            partner[prev], partner[i] = i, prev
        elif prev >= 0:
            loose.append(prev)
        if rank[i] & 1 and partner[i] < 0:
            loose.append(i)
        prev = -1 if rank[i] & 1 else i
    loose += [prev] if prev >= 0 else []
    for i, j in zip(loose[::2], loose[1::2]):
        partner[i], partner[j] = j, i
    if -1 in partner:
        raise InvariantError("band tokens do not pair up along the circles")
    return tuple(partner)


class LocalMaps:
    """Hypercube-edge maps of one ribbon at one n, composed on the circles
    the flipped bands touch (basis elements are numbered by the codes of
    :func:`_codes`).  An edge map reads the traces of its two end states
    (:meth:`trace`): the start circles' arcs outside the bands pair up the
    bands' tokens (:meth:`pairing`), and that pairing, the bands' swaps and
    the flip order key a band model (:func:`_band_model`), whose end
    circles must be the end state's.  Traces and models do not depend on
    n, so they are the ribbon's ``traces`` and ``band_models``.  Band
    tokens are numbered from the flipped vertex's end, so no key depends on
    which end is odd."""

    def __init__(self, ribbon: Ribbon, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        self.ribbon, self.n = ribbon, n
        self._paths: dict[tuple, tuple] = {}
        self._gathers = [self._path(path)[0] for path in ribbon.bands]
        self.codes = functools.cache(functools.partial(_codes, n))
        self._compose = functools.cache(functools.partial(_compose, n))

    def _path(self, path) -> tuple:
        """A path's band gather (its band tokens, numbered from the flipped
        vertex's end), the swap-mask bit of each of its distinct edges, the
        path over those edges, and the swap mask it flips."""
        got = self._paths.get(path)
        if got is None:
            arc = self.ribbon.arc
            edges = tuple(dict.fromkeys(path))
            flip = functools.reduce(operator.xor, (1 << (e - 1) for e in path))
            # a band's end at the flipped vertex is the one whose two corner
            # arcs lead to the path's bands (theta: both ends, the odd one is
            # taken); its in side is +0 at an odd label, +3 at an even one,
            # so the band reads [+0, +1, +2, +3] or [+3, +2, +1, +0]
            on = {e - 1 for e in edges}
            ins = [4 * e - 4 for e in edges]
            ins = [q if {arc[q] >> 2, arc[q + 1] >> 2} <= on else q + 3 for q in ins]
            gather = operator.itemgetter(*(q ^ i for q in ins for i in range(4)))
            shifts = tuple(e - 1 for e in edges)
            got = self._paths[path] = gather, shifts, tuple(map(edges.index, path)), flip
        return got

    def trace(self, mask: int) -> tuple:
        """The ribbon's trace entry of ``mask``: each circle's first token
        and each token's rank (:func:`~vhx.vpd.walk`) and, per vertex, the
        number of circles through its bands' tokens.  Kept per swap mask."""
        traces = self.ribbon.traces
        entry = traces.get(mask)
        if entry is None:
            # an array holds a rank in 4 bytes, a list in an int object; its
            # module loads only in processes that build a complex
            from array import array

            owner, firsts, rank = self.ribbon.trace(mask)
            touched = bytes([len(set(gather(owner))) for gather in self._gathers])
            entry = traces[mask] = firsts, array("I", rank), touched
        return entry

    def pairing(self, mask: int, path) -> tuple[int, ...]:
        """The pairing of the bands' tokens of ``path`` by the arcs outside
        them, read off swap mask ``mask`` (:func:`_pairing`).

        A flip changes no arc outside its bands, so both ends of an edge
        give one pairing: the edges s -> s+v and ~(s+v) -> ~s, which join
        the same two swap masks in opposite directions, share it."""
        gather = self._path(path)[0]
        return _pairing(gather(self.trace(mask)[1]), self.ribbon.ntok)

    def edge_map(self, mask: int, path, variants, partner: tuple[int, ...] | None = None):
        """The composed band flips on the edges ``path`` from swap mask
        ``mask``, summed over ``variants`` (one variant per step each), on
        the band model of the pairing ``partner`` (:meth:`pairing`, read
        off ``mask`` unless given).

        Gives ``(kb, ka, local, stable)``: the circle counts at both ends,
        entries (source code, target code, c) on the touched circles in no
        fixed order, and the (source, target) codes of every exponent
        assignment of the untouched ones, one pair per map entry each.  The
        map's coefficient is c sqrt n^((1 + ka - kb) mod 2), the parity of
        its eta count (see :mod:`vhx.homology`), so the flip orders of one
        edge give the same entries even where their eta counts differ.  Any
        variants may be mixed here: the degree window is the assembler's.
        """
        n, nt = self.n, self.ribbon.ntok
        gather, shifts, lpath, flip = self._path(path)
        firsts, rank, _ = self.trace(mask)
        firsts_a, rank_a, _ = self.trace(mask ^ flip)
        rank = gather(rank)
        if partner is None:
            partner = _pairing(rank, nt)
        sw = mask ^ self.ribbon.sign_mask
        key = partner, sum((sw >> e & 1) << i for i, e in enumerate(shifts)), lpath
        models = self.ribbon.band_models
        if key not in models:
            models[key] = _band_model(*key)
        steps, start, end_owner, end = models[key]
        gb = [rank[t] // nt for t in start]
        ends = [r // nt for r in gather(rank_a)]
        ga = [ends[t] for t in end]
        untouched = [(c, rank_a[t] // nt) for c, t in enumerate(firsts) if c not in gb]
        images = sorted(ga + [a for _, a in untouched])
        if ends != [ga[c] for c in end_owner] or images != list(range(len(firsts_a))):
            raise InvariantError("band model disagrees with the end state's circles")
        comp = self._compose(len(gb), steps, variants)
        if not comp:
            return len(firsts), len(firsts_a), [], []
        wb, wa, mul = [n**c for c in gb], [n**c for c in ga], operator.mul
        local = [(sum(map(mul, x, wb)), sum(map(mul, y, wa)), c) for x, y, c in comp]
        # an untouched circle keeps its tokens through every flip, so its
        # first token finds its image
        stable = [(0, 0)]
        for c, a in untouched:
            xb, xa = n**c, n**a
            stable = [(s + e * xb, t + e * xa) for s, t in stable for e in range(n)]
        return len(firsts), len(firsts_a), local, stable


# ---------------------------------------------------------------------------
# complex assembly


def _sized_maps(rs: RotationSystem, n: int, cap: int) -> LocalMaps:
    """The local maps of ``rs`` at ``n`` once its complex is known to fit: a
    state with k circles holds n^k basis elements, so the state histogram's
    sweep (refused past ``cap`` open strands) gives the exact size, and a
    size over ``MAX_BASIS`` is refused."""
    hist = state_histogram(rs, cap)
    maps = LocalMaps(rs.ribbon, n)
    size = sum(c * n**k for row in hist for k, c in row.items())
    if size > MAX_BASIS:
        raise StateSpaceError(f"the complex needs {size} basis elements, more than {MAX_BASIS}")
    return maps


def _window(n: int, tilde_count: int, k0: int, k1: int) -> bool:
    """Whether an edge map from k0 touched circles to k1 has a degree
    window: an exponent sum in [0, k0 (n-1)] that lands in [0, k1 (n-1)]
    once it moves by (k1 - k0 + 3) m - tilde_count * n (see
    :func:`build_vertex_complex`)."""
    delta = (k1 - k0 + 3) * half_m(n) - tilde_count * n
    return delta <= k1 * (n - 1) and k0 * (n - 1) + delta >= 0


def build_vertex_complex(
    rs: RotationSystem,
    n: int,
    cap: int = DEFAULT_STATE_CAP,
    tilde_count: int = 0,
    verify_paths: bool = False,
) -> ChainComplex:
    """The vertex complex; ``tilde_count`` > 0 builds a graded piece delta_k
    with k = tilde_count * n instead of the bigraded differential.

    States are numbered with vertex 0 as the most significant bit; vertex
    ``v`` flips the bands ``ribbon.bands[v]`` in order, toggling swap mask
    ``ribbon.vertex_masks[v]``.  :func:`_sized_maps` refuses a complex too
    big for ``MAX_BASIS`` before any state is traced.

    Only edges whose degree window is open are composed.  An element of a
    weight-i state with k circles and exponent sum t sits at q-degree
    k m - t + 3 m i.  m, Delta and eta are homogeneous in q, a tilde map
    raising the degree by n, and every placement of :func:`_placements`
    holds ``tilde_count`` tilde maps, so an edge map raises the degree by
    exactly tilde_count * n, the bigrading each entry is checked for.  The
    circles the bands do not touch keep their exponents, so the edge moves
    the exponent sum of the k0 circles through the flipped vertex's bands
    by delta = (k1 - k0 + 3) m - tilde_count * n onto the k1 circles
    there.  If no sum in [0, k0 (n-1)] lands in [0, k1 (n-1)], the map is
    zero (:func:`_window`); the counts are read off the end states' traces,
    for every n.  The edges s -> s+v and ~(s+v) -> ~s join the same two
    swap masks in opposite directions, so they share one band pairing
    (:meth:`LocalMaps.pairing`).  With ``verify_paths`` every composed
    edge is checked in all six flip orders; a skipped edge is zero in every
    order.
    """
    maps = _sized_maps(rs, n, cap)
    ribbon = maps.ribbon
    site_masks, paths, variants = ribbon.vertex_masks, ribbon.bands, _placements(tilde_count)
    bigrade_j, d, m = tilde_count * n, len(paths), half_m(n)
    shift = 3 * m
    dims: dict[tuple[int, int], int] = {}
    masks, ks, touched = [], [], []
    offsets = []  # per state, its first position in each of its blocks
    for s in range(1 << d):
        low = s & -s
        masks.append(masks[s ^ low] ^ site_masks[d - low.bit_length()] if s else 0)
        firsts, _, counts = maps.trace(masks[s])
        k = len(firsts)
        ks.append(k)
        touched.append(counts)
        i = s.bit_count()
        keys = [(i, k * m - t + shift * i) for t in range(k * (n - 1) + 1)]
        offsets.append([dims.get(key, 0) for key in keys])
        for key, size in zip(keys, maps.codes(k)[3]):
            dims[key] = dims.get(key, 0) + size
    # each circle through a vertex's bands holds two or more of their 4 per band tokens
    top = 2 * max(map(len, paths)) + 1
    window = [[_window(n, tilde_count, k0, k1) for k1 in range(top)] for k0 in range(top)]

    diff: dict[tuple[int, int], dict[tuple[int, int], int]] = {}

    def emit(s: int, v: int, partner: tuple) -> None:
        """The entries of the edge that flips vertex ``v`` from state ``s``,
        on the band pairing ``partner``."""
        mask, kb, offs_b, i = masks[s], ks[s], offsets[s], s.bit_count()
        path, bit = paths[v], 1 << (d - 1 - v)
        _, ka, local, stable = maps.edge_map(mask, path, variants, partner)
        if verify_paths:
            want = sorted(local)
            for order in itertools.permutations(range(len(path))):
                other = maps.edge_map(mask, tuple(path[o] for o in order), variants)
                if sorted(other[2]) != want:
                    bits = tuple(s >> (d - 1 - u) & 1 for u in range(d))
                    raise InvariantError(
                        f"path dependence at state {bits}, vertex {v}, order {order}"
                    )
        _, dsum_b, rank_b, _ = maps.codes(kb)
        offs_a = offsets[s | bit]
        _, dsum_a, rank_a, _ = maps.codes(ka)
        # the entries lack sqrt n where 1 + ka - kb is odd; on elements scaled
        # by sqrt n^phi it becomes n from a state with phi = 1, else 1
        scale = n if (1 + ka - kb) & (kb + i) & 1 else 1
        if (s >> (d - v)).bit_count() & 1:  # 1s left of site v
            scale = -scale
        jb0, ja0 = kb * m + shift * i, ka * m + shift * (i + 1)
        for sp, tp, c in local:
            val = scale * c
            for ss, st in stable:
                src, tgt = sp + ss, tp + st
                ds, dt = dsum_b[src], dsum_a[tgt]
                j = jb0 - ds
                if ja0 - dt != j + bigrade_j:
                    raise InvariantError("bigrading violation in differential")
                block = diff.get((i, j))
                if block is None:
                    block = diff[(i, j)] = {}
                block[(offs_a[dt] + rank_a[tgt], offs_b[ds] + rank_b[src])] = val

    full = (1 << d) - 1
    for s in range(1 << d):
        for v, path in enumerate(paths):
            bit = 1 << (d - 1 - v)
            # the opposite edge ~(s+v) -> ~s runs from t; each pair once
            t = full ^ s ^ bit
            if s & bit or t < s:
                continue
            k0, k1 = touched[s][v], touched[t][v]
            forward, back = window[k0][k1], window[k1][k0]
            if forward or back:
                partner = maps.pairing(masks[s], path)
                if forward:
                    emit(s, v, partner)
                if back:
                    emit(t, v, partner)
    return ChainComplex(n, dims, diff, bigrade_j=bigrade_j)


def delta_graded_pieces(
    rs: RotationSystem, n: int, cap: int = DEFAULT_STATE_CAP
) -> dict[int, ChainComplex]:
    """The graded pieces delta_0, delta_n, delta_2n, delta_3n."""
    return {
        t * n: build_vertex_complex(rs, n, cap, tilde_count=t) for t in range(4)
    }


# ---------------------------------------------------------------------------
# exact rank computation


def matrix_rank(block: dict) -> int:
    """Rank over Q of an integer block {(row, col): value}, by fraction-free
    elimination; pivots are the first nonzero entry in row-major order.

    A pivot row is kept divided by the gcd of its entries, its pivot d
    positive.  A row with c there becomes (d * row - c * pivot_row) /
    gcd(d, c), then is divided by the gcd of its entries."""
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in block.items():
        if v:
            rows.setdefault(r, {})[c] = v
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for r in sorted(rows):
        cur = rows.pop(r)  # eliminated in place, and freed once done
        # a pivot row's other entries lie right of its pivot, so pivot
        # columns are eliminated left to right, each once (a sorted list is
        # a heap; a column pushed twice is gone by its second pop)
        todo = sorted(c for c in cur if c in pivots)
        while todo:
            pc = heapq.heappop(todo)
            if pc not in cur:
                continue
            d, prow = pivots[pc]
            g = math.gcd(d, cur[pc])
            d, f = d // g, cur.pop(pc) // g
            if d != 1:
                cur = {c: d * x for c, x in cur.items()}
            for c, x in prow.items():
                y = cur.pop(c, 0) - f * x
                if y:
                    cur[c] = y
                    if c in pivots:
                        heapq.heappush(todo, c)
            if d != 1 and cur:
                g = math.gcd(*cur.values())
                cur = {c: x // g for c, x in cur.items()}
        if cur:
            pc = min(cur)
            d = cur.pop(pc)
            g = math.gcd(d, *cur.values()) * (-1 if d < 0 else 1)
            pivots[pc] = (d // g, {c: x // g for c, x in cur.items()})
    return len(pivots)


def chain_condition_holds(cx: ChainComplex) -> bool:
    """delta(i+1) o delta(i) = 0 for every consecutive pair of blocks."""
    k = cx.bigrade_j
    for (i, j), block in cx.diff.items():
        nxt = cx.diff.get((i + 1, j + k))
        if not nxt:
            continue
        nxt_cols: dict[int, list[tuple[int, int]]] = {}
        for (r2, mid), x in nxt.items():
            nxt_cols.setdefault(mid, []).append((r2, x))
        acc: dict[tuple[int, int], int] = {}
        for (mid, c), a in block.items():
            for r2, x in nxt_cols.get(mid, ()):
                acc[(r2, c)] = acc.get((r2, c), 0) + a * x
        if any(acc.values()):
            return False
    return True


def bigraded_homology(cx: ChainComplex) -> RankTable:
    """rank H^(i,j) = dim ker(out) - rank(in), per j-block."""
    if cx.bigrade_j != 0:
        raise ValueError("homology is defined for the bigraded differential only")
    ranks: dict[tuple[int, int], int] = {}

    @functools.cache
    def block_rank(i, j):
        block = cx.diff.get((i, j))
        return matrix_rank(block) if block else 0

    for i, j in sorted(cx.dims):
        dim = cx.dim(i, j)
        r = dim - block_rank(i, j) - block_rank(i - 1, j)
        if r < 0:
            raise InvariantError("negative homology rank (broken complex)")
        if r:
            ranks[(i, j)] = r
    return RankTable(cx.n, ranks)


def graded_euler(ranks: RankTable) -> LaurentPoly:
    """sum (-1)^i q^j rank(i, j)."""
    out: dict[int, int] = {}
    for (i, j), r in ranks.ranks.items():
        out[j] = out.get(j, 0) + (-1) ** i * r
    return LaurentPoly(out)
