"""Exact polynomial arithmetic and the vertex sweeps behind every state sum.

Two state-sum invariants come from one shared histogram ``hist[w][k]`` =
number of states of weight ``w`` with ``k`` circles:

* n-color vertex polynomial  sum_nu (-1)^|nu| q^(3m|nu|) L(q)^(k_nu)
* vertex polynomial          sum_nu (-1)^|nu| n^(k_nu)

The histogram is a transfer matrix over the tables of the compiled
:class:`~vhx.vpd.Ribbon`: the vertices are swept one by one, and the states
are counted by how the strands cut open at the sweep's frontier pair up,
never one by one.  Its cost grows with the widest cut, not with 2^|V|.  The
filtered ranks' polynomials in n (:func:`rank_polynomials`) are a second
transfer matrix on the same :func:`_sweep_steps` tables; both pack their
counts into one integer per table entry and read it with one reader.  The
third, :func:`_edge_labelings`, sweeps the abstract graph in the same
vertex order, keyed by the labels of the cut edges: it counts the Tait
colorings and perfect matchings of :mod:`~vhx.oracles`.  All three refuse
a cut of more than ``cap`` open strands, two per cut edge.
"""

from __future__ import annotations

from itertools import product

from .algebra import half_m
from .states import DEFAULT_STATE_CAP, StateSpaceError, cache_per_graph, hypercube_ribbon
from .vpd import RotationSystem, _dumps


class _Poly:
    """Sparse integer-coefficient polynomial in one variable."""

    var = "q"

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return type(self)(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return type(self)(out)

    def __eq__(self, other):
        """Polynomials in different variables are never equal."""
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __call__(self, x):
        return sum(c * x**e for e, c in self.coeffs.items())

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = self.var if mag == 1 else f"{mag}*{self.var}"
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{self.var}^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def terms(self) -> list[list[int]]:
        """[exponent, coefficient] pairs, highest exponent first."""
        return [[e, self.coeffs[e]] for e in sorted(self.coeffs, reverse=True)]

    def to_json(self) -> str:
        return _dumps({"var": self.var, "terms": self.terms()})

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"


class LaurentPoly(_Poly):
    """Integer Laurent polynomial in q."""

    var = "q"


class IntPoly(_Poly):
    """Integer polynomial in n (negative powers appear transiently)."""

    var = "n"


def loop_polynomial(n: int) -> LaurentPoly:
    """qdim of the state algebra: q^m + ... + q^(1-m) (n even) or q^-m (n odd)."""
    if n <= 0:
        raise ValueError("n must be positive")
    m = half_m(n)
    lo = 1 - m if n % 2 == 0 else -m
    return LaurentPoly({e: 1 for e in range(lo, m + 1)})


# ---------------------------------------------------------------------------
# state histogram


def _sweep_order(nv: int, ends) -> list[int]:
    """Vertices in greedy sweep order: next comes the vertex that grows the
    cut least (its edges to unswept vertices less those to swept ones,
    loops counting neither), ties to the lowest index.  Without loops that
    is the vertex with the most swept neighbours.  ``ends`` holds each
    edge's two end vertices."""
    far = [[] for _ in range(nv)]  # the far end of each half-edge
    for u, w in ends:
        if u != w:
            far[u].append(w)
            far[w].append(u)
    swept = [False] * nv
    order = []
    for _ in range(nv):
        v = min(
            (v for v in range(nv) if not swept[v]),
            key=lambda v: (sum(1 - 2 * swept[w] for w in far[v]), v),
        )
        swept[v] = True
        order.append(v)
    return order


def _refuse_wide_cut(strands: int, cap: int) -> None:
    """The one refusal of every sweep: a cut of more than ``cap`` open
    strands, two per cut edge."""
    if strands > cap:
        raise StateSpaceError(
            f"the vertex sweep cuts {strands // 2} edges ({strands} "
            f"open strands), over the state cap {cap}"
        )


def _sweep_steps(rs: RotationSystem, cap: int):
    """One step per vertex of :func:`_sweep_order`, on the working tokens:
    the open tokens before it (the two sides of each half-edge at a swept
    vertex whose edge is cut), then the vertex's own six.  A step holds the
    working partner of each own token under a 0- and a 1-smoothing, the
    token pairs glued across the edges it closes, the working tokens left
    open, in order, and each working token's place among those.  Refuses a
    diagram that is not trivalent, and a cut with more than ``cap`` open
    tokens."""
    ribbon = hypercube_ribbon(rs)
    ends = rs.edge_endpoints()
    swept: set[int] = set()
    opened: list[int] = []
    steps = []
    for v in _sweep_order(rs.vertex_count, ends.values()):
        swept.add(v)
        own = [t for a in ribbon.corners[v] for t in (a, ribbon.arc[a])]
        local = {t: i for i, t in enumerate(opened + own)}
        # a 1-smoothing half-twists the vertex's bands: its corner arcs join
        # the other side of each half-edge, and every edge glues by its sign
        arcs = tuple([local[ribbon.arc[t ^ x] ^ x] for t in own] for x in (0, 1))
        glues = []
        for e in dict.fromkeys(ribbon.bands[v]):
            if all(u in swept for u in ends[e]):
                for t in (4 * e - 4, 4 * e - 3):
                    glues.append((local[t], local[t ^ 2 ^ (ribbon.sign_mask >> (e - 1) & 1)]))
        shut = {i for pair in glues for i in pair}
        keep = [i for i in range(len(local)) if i not in shut]
        opened = [t for t, i in local.items() if i not in shut]
        _refuse_wide_cut(len(opened), cap)
        where = [-1] * len(local)
        for j, i in enumerate(keep):
            where[i] = j
        steps.append((arcs, glues, keep, where))
    return steps


def _read_digits(counts: int, bits: int, nv: int) -> list[dict[int, int]]:
    """rows[w][k] from a sweep's packed counts: the balanced ``bits``-bit
    digit (whole bytes) of slot w + (|V| + 1)k, added to rows w and |V| - w,
    since the sweep kept the first vertex 0-smoothed.  With 2^(bits-1) added
    to every digit, one conversion to bytes reads them all in linear time."""
    width, slots = bits // 8, counts.bit_length() // bits + 1
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    raw = (counts + offset).to_bytes(width * slots, "little")
    half = 1 << bits - 1
    rows: list[dict[int, int]] = [dict() for _ in range(nv + 1)]
    for slot in range(slots):
        d = int.from_bytes(raw[width * slot : width * (slot + 1)], "little") - half
        if d:
            k, w = divmod(slot, nv + 1)
            for row in (rows[w], rows[nv - w]):
                row[k] = row.get(k, 0) + d
    return rows


@cache_per_graph
def state_histogram(
    rs: RotationSystem, cap: int = DEFAULT_STATE_CAP
) -> list[dict[int, int]]:
    """hist[w][k] = number of weight-w vertex states with k circles.

    A transfer matrix: the vertices are swept in :func:`_sweep_order`,
    keeping, for every way the open tokens pair up along paths through the
    swept part, how many states of each weight close how many circles.
    Those counts are one integer per pairing, sum count * 2^(B(w + (|V| +
    1)k)) with B bits per count.  The first vertex stays 0-smoothed: a
    state and its complement have the same circles.
    """
    nv = rs.vertex_count
    bits = 8 * (nv // 8 + 1)  # every count is below 2^|V|: whole bytes
    k_shift = bits * (nv + 1)
    table = {(): 1}
    for s, (arcs, glues, keep, where) in enumerate(_sweep_steps(rs, cap)):
        nxt: dict[tuple[int, ...], int] = {}
        for pairing, counts in table.items():
            for x in (0, 1) if s else (0,):
                p = [*pairing, *arcs[x]]
                shift = bits * x
                for a, b in glues:
                    pa = p[a]
                    if pa == b:  # the path from a ends at b: a circle closes
                        shift += k_shift
                    else:
                        pb = p[b]
                        p[pa], p[pb] = pb, pa
                key = tuple([where[p[i]] for i in keep])
                nxt[key] = nxt.get(key, 0) + (counts << shift)
        table = nxt
    (counts,) = table.values()
    return _read_digits(counts, bits, nv)


@cache_per_graph
def rank_polynomials(rs: RotationSystem, cap: int = DEFAULT_STATE_CAP) -> tuple[IntPoly, ...]:
    """The filtered rank in each homological degree as a polynomial in n.

    A state has sum_S (-1)^|S| n^(c_S) harmonic colorings, S running over
    the vertex sets and c_S counting its circles once the three corner
    circles at each vertex of S are joined.  A transfer matrix on the
    :func:`_sweep_steps` tables sums this over all states: each vertex is
    smoothed either way, joined (sign -1) or not.  Only the connectivity of
    the open tokens matters, so the table maps their partition into
    components (labels in first-occurrence order) to one integer packing
    the signed count of every (w, c) in B-bit balanced digits.  The first
    vertex stays 0-smoothed: a state and its complement have the same
    circles.  Refuses a cut of more than ``cap`` open tokens.
    """
    nv = rs.vertex_count
    # a count sums at most 4^|V| terms of sign +-1: 2|V| + 2 bits, whole bytes
    bits = 8 * (nv // 4 + 1)
    c_shift = bits * (nv + 1)
    table = {(): 1}
    for s, (arcs, glues, keep, where) in enumerate(_sweep_steps(rs, cap)):
        start = len(where) - 6  # the vertex's own six tokens come last
        # per branch, the labels of the own tokens (negative, apart from
        # the table's), their number, the sign and the smoothings: the
        # corner arcs of either smoothing, or all six joined under sign -1
        xs = (0, 1) if s else (0,)
        branches = [
            ([-1 - min(j, i - start) for j, i in enumerate(arcs[x])], 3, 1, (x,)) for x in xs
        ]
        branches.append(([-1] * 6, 1, -1, xs))
        nxt: dict[tuple[int, ...], int] = {}
        for key, counts in table.items():
            m = max(key, default=-1) + 1
            for own, nown, sign, smoothings in branches:
                lab = [*key, *own]
                root: dict[int, int] = {}  # each label merged away -> its label
                for a, b in glues:
                    la, lb = root.get(lab[a], lab[a]), root.get(lab[b], lab[b])
                    if la != lb:
                        for c, r in root.items():
                            if r == lb:
                                root[c] = la
                        root[lb] = la
                kept = [root.get(lab[i], lab[i]) for i in keep]
                names: dict[int, int] = {}
                nkey = tuple([names.setdefault(c, len(names)) for c in kept])
                # each merge joins two components; those left without an
                # open token are complete
                done = m + nown - len(root) - len(names)
                total = nxt.get(nkey, 0)
                for x in smoothings:
                    val = counts << c_shift * done + bits * x
                    total = total + val if sign > 0 else total - val
                nxt[nkey] = total
        table = nxt
    (counts,) = table.values()
    return tuple(IntPoly(row) for row in _read_digits(counts, bits, nv))


def _edge_labelings(nv: int, ends, labels: int, fits, cap: int) -> int:
    """The number of labelings of the edges ``ends`` (end-vertex pairs) by
    ``range(labels)`` under which the labels at each vertex, a loop's twice,
    pass ``fits``.  A transfer matrix on :func:`_sweep_order`: the table maps
    the labels of the cut edges, in the order they were cut, to the number
    of labelings of the swept part.  Refuses a cut of more than ``cap``
    strands, two per cut edge, as the vertex sweeps do on the same order."""
    at: list[list[int]] = [[] for _ in range(nv)]
    for e, (u, w) in enumerate(ends):
        at[u].append(e)
        if w != u:
            at[w].append(e)
    cut: list[int] = []
    steps = []
    for v in _sweep_order(nv, ends):
        shut = [cut.index(e) for e in at[v] if e in cut]
        new = [e for e in at[v] if e not in cut]
        loops = [i for i, e in enumerate(new) if ends[e][0] == ends[e][1]]
        opened = [i for i in range(len(new)) if i not in loops]
        keep = [i for i in range(len(cut)) if i not in shut]
        cut = [cut[i] for i in keep] + [new[i] for i in opened]
        _refuse_wide_cut(2 * len(cut), cap)
        # the labels of the opened edges that each labeling of the shut ones allows
        moves = {
            s: [
                tuple([c[i] for i in opened])
                for c in product(range(labels), repeat=len(new))
                if fits(s + c + tuple([c[i] for i in loops]))
            ]
            for s in product(range(labels), repeat=len(shut))
        }
        steps.append((shut, keep, moves))
    table = {(): 1}
    for shut, keep, moves in steps:
        nxt: dict[tuple[int, ...], int] = {}
        for key, count in table.items():
            head = tuple([key[i] for i in keep])
            for tail in moves[tuple([key[i] for i in shut])]:
                nxt[head + tail] = nxt.get(head + tail, 0) + count
        table = nxt
    return sum(table.values())


# ---------------------------------------------------------------------------
# invariants


def ncolor_vertex_polynomial(
    rs: RotationSystem, n: int, cap: int = DEFAULT_STATE_CAP
) -> LaurentPoly:
    """sum_nu (-1)^|nu| q^(3m|nu|) L(q)^(k_nu), by Horner's rule in L(q):
    from the most circles down to none, the sum so far is multiplied by
    L(q), whose coefficients are all 1, and the states with k circles are
    added at degree 3m|nu|."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m3 = 3 * half_m(n)
    loop = loop_polynomial(n).coeffs
    hist = state_histogram(rs, cap)
    out: dict[int, int] = {}
    for k in range(max(k for row in hist for k in row), -1, -1):
        nxt: dict[int, int] = {}
        for e, c in out.items():
            for d in loop:
                nxt[e + d] = nxt.get(e + d, 0) + c
        for w, row in enumerate(hist):
            if k in row:
                nxt[m3 * w] = nxt.get(m3 * w, 0) + (-1) ** w * row[k]
        out = nxt
    return LaurentPoly(out)


def vertex_polynomial(rs: RotationSystem, cap: int = DEFAULT_STATE_CAP) -> IntPoly:
    """sum_nu (-1)^|nu| n^(k_nu), as a polynomial in n."""
    hist = state_histogram(rs, cap)
    out: dict[int, int] = {}
    for w, row in enumerate(hist):
        for k, count in row.items():
            out[k] = out.get(k, 0) + (-1) ** w * count
    return IntPoly(out)


def abstract_vertex_polynomial(
    rs: RotationSystem, cap: int = DEFAULT_STATE_CAP
) -> tuple[IntPoly, int, bool]:
    """Vertex polynomial of an any-valence graph via its blowup.

    Returns ``(poly, applied_sign, has_negative_powers)`` where
    ``poly = sign * n^(-|V|) * V(blowup(rs), n)`` normalized to a positive
    leading coefficient.
    """
    from .vpd import blowup

    raw = vertex_polynomial(blowup(rs), cap).coeffs
    sign = -1 if raw and raw[max(raw)] < 0 else 1
    poly = IntPoly({e - rs.vertex_count: sign * c for e, c in raw.items()})
    return poly, sign, min(poly.coeffs, default=0) < 0
