"""VPD notation, signed rotation systems, and boundary-circle tracing.

A trivalent ribbon graph is given as a *vertex planar diagram* (VPD): a list
of triples of half-edge labels, one triple per vertex, read counterclockwise.
Half-edges ``2i-1`` and ``2i`` form edge ``e_i``; a minus sign on the
odd-magnitude label marks a negative (half-twisted) edge.

Boundary circles are traced with a fixed convention: every half-edge ``h``
carries two side tokens ``(|h|, 1)`` and ``(|h|, 2)``.  Inside a vertex disk
with counterclockwise order ``(a, b, c)`` the corner arcs join the *outgoing*
side of each half-edge to the *incoming* side of the next one; across an edge
the tokens of the two half-edges are glued side-to-side, with the sides
swapped when the edge is negative.  Circles are the closed curves formed by
the corner arcs and the gluings.  :class:`Ribbon` compiles this once per
rotation system into integer tables keyed by an edge-swap bitmask, and
:func:`walk` is the only way vhx reads circles, on a ribbon or on a band
model: it gives every token's circle, each circle's first token and every
token's rank along its circle.
"""

from __future__ import annotations

import re
from functools import cached_property


class VPDError(ValueError):
    """Malformed or invalid VPD input."""


class Record:
    """Base of vhx's value classes: equality and a dataclass-style repr over
    the attributes a subclass names in ``_fields``, in constructor order.

    Records of different classes never compare equal, and a mutable record
    is unhashable; :class:`Frozen` records hash by value.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """Base of the records that hash by value and refuse attribute
    assignment and deletion once ``__init__`` has set their fields
    (``cached_property`` still caches: it writes the instance dict directly)."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _dumps(value) -> str:
    """``json.dumps(value)``, byte for byte, without importing json for what
    vhx prints: str-keyed dicts, lists, tuples, ints, bools and printable
    ASCII strings free of ``"`` and ``\\``.  Anything else goes to json."""
    t = type(value)
    if t is bool:
        return "true" if value else "false"
    if t is int:
        return repr(value)
    if t is str and value.isascii() and value.isprintable():
        if '"' not in value and "\\" not in value:
            return f'"{value}"'
    if t is list or t is tuple:
        return "[" + ", ".join(map(_dumps, value)) + "]"
    if t is dict and all(type(k) is str for k in value):
        return "{" + ", ".join(f"{_dumps(k)}: {_dumps(v)}" for k, v in value.items()) + "}"
    import json

    return json.dumps(value)


# ---------------------------------------------------------------------------
# rotation systems


class RotationSystem(Frozen):
    """Signed rotation system: cyclic half-edge orders plus edge signs.

    ``vertices[v]`` is the tuple of (possibly negative) half-edge labels at
    vertex ``v`` in counterclockwise order, exactly as written in the VPD.
    Equal vertex tuples make equal, equally hashed systems.
    """

    _fields = ("vertices",)

    def __init__(self, vertices: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "vertices", vertices)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.vertices) // 2

    def edge_sign(self, e: int) -> int:
        """Sign of edge ``e`` (1-based): -1 iff its odd label is negated."""
        return -1 if self._negative()[e] else 1

    def _negative(self) -> list[bool]:
        neg = [False] * (self.edge_count + 1)
        for v in self.vertices:
            for h in v:
                if h < 0:
                    neg[(abs(h) + 1) // 2] = True
        return neg

    def edge_endpoints(self) -> dict[int, list[int]]:
        """Edge index -> list of incident vertex indices (twice for loops)."""
        ends: dict[int, list[int]] = {e: [] for e in range(1, self.edge_count + 1)}
        for vi, v in enumerate(self.vertices):
            for h in v:
                ends[(abs(h) + 1) // 2].append(vi)
        return ends

    @cached_property
    def ribbon(self) -> Ribbon:
        """The compiled ribbon surface, built on first use."""
        return Ribbon(self)

    def is_trivalent(self) -> bool:
        return all(len(v) == 3 for v in self.vertices)

    def is_connected(self) -> bool:
        return len(set(components(self.vertex_count, self.edge_endpoints().values()))) == 1


def components(nv: int, edges) -> list[int]:
    """A component label per vertex ``0 .. nv-1`` of the multigraph whose
    edges are the end-vertex pairs ``edges``: the least vertex of its
    component.  Union-find links the larger root below the smaller, so
    every vertex's parent is at most the vertex, and one pass in vertex
    order resolves every label."""
    label = list(range(nv))
    for u, w in edges:
        while label[u] != u:
            label[u] = u = label[label[u]]
        while label[w] != w:
            label[w] = w = label[label[w]]
        if u < w:
            u, w = w, u
        label[u] = w
    for v in range(nv):
        label[v] = label[label[v]]
    return label


# ---------------------------------------------------------------------------
# parsing and serialization

_TOKEN = re.compile(r"\s*(G\s*\[|V\s*\[|\]|,|-?\s*\d+)")


def parse_vpd(text: str, any_valence: bool = False) -> RotationSystem:
    """Parse VPD text ``G[V[...],...]`` into a validated RotationSystem."""
    def fail(msg: str, at: int) -> None:
        line = text.count("\n", 0, at) + 1
        col = at - (text.rfind("\n", 0, at) + 1) + 1
        raise VPDError(f"{msg} at line {line}, column {col}")

    pos = 0
    tokens: list[tuple[str, int]] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            at = len(text) - len(text[pos:].lstrip())
            if at == len(text):
                break
            fail(f"unexpected character {text[at]!r}", at)
        tokens.append((re.sub(r"\s+", "", m.group(1)), m.start(1)))
        pos = m.end()

    i = 0

    def expect(tok: str) -> None:
        nonlocal i
        if i >= len(tokens) or tokens[i][0] != tok:
            fail(f"expected {tok!r}", tokens[i][1] if i < len(tokens) else len(text))
        i += 1

    expect("G[")
    verts: list[tuple[int, ...]] = []
    while True:
        expect("V[")
        tup: list[int] = []
        while True:
            if i >= len(tokens):
                fail("unterminated V-tuple", len(text))
            tok, at = tokens[i]
            if not re.fullmatch(r"-?\d+", tok):
                fail("expected integer", at)
            val = int(tok)
            if val == 0:
                fail("half-edge labels must be nonzero", at)
            tup.append(val)
            i += 1
            if i < len(tokens) and tokens[i][0] == ",":
                i += 1
                continue
            expect("]")
            break
        verts.append(tuple(tup))
        if i < len(tokens) and tokens[i][0] == ",":
            i += 1
            continue
        expect("]")
        break
    if i != len(tokens):
        fail("trailing input after closing bracket", tokens[i][1])

    rs = RotationSystem(tuple(verts))
    validate(rs, any_valence=any_valence)
    return rs


def validate(rs: RotationSystem, any_valence: bool = False) -> None:
    labels = [h for v in rs.vertices for h in v]
    mags = sorted(abs(h) for h in labels)
    if len(mags) % 2:
        raise VPDError("odd number of half-edge labels")
    if mags != list(range(1, len(mags) + 1)):
        missing = sorted(set(range(1, len(mags) + 1)) - set(mags))
        dupes = sorted({m for m in mags if mags.count(m) > 1})
        if dupes:
            raise VPDError(f"duplicate half-edge label(s): {dupes}")
        raise VPDError(f"missing half-edge label(s): {missing}")
    for h in labels:
        if h < 0 and abs(h) % 2 == 0:
            raise VPDError(f"negative sign on even-magnitude label {h}")
    if not any_valence and not rs.is_trivalent():
        raise VPDError("non-trivalent vertex tuple (pass any_valence=True to allow)")
    if not rs.is_connected():
        raise VPDError("underlying graph is disconnected")


def serialize_vpd(rs: RotationSystem) -> str:
    body = ",".join("V[" + ",".join(str(h) for h in v) + "]" for v in rs.vertices)
    return f"G[{body}]"


# ---------------------------------------------------------------------------
# boundary tracing


class Ribbon:
    """The ribbon surface of a rotation system, compiled to integer tables.

    Token ``(H, s)`` has id ``2(H-1) + (s-1)``, so the four tokens of edge
    ``e`` are ids ``4(e-1) .. 4(e-1)+3`` and gluing token ``q`` across its
    edge gives ``q ^ 2``, or ``q ^ 3`` when the edge's sides are swapped.
    The corner arcs never change; a smoothing state changes only which edges
    are swapped, so every state is one integer *swap mask*: bit ``e-1``
    swaps edge ``e``'s sides on top of its sign.
    """

    def __init__(self, rs: RotationSystem):
        ntok = 4 * rs.edge_count
        arc = [0] * ntok
        corners = []  # per vertex, the out token of each corner arc
        for v in rs.vertices:
            r = len(v)
            outs = []
            for i in range(r):
                # a corner arc joins the outgoing side of half-edge i to the
                # incoming side of half-edge i+1: (H, 2) and (H, 1) for odd
                # H, (H, 1) and (H, 2) for even H
                h_out, h_in = abs(v[i]), abs(v[(i + 1) % r])
                a = 2 * h_out - 2 + (h_out & 1)
                b = 2 * h_in - 1 - (h_in & 1)
                arc[a], arc[b] = b, a
                outs.append(a)
            corners.append(tuple(outs))
        neg = rs._negative()
        vertex_masks = [0] * rs.vertex_count
        for e, (u, w) in rs.edge_endpoints().items():
            vertex_masks[u] ^= 1 << (e - 1)
            vertex_masks[w] ^= 1 << (e - 1)
        self.ntok = ntok
        self.arc = arc
        self.corners = tuple(corners)
        self.sign_mask = sum(1 << (e - 1) for e in range(1, rs.edge_count + 1) if neg[e])
        # the edges a vertex flip swaps (a loop is swapped twice, i.e. not at all)
        self.vertex_masks = tuple(vertex_masks)
        # each vertex's band edges in tuple order: the 3-edge path of its flip
        self.bands = tuple(tuple((abs(h) + 1) // 2 for h in v) for v in rs.vertices)
        # homology.LocalMaps' swap-mask traces and band models, for every n
        self.traces, self.band_models = {}, {}

    def trace(self, mask: int) -> tuple[list[int], tuple[int, ...], list[int]]:
        """The :func:`walk` of swap mask ``mask``."""
        return walk(self.arc, mask ^ self.sign_mask)


def walk(arc: list[int], swaps: int) -> tuple[list[int], tuple[int, ...], list[int]]:
    """The circles of corner arcs ``arc`` glued across as ``q ^ 2``, or
    ``q ^ 3`` where bit ``q >> 2`` of ``swaps`` is set: every token's
    circle, each circle's first token, and every token's rank, its circle
    times the token count plus its position on its circle.

    Each circle starts at its minimal token and alternates a corner arc
    with an edge gluing, so circles are numbered by minimal token.
    """
    ntok = len(arc)
    owner, rank, firsts = [-1] * ntok, [0] * ntok, []
    for s in range(ntok):
        if owner[s] >= 0:
            continue
        c, r, p = len(firsts), len(firsts) * ntok, s
        firsts.append(s)
        while True:
            q = arc[p]
            owner[p] = owner[q] = c
            rank[p], rank[q] = r, r + 1
            r += 2
            p = q ^ 2 ^ (swaps >> (q >> 2) & 1)
            if p == s:
                break
    return owner, tuple(firsts), rank


def genus_and_orientability(rs: RotationSystem) -> tuple[bool, int]:
    """(orientable, genus) for orientable systems; (False, crosscaps) else.

    Orientability: the system is orientable iff some set of vertex
    reflections makes every edge positive, i.e. iff its orientation double
    cover falls into two components.  The cover has vertices ``2v + sheet``;
    a positive edge stays on its sheet and a negative edge crosses to the
    other one, so a negative loop joins the two sheets.
    """
    if not rs.is_connected():
        raise VPDError("genus requires a connected graph")
    neg = rs._negative()
    cover = [
        (2 * u + sheet, 2 * w + (sheet ^ neg[e]))
        for e, (u, w) in rs.edge_endpoints().items()
        for sheet in (0, 1)
    ]
    orientable = len(set(components(2 * rs.vertex_count, cover))) == 2
    F = len(rs.ribbon.trace(0)[1])
    euler = rs.vertex_count - rs.edge_count + F
    if orientable:
        return True, (2 - euler) // 2
    return False, 2 - euler


# ---------------------------------------------------------------------------
# blowups


def blowup(rs: RotationSystem, at: tuple[int, ...] | None = None) -> RotationSystem:
    """Replace each vertex in ``at`` (default: all) by a cycle.

    Original edges keep their labels and signs, so they are edges 1..|E| of
    the result; the positive cycle edges follow.  Each vertex of a full
    blowup meets exactly one original edge, so there edges 1..|E| are a
    perfect matching.
    """
    targets = set(range(rs.vertex_count)) if at is None else set(at)
    missing = targets - set(range(rs.vertex_count))
    if missing:
        raise VPDError(f"blowup vertex {min(missing)} is not a vertex of the graph")
    next_label = 2 * rs.edge_count + 1
    new_verts: list[tuple[int, ...]] = []
    for vi, v in enumerate(rs.vertices):
        if vi not in targets or len(v) == 1:
            new_verts.append(v)
            continue
        r = len(v)
        # cycle edges c_0..c_{r-1}; c_i joins new vertex i to new vertex i+1
        cyc = []
        for _ in range(r):
            cyc.append((next_label, next_label + 1))
            next_label += 2
        for i in range(r):
            nxt = cyc[i][0]
            prv = cyc[(i - 1) % r][1]
            new_verts.append((v[i], nxt, prv))
    out = RotationSystem(tuple(new_verts))
    validate(out)
    return out
