import json

import pytest
from conftest import walks_of
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_tracer import reference_trace

import vhx
from vhx.vpd import (
    RotationSystem,
    VPDError,
    _dumps,
    blowup,
    components,
    genus_and_orientability,
    parse_vpd,
    serialize_vpd,
)


def test_parse_theta():
    rs = parse_vpd("G[V[1,6,4],V[2,3,5]]")
    assert rs.vertex_count == 2
    assert rs.edge_count == 3
    assert rs.vertices == ((1, 6, 4), (2, 3, 5))


def test_parse_whitespace_insensitive():
    a = parse_vpd("G[V[1,6,4],V[2,3,5]]")
    b = parse_vpd(" G [ V[ 1 ,6, 4] ,\n V[2,3,5] ]\n")
    assert a == b


def test_parse_negative_edge():
    rs = parse_vpd("G[V[1,6,4],V[2,3,-5]]")
    assert rs.edge_sign(3) == -1
    assert rs.edge_sign(1) == 1


@pytest.mark.parametrize(
    "text",
    [
        "",
        "G[]",
        "G[V[1,2,3]]",  # missing labels 4..6's pair structure
        "G[V[1,6,4],V[2,3,5]",  # unbalanced
        "H[V[1,6,4],V[2,3,5]]",
        "G[V[1,6,4],V[2,3,-6]]",  # sign on even label
        "G[V[1,6,4],V[2,3,5,7]]",  # bad valence + bad labels
        "G[V[1,6,4],V[2,3,3]]",  # duplicate
    ],
)
def test_parse_errors(text):
    with pytest.raises(VPDError):
        parse_vpd(text)


def test_parse_error_reports_position():
    with pytest.raises(VPDError, match="line 2"):
        parse_vpd("G[V[1,6,4],\nV[2,3,x]]")


def test_unexpected_character_reports_line_and_column():
    """The error names the first non-whitespace character that no token
    starts with, and its position."""
    for text, at in [
        ("G[V[1,6,4],\nV[#2,3,5]]", "'#' at line 2, column 3"),
        ("G[V[1,2,3]] x", "'x' at line 1, column 13"),
        ("G[V[1,6,4],\n  #V[2,3,5]]", "'#' at line 2, column 3"),
    ]:
        with pytest.raises(VPDError) as err:
            parse_vpd(text)
        assert str(err.value) == f"unexpected character {at}"


def test_any_valence():
    with pytest.raises(VPDError):
        parse_vpd("G[V[1,4,3,6],V[2,5]]")
    rs = parse_vpd("G[V[1,4,3,6],V[2,5]]", any_valence=True)
    assert rs.vertex_count == 2


def test_serialize_roundtrip_fixtures(graphs):
    for rs in graphs.values():
        assert parse_vpd(serialize_vpd(rs)) == rs


FACE_COUNTS = {
    "theta": 3,
    "thetaneg": 2,
    "k4": 4,
    "p3": 5,
    "k33": 3,
    "dodec": 12,
}


@pytest.mark.parametrize("name,faces", sorted(FACE_COUNTS.items()))
def test_face_counts(graphs, name, faces):
    """The reference tracer, the ribbon's walk and the genus agree."""
    rs = graphs[name]
    assert reference_trace(rs).circle_count == faces
    assert len(rs.ribbon.trace(0)[1]) == faces
    orientable, g = genus_and_orientability(rs)
    assert rs.vertex_count - rs.edge_count + faces == (2 - 2 * g if orientable else 2 - g)


def test_genus(graphs):
    assert genus_and_orientability(graphs["theta"]) == (True, 0)
    assert genus_and_orientability(graphs["k4"]) == (True, 0)
    assert genus_and_orientability(graphs["p3"]) == (True, 0)
    assert genus_and_orientability(graphs["dodec"]) == (True, 0)
    assert genus_and_orientability(graphs["k33"]) == (True, 1)
    orientable, crosscaps = genus_and_orientability(graphs["thetaneg"])
    assert not orientable and crosscaps == 1



def bfs_partition(nv: int, edges) -> set[frozenset[int]]:
    """The vertex sets of the components, by breadth-first search."""
    adj: list[list[int]] = [[] for _ in range(nv)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    parts: set[frozenset[int]] = set()
    seen: set[int] = set()
    for root in range(nv):
        if root in seen:
            continue
        part, frontier = {root}, [root]
        while frontier:
            for w in adj[frontier.pop()]:
                if w not in part:
                    part.add(w)
                    frontier.append(w)
        seen |= part
        parts.add(frozenset(part))
    return parts


@st.composite
def vertex_pairs(draw):
    """Up to 9 vertices and 12 edges: loops, parallel edges and vertices
    with no edge all occur."""
    nv = draw(st.integers(0, 9))
    vertex = st.integers(0, max(nv - 1, 0))
    return nv, draw(st.lists(st.tuples(vertex, vertex), max_size=12 if nv else 0))


@given(vertex_pairs())
@example((3, []))
@example((5, [(0, 0), (1, 2), (2, 1), (4, 4)]))
@settings(max_examples=200, deadline=None)
def test_components_are_the_bfs_partition(graph):
    nv, edges = graph
    label = components(nv, edges)
    assert len(label) == nv
    parts: dict[int, set[int]] = {}
    for v, c in enumerate(label):
        parts.setdefault(c, set()).add(v)
    assert set(map(frozenset, parts.values())) == bfs_partition(nv, edges)


@st.composite
def signed_systems(draw):
    """Signed trivalent rotation systems on 2-8 vertices, connected or not:
    a random pairing of the half-edge labels and any set of negative edges,
    so loops, negative loops and parallel edges all occur."""
    nv = draw(st.sampled_from([2, 4, 6, 8]))
    ne = 3 * nv // 2
    perm = draw(st.permutations(range(1, 2 * ne + 1)))
    neg = draw(st.sets(st.integers(1, ne)))
    labels = [-h if h % 2 and (h + 1) // 2 in neg else h for h in perm]
    return RotationSystem(tuple(tuple(labels[3 * v : 3 * v + 3]) for v in range(nv)))


@given(signed_systems())
@example(RotationSystem(((-1, 2, 3), (4, 5, 6))))  # a negative loop
@example(RotationSystem(((1, 2, 3), (4, -5, 6))))  # a positive and a negative loop
@example(RotationSystem(((1, 6, 4), (2, 3, -5))))  # thetaneg: parallel edges
@example(RotationSystem(((-1, 6, 4), (2, 3, -5))))  # two negative parallel edges
@settings(max_examples=200, deadline=None)
def test_orientable_iff_some_vertex_reflections_make_every_edge_positive(rs):
    """Reflecting vertex v negates the sign of each non-loop edge at v; a
    loop meets its vertex twice and keeps its sign.  Brute force over all
    2^|V| sets of reflections."""
    ends = rs.edge_endpoints()
    if len(bfs_partition(rs.vertex_count, ends.values())) != 1:
        with pytest.raises(VPDError, match="connected"):
            genus_and_orientability(rs)
        return
    balanced = any(
        all(
            rs.edge_sign(e) * (-1) ** ((flips >> u & 1) + (flips >> w & 1)) == 1
            for e, (u, w) in ends.items()
        )
        for flips in range(2**rs.vertex_count)
    )
    assert genus_and_orientability(rs)[0] == balanced

def test_corner_map_shape(graphs):
    ribbon = graphs["theta"].ribbon
    trace = ribbon.trace(0)
    owner, walks = trace[0], walks_of(trace)
    labels = [owner[a] for outs in ribbon.corners for a in outs]
    assert len(labels) == 6 and len(walks) == 3
    # theta all-zero state: each vertex sees all three circles
    assert {frozenset(labels[:3]), frozenset(labels[3:])} == {frozenset({0, 1, 2})}
    assert reference_trace(graphs["theta"]).corner_map == ((1, 2, 0), (0, 2, 1))


def test_blowup_theta(graphs):
    rs = blowup(graphs["theta"])
    assert rs.vertex_count == 6
    assert rs.edge_count == 9
    # the original edges 1..|E| cover each vertex exactly once: a perfect matching
    ends = rs.edge_endpoints()
    covered = sorted(v for e in range(1, graphs["theta"].edge_count + 1) for v in ends[e])
    assert covered == list(range(rs.vertex_count))
    # the blowup of a plane graph is plane
    assert genus_and_orientability(rs) == (True, 0)


def test_single_vertex_blowup(graphs):
    rs = blowup(graphs["theta"], at={0})
    assert rs.vertex_count == 4
    assert rs.edge_count == 6


def test_blowup_refuses_a_missing_vertex(graphs):
    for at, bad in (({5}, 5), ({0, 2}, 2), ((-1, 7), -1)):
        with pytest.raises(VPDError, match=f"blowup vertex {bad} is not a vertex"):
            blowup(graphs["theta"], at=at)


@st.composite
def trivalent_systems(draw):
    nv = draw(st.sampled_from([2, 4]))
    labels = list(range(1, 3 * nv + 1))
    perm = draw(st.permutations(labels))
    verts = [tuple(perm[3 * i : 3 * i + 3]) for i in range(nv)]
    flips = draw(st.sets(st.integers(1, 3 * nv // 2), max_size=2))
    out = []
    for v in verts:
        out.append(tuple(-h if h % 2 == 1 and (h + 1) // 2 in flips else h for h in v))
    return "G[" + ",".join("V[" + ",".join(map(str, v)) + "]" for v in out) + "]"


@given(trivalent_systems())
@settings(max_examples=60, deadline=None)
def test_roundtrip_random(text):
    try:
        rs = parse_vpd(text)
    except VPDError:
        assume(False)
    assert parse_vpd(serialize_vpd(rs)) == rs
    trace = rs.ribbon.trace(0)
    owner, walks = trace[0], walks_of(trace)
    # every token appears exactly once over all circles, as in the reference
    tokens = [t for walk in walks for t in walk]
    assert len(tokens) == len(set(tokens)) == 4 * rs.edge_count
    assert all(owner[t] == c for c, walk in enumerate(walks) for t in walk)
    ref = reference_trace(rs)
    assert len(walks) == ref.circle_count
    assert len({t for c in ref.circles for t in c}) == 4 * rs.edge_count


@given(trivalent_systems())
@settings(max_examples=30, deadline=None)
def test_euler_characteristic_bound(text):
    try:
        rs = parse_vpd(text)
    except VPDError:
        assume(False)
    orientable, g = genus_and_orientability(rs)
    euler = rs.vertex_count - rs.edge_count + reference_trace(rs).circle_count
    assert euler == (2 - 2 * g if orientable else 2 - g)


# text json.dumps escapes, and text it writes as is
_TEXT = st.one_of(st.text(), st.text(alphabet='ab "\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600'))
_JSON_VALUES = st.recursive(
    st.one_of(st.booleans(), st.integers(), st.integers(-(10**40), 10**40), _TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


@given(_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_writer_equals_json_dumps(value):
    assert _dumps(value) == json.dumps(value)


def test_to_json_equals_json_dumps_of_its_dict(graphs):
    """Every polynomial, rank table and filtered-rank record vhx prints, on
    the small fixtures, reads as json.dumps writes its dict."""
    from vhx.colorings import filtered_ranks
    from vhx.homology import bigraded_homology, build_vertex_complex
    from vhx.poly import ncolor_vertex_polynomial, vertex_polynomial

    def poly_dict(p):
        return {"var": p.var, "terms": [[e, c] for e, c in sorted(p.coeffs.items(), reverse=True)]}

    for name in ("theta", "thetaneg", "k4", "thetab", "p3", "k33"):
        rs = graphs[name]
        p = vertex_polynomial(rs)
        assert p.to_json() == json.dumps(poly_dict(p))
        for n in (2, 3):
            p = ncolor_vertex_polynomial(rs, n)
            assert p.to_json() == json.dumps(poly_dict(p))
            fr = filtered_ranks(rs, n)
            assert fr.to_json() == json.dumps(
                {"n": n, "ranks": fr.ranks, "euler": fr.euler, "tm": fr.total}
            )
            assert fr.tm_poly().to_json() == json.dumps(poly_dict(fr.tm_poly()))
            table = bigraded_homology(build_vertex_complex(rs, n))
            ranks = [[i, j, r] for (i, j), r in sorted(table.ranks.items())]
            assert table.to_json() == json.dumps({"n": n, "ranks": ranks})
