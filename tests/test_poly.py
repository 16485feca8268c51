import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_tracer import reference_trace, vertex_state
from test_ribbon import CORPUS_SEED, prism, random_cubic, relabel

import vhx
from vhx.poly import (
    IntPoly,
    LaurentPoly,
    abstract_vertex_polynomial,
    loop_polynomial,
    ncolor_vertex_polynomial,
    state_histogram,
    vertex_polynomial,
)
from vhx.colorings import filtered_ranks
from vhx.states import DEFAULT_STATE_CAP, StateSpaceError
from vhx.vpd import blowup, parse_vpd, serialize_vpd

THETA_BRACKET_2 = LaurentPoly(
    {0: 1, 1: 3, 2: 3, 3: -1, 4: -2, 6: 1, 7: 3, 8: 3, 9: 1}
)

VERTEX_POLYS = {
    # closed forms, evaluated pointwise below
    "theta": lambda n: 2 * n * (n**2 - 1),
    "thetaneg": lambda n: 2 * n * (n - 1),
    "k4": lambda n: 2 * n**2 * (n**2 - 1),
    "thetab": lambda n: 2 * n**3 * (n**2 - 1),
    "p3": lambda n: 2 * n**3 * (n**2 - 1),
    "k33": lambda n: 0,
    "dodec": lambda n: 2
    * (n + 1)
    * n**2
    * (n - 1)
    * (240 - 116 * n**2 + 114 * n**4 + 11 * n**6 + n**8),
}


def test_loop_polynomial():
    assert loop_polynomial(2) == LaurentPoly({1: 1, 0: 1})
    assert loop_polynomial(3) == LaurentPoly({1: 1, 0: 1, -1: 1})
    assert loop_polynomial(4)(1) == 4


def test_theta_bracket(graphs):
    assert ncolor_vertex_polynomial(graphs["theta"], 2) == THETA_BRACKET_2


@pytest.mark.parametrize("name", sorted(VERTEX_POLYS))
def test_vertex_polynomials(graphs, name):
    poly = vertex_polynomial(graphs[name])
    for n in range(-4, 7):
        assert poly(n) == VERTEX_POLYS[name](n)


@pytest.mark.parametrize(
    "name", ["theta", "k4", "thetab", "p3", "k33", "dodec"]
)
def test_parity_orientable(graphs, name):
    """V is even/odd in n for orientable ribbon graphs, matching |V|/2."""
    poly = vertex_polynomial(graphs[name])
    want_odd = (graphs[name].vertex_count // 2) % 2 == 1
    parity = 1 if want_odd else 0
    assert all(e % 2 == parity for e in poly.coeffs)


def test_parity_can_fail_nonorientable(graphs):
    poly = vertex_polynomial(graphs["thetaneg"])  # 2n^2 - 2n: mixed parity
    assert {e % 2 for e in poly.coeffs} == {0, 1}


def test_blowup_theorem_chain(graphs):
    """Blowing up at one vertex multiplies the vertex polynomial by n."""
    theta = graphs["theta"]
    v_theta = vertex_polynomial(theta)
    one = blowup(theta, at={0})
    v_one = vertex_polynomial(one)
    assert v_one == v_theta * IntPoly({1: 1})
    # blowing up the remaining original vertex reaches the 3-prism level
    v_k4 = vertex_polynomial(graphs["k4"])
    assert v_k4 == v_theta * IntPoly({1: 1})  # K4 = blowup of theta at a vertex
    full = blowup(theta)
    assert vertex_polynomial(full) == v_theta * IntPoly({2: 1})
    assert vertex_polynomial(full) == vertex_polynomial(graphs["p3"])


def test_histogram_shape(graphs):
    hist = state_histogram(graphs["theta"])
    assert len(hist) == 3  # weights 0..2
    assert sum(sum(h.values()) for h in hist) == 4
    assert hist[0] == {3: 1}  # all-zero state has 3 circles


def test_histogram_matches_direct_trace(graphs):
    for name in ("theta", "k4", "k33", "thetaneg"):
        rs = graphs[name]
        hist = state_histogram(rs)
        direct = [dict() for _ in range(rs.vertex_count + 1)]
        for bits in itertools.product([0, 1], repeat=rs.vertex_count):
            k = reference_trace(vertex_state(rs, bits)).circle_count
            w = sum(bits)
            direct[w][k] = direct[w].get(k, 0) + 1
        assert hist == direct


def test_bracket_euler_specialization(graphs):
    # the bracket at q = 1 equals the signed state count weighted by n^k
    for name in ("theta", "k4"):
        rs = graphs[name]
        for n in (2, 3):
            hist = state_histogram(rs)
            expected = sum(
                (-1) ** w * cnt * n**k
                for w, row in enumerate(hist)
                for k, cnt in row.items()
            )
            assert ncolor_vertex_polynomial(rs, n)(1) == expected


def test_abstract_vertex_polynomial_theta(graphs):
    poly, sign, has_neg = abstract_vertex_polynomial(graphs["theta"])
    assert not has_neg
    assert sign == 1
    assert poly == vertex_polynomial(graphs["theta"])


def reorder(rs, rng):
    """The same abstract graph under another cyclic order at every vertex:
    each vertex's half-edges in shuffled order."""
    verts = tuple(tuple(rng.sample(v, len(v))) for v in rs.vertices)
    return parse_vpd(serialize_vpd(vhx.RotationSystem(verts)))


# unsigned graphs: every edge positive
ABSTRACT_GRAPHS = {
    "theta": vhx.load_fixture("theta"),
    "k4": vhx.load_fixture("k4"),
    "prism4": prism(4),
} | {
    f"rand{nv}-{i}": random_cubic(random.Random(f"{CORPUS_SEED}-abstract-{nv}-{i}"), nv, 0.0)
    for nv in (4, 6, 8)
    for i in range(2)
}


@pytest.mark.parametrize("name", sorted(ABSTRACT_GRAPHS))
def test_abstract_vertex_polynomial_ignores_cyclic_order_and_labels(name):
    """The paper's abstract invariant, on unsigned VPD: a change of cyclic
    order at the vertices, then a relabeling, keeps the polynomial.  The
    applied sign may change (theta reads -1 under some orders), so only
    the polynomial is compared.  Signed graphs are not invariant."""
    rs = ABSTRACT_GRAPHS[name]
    assert all(h > 0 for v in rs.vertices for h in v)
    want = abstract_vertex_polynomial(rs)[0]
    rng = random.Random(f"{CORPUS_SEED}-abstract-{name}")
    for _ in range(6):
        assert abstract_vertex_polynomial(relabel(reorder(rs, rng), rng))[0] == want


def test_abstract_reorders_change_the_ribbon_graph():
    """The reorders above are not vacuous: on theta they change V(Gamma, n)
    and the applied sign."""
    theta = ABSTRACT_GRAPHS["theta"]
    rng = random.Random(f"{CORPUS_SEED}-abstract-theta")
    others = [reorder(theta, rng) for _ in range(6)]
    assert any(vertex_polynomial(rs) != vertex_polynomial(theta) for rs in others)
    assert {abstract_vertex_polynomial(rs)[1] for rs in others} == {1, -1}


@st.composite
def small_systems(draw):
    nv = draw(st.sampled_from([2, 4]))
    labels = list(range(1, 3 * nv + 1))
    perm = draw(st.permutations(labels))
    return tuple(tuple(perm[3 * i : 3 * i + 3]) for i in range(nv))


@given(small_systems(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_rotation_invariance(verts, shift):
    """Cyclically rotating a vertex tuple leaves every invariant unchanged."""
    text = "G[" + ",".join("V[" + ",".join(map(str, v)) + "]" for v in verts) + "]"
    try:
        rs = parse_vpd(text)
    except Exception:
        assume(False)
    rolled = list(rs.vertices)
    v0 = rolled[0]
    rolled[0] = v0[shift % 3 :] + v0[: shift % 3]
    text2 = "G[" + ",".join("V[" + ",".join(map(str, v)) + "]" for v in rolled) + "]"
    rs2 = parse_vpd(text2)
    assert vertex_polynomial(rs) == vertex_polynomial(rs2)
    assert ncolor_vertex_polynomial(rs, 2) == ncolor_vertex_polynomial(rs2, 2)


def test_state_histogram_cache_normalises_cap(graphs):
    """Omitted, positional and keyword caps are one cache entry."""
    state_histogram.cache_clear()
    rs = graphs["k33"]
    first = state_histogram(rs)
    assert state_histogram(rs, DEFAULT_STATE_CAP) is first
    assert state_histogram(rs, cap=DEFAULT_STATE_CAP) is first
    info = state_histogram.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_sweeps_share_one_trivalence_refusal():
    """The state sums and the filtered ranks refuse a diagram that is not
    trivalent with one message, from the sweep they share."""
    rs = parse_vpd("G[V[1,4,3,6],V[2,5]]", any_valence=True)
    messages = set()
    for call in (state_histogram, vertex_polynomial, lambda rs: filtered_ranks(rs, 2)):
        with pytest.raises(StateSpaceError) as info:
            call(rs)
        messages.add(str(info.value))
    assert messages == {"vertex hypercube requires a trivalent diagram"}
