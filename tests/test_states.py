import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_homology import circle_correspondence as reference_correspondence

from vhx.states import (
    InvariantError,
    StateIndex,
    StateSpaceError,
    VertexHypercube,
    circle_correspondence,
    vertex_state,
    vertex_to_bubbled_path,
)
from vhx.vpd import blowup, bubbled_blowup, trace_boundary


def test_state_index_basics():
    nu = StateIndex((0, 1, 1, 0))
    assert nu.weight == 2
    assert nu.flip(0).bits == (1, 1, 1, 0)
    assert nu.sign_at(0) == 1
    assert nu.sign_at(2) == -1  # one 1 to the left
    assert nu.sign_at(3) == 1  # two 1s to the left


def test_vertex_state_flips_edges(graphs):
    theta = graphs["theta"]
    st1 = vertex_state(theta, StateIndex((1, 0)))
    # flipping one endpoint negates all three (non-loop) edges
    assert all(st1.edge_sign(e) == -1 for e in (1, 2, 3))
    st2 = vertex_state(theta, StateIndex((1, 1)))
    # both endpoints flipped: signs restored
    assert all(st2.edge_sign(e) == 1 for e in (1, 2, 3))


def test_vertex_state_loop_unchanged(graphs):
    lolly = graphs["lollipop"]
    ends = lolly.edge_endpoints()
    loops = [e for e, (u, w) in ends.items() if u == w]
    assert loops
    for bits in itertools.product([0, 1], repeat=4):
        rs = vertex_state(lolly, StateIndex(bits))
        for e in loops:
            assert rs.edge_sign(e) == lolly.edge_sign(e)


def test_circle_correspondence_kinds(graphs):
    """The owner-array correspondence agrees with the token-set oracle."""
    seen = set()
    for name in ("theta", "thetaneg", "k4", "lollipop"):
        rs = graphs[name]
        hc = VertexHypercube(rs)
        for bits in itertools.product([0, 1], repeat=rs.vertex_count):
            nu = StateIndex(bits)
            for v in range(rs.vertex_count):
                if bits[v]:
                    continue
                masks, edges = hc.site_path(nu, v, (0, 1, 2))
                for i in range(3):
                    corr = circle_correspondence(
                        hc.ribbon.trace(masks[i]), hc.ribbon.trace(masks[i + 1]), edges[i]
                    )
                    seen.add(corr.kind)
                    delta = len(corr.active_after) - len(corr.active_before)
                    assert (corr.kind, delta) in {
                        ("merge", -1),
                        ("split", 1),
                        ("same-circle", 0),
                    }
                    # stable circles preserve token sets
                    before = hc.decomposition(masks[i])
                    after = hc.decomposition(masks[i + 1])
                    for bi, ai in corr.stable_pairs:
                        assert before.circle_tokens(bi) == after.circle_tokens(ai)
                    ref = reference_correspondence(before, after, edges[i])
                    assert corr.kind == ref.kind
                    assert corr.stable_pairs == ref.stable_pairs
                    assert (corr.active_before, corr.active_after) == (
                        ref.active_before,
                        ref.active_after,
                    )
    assert {"merge", "split", "same-circle"} <= seen


def test_circle_correspondence_rejects_broken_traces(graphs):
    ribbon = graphs["k4"].ribbon
    before, after = ribbon.trace(0), ribbon.trace(1)
    assert circle_correspondence(before, after, 1).kind in {"merge", "split", "same-circle"}
    # the flip of edge 2 cannot turn the circles of mask 0 into those of mask 1
    with pytest.raises(InvariantError):
        circle_correspondence(before, after, 2)
    # a stable circle whose tokens moved to another circle has no partner
    owner, walks = after
    moved = list(owner)
    stable = [c for c in range(len(walks)) if c not in {owner[t] for t in range(4)}]
    t = walks[stable[0]][-1]
    moved[t] = owner[0]
    with pytest.raises(InvariantError, match="no token-set partner"):
        circle_correspondence(before, (moved, walks), 1)


def test_site_path_counts(graphs):
    hc = VertexHypercube(graphs["k4"])
    nu = StateIndex((0, 0, 0, 0))
    masks, edges = hc.site_path(nu, 2, (0, 1, 2))
    assert len(masks) == 4 and len(edges) == 3
    # each step swaps one edge; the path ends at the state with vertex 2 flipped
    assert masks[0] == 0 and masks[-1] == hc.ribbon.state_mask((0, 0, 1, 0))
    assert all(masks[i] ^ masks[i + 1] == 1 << (edges[i] - 1) for i in range(3))
    assert bin(masks[-1]).count("1") == 3


def test_bubbled_path_matches_site_path(graphs):
    theta = graphs["theta"]
    bb = bubbled_blowup(theta)
    path = vertex_to_bubbled_path(StateIndex((0, 0)), StateIndex((1, 0)), bb)
    assert len(path) == 3
    # all three flipped sites belong to vertex 0's blowup cycle
    assert {bb.site_origin[s][0] for s in path} == {0}
    assert list(path) == sorted(path)


def test_state_cap(graphs):
    with pytest.raises(StateSpaceError):
        VertexHypercube(graphs["dodec"], cap=10).check_cap()


@given(st.integers(2, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_sign_at_antisymmetry(nbits, data):
    bits = tuple(data.draw(st.integers(0, 1)) for _ in range(nbits))
    nu = StateIndex(bits)
    # flipping two distinct 0-sites in either order accumulates opposite signs
    zeros = [i for i, b in enumerate(bits) if not b]
    if len(zeros) < 2:
        return
    a, b = zeros[0], zeros[1]
    s1 = nu.sign_at(a) * nu.flip(a).sign_at(b)
    s2 = nu.sign_at(b) * nu.flip(b).sign_at(a)
    assert s1 == -s2
