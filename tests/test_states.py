import itertools

import pytest

from conftest import trace_of, walks_of
from reference_homology import circle_correspondence as reference_correspondence
from reference_tracer import reference_trace, vertex_state

from vhx.homology import circle_correspondence
from vhx.states import InvariantError, StateSpaceError, hypercube_ribbon, state_mask
from vhx.vpd import parse_vpd


def band_path(rs, bits, v):
    """Swap masks along the 3-edge path that flips vertex ``v``, and its edges."""
    assert bits[v] == 0
    masks, edges = [state_mask(rs, bits)], rs.ribbon.bands[v]
    for e in edges:
        masks.append(masks[-1] ^ 1 << (e - 1))
    return masks, edges


def test_vertex_state_flips_edges(graphs):
    theta = graphs["theta"]
    st1 = vertex_state(theta, (1, 0))
    # flipping one endpoint negates all three (non-loop) edges
    assert all(st1.edge_sign(e) == -1 for e in (1, 2, 3))
    st2 = vertex_state(theta, (1, 1))
    # both endpoints flipped: signs restored
    assert all(st2.edge_sign(e) == 1 for e in (1, 2, 3))


def test_vertex_state_loop_unchanged(graphs):
    lolly = graphs["lollipop"]
    ends = lolly.edge_endpoints()
    loops = [e for e, (u, w) in ends.items() if u == w]
    assert loops
    for bits in itertools.product([0, 1], repeat=4):
        rs = vertex_state(lolly, bits)
        for e in loops:
            assert rs.edge_sign(e) == lolly.edge_sign(e)


def swaps(rs, mask):
    """The edges swap mask ``mask`` swaps, as the reference tracer takes them."""
    return frozenset(e for e in range(1, rs.edge_count + 1) if mask >> (e - 1) & 1)


def test_circle_correspondence_kinds(graphs):
    """The owner-array correspondence agrees with the token-set oracle on
    the reference tracer's circles, which the kernel numbers alike."""
    seen = set()
    for name in ("theta", "thetaneg", "k4", "lollipop"):
        rs = graphs[name]
        ribbon = rs.ribbon
        for bits in itertools.product([0, 1], repeat=rs.vertex_count):
            for v in range(rs.vertex_count):
                if bits[v]:
                    continue
                masks, edges = band_path(rs, bits, v)
                for i in range(3):
                    kind, act_b, act_a, pairs, k1 = circle_correspondence(
                        ribbon.trace(masks[i]), ribbon.trace(masks[i + 1]), edges[i]
                    )
                    seen.add(kind)
                    delta = len(act_a) - len(act_b)
                    assert (kind, delta) in {("merge", -1), ("split", 1), ("same-circle", 0)}
                    # stable circles preserve token sets
                    before = reference_trace(rs, swaps(rs, masks[i]))
                    after = reference_trace(rs, swaps(rs, masks[i + 1]))
                    assert k1 == after.circle_count
                    for bi, ai in pairs:
                        assert before.circle_tokens(bi) == after.circle_tokens(ai)
                    ref = reference_correspondence(before, after, edges[i])
                    assert kind == ref.kind
                    assert pairs == ref.stable_pairs
                    assert (act_b, act_a) == (ref.active_before, ref.active_after)
    assert {"merge", "split", "same-circle"} <= seen


def test_circle_correspondence_rejects_broken_traces(graphs):
    ribbon = graphs["k4"].ribbon
    before, after = ribbon.trace(0), ribbon.trace(1)
    assert circle_correspondence(before, after, 1)[0] in {"merge", "split", "same-circle"}
    # the flip of edge 2 cannot turn the circles of mask 0 into those of mask 1
    with pytest.raises(InvariantError):
        circle_correspondence(before, after, 2)
    # a stable circle whose tokens moved to another circle has no partner
    owner, walks = after[0], walks_of(after)
    stable = [c for c in range(len(walks)) if c not in {owner[t] for t in range(4)}]
    t = walks[stable[0]].pop()
    walks[owner[0]].append(t)
    with pytest.raises(InvariantError, match="no token-set partner"):
        circle_correspondence(before, trace_of(walks, ribbon.ntok), 1)


def test_site_path_counts(graphs):
    rs = graphs["k4"]
    masks, edges = band_path(rs, (0, 0, 0, 0), 2)
    assert len(masks) == 4 and len(edges) == 3
    # each step swaps one edge; the path ends at the state with vertex 2 flipped
    assert masks[0] == 0 and masks[-1] == state_mask(rs, (0, 0, 1, 0))
    assert all(masks[i] ^ masks[i + 1] == 1 << (edges[i] - 1) for i in range(3))
    assert bin(masks[-1]).count("1") == 3


def test_state_cap(graphs):
    assert hypercube_ribbon(graphs["dodec"]) is graphs["dodec"].ribbon
    with pytest.raises(StateSpaceError, match="requires a trivalent diagram"):
        hypercube_ribbon(parse_vpd("G[V[1,4,3,6],V[2,5]]", any_valence=True))


@pytest.mark.parametrize("bits", [(0,), (0, 0, 0), (), (0, 2), (1, -1), (0, "1")])
def test_state_mask_rejects_bad_states(graphs, bits):
    with pytest.raises(StateSpaceError):
        state_mask(graphs["theta"], bits)
