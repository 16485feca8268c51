import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_oracles import backtrack_tait_colorings, tarjan_bridges, walk_cycle_profile
from test_ribbon import prism, random_cubic
from test_vpd import signed_systems, trivalent_systems

import vhx
from vhx.oracles import (
    AbstractGraph,
    bridges,
    classify_matching,
    count_perfect_matchings,
    count_tait_colorings,
    perfect_matchings,
)
from vhx.poly import vertex_polynomial
from vhx.states import StateSpaceError
from vhx.vpd import VPDError, parse_vpd

PM_COUNTS = {
    "theta": 3,
    "k4": 3,
    "p3": 4,
    "k33": 6,
    "lollipop": 0,
}

TAIT_COUNTS = {
    "theta": 6,
    "k4": 6,
    "p3": 6,
    "k33": 12,
    "dodec": 60,
    "lollipop": 0,
}


@pytest.mark.parametrize("name,count", sorted(PM_COUNTS.items()))
def test_perfect_matching_counts(graphs, name, count):
    g = AbstractGraph.from_rotation_system(graphs[name])
    pms = perfect_matchings(g)
    assert len(pms) == count
    assert len(set(pms)) == count  # no duplicates
    for m in pms:
        covered = [v for e in m for v in g.edges[e]]
        assert sorted(covered) == list(range(g.n_vertices))


def test_dodec_has_matchings(graphs):
    g = AbstractGraph.from_rotation_system(graphs["dodec"])
    assert len(perfect_matchings(g)) >= 1


@pytest.mark.parametrize("name,count", sorted(TAIT_COUNTS.items()))
def test_tait_counts(graphs, name, count):
    g = AbstractGraph.from_rotation_system(graphs[name])
    assert count_tait_colorings(g) == count


def test_tait_requires_trivalent():
    g = AbstractGraph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        count_tait_colorings(g)


def assert_sweeps_match_the_references(rs):
    g = AbstractGraph.from_rotation_system(rs)
    assert count_tait_colorings(g) == backtrack_tait_colorings(g)
    assert count_perfect_matchings(g) == len(perfect_matchings(g))


@pytest.mark.parametrize("name", [*vhx.FIXTURES, "lollipop"])
def test_sweeps_match_the_references_on_the_fixtures(graphs, name):
    """The lollipop's three loops are in no matching and in no coloring."""
    assert_sweeps_match_the_references(graphs[name])


@pytest.mark.parametrize("neg_prob", [0.0, 0.3])
def test_sweeps_match_the_references_on_random_cubic_graphs(neg_prob):
    rng = random.Random(f"edge-labelings-{neg_prob}")
    for nv in [2, 4, 6, 8, 10, 12] * 5:
        assert_sweeps_match_the_references(random_cubic(rng, nv, neg_prob))


@given(trivalent_systems())
@settings(max_examples=60, deadline=None)
def test_sweeps_match_the_references_on_generated_systems(text):
    try:
        rs = parse_vpd(text)
    except VPDError:
        assume(False)
    assert_sweeps_match_the_references(rs)


def test_tait_colorings_of_prisms_are_the_vertex_polynomial_at_two():
    """Penrose: V(prism_k, 2) = 2^k #Tait, past any backtracking."""
    for k in range(3, 51):
        rs = prism(k)
        tait = count_tait_colorings(AbstractGraph.from_rotation_system(rs))
        assert 2**k * tait == vertex_polynomial(rs)(2), k
    assert tait == 1125899906842632


def test_sweeps_refuse_a_cut_over_the_cap(graphs):
    """k33's sweep cuts 5 edges, 10 strands, as the state sums' does."""
    g = AbstractGraph.from_rotation_system(graphs["k33"])
    for count, value in ((count_tait_colorings, 12), (count_perfect_matchings, 6)):
        with pytest.raises(StateSpaceError, match="10 open strands"):
            count(g, 8)
        assert count(g, 10) == value


def test_classify_theta(graphs):
    g = AbstractGraph.from_rotation_system(graphs["theta"])
    for m in perfect_matchings(g):
        even, cycles = classify_matching(g, m)
        assert even and cycles == [2]


def test_classify_k33_all_even(graphs):
    g = AbstractGraph.from_rotation_system(graphs["k33"])
    for m in perfect_matchings(g):
        even, cycles = classify_matching(g, m)
        assert even
        assert sum(cycles) == len(g.edges) - len(m)


def test_classify_odd_cycles(graphs):
    """The 3-prism's all-rung matching leaves two triangles: an odd matching."""
    g = AbstractGraph.from_rotation_system(graphs["p3"])
    profiles = sorted(
        classify_matching(g, m) for m in perfect_matchings(g)
    )
    assert profiles.count((False, [3, 3])) == 1
    assert profiles.count((True, [6])) == 3
    for even, cycles in profiles:
        assert sum(cycles) == len(g.edges) - 3


def test_classify_rejects_non_matching(graphs):
    g = AbstractGraph.from_rotation_system(graphs["theta"])
    with pytest.raises(ValueError):
        classify_matching(g, frozenset({0, 1}))


def test_classify_rejects_a_matching_that_leaves_a_vertex_uncovered(graphs):
    """One edge of K4 is a matching, but not a perfect one."""
    g = AbstractGraph.from_rotation_system(graphs["k4"])
    for e in range(len(g.edges)):
        with pytest.raises(ValueError, match="not a perfect matching"):
            classify_matching(g, frozenset({e}))


@pytest.mark.parametrize("index", [-1, -3, 3, 10])
def test_classify_rejects_indices_outside_the_edge_list(graphs, index):
    """A negative index would pick an edge from the end of the list, and a
    large one is not an edge: neither is a matching of theta."""
    g = AbstractGraph.from_rotation_system(graphs["theta"])
    assert classify_matching(g, frozenset({len(g.edges) - 1})) == (True, [2])
    with pytest.raises(ValueError, match="not a perfect matching"):
        classify_matching(g, frozenset({index}))


def test_classify_refuses_a_non_trivalent_graph():
    """A cycle profile needs G \\ M to be 2-regular.  Edge 0 matches both
    vertices of this 4-regular multigraph, but leaves a loop at each."""
    g = AbstractGraph(2, ((0, 1), (0, 1), (0, 0), (1, 1)))
    with pytest.raises(ValueError, match="trivalent"):
        classify_matching(g, frozenset({0}))


@given(signed_systems().map(AbstractGraph.from_rotation_system))
@example(AbstractGraph(4, ((0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (3, 3))))
@example(AbstractGraph(4, ((0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3))))
@settings(max_examples=150, deadline=None)
def test_classify_matches_the_cycle_walk(g):
    for m in perfect_matchings(g):
        assert classify_matching(g, m) == walk_cycle_profile(g, m)


def test_bridges(graphs):
    assert bridges(AbstractGraph.from_rotation_system(graphs["theta"])) == frozenset()
    assert bridges(AbstractGraph.from_rotation_system(graphs["dodec"])) == frozenset()
    lolly = AbstractGraph.from_rotation_system(graphs["lollipop"])
    br = bridges(lolly)
    assert len(br) == 3
    # the stems join the center to each loop vertex
    assert all(lolly.edges[e][0] != lolly.edges[e][1] for e in br)


def test_even_matching_tait_identity(graphs):
    """#Tait = sum over even matchings M of 2^(#cycles of G \\ M), counting
    the colorings whose first color class is M."""
    for name in ("theta", "p3", "k4", "k33"):
        g = AbstractGraph.from_rotation_system(graphs[name])
        total = 0
        for m in perfect_matchings(g):
            even, cycles = classify_matching(g, m)
            if even:
                total += 2 ** len(cycles)
        assert count_tait_colorings(g) == total


def _connected(g: AbstractGraph) -> bool:
    if g.n_vertices == 0:
        return True
    seen = {0}
    frontier = [0]
    adj = [[] for _ in range(g.n_vertices)]
    for u, w in g.edges:
        adj[u].append(w)
        adj[w].append(u)
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == g.n_vertices


@st.composite
def random_graphs(draw):
    nv = draw(st.integers(2, 6))
    ne = draw(st.integers(nv - 1, min(2 * nv, 10)))
    edges = tuple(
        (
            draw(st.integers(0, nv - 1)),
            draw(st.integers(0, nv - 1)),
        )
        for _ in range(ne)
    )
    return AbstractGraph(nv, edges)


@given(random_graphs())
@example(AbstractGraph(1, ()))
@example(AbstractGraph(5, ((0, 1), (1, 0), (1, 2), (2, 2), (3, 4))))
@settings(max_examples=200, deadline=None)
def test_bridges_match_tarjan(g):
    assert bridges(g) == tarjan_bridges(g)


@given(random_graphs())
@settings(max_examples=50, deadline=None)
def test_bridge_removal_disconnects(g):
    assume(_connected(g))
    for e in bridges(g):
        rest = AbstractGraph(g.n_vertices, g.edges[:e] + g.edges[e + 1 :])
        assert not _connected(rest)


@given(random_graphs())
@settings(max_examples=50, deadline=None)
def test_non_bridges_keep_connectivity(g):
    assume(_connected(g))
    br = bridges(g)
    for e in range(len(g.edges)):
        if e in br:
            continue
        rest = AbstractGraph(g.n_vertices, g.edges[:e] + g.edges[e + 1 :])
        assert _connected(rest)
