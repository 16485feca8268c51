import itertools

import pytest
import reference_color
from conftest import SMALL_FIXTURES
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_tracer import harmonic_colorings, reference_trace, vertex_swaps

from vhx.colorings import (
    FaceColoring,
    _count_constrained,
    filtered_ranks,
    harmonic_kernel_check,
    induced_matching,
    total_matching_polynomial,
)
from vhx.oracles import AbstractGraph, bridges, perfect_matchings
from vhx.poly import rank_polynomials
from vhx.states import DEFAULT_STATE_CAP, StateSpaceError, state_mask
from vhx.vpd import parse_vpd


def state_decomposition(rs, bits):
    """The reference tracer's circles of vertex state ``bits``."""
    return reference_trace(rs, vertex_swaps(rs, bits))


def state_count(rs, bits, n):
    """Harmonic n-colorings of vertex state ``bits``, counted as
    ``harmonic_kernel_check`` counts each state: by each corner's circle."""
    owner, firsts, _ = rs.ribbon.trace(state_mask(rs, bits))
    corners = [[owner[a] for a in outs] for outs in rs.ribbon.corners]
    return _count_constrained(corners, len(firsts), n)


def brute_count(dec, n):
    return sum(1 for _ in harmonic_colorings(dec, n))


def k33_formulas(n):
    return [
        n * (n - 1) ** 2,
        4 * n * (n - 1) ** 2,
        n * (7 - 16 * n + 9 * n**2),
        4 * n * (2 - 5 * n + 3 * n**2),
        n * (7 - 16 * n + 9 * n**2),
        4 * n * (n - 1) ** 2,
        n * (n - 1) ** 2,
    ]


def test_theta_all_zero_count(graphs):
    dec = state_decomposition(graphs["theta"], (0, 0))
    for n, count in ((2, 6), (3, 24)):
        assert state_count(graphs["theta"], (0, 0), n) == brute_count(dec, n) == count


def test_monochromatic_vertex_kills(graphs):
    # theta middle states have a single circle through all corners
    dec = state_decomposition(graphs["theta"], (1, 0))
    assert dec.circle_count == 1
    assert state_count(graphs["theta"], (1, 0), 2) == brute_count(dec, 2) == 0
    assert state_count(graphs["theta"], (1, 0), 5) == brute_count(dec, 5) == 0


def test_theta_filtered(graphs):
    fr = filtered_ranks(graphs["theta"], 2)
    assert fr.ranks == [6, 0, 6]
    assert fr.euler == 12
    assert fr.total == 12


def test_k33_filtered_table(graphs):
    fr = filtered_ranks(graphs["k33"], 2)
    assert fr.ranks == [2, 8, 22, 32, 22, 8, 2]
    assert fr.euler == 0
    assert fr.total == 96


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_k33_filtered_formulas(graphs, n):
    assert filtered_ranks(graphs["k33"], n).ranks == k33_formulas(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_k33_single_smoothing_states(graphs, n):
    """Four of the six weight-1 states carry n(n-1)^2 colorings each."""
    counts = sorted(
        state_count(graphs["k33"], tuple(1 if i == v else 0 for i in range(6)), n)
        for v in range(6)
    )
    single = n * (n - 1) ** 2
    assert counts == [0, 0, single, single, single, single]
    assert sum(counts) == 4 * n * (n - 1) ** 2


def test_second_n_hits_the_rank_polynomial_cache(graphs):
    """One sweep per graph: a second n evaluates the cached polynomials."""
    rank_polynomials.cache_clear()
    rs = graphs["k33"]
    for n in (2, 3):
        assert filtered_ranks(rs, n).ranks == k33_formulas(n)
    info = rank_polynomials.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_count_matches_enumeration(graphs):
    for bits in itertools.product([0, 1], repeat=4):
        dec = state_decomposition(graphs["k4"], bits)
        for n in (2, 3):
            assert state_count(graphs["k4"], bits, n) == brute_count(dec, n)


def test_complement_symmetry(graphs):
    for name in ("theta", "k4", "p3", "k33"):
        fr = filtered_ranks(graphs[name], 2)
        assert fr.ranks == fr.ranks[::-1]


def test_tm_polynomial(graphs):
    tm = total_matching_polynomial(graphs["k33"], 2)
    assert tm(1) == 96
    assert tm.coeffs == {0: 2, 1: 8, 2: 22, 3: 32, 4: 22, 5: 8, 6: 2}
    assert total_matching_polynomial(graphs["lollipop"], 2)(1) == 0


def test_plane_identities(graphs):
    """rank0 = 2 #PM; euler = 2^(|V|/2) #Tait; rank1 = 4 m b on plane graphs."""
    from vhx.oracles import count_tait_colorings

    for name in ("theta", "k4", "p3"):
        rs = graphs[name]
        g = AbstractGraph.from_rotation_system(rs)
        fr = filtered_ranks(rs, 2)
        pms = perfect_matchings(g)
        assert fr.ranks[0] == 2 * len(pms)
        assert fr.euler == 2 ** (rs.vertex_count // 2) * count_tait_colorings(g)
        assert fr.ranks[1] == 4 * len(pms) * len(bridges(g))


def test_induced_matchings_theta(graphs):
    theta = graphs["theta"]
    dec = state_decomposition(theta, (0, 0))
    seen = set()
    for colors in harmonic_colorings(dec, 2):
        edges, cls = induced_matching(FaceColoring((0, 0), colors), theta)
        assert cls == "perfect matching"
        assert len(edges) == 1  # each single edge of theta is a perfect matching
        seen.add(edges)
    assert len(seen) == 3


def test_induced_matching_rejects_bad_coloring(graphs):
    with pytest.raises(ValueError):
        induced_matching(FaceColoring((0, 0), (0, 0, 0)), graphs["theta"])


def test_induced_matching_proper_coloring_is_empty(graphs):
    theta = graphs["theta"]
    # three circles, all corners distinct: a proper 3-face coloring
    edges, cls = induced_matching(FaceColoring((0, 0), (0, 1, 2)), theta)
    assert cls == "empty"
    assert edges == frozenset()


@pytest.mark.parametrize("bits", [(0,), (0, 0, 0), (0, 2)])
def test_induced_matching_rejects_bad_state(graphs, bits):
    """A state of the wrong length or with an entry other than 0/1 is not
    truncated or read as a 1-smoothing."""
    with pytest.raises(StateSpaceError):
        induced_matching(FaceColoring(bits, (0, 1, 2)), graphs["theta"])


def test_bridge_always_induced(graphs):
    """The lollipop has no harmonic coloring at all, so the dumbbell (two
    looped vertices joined by a bridge) keeps the check from passing
    vacuously."""
    dumbbell, checked = parse_vpd("G[V[1,3,4],V[2,5,6]]"), 0
    for rs in (graphs["lollipop"], dumbbell):
        g = AbstractGraph.from_rotation_system(rs)
        br = {e + 1 for e in bridges(g)}  # 1-based edge ids
        assert br
        for bits in itertools.product([0, 1], repeat=rs.vertex_count):
            dec = state_decomposition(rs, bits)
            for n in (2, 3):
                for colors in harmonic_colorings(dec, n):
                    edges, _ = induced_matching(FaceColoring(bits, colors), rs)
                    assert br <= edges
                    checked += 1
    assert checked == sum(filtered_ranks(dumbbell, n).total for n in (2, 3)) > 0


def check_harmonic_kernel(graph, n):
    """Each state's exact kernel equals its coloring count and the SVD count
    in the color basis (the paper's definition, on the reference assembly's
    hat maps), and the per-degree sums reproduce the filtered ranks."""
    report = harmonic_kernel_check(graph, n)
    assert report.ok
    assert {bits: kernel for bits, (_, kernel, _) in report.per_state.items()} == (
        reference_color.kernel_dims(graph, n)
    )
    fr = filtered_ranks(graph, n)
    sums = [0] * (graph.vertex_count + 1)
    for bits, (cnt, kernel, _) in report.per_state.items():
        assert cnt == kernel
        sums[sum(bits)] += kernel
    assert sums == fr.ranks


@pytest.mark.parametrize("n", [2, 3])
def test_harmonic_kernel_theta(graphs, n):
    check_harmonic_kernel(graphs["theta"], n)


# n = 4, a perfect square, too
@pytest.mark.parametrize(
    "name,n",
    [(name, n) for name in SMALL_FIXTURES if name != "theta" for n in (2, 3)] + [("k4", 4)],
)
def test_harmonic_kernel_matches_counts(graphs, name, n):
    check_harmonic_kernel(graphs[name], n)


def test_harmonic_kernel_traces_each_mask_once(monkeypatch):
    """A state, its complement (the same swap mask) and the hat maps at both
    share one trace: 2^(|V|-1) distinct traces on p3.  Traces are kept on
    the ribbon, so the graph is parsed afresh rather than shared with tests
    that built a complex on it."""
    import vhx

    rs = vhx.load_fixture("p3")
    trace, calls = rs.ribbon.trace, []
    monkeypatch.setattr(rs.ribbon, "trace", lambda mask: calls.append(mask) or trace(mask))
    report = harmonic_kernel_check(rs, 2)
    assert len(calls) == len(set(calls)) == 2 ** (rs.vertex_count - 1) == 32
    monkeypatch.undo()
    assert report.ok and len(report.per_state) == 64
    for bits, (cnt, _, _) in report.per_state.items():
        assert cnt == brute_count(state_decomposition(rs, bits), 2)


@given(st.integers(2, 6))
@settings(max_examples=5, deadline=None)
def test_counts_scale_with_free_circles(n):
    # theta's all-zero state: three circles, each vertex sees all three
    import vhx

    theta = vhx.load_fixture("theta")
    base = state_count(theta, (0, 0), n)
    assert base == n * (n - 1) * (n - 2) + 3 * n * (n - 1)  # inclusion-exclusion


def test_rank_polynomials_cache_normalises_cap(graphs):
    """Omitted, positional and keyword caps, and the call inside
    ``filtered_ranks``, are one cache entry."""
    rank_polynomials.cache_clear()
    rs = graphs["k33"]
    first = rank_polynomials(rs)
    assert rank_polynomials(rs, DEFAULT_STATE_CAP) is first
    assert rank_polynomials(rs, cap=DEFAULT_STATE_CAP) is first
    filtered_ranks(rs, 2)
    info = rank_polynomials.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
