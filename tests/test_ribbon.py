"""Gate tests for the compiled ribbon kernel.

``Ribbon.trace`` (read as a decomposition by :func:`decomposition`, and
as the harmonic kernel check reads each corner's circle), ``state_mask``
and ``state_histogram`` must agree exactly with the reference tracer in
``reference_tracer.py`` on the fixtures and on a seeded corpus of generated
cubic ribbon graphs with negative edges and loops.  The half-cube
``structure_histogram`` of ``reference_structures.py`` must agree with the
state histogram, ``induced_matching`` with one read off the reference
tracer's tokens, the coloring counter and the filtered ranks with the
brute-force coloring count and under relabeling, and the inclusion-exclusion
sweep's ranks with the half-cube walk's.
"""

import itertools
import math
import random
from functools import lru_cache

import pytest
from reference_structures import (
    corner_walk,
    half_cube,
    reference_filtered_ranks,
    structure,
    structure_histogram,
)
from reference_tracer import (
    CircleDecomposition,
    harmonic_colorings,
    reference_trace,
    vertex_swaps,
)

import vhx
from vhx.colorings import (
    FaceColoring,
    _count_constrained,
    filtered_ranks,
    induced_matching,
    total_matching_polynomial,
)
from vhx.oracles import AbstractGraph, count_tait_colorings
from vhx.homology import LocalMaps
from vhx.poly import IntPoly, rank_polynomials, state_histogram, vertex_polynomial
from vhx.states import state_mask
from vhx.vpd import VPDError, genus_and_orientability, parse_vpd, serialize_vpd

from conftest import LOLLIPOP, SMALL_FIXTURES, walks_of

CORPUS_SEED = 20240115
CORPUS_SIZES = (2, 2, 4, 4, 6, 6, 8, 8, 10, 10, 12, 12)


def random_cubic(rng: random.Random, nv: int, neg_prob: float) -> vhx.RotationSystem:
    """A connected cubic ribbon graph from the configuration model: loops and
    multi-edges allowed, each edge negative with probability ``neg_prob``."""
    while True:
        slots = list(range(3 * nv))
        rng.shuffle(slots)
        verts = [[0, 0, 0] for _ in range(nv)]
        for i in range(len(slots) // 2):
            a, b = slots[2 * i], slots[2 * i + 1]
            odd = 2 * i + 1
            verts[a // 3][a % 3] = -odd if rng.random() < neg_prob else odd
            verts[b // 3][b % 3] = odd + 1
        try:
            return parse_vpd(serialize_vpd(vhx.RotationSystem(tuple(map(tuple, verts)))))
        except VPDError:  # disconnected draw
            continue


def prism(k: int) -> vhx.RotationSystem:
    """The plane prism C_k x K_2 (|V| = 2k): outer cycle u_i = 2i, inner
    cycle v_i = 2i + 1, counterclockwise u_i -> (u_(i+1), v_i, u_(i-1)) and
    v_i -> (u_i, v_(i+1), v_(i-1))."""
    verts = [[0, 0, 0] for _ in range(2 * k)]
    ends = []
    for i in range(k):
        j = (i + 1) % k
        ends += [((2 * i, 0), (2 * j, 2)), ((2 * i + 1, 1), (2 * j + 1, 2)), ((2 * i, 1), (2 * i + 1, 0))]
    for e, ((v, s), (w, t)) in enumerate(ends, start=1):
        verts[v][s], verts[w][t] = 2 * e - 1, 2 * e
    return parse_vpd(serialize_vpd(vhx.RotationSystem(tuple(map(tuple, verts)))))


def negative_edges(rs):
    return sum(rs.edge_sign(e) < 0 for e in range(1, rs.edge_count + 1))


def _corpus():
    """Per size, a graph with positive edges and one, named ``neg``, with
    each edge negative with probability 0.3, redrawn from a stream of its
    own until it carries a negative edge, so that the later draws stay."""
    rng = random.Random(CORPUS_SEED)
    out = {}
    for i, nv in enumerate(CORPUS_SIZES):
        neg = 0.3 if i % 2 else 0.0
        rs = random_cubic(rng, nv, neg)
        redraw = random.Random(f"{CORPUS_SEED}-rand{nv}neg")
        while neg and not negative_edges(rs):
            rs = random_cubic(redraw, nv, neg)
        out[f"rand{nv}{'neg' if neg else ''}"] = rs
    out["lollipop"] = parse_vpd(LOLLIPOP)
    return out


CORPUS = _corpus()
SMALL = {name: vhx.load_fixture(name) for name in SMALL_FIXTURES} | CORPUS


def decomposition(ribbon, mask):
    """The kernel's circles under swap mask ``mask`` as the reference
    tracer's record: token tuples per circle, each rebuilt from its tokens'
    ranks, and the corner map."""
    trace = ribbon.trace(mask)
    owner, walks = trace[0], walks_of(trace)
    circles = tuple(tuple((t // 2 + 1, t % 2 + 1) for t in walk) for walk in walks)
    corner_map = tuple(tuple(owner[a] for a in outs) for outs in ribbon.corners)
    return CircleDecomposition(circles, corner_map)


@lru_cache(maxsize=None)
def reference_states(name):
    """Reference decomposition of every vertex state, keyed by state bits."""
    rs = SMALL[name]
    return {
        bits: reference_trace(rs, vertex_swaps(rs, bits))
        for bits in itertools.product([0, 1], repeat=rs.vertex_count)
    }


def reference_histogram(name):
    """hist[w][k] over all 2^|V| reference decompositions."""
    hist = [dict() for _ in range(SMALL[name].vertex_count + 1)]
    for bits, dec in reference_states(name).items():
        row = hist[sum(bits)]
        row[dec.circle_count] = row.get(dec.circle_count, 0) + 1
    return hist


def test_corpus_covers_loops_and_negative_edges():
    """Every ``neg`` graph carries a negative edge and no other graph does."""
    loops = 0
    for name, rs in CORPUS.items():
        loops += sum(u == w for u, w in rs.edge_endpoints().values())
        assert bool(negative_edges(rs)) == name.endswith("neg"), name
    assert loops
    assert max(rs.vertex_count for rs in CORPUS.values()) == 12


@pytest.mark.parametrize("name", sorted(SMALL))
def test_kernel_matches_reference_on_vertex_states(name):
    rs = SMALL[name]
    ribbon = rs.ribbon
    for bits, ref in reference_states(name).items():
        mask = state_mask(rs, bits)
        assert decomposition(ribbon, mask) == ref
        assert decomposition(ribbon, sum(1 << (e - 1) for e in vertex_swaps(rs, bits))) == ref


@pytest.mark.parametrize("name", sorted(SMALL))
def test_kernel_matches_reference_on_edge_swaps(name):
    """Any edge-swap set, not only those of vertex states (matching states
    swap single edges)."""
    rs = SMALL[name]
    ne = rs.edge_count
    rng = random.Random(ne)
    masks = range(1 << ne) if ne <= 9 else [rng.getrandbits(ne) for _ in range(300)]
    for mask in masks:
        swaps = frozenset(e for e in range(1, ne + 1) if mask >> (e - 1) & 1)
        ref = reference_trace(rs, swaps)
        assert decomposition(rs.ribbon, mask) == ref


@pytest.mark.parametrize("name", sorted(SMALL))
def test_histogram_matches_reference(name):
    assert state_histogram(SMALL[name]) == reference_histogram(name)


def test_dodec_histogram_against_reference_sample():
    """2^20 reference traces take minutes, so the dodecahedron's histogram is
    checked on its row sums and on a seeded sample of states."""
    rs = vhx.load_fixture("dodec")
    hist = state_histogram(rs)
    nv = rs.vertex_count
    assert [sum(row.values()) for row in hist] == [math.comb(nv, w) for w in range(nv + 1)]
    rng = random.Random(CORPUS_SEED)
    cells = set()
    for _ in range(400):
        bits = tuple(rng.getrandbits(1) for _ in range(nv))
        k = reference_trace(rs, vertex_swaps(rs, bits)).circle_count
        assert len(rs.ribbon.trace(state_mask(rs, bits))[1]) == k
        cells.add((sum(bits), k))
    # every sampled (weight, circle count) cell is populated in the histogram
    assert all(hist[w].get(k) for w, k in cells)


def test_prism50_histogram_rows_are_binomial_and_mirrored():
    """At |V| = 100 every count is a 13-byte digit of the packed integer:
    the rows sum to C(100, w) and mirror w <-> 100 - w."""
    hist = state_histogram(prism(50))
    assert [sum(row.values()) for row in hist] == [math.comb(100, w) for w in range(101)]
    assert hist == hist[::-1]


def _histogram_graphs():
    out = {name: vhx.load_fixture(name) for name in vhx.FIXTURES}
    out |= {f"prism{k}": prism(k) for k in range(4, 8)}
    rng = random.Random(f"{CORPUS_SEED}-sweep")
    for nv in (10, 12, 14, 14):
        out[f"sweep{nv}neg-{len(out)}"] = random_cubic(rng, nv, 0.3)
    return out


HISTOGRAM_GRAPHS = _histogram_graphs()


@pytest.mark.parametrize("name", sorted(HISTOGRAM_GRAPHS))
def test_histogram_matches_structure_histogram(name):
    """The transfer matrix against the half cube: the structure histogram
    grouped by circle count.  Rows are palindromic."""
    rs = HISTOGRAM_GRAPHS[name]
    hist = state_histogram(rs)
    by_k = [dict() for _ in range(rs.vertex_count + 1)]
    for k, row in structure_histogram(rs).values():
        for w, states in enumerate(row):
            if states:
                by_k[w][k] = by_k[w].get(k, 0) + states
    assert hist == by_k
    assert hist == hist[::-1]


def test_histogram_graphs_cover_negative_edges_and_fourteen_vertices():
    graphs = HISTOGRAM_GRAPHS.values()
    assert sum(rs.edge_sign(e) < 0 for rs in graphs for e in range(1, rs.edge_count + 1)) > 10
    assert {rs.vertex_count for rs in graphs} >= {8, 10, 12, 14, 20}


# the fixtures, the corpus, the prisms and the sweep graphs, but for dodec,
# whose half-cube count takes ~18 s per n
ORACLE_GRAPHS = SMALL | {name: rs for name, rs in HISTOGRAM_GRAPHS.items() if name != "dodec"}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_filtered_ranks_match_half_cube(name):
    """The inclusion-exclusion sweep against the half-cube walk, which
    counts the colorings of each distinct structure by backtracking."""
    rs = ORACLE_GRAPHS[name]
    hist = structure_histogram(rs)
    for n in (2, 3, 4, 5):
        assert filtered_ranks(rs, n).ranks == reference_filtered_ranks(hist, n)


@pytest.mark.parametrize("name", [*sorted(ORACLE_GRAPHS), "dodec"])
def test_rank_polynomials_alternate_to_the_vertex_polynomial(name):
    """sum_w (-1)^w P_w(n) = V(Gamma, n) as polynomials, not only at the
    values of n tried."""
    rs = ORACLE_GRAPHS.get(name) or HISTOGRAM_GRAPHS[name]
    euler = IntPoly.zero()
    for w, poly in enumerate(rank_polynomials(rs)):
        euler = euler + poly * (-1) ** w
    assert euler == vertex_polynomial(rs)


@pytest.mark.parametrize("k", range(3, 13))
def test_plane_prism_vertex_polynomial_counts_tait_colorings(k):
    """V(Gamma, 2) = 2^(|V|/2) #Tait on plane graphs, up to |V| = 24."""
    rs = prism(k)
    assert genus_and_orientability(rs) == (True, 0)
    tait = count_tait_colorings(AbstractGraph.from_rotation_system(rs))
    assert vertex_polynomial(rs)(2) == 2**k * tait


@pytest.mark.parametrize("name", [*sorted(SMALL), "prism5"])
def test_state_histogram_invariant_under_relabeling(name):
    """The sweep order follows the vertex labels; the histogram must not."""
    rs = SMALL[name] if name in SMALL else prism(5)
    rng = random.Random(f"{CORPUS_SEED}-hist-{name}")
    for _ in range(2):
        other = relabel(rs, rng)
        assert other != rs
        assert state_histogram(other) == state_histogram(rs)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_complement_symmetry_of_reference_histogram(name):
    """hist[w] == hist[|V| - w], computed without using the symmetry."""
    hist = reference_histogram(name)
    assert hist == hist[::-1]


_brute: dict[tuple, int] = {}


def brute_count(dec, n):
    """Harmonic colorings of ``dec`` by enumerating all n^k colorings,
    cached by corner map and circle count (all the enumeration reads)."""
    key = (dec.corner_map, dec.circle_count, n)
    if key not in _brute:
        _brute[key] = sum(1 for _ in harmonic_colorings(dec, n))
    return _brute[key]


SMALL8 = [n for n in sorted(SMALL) if SMALL[n].vertex_count <= 8]


@pytest.mark.parametrize("name", SMALL8)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_filtered_ranks_palindromic(name, n):
    """filtered_ranks sweeps with the first vertex 0-smoothed; the full-cube
    brute-force sum must agree and be a palindrome."""
    rs = SMALL[name]
    nv = rs.vertex_count
    ref = [0] * (nv + 1)
    for bits, dec in reference_states(name).items():
        ref[sum(bits)] += brute_count(dec, n)
    assert ref == ref[::-1]
    assert filtered_ranks(rs, n).ranks == ref


def test_counter_matches_brute_force_on_every_structure():
    """The color-symmetric counter, called as ``harmonic_kernel_check``
    calls it, against n^k enumeration, once per distinct structure of the
    |V| <= 8 corpus.  Every circle meets a corner, so the structure names them all."""
    structures = {}
    for name in SMALL8:
        for dec in reference_states(name).values():
            structures.setdefault(structure(first_occurrence(dec.corner_map)), dec)
    assert len(structures) > 100
    for key, dec in structures.items():
        assert max(map(max, key)) == dec.circle_count - 1
        for n in (2, 3, 4, 5):
            assert _count_constrained(key, dec.circle_count, n) == brute_count(dec, n)


def first_occurrence(corner_map):
    relabel = {}
    return [relabel.setdefault(c, len(relabel)) for corners in corner_map for c in corners]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_corner_labels_match_decomposition(name):
    """On every half-cube state and 300 seeded edge-swap masks, each
    corner's circle as ``harmonic_kernel_check`` reads it (its out token's
    rank over the token count, on the shared ``LocalMaps.trace``) is the
    reference tracer's corner map up to renaming the circles; so are the
    labels of the half-cube oracle's own corner walk."""
    rs = SMALL[name]
    ribbon = rs.ribbon
    maps, corner_labels = LocalMaps(ribbon, 2), corner_walk(ribbon)
    refs = {state_mask(rs, bits): dec for bits, dec in reference_states(name).items()}
    rng = random.Random(rs.edge_count)
    masks = [mask for _, mask in half_cube(ribbon)]
    masks += [rng.getrandbits(rs.edge_count) for _ in range(300)]
    for mask in masks:
        if mask not in refs:
            swaps = frozenset(e for e in range(1, rs.edge_count + 1) if mask >> (e - 1) & 1)
            refs[mask] = reference_trace(rs, swaps)
        ref = refs[mask]
        firsts, rank, _ = maps.trace(mask)
        corners = [[rank[a] // ribbon.ntok for a in outs] for outs in ribbon.corners]
        labels = first_occurrence(ref.corner_map)
        assert first_occurrence(corners) == labels
        assert len(firsts) == ref.circle_count
        assert corner_labels(mask) == (labels, ref.circle_count)


INDUCED = ["thetaneg", "k4", *sorted(n for n, rs in CORPUS.items() if rs.vertex_count <= 6)]


def reference_induced_matching(dec, colors):
    """The edges whose two odd-half-edge side tokens lie on same-colored
    circles, and the classification by colors seen per vertex."""
    owner = dec.token_owner()
    edges = frozenset(
        e
        for e in range(1, len(owner) // 4 + 1)
        if colors[owner[(2 * e - 1, 1)]] == colors[owner[(2 * e - 1, 2)]]
    )
    kinds = {len({colors[c] for c in corners}) for corners in dec.corner_map}
    return edges, "empty" if kinds == {3} else "perfect matching" if kinds == {2} else "mixed"


@pytest.mark.parametrize("name", INDUCED)
def test_induced_matching_matches_reference(name):
    """Every state and every harmonic 2- and 3-coloring of it: as many
    colorings as the filtered ranks count."""
    rs = SMALL[name]
    for n in (2, 3):
        checked = 0
        for bits, dec in reference_states(name).items():
            for colors in harmonic_colorings(dec, n):
                got = induced_matching(FaceColoring(bits, colors), rs)
                assert got == reference_induced_matching(dec, colors)
                checked += 1
        assert checked == filtered_ranks(rs, n).total


def test_induced_matching_corpus_covers_loops_negative_edges_and_classes():
    """Colorings exist on graphs with loops and with negative edges, and
    every classification occurs."""
    loops = negs = 0
    classes = set()
    for name in INDUCED:
        rs = SMALL[name]
        colorings = [
            (dec, colors)
            for dec in reference_states(name).values()
            for n in (2, 3)
            for colors in harmonic_colorings(dec, n)
        ]
        classes |= {reference_induced_matching(dec, colors)[1] for dec, colors in colorings}
        if colorings:
            loops += any(u == w for u, w in rs.edge_endpoints().values())
            negs += any(rs.edge_sign(e) < 0 for e in range(1, rs.edge_count + 1))
    assert loops and negs
    assert classes == {"empty", "perfect matching", "mixed"}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_structure_histogram(name):
    """Rows sum to 2^|V| (binomially per weight), are palindromic, and
    grouped by k give the circle-count histogram."""
    rs = SMALL[name]
    nv = rs.vertex_count
    hist = structure_histogram(rs)
    by_k = [dict() for _ in range(nv + 1)]
    for k, row in hist.values():
        assert row == row[::-1]
        for w, states in enumerate(row):
            if states:
                by_k[w][k] = by_k[w].get(k, 0) + states
    assert [sum(r.values()) for r in by_k] == [math.comb(nv, w) for w in range(nv + 1)]
    assert by_k == state_histogram(rs)


def relabel(rs, rng):
    """An isomorphic ribbon graph: shuffled vertices, rotated tuples,
    renumbered edges, and the odd label (with the sign) moved to the other
    end of a random half of the edges."""
    ne = rs.edge_count
    perm = rng.sample(range(1, ne + 1), ne)
    swap_ends = [rng.random() < 0.5 for _ in range(ne)]

    def new_label(h):
        e = (abs(h) + 1) // 2
        f = perm[e - 1]
        if (abs(h) % 2 == 1) != swap_ends[e - 1]:
            return -(2 * f - 1) if rs.edge_sign(e) < 0 else 2 * f - 1
        return 2 * f

    verts = []
    for v in rs.vertices:
        r = rng.randrange(len(v))
        verts.append(tuple(new_label(h) for h in v[r:] + v[:r]))
    rng.shuffle(verts)
    return parse_vpd(serialize_vpd(vhx.RotationSystem(tuple(verts))))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_filtered_ranks_invariant_under_relabeling(name):
    """First-occurrence numbering depends on vertex and tuple order; the
    ranks and TM polynomials must not."""
    rs = SMALL[name]
    rng = random.Random(f"{CORPUS_SEED}-{name}")
    for _ in range(2):
        other = relabel(rs, rng)
        assert other != rs
        for n in (2, 3):
            assert filtered_ranks(other, n).ranks == filtered_ranks(rs, n).ranks
            assert total_matching_polynomial(other, n) == total_matching_polynomial(rs, n)
