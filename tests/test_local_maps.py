"""Gate tests for the local-map assembler.

``build_vertex_complex`` (every graded piece, with path verification on),
``delta_graded_pieces``, the graded vertex edge maps of
``LocalMaps.edge_map`` (``test_homology.vertex_edge_map_graded``) and the
hat maps of the kernel check must equal the dict-of-monomials reference in
``reference_homology.py`` over Q(sqrt n), once their integer entries undo
the complex's change of basis, on the fixtures, the lollipop and the
generated corpus of ``test_ribbon.py`` up to |V| = 8.  The parity lemma
that makes the entries integers holds on every edge of generated systems.
An edge map is an unordered sum, so each source's terms are compared as
a {target: coefficient} dict; each target appears once per source.
A ribbon traces each swap mask and builds each band model once for all
the complexes built on it, a relabeled ribbon needs no more band models
than the original, and a build rejects an end state whose circles disagree
with an edge's band model.  An edge map is empty exactly when its degree
window is, opposite edges share one band pairing, and a build composes
only the edges whose window is open.
"""

import functools
import itertools
import random

import pytest
import reference_homology as ref
from conftest import SMALL_FIXTURES
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_algebra import QuadScalar, root_power
from test_homology import PRISM4, vertex_edge_map_graded
from test_ribbon import CORPUS_SEED, SMALL, prism, random_cubic, relabel
from test_vpd import trivalent_systems

import vhx
from vhx import homology
from vhx.algebra import half_m
from vhx.homology import (
    LocalMaps,
    _codes,
    _placements,
    build_vertex_complex,
    delta_graded_pieces,
)
from vhx.states import InvariantError, state_mask
from vhx.vpd import VPDError, parse_vpd

GATED = sorted(name for name, rs in SMALL.items() if rs.vertex_count <= 8)
# n = 4: the reference folds sqrt 4 into the rational part
CASES = [(name, n) for name in GATED for n in (2, 3)] + [("k4", 4)]


def element_order(n, circles):
    """Each block's (state bits, exponents) elements in the order the
    assembler numbers them: states with vertex 0 the most significant bit,
    then each state's codes in colexicographic order (:func:`_codes`).
    ``circles`` maps a state's bits to its circle count, and a weight-i
    state's q-degrees are shifted by 3m * i."""
    m, bases = half_m(n), {}
    for bits in sorted(circles):
        i, k = sum(bits), circles[bits]
        exps, dsum, _, _ = _codes(n, k)
        for e, t in zip(exps, dsum):
            bases.setdefault((i, k * m - t + 3 * m * i), []).append((bits, e))
    return bases


def assert_same(cx, want):
    """Equal dimensions, the reference's elements listed in the assembler's
    order (so the differentials' positions name the same elements), and
    equal differentials once the complex's integer entries undo its change
    of basis, which scales each element of a state with k circles and
    weight i by sqrt n^phi, phi = (k + i) mod 2: an entry c from s to t is
    c sqrt n^(phi(t) - phi(s)) over Q(sqrt n)."""
    assert cx.bigrade_j == want.bigrade_j
    assert cx.dims == {key: len(basis) for key, basis in want.bases.items()}
    circles = {bits: len(e) for basis in want.bases.values() for bits, e in basis}
    assert element_order(cx.n, circles) == want.bases
    n = cx.n
    scalar = functools.cache(lambda c, d: QuadScalar.of_int(c, n) * root_power(n, d))
    phi = {key: [(sum(b) + len(e)) & 1 for b, e in basis] for key, basis in want.bases.items()}
    got = {}
    for (i, j), block in cx.diff.items():
        src, tgt = phi[(i, j)], phi[(i + 1, j + cx.bigrade_j)]
        got[(i, j)] = {(r, c): scalar(v, tgt[r] - src[c]) for (r, c), v in block.items()}
    assert got == want.diff


def rows(emap):
    """{source: {target: coefficient}} of an edge map's term lists, which
    name each target once per source."""
    out = {x: dict(terms) for x, terms in emap.items()}
    assert all(len(out[x]) == len(terms) for x, terms in emap.items())
    return out


def vertex_flips(rs):
    for bits in itertools.product([0, 1], repeat=rs.vertex_count):
        for v in range(rs.vertex_count):
            if not bits[v]:
                yield bits, v


def test_gated_corpus_covers_loops_negative_edges_and_eight_vertices():
    graphs = [SMALL[name] for name in GATED]
    assert any(u == w for rs in graphs for u, w in rs.edge_endpoints().values())
    assert any(rs.edge_sign(e) < 0 for rs in graphs for e in range(1, rs.edge_count + 1))
    assert max(rs.vertex_count for rs in graphs) == 8


@pytest.mark.parametrize("name,n", CASES)
def test_vertex_complex_matches_reference(name, n):
    rs = SMALL[name]
    pieces = delta_graded_pieces(rs, n)
    assert sorted(pieces) == [0, n, 2 * n, 3 * n]
    for t, want in enumerate(ref.vertex_pieces(rs, n)):
        assert_same(build_vertex_complex(rs, n, tilde_count=t, verify_paths=True), want)
        assert_same(pieces[t * n], want)


@pytest.mark.parametrize("name,n", [("theta", 2), ("theta", 3), ("thetaneg", 2), ("k4", 2), ("lollipop", 2), ("rand4neg", 3)])
def test_vertex_edge_maps_match_reference(name, n):
    """Same sources, and each source's terms equal as a {target: scalar}
    dict, in whatever order they come, once the integer entries take back
    the sqrt n of an odd eta count."""
    rs = SMALL[name]
    for bits, v in vertex_flips(rs):
        for t in range(4):
            for order in itertools.permutations(range(3)):
                got = vertex_edge_map_graded(rs, n, bits, v, t, order)
                assert rows(got) == rows(ref.vertex_edge_map_graded(rs, n, bits, v, t, order))


@pytest.mark.parametrize("name,n", [("theta", 2), ("theta", 3), ("thetaneg", 2), ("k4", 2), ("lollipop", 3)])
def test_hat_matrices_match_reference(name, n):
    """The hat variant the kernel check reads, expanded over the untouched
    circles, equals the reference composition exactly."""
    rs = SMALL[name]
    maps = LocalMaps(rs.ribbon, n)
    for bits, v in vertex_flips(rs):
        kb, ka, local, stable = maps.edge_map(
            state_mask(rs, bits), rs.ribbon.bands[v], (("hat",) * 3,)
        )
        exps_b, exps_a = maps.codes(kb)[0], maps.codes(ka)[0]
        root = root_power(n, (1 + ka - kb) % 2)
        got: dict = {}
        for sp, tp, c in local:
            coeff = root * QuadScalar.of_int(c, n)
            for ss, st in stable:
                got.setdefault(exps_b[sp + ss], {})[exps_a[tp + st]] = coeff
        assert got == rows(ref.vertex_edge_map(rs, n, bits, v, ("hat",) * 3))


def test_build_traces_each_state_once(monkeypatch):
    """Edge maps read the traces of their end states only, and a state and
    its complement share a swap mask: 2^(|V|-1) traces, kept on the ribbon,
    for all the complexes built on it.  Circle correspondences run on band
    models of at most 12 tokens only."""
    rs = vhx.parse_vpd(PRISM4)
    trace, calls = rs.ribbon.trace, []
    monkeypatch.setattr(rs.ribbon, "trace", lambda mask: calls.append(mask) or trace(mask))
    corr, sizes = homology.circle_correspondence, []
    monkeypatch.setattr(
        homology, "circle_correspondence", lambda b, a, e: sizes.append(len(b[0])) or corr(b, a, e)
    )
    for t in range(2):
        build_vertex_complex(rs, 2, tilde_count=t)
    build_vertex_complex(rs, 3)
    assert len(calls) == len(set(calls)) == 2 ** (rs.vertex_count - 1) == 128
    assert sizes and max(sizes) <= 12 < rs.ribbon.ntok


def _band_model_count(rs):
    """The band models that every hypercube edge of ``rs`` at n = 2 needs."""
    maps = LocalMaps(rs.ribbon, 2)
    for bits, v in vertex_flips(rs):
        assert bits[v] == 0
        maps.edge_map(state_mask(rs, bits), rs.ribbon.bands[v], _placements(0))
    return len(rs.ribbon.band_models)


def test_band_models_are_shared_across_relabelings():
    """A band's tokens are numbered from its end at the flipped vertex, so
    moving the odd label to an edge's other end, renumbering edges or
    rotating tuples keeps every band model's key: prism5 and its relabelings
    need the same band models, at most 96."""
    plain = _band_model_count(prism(5))
    assert plain <= 96
    for seed in (1, 2, 7101, 7102):
        assert _band_model_count(relabel(prism(5), random.Random(seed))) == plain


@pytest.mark.parametrize("broken", ["band token", "untouched circle"])
def test_build_rejects_a_broken_end_state_trace(monkeypatch, broken):
    """The first edge of a build flips vertex 0 from state 0.  Its end
    state's trace is broken so that a band token moves to another circle
    (the last one, which no band model circle starts at), or two untouched
    circles land on one; that edge's map, and so the build, must fail."""
    rs = vhx.parse_vpd(PRISM4)
    ribbon = rs.ribbon
    end, band = ribbon.vertex_masks[0], [t for e in ribbon.bands[0] for t in range(4 * e - 4, 4 * e)]
    owner, walks = ribbon.trace(end)
    walks = [list(w) for w in walks]
    if broken == "band token":
        t, u = band[-1], walks[(owner[band[-1]] + 1) % len(walks)][0]
    else:
        owner_0, walks_0 = ribbon.trace(0)
        t, u = [w[0] for c, w in enumerate(walks_0) if c not in {owner_0[x] for x in band}][:2]
    walks[owner[t]].remove(t)
    walks[owner[u]].append(t)
    trace = ribbon.trace
    monkeypatch.setattr(ribbon, "trace", lambda mask: (owner, walks) if mask == end else trace(mask))
    with pytest.raises(InvariantError, match="band model disagrees"):
        LocalMaps(ribbon, 2).edge_map(0, ribbon.bands[0], _placements(0))
    with pytest.raises(InvariantError, match="band model disagrees"):
        build_vertex_complex(rs, 2)


def _window_corpus():
    """The fixtures but dodec, the lollipop (loops), prism4 and seeded
    random cubic graphs of up to 8 vertices with no, some and many
    negative edges (loops and multi-edges allowed)."""
    out = {name: SMALL[name] for name in (*SMALL_FIXTURES, "lollipop")}
    out["prism4"] = prism(4)
    for prob in (0.0, 0.3, 0.6):
        rng = random.Random(f"{CORPUS_SEED}-window-{prob}")
        for nv in (2, 4, 6, 8):
            out[f"r{nv}-{prob}"] = random_cubic(rng, nv, prob)
    return out


WINDOW_CORPUS = _window_corpus()


def hypercube_edges(rs):
    """(start swap mask, vertex) of every hypercube edge: a state and its
    complement share a swap mask, and exactly one of them leaves ``v`` at 0,
    so the states with vertex 0 at 0 give each edge once."""
    for bits in itertools.product([0, 1], repeat=rs.vertex_count - 1):
        mask = state_mask(rs, (0, *bits))
        for v in range(rs.vertex_count):
            yield mask, v


def touched_circles(ribbon, mask, v):
    """The circles through the tokens of vertex ``v``'s bands."""
    owner, _ = ribbon.trace(mask)
    return len({owner[t] for e in set(ribbon.bands[v]) for t in range(4 * e - 4, 4 * e)})


def test_window_corpus_covers_loops_negative_edges_and_eight_vertices():
    graphs = WINDOW_CORPUS.values()
    assert any(u == w for rs in graphs for u, w in rs.edge_endpoints().values())
    assert sum(any(rs.edge_sign(e) < 0 for e in range(1, rs.edge_count + 1)) for rs in graphs) > 4
    assert max(rs.vertex_count for rs in graphs) == 8


@pytest.mark.parametrize("name", sorted(WINDOW_CORPUS))
def test_an_edge_map_is_zero_exactly_when_its_degree_window_is_empty(name):
    """The maps m, Delta and eta are homogeneous in q, so an edge map
    moves the exponent sum of the k0 circles through the flipped vertex's
    bands by delta = (k1 - k0 + 3) m - tilde_count * n onto the k1 circles
    there.  Where no sum in [0, k0 (n-1)] lands in [0, k1 (n-1)], the edge
    map, with all of its checks, has no entries; and, as observed on this
    corpus, where one does it has some.  The counts are the ones the trace
    entries keep, and the window is the one the assembler reads."""
    rs = WINDOW_CORPUS[name]
    ribbon = rs.ribbon
    for n in (2, 3, 4, 5):
        maps, m = LocalMaps(ribbon, n), half_m(n)
        for mask, v in hypercube_edges(rs):
            end = mask ^ ribbon.vertex_masks[v]
            k0, k1 = touched_circles(ribbon, mask, v), touched_circles(ribbon, end, v)
            assert maps._traced(mask)[2][v] == k0 and maps._traced(end)[2][v] == k1
            for t in range(4):
                delta = (k1 - k0 + 3) * m - t * n
                window = any(0 <= x + delta <= k1 * (n - 1) for x in range(k0 * (n - 1) + 1))
                assert homology._window(n, t, k0, k1) == window
                local = maps.edge_map(mask, ribbon.bands[v], _placements(t))[2]
                assert bool(local) == window, (mask, v, n, t)


@pytest.mark.parametrize("name", sorted(WINDOW_CORPUS))
def test_opposite_edges_share_one_band_pairing(name):
    """The edges s -> s+v and ~(s+v) -> ~s join the same two swap masks in
    opposite directions.  Their band tokens pair up alike, and the reverse
    key's swap bits are the forward key's with the flipped edges' bits
    (each distinct edge an odd number of times on the path) toggled."""
    rs = WINDOW_CORPUS[name]
    ribbon, maps = rs.ribbon, LocalMaps(rs.ribbon, 2)
    for bits in itertools.product([0, 1], repeat=rs.vertex_count):
        for v in range(rs.vertex_count):
            if bits[v]:
                continue
            path, up = ribbon.bands[v], list(bits)
            up[v] = 1
            mask, back = state_mask(rs, bits), state_mask(rs, [1 - b for b in up])
            assert back == mask ^ ribbon.vertex_masks[v]
            assert state_mask(rs, [1 - b for b in bits]) == mask
            edges = list(dict.fromkeys(path))
            flips = sum((path.count(e) & 1) << i for i, e in enumerate(edges))
            partner, swaps, lpath = maps.band_key(mask, path)
            assert maps.band_key(back, path) == (partner, swaps ^ flips, lpath)


def test_build_composes_only_the_edges_with_an_open_window(monkeypatch):
    """prism5 has 10 * 2^9 = 5,120 hypercube edges; a build composes a band
    model on 1,250 of them at n = 2 and 4,400 at n = 3, the rest having an
    empty degree window."""
    composed, keyed_map = [], LocalMaps.keyed_map

    def counted(self, mask, path, *args):
        composed.append((mask, path))
        return keyed_map(self, mask, path, *args)

    monkeypatch.setattr(LocalMaps, "keyed_map", counted)
    rs = prism(5)
    for n, want in ((2, 1250), (3, 4400)):
        composed.clear()
        build_vertex_complex(rs, n)
        assert len(composed) == len(set(composed)) == want


@given(trivalent_systems(), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_parity_lemma_on_generated_systems(text, n):
    """Every hypercube edge's band model has an eta count of the parity of
    1 + k1 - k0, its circles k0 at the start and k1 at the end (the parity
    lemma of :mod:`vhx.homology`), and so every graded piece, tilde counts
    0 to 3, has integer entries."""
    try:
        rs = parse_vpd(text)
    except VPDError:
        assume(False)
    maps = LocalMaps(rs.ribbon, n)
    for bits, v in vertex_flips(rs):
        maps.edge_map(state_mask(rs, bits), rs.ribbon.bands[v], _placements(0))
    assert len(rs.ribbon.band_models) > 0
    for steps, start, _, end in rs.ribbon.band_models.values():
        etas = sum(kind == "same-circle" for kind, *_ in steps)
        assert etas % 2 == (1 + len(end) - len(start)) % 2
    for cx in delta_graded_pieces(rs, n).values():
        assert all(type(v) is int for block in cx.diff.values() for v in block.values())
