import random

import pytest
from reference_algebra import QuadScalar, root_power
from test_ribbon import CORPUS_SEED, SMALL, prism, random_cubic, relabel

import vhx
from vhx import homology
from vhx.algebra import half_m
from vhx.homology import (
    ChainComplex,
    LocalMaps,
    RankTable,
    _placements,
    bigraded_homology,
    build_vertex_complex,
    chain_condition_holds,
    delta_graded_pieces,
    graded_euler,
    matrix_rank,
)
from vhx.poly import ncolor_vertex_polynomial, state_histogram
from vhx.states import StateSpaceError, state_mask
from vhx.vpd import Ribbon

# the plane prism C4 x K2
PRISM4 = "G[V[1,5,20],V[6,3,22],V[7,11,2],V[12,9,4],V[13,17,8],V[18,15,10],V[19,23,14],V[24,21,16]]"

THETA_TABLE_N2 = {
    (0, 0): 1,
    (0, 1): 3,
    (0, 2): 3,
    (1, 3): 1,
    (1, 4): 2,
    (2, 6): 1,
    (2, 7): 3,
    (2, 8): 3,
    (2, 9): 1,
}


def vertex_edge_map_graded(rs, n, bits, vertex, tilde_count, order=(0, 1, 2)):
    """Sum of compositions with exactly ``tilde_count`` tilde factors, on the
    hypercube edge that 1-smooths ``vertex`` from the vertex state ``bits``,
    as {source exponents: [(target exponents, coefficient)]}:
    :meth:`LocalMaps.edge_map` expanded over the untouched circles, each
    integer times sqrt n^((1 + ka - kb) mod 2) as a ``QuadScalar``.  Each
    target appears once per source, and terms come in no fixed order."""
    mask = state_mask(rs, bits)
    if bits[vertex]:
        raise StateSpaceError(f"no hypercube edge 1-smooths vertex {vertex} from {bits}")
    path = tuple(rs.ribbon.bands[vertex][i] for i in order)
    maps = LocalMaps(rs.ribbon, n)
    kb, ka, local, stable = maps.edge_map(mask, path, _placements(tilde_count))
    exps_b, exps_a = maps.codes(kb)[0], maps.codes(ka)[0]
    # the entries lack the sqrt n of an odd eta count
    root = root_power(n, (1 + ka - kb) % 2)
    out: dict[tuple[int, ...], list] = {}
    for sp, tp, c in local:
        coeff = root * QuadScalar.of_int(c, n)
        for ss, st in stable:
            out.setdefault(exps_b[sp + ss], []).append((exps_a[tp + st], coeff))
    return out


def chain_euler(cx: ChainComplex):
    """Graded Euler characteristic from chain-group dimensions (equal to the
    homological one by rank-nullity)."""
    return graded_euler(RankTable(cx.n, cx.dims))


def test_matrix_rank():
    # [[1, sqrt 2], [sqrt 2, 2]] is singular over Q(sqrt 2), and so is
    # [[1, 2], [1, 2]], its second row scaled by 1/sqrt 2 and column by sqrt 2
    block = {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 2}
    assert matrix_rank(block) == 1
    block[(1, 1)] = 3
    assert matrix_rank(block) == 2
    assert matrix_rank({(0, 0): 0, (3, 4): 0}) == matrix_rank({}) == 0


def test_theta_homology_table(graphs):
    cx = build_vertex_complex(graphs["theta"], 2)
    assert chain_condition_holds(cx)
    assert bigraded_homology(cx).ranks == THETA_TABLE_N2


def test_p3_homology_ranks(graphs):
    table = bigraded_homology(build_vertex_complex(graphs["p3"], 2))
    assert table.rank(1, 6) == 1
    assert table.rank(2, 6) == 10


@pytest.mark.parametrize("name", ["theta", "thetaneg", "k4", "k33"])
@pytest.mark.parametrize("n", [2, 3])
def test_chain_condition(graphs, name, n):
    assert chain_condition_holds(build_vertex_complex(graphs[name], n))


@pytest.mark.parametrize("name", ["theta", "k4"])
@pytest.mark.parametrize("n", [2, 3])
def test_path_independence(graphs, name, n):
    # verify_paths raises on any disagreement among the six orders
    build_vertex_complex(graphs[name], n, verify_paths=True)


@pytest.mark.parametrize("name", ["theta", "thetaneg", "k4", "thetab", "p3", "k33"])
@pytest.mark.parametrize("n", [2, 3])
def test_graded_euler_is_bracket(graphs, name, n):
    cx = build_vertex_complex(graphs[name], n)
    euler = graded_euler(bigraded_homology(cx))
    assert euler == ncolor_vertex_polynomial(graphs[name], n)
    # and rank-nullity: the chain-level Euler characteristic agrees
    assert chain_euler(cx) == euler


def test_theta_lee_edge_maps(graphs):
    """The published graded-piece values on the theta graph at n = 2."""
    theta = graphs["theta"]
    r2 = QuadScalar.root(2)
    out = vertex_edge_map_graded(theta, 2, (0, 0), 0, 0)
    assert out == {(0, 0, 0): [((1,), r2)]}
    out = vertex_edge_map_graded(theta, 2, (0, 0), 0, 1)
    assert out == {
        (1, 1, 0): [((1,), r2)],
        (1, 0, 1): [((1,), r2)],
        (0, 1, 1): [((1,), r2)],
        (1, 0, 0): [((0,), r2)],
        (0, 1, 0): [((0,), r2)],
        (0, 0, 1): [((0,), r2)],
    }
    out = vertex_edge_map_graded(theta, 2, (0, 0), 0, 2)
    assert out == {(1, 1, 1): [((0,), r2)]}
    assert vertex_edge_map_graded(theta, 2, (0, 0), 0, 3) == {}
    # second hypercube edge: one circle back to three
    out = vertex_edge_map_graded(theta, 2, (1, 0), 1, 1)
    assert out == {(0,): [((1, 1, 1), r2)]}
    out = vertex_edge_map_graded(theta, 2, (1, 0), 1, 2)
    assert {k: sorted(v) for k, v in out.items()} == {
        (1,): sorted([((0, 1, 1), r2), ((1, 0, 1), r2), ((1, 1, 0), r2)]),
        (0,): sorted([((0, 0, 1), r2), ((0, 1, 0), r2), ((1, 0, 0), r2)]),
    }
    out = vertex_edge_map_graded(theta, 2, (1, 0), 1, 3)
    assert out == {(1,): [((0, 0, 0), r2)]}


@pytest.mark.parametrize(
    "bits,vertex", [((1, 0), 0), ((1, 1), 1), ((0,), 0), ((0, 0, 0), 0), ((0, 2), 0)]
)
def test_vertex_edge_map_refuses_a_missing_hypercube_edge(graphs, bits, vertex):
    """No edge of the vertex hypercube starts at a bad state or 1-smooths an
    already 1-smoothed vertex."""
    with pytest.raises(StateSpaceError):
        vertex_edge_map_graded(graphs["theta"], 2, bits, vertex, 0)


@pytest.mark.parametrize("n", [0, 1])
def test_edge_maps_and_kernel_check_refuse_n_below_two(graphs, n):
    """As the complexes and filtered ranks do, rather than reporting a
    vacuous algebra."""
    with pytest.raises(ValueError, match="n must be >= 2"):
        vertex_edge_map_graded(graphs["theta"], n, (0, 0), 0, 0)
    with pytest.raises(ValueError, match="n must be >= 2"):
        vhx.harmonic_kernel_check(graphs["theta"], n)


def _compose_blocks(A, B, p):
    """Entries of B o A where A has q-jump p (blocks (i, j) -> (i+1, j+p)),
    in integers."""
    out = {}
    for (i, j), blk in A.diff.items():
        nxt = B.diff.get((i + 1, j + p))
        if not nxt:
            continue
        for (r1, c1), v1 in blk.items():
            for (r2, c2), v2 in nxt.items():
                if c2 == r1:
                    key = (i, j, r2, c1)
                    out[key] = out.get(key, 0) + v2 * v1
    return out


@pytest.mark.parametrize("k", [0, 2, 4, 6, 8, 10, 12])
def test_graded_pieces_anticommute(graphs, k):
    """sum over p+q=k of delta_q o delta_p = 0 on theta at n = 2."""
    pieces = delta_graded_pieces(graphs["theta"], 2)
    total: dict = {}
    for p, A in pieces.items():
        q = k - p
        if q not in pieces:
            continue
        for key, v in _compose_blocks(A, pieces[q], p).items():
            total[key] = total.get(key, 0) + v
    assert not any(total.values())


def test_graded_pieces_bigrades(graphs):
    pieces = delta_graded_pieces(graphs["theta"], 2)
    assert sorted(pieces) == [0, 2, 4, 6]
    for key, cx in pieces.items():
        assert cx.bigrade_j == key


def test_chain_condition_detects_nonzero_square():
    # C^0 -> C^1 (dim 2) -> C^2: [1, 1]^T then [1, -1] composes to zero
    cx = ChainComplex(
        2,
        {(0, 0): 1, (1, 0): 2, (2, 0): 1},
        {(0, 0): {(0, 0): 1, (1, 0): 1}, (1, 0): {(0, 0): 1, (0, 1): -1}},
    )
    assert chain_condition_holds(cx)
    cx.diff[(1, 0)][(0, 1)] = 1
    assert not chain_condition_holds(cx)


def test_negative_edge_homology_consistency(graphs):
    """Nonorientable input still yields a complex with the right Euler."""
    cx = build_vertex_complex(graphs["thetaneg"], 2)
    assert chain_condition_holds(cx)
    assert graded_euler(bigraded_homology(cx)) == ncolor_vertex_polynomial(
        graphs["thetaneg"], 2
    )


def _dual(table, nv):
    """(i, j) -> (|V| - i, C - j), C = min j + max j."""
    js = [j for _, j in table]
    c = min(js) + max(js)
    return {(nv - i, c - j): r for (i, j), r in table.items()}


ODD_N_DUALITY = [
    *((name, 3) for name in ("theta", "thetaneg", "k4", "thetab", "p3", "k33", "prism4")),
    *((name, 5) for name in ("theta", "thetaneg", "k4", "p3")),
]


@pytest.mark.parametrize("name,n", ODD_N_DUALITY)
def test_odd_n_duality(graphs, name, n):
    """Observed identity, not yet proven (so not a ``check`` row): for odd n,
    H^(i,j) = H^(|V|-i, C-j); at n = 3 the chain dimensions obey it too."""
    rs = vhx.parse_vpd(PRISM4) if name == "prism4" else graphs[name]
    cx = build_vertex_complex(rs, n)
    table = bigraded_homology(cx).ranks
    assert _dual(table, rs.vertex_count) == table
    if n == 3:
        assert _dual(cx.dims, rs.vertex_count) == cx.dims


def test_odd_n_duality_fails_at_even_n(graphs):
    table = bigraded_homology(build_vertex_complex(graphs["theta"], 2)).ranks
    assert _dual(table, 2) != table


DIMS_CASES = [
    *((name, n) for name, rs in sorted(SMALL.items()) if rs.vertex_count <= 8 for n in (2, 3, 4)),
    ("prism5", 2),
]


@pytest.mark.parametrize("name,n", DIMS_CASES)
def test_dims_follow_the_state_histogram(name, n):
    """dim C^(w, k m - t + 3 m w) = sum_k hist[w][k] * #{exponent tuples
    in {0..n-1}^k with sum t}: the assembler's bookkeeping against the
    transfer matrix's state histogram, the tuples counted as coefficients
    of (1 + x + ... + x^(n-1))^k."""
    rs = prism(5) if name == "prism5" else SMALL[name]
    m, want = half_m(n), {}
    for w, row in enumerate(state_histogram(rs)):
        for k, states in row.items():
            sums = [1]
            for _ in range(k):
                sums = [sum(sums[max(0, t - n + 1) : t + 1]) for t in range(len(sums) + n - 1)]
            for t, count in enumerate(sums):
                key = (w, k * m - t + 3 * m * w)
                want[key] = want.get(key, 0) + states * count
    assert build_vertex_complex(rs, n).dims == want


@pytest.fixture
def traces(monkeypatch):
    """The masks of every :meth:`Ribbon.trace` call; the 101st call fails the
    test, so a refusal that comes only after tracing fails fast."""
    calls, trace = [], Ribbon.trace

    def counted(ribbon, mask):
        calls.append(mask)
        if len(calls) > 100:
            pytest.fail("traced more than 100 states")
        return trace(ribbon, mask)

    monkeypatch.setattr(Ribbon, "trace", counted)
    return calls


@pytest.mark.parametrize(
    "rs,size",
    [
        (vhx.load_fixture("dodec"), 12722176),
        (random_cubic(random.Random(1), 24, 0.3), 109150208),
    ],
    ids=["dodec", "r24"],
)
def test_an_oversized_complex_is_refused_before_any_trace(traces, rs, size):
    """The refusal names the complex's exact size, read off the state
    histogram, and no state is traced for it."""
    with pytest.raises(StateSpaceError) as info:
        build_vertex_complex(rs, 2)
    assert str(info.value) == f"the complex needs {size} basis elements, more than 262144"
    assert traces == []


def test_the_kernel_check_is_refused_with_the_complex(traces):
    with pytest.raises(StateSpaceError, match="the complex needs 12722176 basis elements"):
        vhx.harmonic_kernel_check(vhx.load_fixture("dodec"), 2)
    assert traces == []


def test_max_basis_bounds_the_exact_size(monkeypatch):
    """prism4 at n = 2 has 1,792 basis elements: a bound of 1,792 admits
    its complex and 1,791 refuses it."""
    rs = prism(4)
    monkeypatch.setattr(homology, "MAX_BASIS", 1792)
    assert sum(build_vertex_complex(rs, 2).dims.values()) == 1792
    monkeypatch.setattr(homology, "MAX_BASIS", 1791)
    with pytest.raises(StateSpaceError) as info:
        build_vertex_complex(rs, 2)
    assert str(info.value) == "the complex needs 1792 basis elements, more than 1791"


@pytest.mark.parametrize("name", sorted(name for name, rs in SMALL.items() if rs.vertex_count <= 8))
def test_homology_invariant_under_relabeling(name):
    """Relabeling renumbers tokens, circles and edges, so each hypercube
    edge meets its band model under other numbers; the tables must not
    change."""
    rs = SMALL[name]
    rng = random.Random(f"{CORPUS_SEED}-{name}")
    others = [relabel(rs, rng) for _ in range(2)]
    for n in (2, 3):
        want = bigraded_homology(build_vertex_complex(rs, n)).ranks
        for other in others:
            assert other != rs
            assert bigraded_homology(build_vertex_complex(other, n)).ranks == want


def test_built_complexes_leave_no_graph_alive():
    """The state-histogram cache that sizes every complex keys on vertex
    tuples, so a dropped graph takes its ribbon, traces and band models
    with it: 30 relabeled prism5 copies, each built at n = 2 and dropped."""
    import gc
    import weakref

    rng = random.Random(f"{CORPUS_SEED}-alive")
    refs = []
    for _ in range(30):
        rs = relabel(prism(5), rng)
        build_vertex_complex(rs, 2)
        refs.append(weakref.ref(rs))
        del rs
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
