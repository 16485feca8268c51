"""Acceptance criteria, one test per criterion.

Each test name carries the criterion number; `pytest -v` emits one
PASSED/FAILED line per criterion.
"""

import time

from reference_algebra import QuadScalar
from test_homology import vertex_edge_map_graded

from vhx.colorings import filtered_ranks, harmonic_kernel_check
from vhx.homology import (
    bigraded_homology,
    build_vertex_complex,
    chain_condition_holds,
    delta_graded_pieces,
    graded_euler,
)
from vhx.oracles import (
    AbstractGraph,
    bridges,
    count_tait_colorings,
    perfect_matchings,
)
from vhx.poly import LaurentPoly, ncolor_vertex_polynomial, vertex_polynomial


def timed(limit):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                assert time.perf_counter() - self.t0 < limit, (
                    f"exceeded {limit}s budget"
                )

    return _Timer()


def test_criterion_1_theta_bracket_n2(graphs):
    expected = LaurentPoly(
        {0: 1, 1: 3, 2: 3, 3: -1, 4: -2, 6: 1, 7: 3, 8: 3, 9: 1}
    )
    with timed(1.0):
        assert ncolor_vertex_polynomial(graphs["theta"], 2) == expected


def test_criterion_2_p3_bracket_n2(graphs):
    expected = LaurentPoly(
        {
            0: 1, 1: 5, 2: 10, 3: 4, 4: -13, 5: -17, 6: 9, 7: 33,
            8: 27, 9: -11, 10: -36, 11: -24, 12: 7, 13: 33, 14: 27,
            15: 3, 16: -18, 17: -18, 18: -5, 19: 5, 20: 10, 21: 10,
            22: 5, 23: 1,
        }
    )
    with timed(1.0):
        assert ncolor_vertex_polynomial(graphs["p3"], 2) == expected


def test_criterion_3_vertex_polynomials(graphs):
    closed = {
        "theta": lambda n: 2 * n * (n**2 - 1),
        "thetaneg": lambda n: 2 * n * (n - 1),
        "k4": lambda n: 2 * n**2 * (n**2 - 1),
        "p3": lambda n: 2 * n**3 * (n**2 - 1),
        "k33": lambda n: 0,
        "dodec": lambda n: 2
        * (n + 1)
        * n**2
        * (n - 1)
        * (240 - 116 * n**2 + 114 * n**4 + 11 * n**6 + n**8),
    }
    with timed(600.0):
        for name, f in closed.items():
            poly = vertex_polynomial(graphs[name])
            assert all(poly(n) == f(n) for n in range(-6, 9)), name


def test_criterion_4_homology_tables(graphs):
    with timed(30.0):
        theta = bigraded_homology(build_vertex_complex(graphs["theta"], 2))
        assert theta.ranks == {
            (0, 0): 1, (0, 1): 3, (0, 2): 3,
            (1, 3): 1, (1, 4): 2,
            (2, 6): 1, (2, 7): 3, (2, 8): 3, (2, 9): 1,
        }
        p3 = bigraded_homology(build_vertex_complex(graphs["p3"], 2))
        assert p3.rank(1, 6) == 1
        assert p3.rank(2, 6) == 10


def test_criterion_5_filtered_ranks(graphs):
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

    with timed(30.0):
        assert filtered_ranks(graphs["theta"], 2).ranks == [6, 0, 6]
        assert filtered_ranks(graphs["k33"], 2).ranks == [2, 8, 22, 32, 22, 8, 2]
        for n in (2, 3, 4, 5):
            assert filtered_ranks(graphs["k33"], n).ranks == k33_formulas(n)


def test_criterion_6_plane_theorem_identities(graphs):
    for name in ("theta", "k4", "p3"):
        rs = graphs[name]
        g = AbstractGraph.from_rotation_system(rs)
        fr = filtered_ranks(rs, 2)
        pms = perfect_matchings(g)
        assert fr.ranks[0] == 2 * len(pms), name
        assert fr.euler == 2 ** (rs.vertex_count // 2) * count_tait_colorings(g), name
        assert fr.ranks[1] == 4 * len(pms) * len(bridges(g)), name
    # Dodec: the Euler characteristic equals V(Dodec, 2) by the filtered
    # theorem, so the Tait identity is checked through the polynomial
    dodec = graphs["dodec"]
    g = AbstractGraph.from_rotation_system(dodec)
    assert vertex_polynomial(dodec)(2) == 2**10 * count_tait_colorings(g) == 61440


def test_criterion_7_property_suites(graphs):
    # delta o delta = 0 on every built complex
    for name in ("theta", "thetaneg", "k4", "thetab", "p3", "k33"):
        for n in (2, 3):
            assert chain_condition_holds(build_vertex_complex(graphs[name], n))
    # six-path independence on every hypercube edge of theta and K4
    for name in ("theta", "k4"):
        for n in (2, 3):
            build_vertex_complex(graphs[name], n, verify_paths=True)
    # graded pieces anticommute on theta at n = 2 and match the published maps
    pieces = delta_graded_pieces(graphs["theta"], 2)
    for k in range(0, 13, 2):
        total: dict = {}
        for p, A in pieces.items():
            q = k - p
            if q not in pieces:
                continue
            B = pieces[q]
            for (i, j), blk in A.diff.items():
                nxt = B.diff.get((i + 1, j + p))
                if not nxt:
                    continue
                # entries are integer pairs (a, b) = a + b sqrt 2
                for (r1, c1), v1 in blk.items():
                    for (r2, c2), v2 in nxt.items():
                        if c2 == r1:
                            key = (i, j, r2, c1)
                            prod = QuadScalar.make(*v2, 2) * QuadScalar.make(*v1, 2)
                            total[key] = total.get(key, QuadScalar.of_int(0, 2)) + prod
        assert all(not v for v in total.values()), f"k={k}"
    r2 = (0, 1)  # sqrt 2 as an integer pair
    assert vertex_edge_map_graded(graphs["theta"], 2, (0, 0), 0, 0) == {
        (0, 0, 0): [((1,), r2)]
    }
    assert vertex_edge_map_graded(graphs["theta"], 2, (1, 0), 1, 3) == {
        (1,): [((0, 0, 0), r2)]
    }
    # graded Euler characteristic = n-color polynomial on all fixtures
    # (Dodec excluded: its chain complex is not constructible at 2^20 states)
    for name in ("theta", "thetaneg", "k4", "thetab", "p3", "k33"):
        for n in (2, 3):
            cx = build_vertex_complex(graphs[name], n)
            assert graded_euler(bigraded_homology(cx)) == ncolor_vertex_polynomial(
                graphs[name], n
            ), (name, n)
    # parity and blowup theorems along theta -> K4 -> P3
    from vhx.poly import IntPoly
    from vhx.vpd import blowup

    v_theta = vertex_polynomial(graphs["theta"])
    assert all(e % 2 == 1 for e in v_theta.coeffs)  # |V|/2 odd -> odd function
    v_k4 = vertex_polynomial(graphs["k4"])
    assert all(e % 2 == 0 for e in v_k4.coeffs)
    assert v_k4 == v_theta * IntPoly({1: 1})
    assert vertex_polynomial(blowup(graphs["theta"], at={0})) == v_k4
    v_p3 = vertex_polynomial(graphs["p3"])
    assert v_p3 == v_k4 * IntPoly({1: 1})
    assert vertex_polynomial(blowup(graphs["theta"])) == v_p3
    # harmonic kernel agreement on theta
    for n in (2, 3):
        assert harmonic_kernel_check(graphs["theta"], n).ok


def test_criterion_8_oracle_consistency(graphs):
    # TM(K33, 2) = 96 = 2^3 * 12 with the Tait oracle's 12
    k33 = AbstractGraph.from_rotation_system(graphs["k33"])
    tait = count_tait_colorings(k33)
    assert tait == 12
    fr = filtered_ranks(graphs["k33"], 2)
    assert fr.total == 96 == 2**3 * tait
    # TFAE on the 3-lollipop: no matching, TM = 0, all filtered ranks zero
    lolly = graphs["lollipop"]
    g = AbstractGraph.from_rotation_system(lolly)
    assert perfect_matchings(g) == []
    fr = filtered_ranks(lolly, 2)
    assert fr.total == 0
    assert all(r == 0 for r in fr.ranks)
    # and on theta all three are positive
    g = AbstractGraph.from_rotation_system(graphs["theta"])
    assert perfect_matchings(g) and filtered_ranks(graphs["theta"], 2).total > 0
