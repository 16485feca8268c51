from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_algebra import QuadScalar, map_delta, map_eta, map_m, qdeg
from reference_color import color_change_matrix, color_maps

from vhx.algebra import half_m, structure_terms


def test_quadscalar_arithmetic():
    r = QuadScalar.root(2)
    one = QuadScalar.of_int(1, 2)
    assert r * r == QuadScalar.of_int(2, 2)
    assert (one + r) * (one - r) == QuadScalar.of_int(-1, 2)
    assert (r / r) == one
    x = QuadScalar.make(Fraction(3), Fraction(-2), 2)
    assert x / x == one
    assert float(r) == pytest.approx(2**0.5)


def test_quadscalar_perfect_square_folds():
    r4 = QuadScalar.root(4)
    assert r4 == QuadScalar.of_int(2, 4)
    assert r4.b == 0


def test_quadscalar_zero_and_neg():
    z = QuadScalar.of_int(0, 3)
    assert not z
    r = QuadScalar.root(3)
    assert -(-r) == r
    assert r - r == z


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_quadscalar_division_inverts(a, b, c, d):
    x = QuadScalar.make(Fraction(a), Fraction(b), 3)
    y = QuadScalar.make(Fraction(c), Fraction(d), 3)
    if y:
        assert (x / y) * y == x


def test_m_and_qdeg():
    assert half_m(2) == 1
    assert half_m(3) == 1
    assert half_m(4) == 2
    assert half_m(5) == 2
    assert qdeg(2, 0) == 1 and qdeg(2, 1) == 0


def test_map_m_variants():
    # n=2: m(1 (x) 1) = 1, m(1 (x) x) = x, m(x (x) x) = 0 plain / 1 tilde
    assert map_m(2, "plain", 0, 0) == [((0,), QuadScalar.of_int(1, 2))]
    assert map_m(2, "plain", 0, 1) == [((1,), QuadScalar.of_int(1, 2))]
    assert map_m(2, "plain", 1, 1) == []
    assert map_m(2, "tilde", 1, 1) == [((0,), QuadScalar.of_int(1, 2))]
    assert map_m(2, "tilde", 0, 0) == []
    # hat = plain + tilde
    assert map_m(2, "hat", 1, 1) == [((0,), QuadScalar.of_int(1, 2))]


def test_map_delta_variants():
    # n=2, m=1: Delta(x^k) sums over i+j = k+2m (plain) or k+2m-n (tilde)
    assert dict(map_delta(2, "plain", 0)) == {(1, 1): QuadScalar.of_int(1, 2)}
    assert map_delta(2, "plain", 1) == []
    assert dict(map_delta(2, "tilde", 1)) == {
        (0, 1): QuadScalar.of_int(1, 2),
        (1, 0): QuadScalar.of_int(1, 2),
    }
    assert dict(map_delta(2, "tilde", 0)) == {(0, 0): QuadScalar.of_int(1, 2)}


def test_map_eta_variants():
    r2 = QuadScalar.root(2)
    assert map_eta(2, "plain", 0) == [((1,), r2)]
    assert map_eta(2, "plain", 1) == []
    assert map_eta(2, "tilde", 1) == [((0,), r2)]
    assert map_eta(2, "hat", 0) == [((1,), r2)]
    assert map_eta(2, "hat", 1) == [((0,), r2)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frobenius_identities(n):
    """Delta o m is a module map: Delta(m(a,b)) = (m (x) id)(a (x) Delta(b))."""
    zero = QuadScalar.of_int(0, n)
    for a in range(n):
        for b in range(n):
            lhs: dict[tuple, QuadScalar] = {}
            for (c,), s in map_m(n, "hat", a, b):
                for pair, s2 in map_delta(n, "hat", c):
                    lhs[pair] = lhs.get(pair, zero) + s * s2
            rhs: dict[tuple, QuadScalar] = {}
            for (i, j), s in map_delta(n, "hat", b):
                for (c,), s2 in map_m(n, "hat", a, i):
                    rhs[(c, j)] = rhs.get((c, j), zero) + s * s2
            assert {k: v for k, v in lhs.items() if v} == {
                k: v for k, v in rhs.items() if v
            }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eta_squared_shifts(n):
    """eta-hat o eta-hat = n * (multiplication by x^2m) on k[x]/(x^n - 1)."""
    m = half_m(n)
    zero = QuadScalar.of_int(0, n)
    for k in range(n):
        acc: dict[int, QuadScalar] = {}
        for (mid,), s in map_eta(n, "hat", k):
            for (out,), s2 in map_eta(n, "hat", mid):
                acc[out] = acc.get(out, zero) + s * s2
        assert acc == {(k + 2 * m) % n: QuadScalar.of_int(n, n)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_color_change_matrix_invertible(n):
    C = color_change_matrix(n)
    assert np.linalg.cond(C) < 1e6
    # columns are orthonormal up to the 1/n normalization choice
    G = C.conj().T @ C
    assert np.allclose(G, G[0, 0] * np.eye(n))
    # monomials are orthogonal of norm n in the metric that makes colors
    # orthonormal: the exact kernel check takes adjoints as scaled transposes
    Cinv = np.linalg.inv(C)
    assert np.allclose(Cinv.conj().T @ Cinv, n * np.eye(n))


@pytest.mark.parametrize("n", [2, 3])
def test_color_maps_diagonalize_eta(n):
    maps = color_maps(n)
    e = maps["eta"]
    assert np.allclose(e, np.diag(np.diag(e)))  # eta-hat is diagonal on colors
    assert np.allclose(maps["eta*"], e.conj().T)


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("variant", ["plain", "tilde", "hat"])
def test_delta_is_cocommutative(n, variant):
    """Delta's terms are unchanged, as a multiset, when each output pair is
    reversed, so an edge map cannot depend on which of a split's two new
    circles is listed first."""
    for k in range(n):
        terms = structure_terms(n, variant, "split", (k,))
        flipped = [(out[::-1], c) for out, c in terms]
        assert sorted(terms) == sorted(flipped)
