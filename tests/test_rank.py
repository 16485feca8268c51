"""Gate tests for the fraction-free rank over Z[sqrt n].

``matrix_rank`` must equal the ``Fraction`` elimination kept in
``reference_homology.py`` on every differential block of the complexes the
other tests build, and a known rank on random blocks with planted
dependencies, non-integral entries and perfect-square n.  Where sympy is
installed it cross-checks small blocks as well.  ``matrix_rank`` and
``chain_condition_holds`` take integer pairs (a, b) meaning a + b sqrt n;
:func:`_pairs` turns the ``QuadScalar`` blocks built here into those.
"""

import math
from fractions import Fraction

import pytest
import reference_homology as ref
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_algebra import QuadScalar
from test_ribbon import SMALL

from vhx.homology import ChainComplex, build_vertex_complex, chain_condition_holds, matrix_rank

from conftest import SMALL_FIXTURES

def _pairs(entries: dict) -> dict:
    """Values a + b sqrt n as integer pairs (a, b), scaled by the lcm of all denominators."""
    den = math.lcm(*(x.denominator for v in entries.values() for x in (v.a, v.b)))
    return {
        k: (v.a.numerator * (den // v.a.denominator), v.b.numerator * (den // v.b.denominator))
        for k, v in entries.items()
    }


GATED = sorted(name for name, rs in SMALL.items() if rs.vertex_count <= 8)
COMPLEXES = (
    [(name, n) for name in SMALL_FIXTURES for n in (2, 3, 4)]
    + [("k4", 5)]
    + [(name, n) for name in GATED for n in (2, 3)]
)


@pytest.mark.parametrize("name,n", sorted(set(COMPLEXES)))
def test_rank_matches_reference_on_every_block(name, n):
    cx = build_vertex_complex(SMALL[name], n)
    for (i, j), block in cx.diff.items():
        nrows, ncols = cx.dim(i + 1, j), cx.dim(i, j)
        scalars = {k: QuadScalar.make(a, b, n) for k, (a, b) in block.items()}
        assert matrix_rank(block, nrows, ncols, n) == ref.matrix_rank(scalars, nrows, ncols)


def _scalars(n):
    ints = st.integers(-6, 6)
    dens = st.integers(1, 4)
    return st.builds(
        lambda a, b, c, d: QuadScalar.make(Fraction(a, c), Fraction(b, d), n), ints, ints, dens, dens
    )


@st.composite
def planted_blocks(draw, max_rows=8, max_cols=7):
    """(block, nrows, ncols, rank, n): ``rank`` rows in echelon form with
    nonzero pivots, the rest integer, sqrt n and general Q(sqrt n)
    combinations of them, with rows and columns shuffled."""
    n = draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    scalars = _scalars(n)
    ncols = draw(st.integers(1, max_cols))
    rank = draw(st.integers(0, min(ncols, max_rows)))
    leads = sorted(draw(st.lists(st.integers(0, ncols - 1), min_size=rank, max_size=rank, unique=True)))
    base = []
    for p in leads:
        lead = draw(scalars)
        assume(lead)
        row = [QuadScalar.of_int(0, n)] * ncols
        row[p] = lead
        for c in range(p + 1, ncols):
            row[c] = draw(scalars)
        base.append(row)
    coefs = st.one_of(
        st.integers(-3, 3).map(lambda k: QuadScalar.of_int(k, n)),
        st.integers(-3, 3).map(lambda k: QuadScalar.make(0, k, n)),
        scalars,
    )
    rows = list(base)
    for _ in range(draw(st.integers(0, max_rows - rank))):
        row = [QuadScalar.of_int(0, n)] * ncols
        for b in base:
            k = draw(coefs)
            row = [x + k * y for x, y in zip(row, b)]
        rows.append(row)
    rows = draw(st.permutations(rows))
    cols = draw(st.permutations(range(ncols)))
    block = {(r, cols[c]): v for r, row in enumerate(rows) for c, v in enumerate(row) if v}
    return block, len(rows), ncols, rank, n


@given(planted_blocks())
@settings(max_examples=300, deadline=None)
def test_rank_of_planted_blocks(case):
    block, nrows, ncols, rank, n = case
    assert matrix_rank(_pairs(block), nrows, ncols, n) == rank == ref.matrix_rank(block, nrows, ncols)


@given(planted_blocks(max_rows=6, max_cols=6))
@settings(max_examples=100, deadline=None)
def test_rank_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    block, nrows, ncols, rank, n = case
    mat = sympy.zeros(nrows, ncols)
    for (r, c), v in block.items():
        mat[r, c] = sympy.Rational(v.a) + sympy.Rational(v.b) * sympy.sqrt(n)
    # rationalized and expanded, an element of Q(sqrt n) is a + b sqrt n
    exact_zero = lambda x: sympy.radsimp(x).expand() == 0  # noqa: E731
    assert matrix_rank(_pairs(block), nrows, ncols, n) == mat.rank(iszerofunc=exact_zero)


@pytest.mark.parametrize("n", [4, 9])
def test_perfect_square_roots_are_folded(n):
    """Z[x]/(x^2 - n) has zero divisors when n is a perfect square, such as
    r - x with r^2 = n; ``QuadScalar.make`` folds x into r first, and so
    does the rank with the pairs it is given, so it never sees one."""
    r = math.isqrt(n)
    assert QuadScalar.make(r, -1, n).b == 0 and not QuadScalar.make(r, -1, n)
    root, one = QuadScalar.root(n), QuadScalar.of_int(1, n)
    assert root.b == 0
    # [[sqrt n, r], [1, 1]] is singular, [[sqrt n, 1], [1, 1]] is not
    block = {(0, 0): root, (0, 1): QuadScalar.of_int(r, n), (1, 0): one, (1, 1): one}
    assert matrix_rank(_pairs(block), 2, 2, n) == ref.matrix_rank(block, 2, 2) == 1
    block[(0, 1)] = one
    assert matrix_rank(_pairs(block), 2, 2, n) == ref.matrix_rank(block, 2, 2) == 2
    # the rank folds unfolded pairs itself: r - sqrt n is 0, r + sqrt n is 2r
    assert matrix_rank({(0, 0): (0, 1), (0, 1): (r, 0), (1, 0): (1, 0), (1, 1): (1, 0)}, 2, 2, n) == 1
    assert matrix_rank({(0, 0): (r, -1), (1, 1): (r, 1)}, 2, 2, n) == 1


@pytest.mark.parametrize("n", [4, 9])
def test_perfect_square_roots_are_folded_however_built(n):
    """The dataclass constructor folds the root as ``make`` does, so r - x
    built directly is zero, not a pivot of norm 0."""
    r = math.isqrt(n)
    zero = QuadScalar(r, -1, n)
    assert not zero and zero.b == 0
    assert zero == QuadScalar.make(r, -1, n) == QuadScalar(Fraction(r), Fraction(-1), n)
    assert matrix_rank(_pairs({(0, 0): zero, (1, 0): QuadScalar.of_int(1, n)}), 2, 1, n) == 1


def test_integer_pair_rank_folds_perfect_squares():
    """2 - sqrt 4 = 0, so the 1 x 1 block (2, -1) has rank 0 at n = 4, and
    rank 1 at n = 2, where 2 - sqrt 2 is a unit's multiple."""
    assert matrix_rank({(0, 0): (2, -1)}, 1, 1, 4) == 0
    assert matrix_rank({(0, 0): (2, -1)}, 1, 1, 2) == 1
    assert matrix_rank({}, 3, 2, 4) == 0


def test_chain_condition_with_non_integral_entries():
    """delta o delta is tested exactly when entries have denominators and a
    path carries sqrt n twice (each block is cleared of its denominators by
    a positive integer, which keeps a zero square zero and a nonzero one
    nonzero)."""
    r = QuadScalar.root(3)
    half, third = QuadScalar.make(Fraction(1, 2), 0, 3), QuadScalar.make(Fraction(1, 3), 0, 3)
    # [sqrt3/2, 1/3]^T then [sqrt3/3, -3/2] composes to 3/6 - 3/6 = 0
    dims = {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    first = _pairs({(0, 0): r * half, (1, 0): third})
    second = _pairs({(0, 0): r * third, (0, 1): -(half + half + half)})
    cx = ChainComplex(3, dims, {(0, 0): first, (1, 0): second})
    assert chain_condition_holds(cx)
    cx.diff[(1, 0)] = _pairs({(0, 0): r * third, (0, 1): half + half + half})
    assert not chain_condition_holds(cx)


def test_chain_condition_folds_perfect_squares():
    """At n = 4, (1, 1) o (2, -1) is (2 - sqrt 4)(1 + sqrt 4) = 0, though
    the product's pairs read (-2, 1) before the root is folded."""
    dims = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    cx = ChainComplex(4, dims, {(0, 0): {(0, 0): (2, -1)}, (1, 0): {(0, 0): (1, 1)}})
    assert chain_condition_holds(cx)
    cx.diff[(0, 0)] = {(0, 0): (2, 1)}
    assert not chain_condition_holds(cx)
