"""Gate tests for the fraction-free integer rank.

``matrix_rank`` must equal the ``Fraction`` elimination over Q(sqrt n) kept
in ``reference_homology.py``: per block, between the integer complex and
the reference assembly, whose entries carry sqrt n; and on random integer
blocks with planted dependencies, which the reference gets through a
change of basis by powers of sqrt n and rational row scalings, at
perfect-square n too.  Where sympy is installed it cross-checks small
blocks as well.  Blocks the tests write over Q(sqrt n) become integer
ones the way the complex does (:func:`_integers`).
"""

import math
from fractions import Fraction

import pytest
import reference_homology as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_algebra import QuadScalar, root_power
from test_ribbon import SMALL

from vhx.homology import ChainComplex, build_vertex_complex, chain_condition_holds, matrix_rank

from conftest import SMALL_FIXTURES


def _integers(block: dict, n: int, phi: dict | None = None) -> dict:
    """A block over Q(sqrt n) after the complex's change of basis: entry
    (r, c) times sqrt n^(phi[c] - phi[r]), ``phi`` naming the rows and
    columns scaled by sqrt n, must be rational, and the block is scaled by
    the lcm of the denominators."""
    phi = phi or {}
    vals = {
        (r, c): v * root_power(n, phi.get(("col", c), 0) - phi.get(("row", r), 0))
        for (r, c), v in block.items()
    }
    assert all(v.b == 0 for v in vals.values())
    den = math.lcm(*(v.a.denominator for v in vals.values()))
    return {key: int(v.a * den) for key, v in vals.items()}


GATED = sorted(name for name, rs in SMALL.items() if rs.vertex_count <= 8)
COMPLEXES = (
    [(name, n) for name in SMALL_FIXTURES for n in (2, 3, 4)]
    + [("k4", 5)]
    + [(name, n) for name in GATED for n in (2, 3)]
)


@pytest.mark.parametrize("name,n", sorted(set(COMPLEXES)))
def test_rank_matches_reference_on_every_block(name, n):
    """The integer complex's blocks have the ranks of the reference
    assembly's blocks over Q(sqrt n), the same elements in the same order
    (``test_local_maps.assert_same``)."""
    cx = build_vertex_complex(SMALL[name], n)
    (want,) = ref.vertex_pieces(SMALL[name], n, tilde_counts=(0,))
    assert cx.diff.keys() == want.diff.keys()
    for (i, j), block in want.diff.items():
        nrows, ncols = len(want.bases[(i + 1, j)]), len(want.bases[(i, j)])
        assert matrix_rank(cx.diff[(i, j)]) == ref.matrix_rank(block, nrows, ncols)


@st.composite
def planted_blocks(draw, max_rows=8, max_cols=7):
    """(block, scaled, nrows, ncols, rank, n): an integer block of ``rank``
    rows in echelon form with nonzero pivots and rational combinations of
    them cleared of denominators, with rows and columns shuffled; and the
    same block over Q(sqrt n) with each row divided by a positive integer
    and rows r and columns c scaled by sqrt n^phi(r) and sqrt n^phi(c)."""
    n = draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    ints = st.integers(-6, 6)
    ncols = draw(st.integers(1, max_cols))
    rank = draw(st.integers(0, min(ncols, max_rows)))
    leads = sorted(draw(st.lists(st.integers(0, ncols - 1), min_size=rank, max_size=rank, unique=True)))
    base = []
    for p in leads:
        row = [0] * ncols
        row[p] = draw(ints.filter(bool))
        for c in range(p + 1, ncols):
            row[c] = draw(ints)
        base.append(row)
    coefs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    rows = list(base)
    for _ in range(draw(st.integers(0, max_rows - rank))):
        row = [Fraction(0)] * ncols
        for b in base:
            k = draw(coefs)
            row = [x + k * y for x, y in zip(row, b)]
        den = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * den) for x in row])
    rows = draw(st.permutations(rows))
    cols = draw(st.permutations(range(ncols)))
    block = {(r, cols[c]): v for r, row in enumerate(rows) for c, v in enumerate(row) if v}
    roots = st.sampled_from([QuadScalar.of_int(1, n), QuadScalar.root(n)])
    inverses = st.integers(1, 4).map(lambda d: QuadScalar.make(Fraction(1, d), 0, n))
    row_scale = [draw(roots) * draw(inverses) for _ in rows]
    col_scale = [draw(roots) for _ in range(ncols)]
    scaled = {
        (r, c): row_scale[r] * QuadScalar.of_int(v, n) * col_scale[c] for (r, c), v in block.items()
    }
    return block, scaled, len(rows), ncols, rank, n


@given(planted_blocks())
@settings(max_examples=300, deadline=None)
def test_rank_of_planted_blocks(case):
    block, scaled, nrows, ncols, rank, n = case
    assert matrix_rank(block) == rank == ref.matrix_rank(scaled, nrows, ncols)


@given(planted_blocks(max_rows=6, max_cols=6))
@settings(max_examples=100, deadline=None)
def test_rank_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    block, scaled, nrows, ncols, rank, n = case
    mat = sympy.zeros(nrows, ncols)
    for (r, c), v in scaled.items():
        mat[r, c] = sympy.Rational(v.a) + sympy.Rational(v.b) * sympy.sqrt(n)
    # rationalized and expanded, an element of Q(sqrt n) is a + b sqrt n
    exact_zero = lambda x: sympy.radsimp(x).expand() == 0  # noqa: E731
    assert matrix_rank(block) == mat.rank(iszerofunc=exact_zero)


@pytest.mark.parametrize("n", [4, 9])
def test_perfect_square_roots_are_folded(n):
    """Z[x]/(x^2 - n) has zero divisors when n is a perfect square, such as
    r - x with r^2 = n; ``QuadScalar.make`` folds x into r first, so the
    reference never sees one, and the integer blocks it gives have its
    ranks."""
    r = math.isqrt(n)
    assert QuadScalar.make(r, -1, n).b == 0 and not QuadScalar.make(r, -1, n)
    root, one = QuadScalar.root(n), QuadScalar.of_int(1, n)
    assert root.b == 0
    # [[sqrt n, r], [1, 1]] is singular, [[sqrt n, 1], [1, 1]] is not
    block = {(0, 0): root, (0, 1): QuadScalar.of_int(r, n), (1, 0): one, (1, 1): one}
    assert matrix_rank(_integers(block, n)) == ref.matrix_rank(block, 2, 2) == 1
    block[(0, 1)] = one
    assert matrix_rank(_integers(block, n)) == ref.matrix_rank(block, 2, 2) == 2
    # r - sqrt n folds to a stored 0, r + sqrt n to 2r
    block = {(0, 0): QuadScalar.make(r, -1, n), (1, 1): QuadScalar.make(r, 1, n)}
    assert _integers(block, n) == {(0, 0): 0, (1, 1): 2 * r}
    assert matrix_rank(_integers(block, n)) == ref.matrix_rank(block, 2, 2) == 1


@pytest.mark.parametrize("n", [4, 9])
def test_perfect_square_roots_are_folded_however_built(n):
    """The dataclass constructor folds the root as ``make`` does, so r - x
    built directly is zero, not a pivot of norm 0."""
    r = math.isqrt(n)
    zero = QuadScalar(r, -1, n)
    assert not zero and zero.b == 0
    assert zero == QuadScalar.make(r, -1, n) == QuadScalar(Fraction(r), Fraction(-1), n)
    block = {(0, 0): zero, (1, 0): QuadScalar.of_int(1, n)}
    assert matrix_rank(_integers(block, n)) == ref.matrix_rank(block, 2, 1) == 1


def test_integer_rank_of_folded_perfect_squares():
    """2 - sqrt 4 = 0, so the 1 x 1 block 2 - sqrt 4 has rank 0 at n = 4,
    stored as an integer 0; at n = 2 the block sqrt 2, which the change of
    basis makes 1 or 2, has rank 1."""
    block = {(0, 0): QuadScalar.make(2, -1, 4)}
    assert matrix_rank(_integers(block, 4)) == ref.matrix_rank(block, 1, 1) == 0
    block = {(0, 0): QuadScalar.root(2)}
    for phi in ({("col", 0): 1}, {("row", 0): 1}):
        assert matrix_rank(_integers(block, 2, phi)) == ref.matrix_rank(block, 1, 1) == 1
    assert matrix_rank({}) == 0


def test_chain_condition_with_non_integral_entries():
    """delta o delta is tested exactly on the integer blocks that the change
    of basis and clearing denominators make of blocks over Q(sqrt 3) whose
    entries have denominators and where a path carries sqrt n twice
    (clearing a block's denominators multiplies it by a positive integer,
    which keeps a zero square zero and a nonzero one nonzero)."""
    n, r = 3, QuadScalar.root(3)
    half, third = QuadScalar.make(Fraction(1, 2), 0, 3), QuadScalar.make(Fraction(1, 3), 0, 3)
    # [sqrt3/2, 1/3]^T then [sqrt3/3, -3/2] composes to 3/6 - 3/6 = 0; the
    # middle element on the sqrt 3 path is scaled by sqrt 3
    dims = {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    first = _integers({(0, 0): r * half, (1, 0): third}, n, {("row", 0): 1})
    second = _integers({(0, 0): r * third, (0, 1): -(half + half + half)}, n, {("col", 0): 1})
    assert first == {(0, 0): 3, (1, 0): 2} and second == {(0, 0): 2, (0, 1): -3}
    cx = ChainComplex(3, dims, {(0, 0): first, (1, 0): second})
    assert chain_condition_holds(cx)
    cx.diff[(1, 0)] = _integers({(0, 0): r * third, (0, 1): half + half + half}, n, {("col", 0): 1})
    assert not chain_condition_holds(cx)


def test_chain_condition_folds_perfect_squares():
    """At n = 4, (1 + sqrt 4) o (2 - sqrt 4) = 0: the reference folds the
    roots, and the integer blocks 3 and a stored 0 compose to 0, while
    (1 + sqrt 4) o (2 + sqrt 4) does not."""
    dims = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    first = _integers({(0, 0): QuadScalar.make(2, -1, 4)}, 4)
    second = _integers({(0, 0): QuadScalar.make(1, 1, 4)}, 4)
    assert (first, second) == ({(0, 0): 0}, {(0, 0): 3})
    cx = ChainComplex(4, dims, {(0, 0): first, (1, 0): second})
    assert chain_condition_holds(cx)
    cx.diff[(0, 0)] = _integers({(0, 0): QuadScalar.make(2, 1, 4)}, 4)
    assert not chain_condition_holds(cx)
