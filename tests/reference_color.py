"""Reference oracle: the harmonic kernel in the color basis, by SVD.

This is the paper's own definition.  The color vectors
c_i = (1/n) sum_j lambda^(i j) x^j (lambda = exp(2 pi i / n)) are
orthonormal for the Hermitian metric, so there a map's adjoint is its
conjugate transpose.  A state's harmonic kernel is the common kernel of its
outgoing hat maps and of the adjoints of its incoming ones, counted here as
the singular values of the stacked color-basis blocks at or below a
threshold.  Hat maps come from the dict-of-monomials assembly of
``reference_homology.py`` on the reference tracer, with the structure
maps of ``reference_algebra.py``, so this shares no code with
:func:`vhx.colorings.harmonic_kernel_check`.  Needs numpy, which only the
tests install.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from reference_algebra import map_delta, map_eta, map_m
from reference_homology import monomials, site_path, vertex_edge_map


def color_change_matrix(n: int):
    """Columns are the color vectors c_i = (1/n) sum_j lambda^(i j) x^j."""
    lam = np.exp(2j * math.pi / n)
    return np.array(
        [[lam ** (i * j) / n for i in range(n)] for j in range(n)],
        dtype=complex,
    )


def _mono_matrix(n: int, fn, arity_in: int, arity_out: int):
    M = np.zeros((n**arity_out, n**arity_in), dtype=complex)
    for col, exps in enumerate(itertools.product(range(n), repeat=arity_in)):
        for out_exps, coeff in fn(*exps):
            row = 0
            for e in out_exps:
                row = row * n + e
            M[row, col] += float(coeff)
    return M


def color_maps(n: int):
    """Hat maps and their adjoints as matrices in the color basis.

    Returns a dict with keys ``m``, ``delta``, ``eta`` and ``m*``,
    ``delta*``, ``eta*``.  Adjoints are conjugate transposes in the color
    basis, where the Hermitian metric is orthonormal.
    """
    C = color_change_matrix(n)
    Cinv = np.linalg.inv(C)
    C2 = np.kron(C, C)
    C2inv = np.linalg.inv(C2)

    m_hat = _mono_matrix(n, lambda i, j: map_m(n, "hat", i, j), 2, 1)
    d_hat = _mono_matrix(n, lambda k: map_delta(n, "hat", k), 1, 2)
    e_hat = _mono_matrix(n, lambda k: map_eta(n, "hat", k), 1, 1)

    m_c = Cinv @ m_hat @ C2
    d_c = C2inv @ d_hat @ C
    e_c = Cinv @ e_hat @ C
    return {
        "m": m_c,
        "delta": d_c,
        "eta": e_c,
        "m*": m_c.conj().T,
        "delta*": d_c.conj().T,
        "eta*": e_c.conj().T,
    }


def hat_matrix(rs, n, bits, vertex):
    """Circle counts at both ends and the dense monomial-basis matrix of the
    hat map for one vertex flip."""
    decs, _ = site_path(rs, bits, vertex)
    kb, ka = decs[0].circle_count, decs[3].circle_count
    col_of = {e: i for i, e in enumerate(monomials(n, kb))}
    row_of = {e: i for i, e in enumerate(monomials(n, ka))}
    mat = np.zeros((n**ka, n**kb))
    for a, lst in vertex_edge_map(rs, n, bits, vertex, ("hat",) * 3).items():
        for b, c in lst:
            mat[row_of[b], col_of[a]] += float(c)
    return kb, ka, mat


def kernel_dims(rs, n: int, threshold: float = 1e-7) -> dict[tuple[int, ...], int]:
    """Harmonic kernel dimension per vertex state, by SVD in the color basis.

    A singular value within a factor 10 of ``threshold`` fails an assertion:
    the oracle does not guess on a blurred spectral gap."""

    @lru_cache(maxsize=None)
    def cob(k):  # the color-change matrix on k circles and its inverse
        C = np.eye(1, dtype=complex)
        for _ in range(k):
            C = np.kron(C, color_change_matrix(n))
        return C, np.linalg.inv(C)

    @lru_cache(maxsize=None)
    def color_hat(bits, v):  # the hat map flipping v from bits, in colors
        kb, ka, mat = hat_matrix(rs, n, bits, v)
        return cob(ka)[1] @ mat @ cob(kb)[0]

    out = {}
    for bits in itertools.product([0, 1], repeat=rs.vertex_count):
        blocks = []
        for v in range(rs.vertex_count):
            if bits[v]:
                blocks.append(color_hat(bits[:v] + (0,) + bits[v + 1 :], v).conj().T)
            else:
                blocks.append(color_hat(bits, v))
        dim = blocks[0].shape[1]
        sv = np.linalg.svd(np.vstack(blocks), compute_uv=False)
        assert not any(threshold / 10 < s < 10 * threshold for s in sv), (bits, sv)
        out[bits] = dim - int((sv > threshold).sum())
    return out
