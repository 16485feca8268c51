"""The graded algebra V_t = k[x]/(x^n - t) and its structure maps
m / Delta / eta with tilde and hat variants.

Conventions: exponents live in 0..n-1; m = n/2 for even n and (n-1)/2 for odd
n; qdeg(x^k) = m - k.  Tilde maps carry the degree-n part (they raise qdeg by
n relative to the plain maps); hat maps are plain + tilde, i.e. the structure
maps of k[x]/(x^n - 1).  m and Delta send a monomial to a sum of monomials
with coefficient 1, eta to one monomial with coefficient sqrt n; the vertex
complex takes that root out by a change of basis (:mod:`vhx.homology`), so
the step tables list output monomials alone.
"""

from __future__ import annotations


def half_m(n: int) -> int:
    """The integer m of the grading: n/2 (even) or (n-1)/2 (odd)."""
    return n // 2


# ---------------------------------------------------------------------------
# elementary maps
#
# Variants: "plain" = t=0 part, "tilde" = degree-n part, "hat" = both summed.


def _check(n: int, *ks: int) -> None:
    for k in ks:
        if not 0 <= k < n:
            raise ValueError(f"exponent {k} out of range for n={n}")


def structure_terms(n: int, variant: str, kind: str, x: tuple[int, ...]) -> list:
    """m ("merge"), Delta ("split") or eta ("same-circle") of the monomial
    with exponents ``x``, as its output exponent tuples: each term's
    coefficient is 1, or sqrt n for eta.  The plain part comes first, then
    the tilde part."""
    _check(n, *x)
    m, k = half_m(n), sum(x)
    shifts = [s for s, v in ((0, "plain"), (n, "tilde")) if variant in (v, "hat")]
    if kind == "merge":
        return [(k - s,) for s in shifts if 0 <= k - s < n]
    if kind == "split":
        targets = [k + 2 * m - s for s in shifts]
        return [(i, t - i) for t in targets for i in range(n) if 0 <= t - i < n]
    return [(k + m - s,) for s in shifts if 0 <= k + m - s < n]
