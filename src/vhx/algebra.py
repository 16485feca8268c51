"""The graded algebra V_t = k[x]/(x^n - t) over Q(sqrt n), and its structure
maps m / Delta / eta with tilde and hat variants.

Conventions: exponents live in 0..n-1; m = n/2 for even n and (n-1)/2 for odd
n; qdeg(x^k) = m - k.  Tilde maps carry the degree-n part (they raise qdeg by
n relative to the plain maps); hat maps are plain + tilde, i.e. the structure
maps of k[x]/(x^n - 1).  Coefficients are integer pairs (a, b) meaning
a + b sqrt n, a perfect square's root folded into a; vhx has no other scalar.
"""

from __future__ import annotations

import math


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


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
    with exponents ``x``, as (output exponents, (a, b)) terms: the
    coefficient a + b sqrt n in integers, a perfect square's root folded
    into a.  The plain part comes first, then the tilde part."""
    _check(n, *x)
    m, k = half_m(n), sum(x)
    shifts = [s for s, v in ((0, "plain"), (n, "tilde")) if variant in (v, "hat")]
    if kind == "merge":
        return [((k - s,), (1, 0)) for s in shifts if 0 <= k - s < n]
    if kind == "split":
        targets = [k + 2 * m - s for s in shifts]
        return [((i, t - i), (1, 0)) for t in targets for i in range(n) if 0 <= t - i < n]
    r = _isqrt_exact(n)
    return [((k + m - s,), (0, 1) if r is None else (r, 0)) for s in shifts if 0 <= k + m - s < n]
