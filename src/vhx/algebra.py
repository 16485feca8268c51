"""The coefficient field Q(sqrt n), the graded algebra V_t = k[x]/(x^n - t),
and its structure maps m / Delta / eta with tilde and hat variants.

Conventions: exponents live in 0..n-1; m = n/2 for even n and (n-1)/2 for odd
n; qdeg(x^k) = m - k.  Tilde maps carry the degree-n part (they raise qdeg by
n relative to the plain maps); hat maps are plain + tilde, i.e. the structure
maps of k[x]/(x^n - 1).
"""

from __future__ import annotations

import math

from .vpd import Frozen


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


class QuadScalar(Frozen):
    """Exact element a + b*sqrt(radicand) of Q(sqrt(radicand)).

    When the radicand is a perfect square the root is folded into the
    rational part, however the scalar is built, so ``b`` is always 0 then.
    ``fractions`` is imported where a scalar is made or folded, so the
    state sums and homology, which compute on integers, never load it.
    """

    _fields = ("a", "b", "radicand")

    def __init__(self, a: Fraction, b: Fraction, radicand: int):
        r = _isqrt_exact(radicand) if b else None
        if r is not None:
            from fractions import Fraction

            a, b = a + b * r, Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "radicand", radicand)

    @staticmethod
    def make(a, b, radicand: int) -> "QuadScalar":
        from fractions import Fraction

        return QuadScalar(Fraction(a), Fraction(b), radicand)

    @staticmethod
    def of_int(c, radicand: int) -> "QuadScalar":
        return QuadScalar.make(c, 0, radicand)

    @staticmethod
    def root(radicand: int) -> "QuadScalar":
        return QuadScalar.make(0, 1, radicand)

    def __add__(self, o: "QuadScalar") -> "QuadScalar":
        return QuadScalar(self.a + o.a, self.b + o.b, self.radicand)

    def __sub__(self, o: "QuadScalar") -> "QuadScalar":
        return QuadScalar(self.a - o.a, self.b - o.b, self.radicand)

    def __neg__(self) -> "QuadScalar":
        return QuadScalar(-self.a, -self.b, self.radicand)

    def __mul__(self, o: "QuadScalar") -> "QuadScalar":
        n = self.radicand
        return QuadScalar(
            self.a * o.a + n * self.b * o.b, self.a * o.b + self.b * o.a, n
        )

    def __truediv__(self, o: "QuadScalar") -> "QuadScalar":
        n = self.radicand
        den = o.a * o.a - n * o.b * o.b
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt n)")
        inv = QuadScalar(o.a / den, -o.b / den, n)
        return self * inv

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.radicand)

    def __repr__(self) -> str:
        if not self.b:
            return str(self.a)
        return f"({self.a} + {self.b}*sqrt({self.radicand}))"


def half_m(n: int) -> int:
    """The integer m of the grading: n/2 (even) or (n-1)/2 (odd)."""
    return n // 2


def qdeg(n: int, k: int) -> int:
    """Quantum degree of the basis element x^k."""
    _check(n, k)
    return half_m(n) - k


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


def _scalars(n: int, terms: list) -> list[tuple[tuple[int, ...], QuadScalar]]:
    return [(out, QuadScalar.make(a, b, n)) for out, (a, b) in terms]


def map_m(n: int, variant: str, i: int, j: int) -> list[tuple[tuple[int, ...], QuadScalar]]:
    """Multiplication V (x) V -> V."""
    return _scalars(n, structure_terms(n, variant, "merge", (i, j)))


def map_delta(n: int, variant: str, k: int) -> list[tuple[tuple[int, ...], QuadScalar]]:
    """Comultiplication V -> V (x) V."""
    return _scalars(n, structure_terms(n, variant, "split", (k,)))


def map_eta(n: int, variant: str, k: int) -> list[tuple[tuple[int, ...], QuadScalar]]:
    """Same-circle map V -> V, with coefficient sqrt(n)."""
    return _scalars(n, structure_terms(n, variant, "same-circle", (k,)))
