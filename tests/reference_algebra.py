"""Reference oracle: the scalar field Q(sqrt n) with ``Fraction``
coefficients, and the structure maps m / Delta / eta as lists of
(output exponents, :class:`QuadScalar`) terms.

The maps are derived here from their definition on k[x]/(x^n - t), eta
with coefficient sqrt n, and share no code with :mod:`vhx.algebra`, whose
step tables list output monomials alone: the vertex complex takes eta's
root out by a change of basis.  So the reference assembly, the Fraction
rank and the color-basis oracle compute over Q(sqrt n) itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

from vhx.vpd import Frozen

# the powers of t that each variant keeps: plain is the t = 0 part, tilde
# the degree-n part, hat both (the maps of k[x]/(x^n - 1))
T_POWERS = {"plain": (0,), "tilde": (1,), "hat": (0, 1)}


class QuadScalar(Frozen):
    """Exact element a + b*sqrt(radicand) of Q(sqrt(radicand)).

    When the radicand is a perfect square the root is folded into the
    rational part, however the scalar is built, so ``b`` is always 0 then.
    """

    _fields = ("a", "b", "radicand")

    def __init__(self, a: Fraction, b: Fraction, radicand: int):
        r = math.isqrt(radicand)
        if b and r * r == radicand:
            a, b = a + b * r, Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "radicand", radicand)

    @staticmethod
    def make(a, b, radicand: int) -> "QuadScalar":
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


def root_power(n: int, e: int) -> QuadScalar:
    """sqrt(n)^e for any integer e."""
    whole = Fraction(n) ** (e // 2)
    return QuadScalar(Fraction(0), whole, n) if e & 1 else QuadScalar(whole, Fraction(0), n)


def half_m(n: int) -> int:
    """The integer m of the grading: n/2 (even) or (n-1)/2 (odd)."""
    return n // 2


def _check(n: int, *ks: int) -> None:
    for k in ks:
        if not 0 <= k < n:
            raise ValueError(f"exponent {k} out of range for n={n}")


def qdeg(n: int, k: int) -> int:
    """Quantum degree of the basis element x^k."""
    _check(n, k)
    return half_m(n) - k


def _reduce(n: int, variant: str, p: int, coeff: QuadScalar) -> list:
    """x^p = t^w x^(p - w n) in k[x]/(x^n - t), kept if the variant keeps t^w."""
    w, r = divmod(p, n)
    return [((r,), coeff)] if w in T_POWERS[variant] else []


def map_m(n: int, variant: str, i: int, j: int) -> list[tuple[tuple[int, ...], QuadScalar]]:
    """Multiplication V (x) V -> V: x^i x^j."""
    _check(n, i, j)
    return _reduce(n, variant, i + j, QuadScalar.of_int(1, n))


def map_delta(n: int, variant: str, k: int) -> list[tuple[tuple[int, ...], QuadScalar]]:
    """Comultiplication V -> V (x) V: the sum of x^a (x) x^b over the
    exponent pairs with x^a x^b t^w = x^(k + 2m), w a power of t the
    variant keeps."""
    _check(n, k)
    one, top = QuadScalar.of_int(1, n), k + 2 * half_m(n)
    return [
        ((a, b), one)
        for w in T_POWERS[variant]
        for a in range(n)
        for b in range(n)
        if a + b + w * n == top
    ]


def map_eta(n: int, variant: str, k: int) -> list[tuple[tuple[int, ...], QuadScalar]]:
    """Same-circle map V -> V: sqrt(n) x^(k + m)."""
    _check(n, k)
    return _reduce(n, variant, k + half_m(n), QuadScalar.root(n))
