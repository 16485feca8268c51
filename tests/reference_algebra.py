"""Reference oracle: the scalar field Q(sqrt n) with ``Fraction``
coefficients, and the structure maps m / Delta / eta as lists of
(output exponents, :class:`QuadScalar`) terms.

:mod:`vhx.algebra` gives its coefficients as integer pairs (a, b) meaning
a + b sqrt n; this reads them as field elements, so the reference
assembly, the Fraction rank and the color-basis oracle compute over
Q(sqrt n) itself.  Its structure maps are the library's step tables,
:func:`vhx.algebra.structure_terms`, with each pair made a ``QuadScalar``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from vhx.algebra import _check, _isqrt_exact, half_m, structure_terms
from vhx.vpd import Frozen


class QuadScalar(Frozen):
    """Exact element a + b*sqrt(radicand) of Q(sqrt(radicand)).

    When the radicand is a perfect square the root is folded into the
    rational part, however the scalar is built, so ``b`` is always 0 then.
    """

    _fields = ("a", "b", "radicand")

    def __init__(self, a: Fraction, b: Fraction, radicand: int):
        r = _isqrt_exact(radicand) if b else None
        if r is not None:
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


def qdeg(n: int, k: int) -> int:
    """Quantum degree of the basis element x^k."""
    _check(n, k)
    return half_m(n) - k


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
