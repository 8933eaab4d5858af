"""Exact scalars (rationals, cyclotomic numbers) and integer q-series.

Every value in this library is exact; nothing is ever rounded.  A rational
value is an ``int`` or a ``fractions.Fraction``, and integers stay ``int``s
where the arithmetic allows.  An irrational value is a `Cyclotomic`, an
element of the field Q(zeta_m) stored as its phi(m) power-basis
coefficients reduced modulo the cyclotomic polynomial Phi_m.  A cyclotomic
result that reduces to a rational comes back as a ``Fraction``, so ``==``
is equality of numbers and ``bool`` is "nonzero".  Values of different
moduli meet in Q(zeta_lcm) through one private lift.  The only divisions
ever needed are by nonzero rationals, and `div` makes them exact, with an
``int`` wherever the quotient is an integer.

Every q-series the library evaluates is a product
prod_r (1 + q^r)^d1 / (1 - q^r)^d0 with integer coefficients;
`product_coefficients` gives them by one exact integer recurrence.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterator, Union

RatLike = Union[int, Fraction]


class ScalarError(ValueError):
    pass


def _frac(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ScalarError(f"not an exact rational: {x!r}")


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, constant term first: z^m - 1 divided
    exactly by Phi_d for every proper divisor d of m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = cyclotomic_polynomial(d)
            k = len(den) - 1
            quot = [0] * (len(num) - k)
            for i in range(len(quot) - 1, -1, -1):
                quot[i] = q = num[i + k]
                for j, c in enumerate(den):
                    num[i + j] -= q * c
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _powers(m: int) -> tuple[tuple[int, ...], ...]:
    """zeta_m^k in the power basis 1, zeta_m, ..., zeta_m^(phi(m)-1), for
    k = 0..m-1: multiply by z and replace z^phi(m) using Phi_m."""
    phi = cyclotomic_polynomial(m)
    cur = [1] + [0] * (len(phi) - 2)
    rows = []
    for _ in range(m):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * p for c, p in zip(cur, phi)]
    return tuple(rows)


def _reduce(m: int, poly) -> list[Fraction]:
    """Power-basis coefficients of sum_k poly[k] zeta_m^k (any length)."""
    rows = _powers(m)
    out = [Fraction(0)] * len(rows[0])
    for k, a in enumerate(poly):
        if a:
            for j, p in enumerate(rows[k % m]):
                if p:
                    out[j] += a * p
    return out


def _make(m: int, coeffs) -> "Scalar":
    """The number with reduced coefficients coeffs in Q(zeta_m): a
    Fraction when it is rational."""
    if not any(coeffs[1:]):
        return coeffs[0]
    x = object.__new__(Cyclotomic)
    object.__setattr__(x, "modulus", m)
    object.__setattr__(x, "coeffs", tuple(coeffs))
    return x


def _lift(x: "Cyclotomic", m: int) -> tuple[Fraction, ...]:
    """Coefficients of x in Q(zeta_m), for modulus(x) dividing m:
    zeta_n^k = zeta_m^(k m/n), reduced modulo Phi_m."""
    if x.modulus == m:
        return x.coeffs
    poly = [0] * m
    step = m // x.modulus
    for k, a in enumerate(x.coeffs):
        poly[k * step] = a
    return tuple(_reduce(m, poly))


def _common(x: "Cyclotomic", y: "Cyclotomic"):
    """A common modulus and the coefficients of x and y there."""
    m = lcm(x.modulus, y.modulus)
    return m, _lift(x, m), _lift(y, m)


class Cyclotomic:
    """An irrational element of Q(zeta_m): the coefficients of the power
    basis 1, zeta_m, ..., zeta_m^(phi(m)-1), reduced modulo Phi_m.

    ``Cyclotomic(m, coeffs)`` is the number sum_k coeffs[k] zeta_m^k for a
    coefficient list of any length; it returns a ``Fraction`` when that
    number is rational, so an instance is never rational and never zero.
    Equal numbers of different moduli compare equal but may hash apart,
    so instances are unhashable.
    """

    __slots__ = ("modulus", "coeffs")
    __hash__ = None

    def __new__(cls, m: int, coeffs) -> "Scalar":
        if m < 1:
            raise ScalarError("modulus must be >= 1")
        return _make(m, _reduce(m, [_frac(a) for a in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    @staticmethod
    def root(m: int, k: int = 1) -> "Scalar":
        """zeta_m^k."""
        return Cyclotomic(m, [0] * (k % m) + [1])

    def __add__(self, other) -> "Scalar":
        if isinstance(other, Cyclotomic):
            m, a, b = _common(self, other)
            return _make(m, [x + y for x, y in zip(a, b)])
        return _make(self.modulus,
                     (self.coeffs[0] + _frac(other),) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return _make(self.modulus, [-a for a in self.coeffs])

    def __sub__(self, other) -> "Scalar":
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return -self + other

    def __mul__(self, other) -> "Scalar":
        if not isinstance(other, Cyclotomic):
            x = _frac(other)
            return _make(self.modulus, [a * x for a in self.coeffs])
        m, a, b = _common(self, other)
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _make(m, _reduce(m, prod))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        # only division by nonzero rationals is ever needed
        x = _frac(other)
        if x == 0:
            raise ZeroDivisionError("division by zero")
        return self * (1 / x)

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            raise ScalarError("negative cyclotomic powers are not supported")
        out, base = Fraction(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            _, a, b = _common(self, other)
            return a == b
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __repr__(self):
        terms = [f"{a}*z^{k}" for k, a in enumerate(self.coeffs) if a]
        return f"Cyc({' + '.join(terms)}; m={self.modulus})"


Scalar = Union[int, Fraction, Cyclotomic]


def div(x, d: RatLike) -> Scalar:
    """x / d for a nonzero rational d, exact and never a float: an
    integral rational quotient is an ``int``, another rational one a
    ``Fraction``."""
    if isinstance(x, int):
        q, r = divmod(x, d)
        return q if not r else Fraction(x, d)
    q = x / d
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def conj(x: Scalar) -> Scalar:
    """Complex conjugate: zeta_m^k goes to zeta_m^-k.  The identity on
    rationals."""
    if not isinstance(x, Cyclotomic):
        return x
    m = x.modulus
    poly = [0] * m
    for k, a in enumerate(x.coeffs):
        poly[-k % m] = a
    return _make(m, _reduce(m, poly))


def product_coefficients(d0: int, d1: int) -> Iterator[int]:
    """The coefficients a_0, a_1, ... of prod_r (1 + q^r)^d1 / (1 - q^r)^d0,
    one degree at a time and without end.

    A series F with F(0) = 1 and q F'/F = sum_j b_j q^j has
    n a_n = sum_{j=1..n} b_j a_{n-j}, and here
    b_j = sum_{r | j} r (d0 + (-1)^(j/r+1) d1), so for d1 = 0 this is
    Euler's n p(n) = sum_k sigma(k) p(n-k) (Macdonald, Ch. I).  The a_n are
    integers, so the division by n is exact.
    """
    a, b = [1], [0]
    yield 1
    for n in itertools.count(1):
        b.append(sum(r * (d0 + (d1 if n // r % 2 else -d1))
                     for r in range(1, n + 1) if n % r == 0))
        a.append(sum(b[j] * a[n - j] for j in range(1, n + 1)) // n)
        yield a[n]


def _truncated(d0: int, d1: int, order: int) -> list[int]:
    if order < 0:
        raise ScalarError("truncation order must be >= 0")
    return list(itertools.islice(product_coefficients(d0, d1), order + 1))


def euler_product(e: int, order: int) -> list[int]:
    """The coefficients of prod_{r>=1} (1 - q^r)^(-e) up to q^order.

    For e = 1 they are the partition numbers; in general the q^n
    coefficient counts e-colored partitions of n.  Negative e gives the
    eta-product-style expansion prod (1 - q^r)^|e|.
    """
    return _truncated(e, 0, order)


def graded_dim_series(d0: int, d1: int, order: int) -> list[int]:
    """The coefficients of prod (1 + q^r)^d1 / prod (1 - q^r)^d0 up to
    q^order."""
    if d0 < 0 or d1 < 0:
        raise ScalarError("dimensions must be nonnegative")
    return _truncated(d0, d1, order)
