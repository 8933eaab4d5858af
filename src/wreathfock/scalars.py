"""Exact scalars (rationals, cyclotomic numbers) and truncated power series.

Every value in this library is exact; nothing is ever rounded.  A rational
value is an ``int`` or a ``fractions.Fraction``, and integers stay ``int``s
where the arithmetic allows.  An irrational value is a `Cyclotomic`, an
element of the field Q(zeta_m) stored as its phi(m) power-basis
coefficients reduced modulo the cyclotomic polynomial Phi_m.  A cyclotomic
result that reduces to a rational comes back as a ``Fraction``, so ``==``
is equality of numbers and ``bool`` is "nonzero".  Values of different
moduli meet in Q(zeta_lcm) through one private lift.  The only divisions ever needed are
by nonzero rationals, and `div` makes them exact also for an ``int``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Union

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
    """x / d for a nonzero rational d, exact: an ``int`` x gives an ``int``
    when d divides it and a ``Fraction`` otherwise, never a float."""
    if isinstance(x, int):
        q, r = divmod(x, d)
        return q if not r else Fraction(x, d)
    return x / d


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


@dataclass(frozen=True)
class TruncSeries:
    """Formal power series in q truncated at order N, rational coefficients.

    Binary operations align to the smaller truncation order; coefficients
    past the order are never reported.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ScalarError("truncation order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise ScalarError("need exactly order+1 coefficients")

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "TruncSeries":
        cs = [_frac(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        cs = cs[:order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        return cls(order, tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls(order, (Fraction(0),) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.from_coeffs([1], order)

    @classmethod
    def q(cls, order: int) -> "TruncSeries":
        return cls.from_coeffs([0, 1], order)

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ScalarError(f"coefficient {n} outside truncation order")
        return self.coeffs[n]

    def _aligned(self, other: "TruncSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            other = TruncSeries.from_coeffs([other], self.order)
        n = self._aligned(other)
        return TruncSeries(n, tuple(a + b for a, b in
                                    zip(self.coeffs[:n + 1], other.coeffs[:n + 1])))

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            other = TruncSeries.from_coeffs([other], self.order)
        return self + (-other)

    def __mul__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            x = _frac(other)
            return TruncSeries(self.order, tuple(a * x for a in self.coeffs))
        n = self._aligned(other)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[:n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncSeries(n, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "TruncSeries":
        if e < 0:
            raise ScalarError("negative series powers are not supported here")
        out = TruncSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out


def series_exp(a: TruncSeries) -> TruncSeries:
    """exp of a series with zero constant term, truncated at a.order."""
    if a.coeffs[0] != 0:
        raise ScalarError("series_exp requires zero constant term")
    out = TruncSeries.one(a.order)
    power = TruncSeries.one(a.order)
    for k in range(1, a.order + 1):
        power = power * a
        out = out + power * Fraction(1, factorial(k))
    return out


def _one_minus_qr_negpow(r: int, e: int, order: int) -> TruncSeries:
    """(1 - q^r)^(-e) for e >= 0, or (1 - q^r)^|e| for e < 0."""
    cs = [Fraction(0)] * (order + 1)
    if e >= 0:
        for k in range(order // r + 1):
            cs[k * r] = Fraction(comb(e + k - 1, k)) if k else Fraction(1)
    else:
        for k in range(min(-e, order // r) + 1):
            cs[k * r] = Fraction((-1) ** k * comb(-e, k))
    return TruncSeries(order, tuple(cs))


def euler_product(e: int, order: int) -> TruncSeries:
    """prod_{r>=1} (1 - q^r)^(-e), exact up to q^order.

    For e = 1 the coefficients are the partition numbers; in general the
    q^n coefficient counts e-colored partitions of n.  Negative e gives
    the eta-product-style expansion prod (1 - q^r)^|e|.
    """
    out = TruncSeries.one(order)
    for r in range(1, order + 1):
        out = out * _one_minus_qr_negpow(r, e, order)
    return out


def graded_dim_series(d0: int, d1: int, order: int) -> TruncSeries:
    """prod (1 + q^r)^d1 / prod (1 - q^r)^d0, exact up to q^order."""
    if d0 < 0 or d1 < 0:
        raise ScalarError("dimensions must be nonnegative")
    out = euler_product(d0, order)
    plus = TruncSeries.one(order)
    for r in range(1, order + 1):
        cs = [Fraction(0)] * (order + 1)
        cs[0] = Fraction(1)
        cs[r] = Fraction(1)
        plus = plus * (TruncSeries(order, tuple(cs)) ** d1)
    return out * plus
