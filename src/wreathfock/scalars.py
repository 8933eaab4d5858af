"""Exact scalars (rationals, cyclotomic values) and truncated power series.

Every coefficient in this library is an exact ``fractions.Fraction``;
nothing is ever rounded.  Cyclotomic values live in the quotient ring
Q[z]/(z^m - 1) so that equality is plain coefficient comparison and the
only divisions ever needed are by rational integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Union

Rational = Fraction

RatLike = Union[int, Fraction]


class ScalarError(ValueError):
    pass


def _frac(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ScalarError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class Cyclotomic:
    """Element of Q[z]/(z^m - 1), stored as m coefficients of degree < m.

    z is a primitive m-th root of unity; conjugation sends z^k to
    z^(m-k mod m).  The quotient by z^m - 1 (not the cyclotomic
    polynomial) keeps reduction trivial and equality canonical.
    """

    modulus: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ScalarError("modulus must be >= 1")
        if len(self.coeffs) != self.modulus:
            raise ScalarError("coefficient vector length must equal modulus")

    @classmethod
    def zero(cls, m: int) -> "Cyclotomic":
        return cls(m, (Fraction(0),) * m)

    @classmethod
    def rational(cls, m: int, value: RatLike) -> "Cyclotomic":
        c = [Fraction(0)] * m
        c[0] = _frac(value)
        return cls(m, tuple(c))

    @classmethod
    def one(cls, m: int) -> "Cyclotomic":
        return cls.rational(m, 1)

    @classmethod
    def root(cls, m: int, k: int = 1) -> "Cyclotomic":
        c = [Fraction(0)] * m
        c[k % m] = Fraction(1)
        return cls(m, tuple(c))

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.modulus != self.modulus:
                raise ScalarError(
                    f"modulus mismatch: {self.modulus} vs {other.modulus}")
            return other
        return Cyclotomic.rational(self.modulus, other)

    def __add__(self, other) -> "Cyclotomic":
        o = self._coerce(other)
        return Cyclotomic(self.modulus,
                          tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.modulus, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Cyclotomic":
        if not isinstance(other, Cyclotomic):
            x = _frac(other)
            return Cyclotomic(self.modulus,
                             tuple(a * x if a else a for a in self.coeffs))
        o = self._coerce(other)
        m = self.modulus
        out = [Fraction(0)] * m
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    out[(i + j) % m] += a * b
        return Cyclotomic(m, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclotomic":
        # only division by nonzero rationals is ever needed
        x = _frac(other)
        if x == 0:
            raise ZeroDivisionError("division by zero")
        return self * (Fraction(1) / x)

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            raise ScalarError("negative cyclotomic powers are not supported")
        out = Cyclotomic.one(self.modulus)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "Cyclotomic":
        m = self.modulus
        out = [Fraction(0)] * m
        for k, a in enumerate(self.coeffs):
            out[(m - k) % m] += a
        return Cyclotomic(m, tuple(out))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"not a rational value: {self!r}")
        return self.coeffs[0]

    def rescale(self, new_m: int) -> "Cyclotomic":
        """Reinterpret in Q[z]/(z^new_m - 1); requires modulus | new_m."""
        if new_m == self.modulus:
            return self
        if new_m % self.modulus != 0:
            raise ScalarError(
                f"cannot rescale modulus {self.modulus} to {new_m}")
        d = new_m // self.modulus
        out = [Fraction(0)] * new_m
        for k, a in enumerate(self.coeffs):
            out[k * d] += a
        return Cyclotomic(new_m, tuple(out))

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.coeffs[0]}; m={self.modulus})"
        terms = [f"{a}*z^{k}" for k, a in enumerate(self.coeffs) if a]
        return f"Cyc({' + '.join(terms)}; m={self.modulus})"


def align(a: Cyclotomic, b: Cyclotomic) -> tuple[Cyclotomic, Cyclotomic]:
    """Bring two cyclotomics to the lcm modulus (each must divide it)."""
    if a.modulus == b.modulus:
        return a, b
    from math import lcm
    m = lcm(a.modulus, b.modulus)
    return a.rescale(m), b.rescale(m)


def cyc_eq(a: Cyclotomic, b: Cyclotomic) -> bool:
    x, y = align(a, b)
    return x.coeffs == y.coeffs


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

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ScalarError("cannot extend a truncated series")
        return TruncSeries(order, self.coeffs[:order + 1])


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
