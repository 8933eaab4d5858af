"""Scalar and series layer: the cyclotomic field and the integer q-series
(eta products and the super graded dimension)."""
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathfock.heisenberg import SuperFockSpace
from wreathfock.scalars import (Cyclotomic, ScalarError, conj,
                                cyclotomic_polynomial, div, euler_product,
                                graded_dim_series)
from wreathfock.wreath import enumerate_types


def frac_list(xs):
    return [Fraction(x) for x in xs]


# -- oracle: the old ring Q[z]/(z^m - 1), then reduction modulo Phi_m ------

def mobius(n):
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def phi_oracle(m):
    """Phi_m = prod over d | m of (z^d - 1)^mu(m/d), constant term first:
    the numerator factors multiplied out, then divided by the others."""
    num, den = [1], [1]
    for d in range(1, m + 1):
        if m % d == 0 and mobius(m // d):
            f = [-1] + [0] * (d - 1) + [1]
            if mobius(m // d) > 0:
                num = poly_mul(num, f)
            else:
                den = poly_mul(den, f)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = q = num[i + len(den) - 1]
        for j, c in enumerate(den):
            num[i + j] -= q * c
    assert not any(num)
    return tuple(quot)


def ring_mul(m, a, b):
    """Schoolbook product in Q[z]/(z^m - 1)."""
    out = [Fraction(0)] * m
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % m] += x * y
    return out


def field_reduce(m, poly):
    """Remainder of the polynomial modulo the monic Phi_m."""
    phi = phi_oracle(m)
    deg = len(phi) - 1
    rest = [Fraction(c) for c in poly] + [Fraction(0)] * deg
    for i in range(len(rest) - 1, deg - 1, -1):
        q = rest[i]
        for j, c in enumerate(phi):
            rest[i - deg + j] -= q * c
    return rest[:deg]


def lifted(m, big, poly):
    """z^k goes to z^(k big/m)."""
    out = [Fraction(0)] * big
    for k, a in enumerate(poly):
        out[k * big // m] += a
    return out


def coeffs(x, m):
    """Power-basis coefficients in Q(zeta_m) of a scalar whose modulus
    divides m; a rational value must be a bare Fraction."""
    if isinstance(x, Cyclotomic):
        assert any(x.coeffs[1:])
        return field_reduce(m, lifted(x.modulus, m, x.coeffs))
    assert type(x) is Fraction
    return [x] + [Fraction(0)] * (len(phi_oracle(m)) - 2)


class TestCyclotomic:
    def test_root_product_wraps(self):
        z = Cyclotomic.root(4)
        assert z * z ** 3 == 1

    def test_polynomial_expansion(self):
        w = Cyclotomic.root(3)
        a = 1 + w
        assert a * a == Cyclotomic(3, [1, 2, 1]) == w

    def test_difference_of_squares_mod2(self):
        for m in (2, 3, 4, 6):
            z = Cyclotomic.root(m)
            assert (1 - z) * (1 + z) == 1 - z * z
        assert (1 - Cyclotomic.root(2)) * (1 + Cyclotomic.root(2)) == 0

    def test_conj(self):
        z = Cyclotomic.root(4)
        assert conj(z) == Cyclotomic.root(4, 3)
        r = Fraction(7, 3)
        assert conj(r) is r
        a = Cyclotomic(6, frac_list([1, 2, 0, 3, 0, 5]))
        assert conj(conj(a)) == a

    def test_rescale_and_align(self):
        """Values of different moduli meet in Q(zeta_lcm)."""
        assert Cyclotomic.root(2) == Cyclotomic.root(6, 3) == -1
        assert Cyclotomic.root(3) == Cyclotomic.root(6, 2)
        assert Cyclotomic.root(6) == 1 + Cyclotomic.root(3)
        assert Cyclotomic.root(4) * Cyclotomic.root(3) == \
            Cyclotomic.root(12, 7)
        with pytest.raises(ScalarError):
            Cyclotomic(0, [1])

    def test_div_is_exact(self):
        """div gives an int when the quotient is an integer, else a
        Fraction or a Cyclotomic; never a float."""
        for x, d, want in ((6, 3, 2), (-6, 3, -2), (0, 5, 0), (6, -4, None),
                           (7, 2, None), (6, Fraction(3, 2), 4),
                           (2 ** 60 + 1, 2, None)):
            got = div(x, d)
            if want is None:
                assert type(got) is Fraction and got == Fraction(x, d)
            else:
                assert type(got) is int and got == want
        assert type(div(Fraction(4), 2)) is int
        assert type(div(Fraction(3, 2), 3)) is Fraction
        assert type(div(Cyclotomic.root(3) + Cyclotomic.root(3, 2), -1)) \
            is int
        assert div(Cyclotomic.root(3) * 6, 3) == Cyclotomic.root(3) * 2

    def test_division_by_rational_only(self):
        a = Cyclotomic.root(3) * 6
        assert a / 3 == Cyclotomic.root(3) * 2
        with pytest.raises(ZeroDivisionError):
            a / 0


class TestField:
    def test_cube_roots_sum_to_zero(self):
        w = Cyclotomic.root(3)
        assert 1 + w + w * w == 0
        assert type(1 + w + w * w) is Fraction

    def test_i_squared(self):
        i = Cyclotomic.root(4)
        assert i * i + 1 == 0
        assert i * i == -1

    @pytest.mark.parametrize("m", range(2, 13))
    def test_roots_of_unity_sum_to_zero(self, m):
        total = Fraction(0)
        for k in range(m):
            total = total + Cyclotomic.root(m, k)
        assert total == 0 and type(total) is Fraction

    def test_rational_results_are_fractions(self):
        w = Cyclotomic.root(3)
        for x in (w * conj(w), Cyclotomic.root(4) ** 2, w ** 3,
                  Cyclotomic(5, [1, 1, 1, 1, 1]), w - w, Cyclotomic.root(2),
                  Cyclotomic(6, [3])):
            assert type(x) is Fraction
        assert w * conj(w) == 1 and Cyclotomic(6, [3]) == 3

    def test_irrational_never_equals_rational(self):
        w = Cyclotomic.root(3)
        assert w != 0 and w != 1 and bool(w)
        assert w + 1 != 1

    def test_cyclotomic_polynomial(self):
        for m in range(1, 31):
            assert cyclotomic_polynomial(m) == phi_oracle(m)

    def test_cyclotomic_polynomial_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")
        for m in range(1, 31):
            want = sympy.Poly(sympy.cyclotomic_poly(m, z), z).all_coeffs()
            assert cyclotomic_polynomial(m) == tuple(
                int(c) for c in reversed(want))


moduli = st.integers(1, 12)
small = st.fractions(-3, 3, max_denominator=3)


@st.composite
def elements(draw, m=None):
    """(m, poly): the number sum_k poly[k] zeta_m^k, poly unreduced."""
    m = draw(moduli) if m is None else m
    return m, draw(st.lists(small, min_size=m, max_size=m))


class TestFieldAgainstRingOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_add_mul_conj(self, data):
        m, p = data.draw(elements())
        _, q = data.draw(elements(m))
        a, b = Cyclotomic(m, p), Cyclotomic(m, q)
        assert coeffs(a, m) == field_reduce(m, p)
        assert coeffs(a + b, m) == field_reduce(
            m, [x + y for x, y in zip(p, q)])
        assert coeffs(a * b, m) == field_reduce(m, ring_mul(m, p, q))
        assert coeffs(conj(a), m) == field_reduce(
            m, [p[-k % m] for k in range(m)])
        assert conj(a * b) == conj(a) * conj(b)

    @settings(max_examples=60, deadline=None)
    @given(elements(), elements())
    def test_cross_modulus_lift(self, x, y):
        (m, p), (n, q) = x, y
        big = lcm(m, n)
        a, b = Cyclotomic(m, p), Cyclotomic(n, q)
        p2, q2 = lifted(m, big, p), lifted(n, big, q)
        assert a == Cyclotomic(big, p2)
        assert coeffs(a + b, big) == field_reduce(
            big, [s + t for s, t in zip(p2, q2)])
        assert coeffs(a * b, big) == field_reduce(big, ring_mul(big, p2, q2))


def colored_partition_count(colors: int, n: int) -> int:
    """Brute-force count of multisets of (part, color) summing to n."""
    items = [(r, c) for r in range(1, n + 1) for c in range(colors)]

    def rec(start, remaining):
        if remaining == 0:
            return 1
        total = 0
        for k in range(start, len(items)):
            if items[k][0] <= remaining:
                total += rec(k, remaining - items[k][0])
        return total

    return rec(0, n)


class TestEulerProduct:
    def test_partition_numbers(self):
        assert euler_product(1, 5) == [1, 1, 2, 3, 5, 7]

    def test_two_colors(self):
        assert euler_product(2, 4) == [1, 2, 5, 10, 20]

    def test_zero_exponent(self):
        assert euler_product(0, 4) == [1, 0, 0, 0, 0]

    def test_negative_is_inverse(self):
        for e in (1, 2, 3):
            a, b = euler_product(e, 6), euler_product(-e, 6)
            prod = [sum(a[i] * b[n - i] for i in range(n + 1))
                    for n in range(7)]
            assert prod == [1, 0, 0, 0, 0, 0, 0]

    def test_colored_partition_oracle(self):
        for e in range(1, 5):
            series = euler_product(e, 8)
            for n in range(9):
                assert series[n] == colored_partition_count(e, n)


def distinct_part_count(n: int) -> int:
    def rec(maxpart, remaining):
        if remaining == 0:
            return 1
        total = 0
        for p in range(min(maxpart, remaining), 0, -1):
            total += rec(p - 1, remaining - p)
        return total

    return rec(n, n)


class TestGradedDimSeries:
    def test_distinct_parts(self):
        got = graded_dim_series(0, 1, 6)
        assert got == [1, 1, 1, 2, 2, 3, 4]
        assert got == [distinct_part_count(n) for n in range(7)]

    def test_pure_even_matches_euler_product(self):
        for d0 in range(4):
            assert graded_dim_series(d0, 0, 6) == euler_product(d0, 6)

    def test_empty(self):
        assert graded_dim_series(0, 0, 5) == [1, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("d0,d1", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_mixed_counts_super_types(self, d0, d1):
        """Both parities at once, against the monomials of the super Fock
        model listed degree by degree."""
        space = SuperFockSpace(d0, d1)
        assert graded_dim_series(d0, d1, 6) == \
            [len(enumerate_types(space, n)) for n in range(7)]

    def test_values_are_ints(self):
        for coeffs in (euler_product(-3, 8), graded_dim_series(2, 3, 8)):
            assert all(type(c) is int for c in coeffs)
