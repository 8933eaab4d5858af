"""Scalar and series layer: cyclotomics, truncated series, eta products."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathfock.scalars import (Cyclotomic, ScalarError, TruncSeries,
                                euler_product, graded_dim_series, series_exp)


def frac_list(xs):
    return [Fraction(x) for x in xs]


class TestCyclotomic:
    def test_root_product_wraps(self):
        z = Cyclotomic.root(4)
        assert (z * z ** 3).coeffs == tuple(frac_list([1, 0, 0, 0]))

    def test_polynomial_expansion(self):
        a = Cyclotomic.one(3) + Cyclotomic.root(3)
        assert (a * a).coeffs == tuple(frac_list([1, 2, 1]))

    def test_difference_of_squares_mod2(self):
        one, z = Cyclotomic.one(2), Cyclotomic.root(2)
        prod = (one - z) * (one + z)
        # schoolbook: 1 + z - z - z^2 = 1 - z^2 = 0 after z^2 = 1
        assert prod.is_zero()

    def test_conj(self):
        z = Cyclotomic.root(4)
        assert z.conj().coeffs == Cyclotomic.root(4, 3).coeffs
        r = Cyclotomic.rational(5, Fraction(7, 3))
        assert r.conj().coeffs == r.coeffs
        a = Cyclotomic(6, tuple(frac_list([1, 2, 0, 3, 0, 5])))
        assert a.conj().conj().coeffs == a.coeffs

    def test_rescale_and_align(self):
        a = Cyclotomic.root(2)
        b = a.rescale(6)
        assert b.coeffs[3] == 1 and sum(map(abs, b.coeffs)) == 1
        with pytest.raises(ScalarError):
            a.rescale(3)

    def test_division_by_rational_only(self):
        a = Cyclotomic.root(3) * 6
        assert (a / 3).coeffs[1] == 2
        with pytest.raises(ZeroDivisionError):
            a / 0


class TestSeries:
    def test_mul_basic(self):
        a = TruncSeries.from_coeffs([1, 1], 3)
        b = TruncSeries.from_coeffs([1, -1], 3)
        assert (a * b).coeffs == tuple(frac_list([1, 0, -1, 0]))

    def test_geometric(self):
        geo = TruncSeries.from_coeffs([1] * 6, 5)
        one_minus = TruncSeries.from_coeffs([1, -1], 5)
        assert (geo * one_minus).coeffs == tuple(frac_list([1, 0, 0, 0, 0, 0]))

    def test_identity(self):
        p = TruncSeries.from_coeffs([3, 1, 4, 1], 3)
        assert (p * TruncSeries.one(3)).coeffs == p.coeffs

    def test_exp(self):
        e = series_exp(TruncSeries.q(3))
        assert e.coeffs == (Fraction(1), Fraction(1), Fraction(1, 2),
                            Fraction(1, 6))
        assert series_exp(TruncSeries.zero(4)).coeffs[0] == 1
        e2 = series_exp(TruncSeries.from_coeffs([0, 1, 1], 2))
        assert e2.coeffs == (Fraction(1), Fraction(1), Fraction(3, 2))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ScalarError):
            series_exp(TruncSeries.one(3))

    def test_exp_inverse(self):
        a = TruncSeries.from_coeffs([0, 2, Fraction(-1, 3), 5], 6)
        prod = series_exp(a) * series_exp(-a)
        assert prod.coeffs == TruncSeries.one(6).coeffs

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=5),
           st.lists(st.integers(-4, 4), min_size=1, max_size=5),
           st.lists(st.integers(-4, 4), min_size=1, max_size=5))
    def test_mul_assoc_comm(self, xs, ys, zs):
        a = TruncSeries.from_coeffs(xs, 4)
        b = TruncSeries.from_coeffs(ys, 4)
        c = TruncSeries.from_coeffs(zs, 4)
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


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
        assert [int(c) for c in euler_product(1, 5).coeffs] == [1, 1, 2, 3, 5, 7]

    def test_two_colors(self):
        assert [int(c) for c in euler_product(2, 4).coeffs] == [1, 2, 5, 10, 20]

    def test_zero_exponent(self):
        assert euler_product(0, 4).coeffs == TruncSeries.one(4).coeffs

    def test_negative_is_inverse(self):
        for e in (1, 2, 3):
            prod = euler_product(e, 6) * euler_product(-e, 6)
            assert prod.coeffs == TruncSeries.one(6).coeffs

    def test_colored_partition_oracle(self):
        for e in range(1, 5):
            series = euler_product(e, 8)
            for n in range(9):
                assert series.coefficient(n) == colored_partition_count(e, n)


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
        got = [int(c) for c in graded_dim_series(0, 1, 6).coeffs]
        assert got == [1, 1, 1, 2, 2, 3, 4]
        assert got == [distinct_part_count(n) for n in range(7)]

    def test_pure_even_matches_euler_product(self):
        for d0 in range(4):
            assert graded_dim_series(d0, 0, 6).coeffs == \
                euler_product(d0, 6).coeffs

    def test_empty(self):
        assert graded_dim_series(0, 0, 5).coeffs == TruncSeries.one(5).coeffs
