"""Fock space layer: product, coproduct, antipode, oracles, graded dims."""
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathfock import fock, heisenberg, lambda_ops, wreath
from wreathfock.fock import (FockElement, FockError, antipode, comul_splits,
                             counit, fock_comul, fock_exp, fock_mul,
                             graded_dim, hopf_verify, oracle_comul_value,
                             oracle_product, sigma_r_c, sigma_rho,
                             sign_char, trivial_char)
from wreathfock.groups import (ClassFunction, DualFunctional, cyclic,
                               mackey_verify, sigma_basis, symmetric, sl2_f3,
                               trivial_character, trivial_group)
from wreathfock.heisenberg import a_minus, a_plus
from wreathfock.report import Report
from wreathfock.scalars import Cyclotomic, div, euler_product
from wreathfock.wreath import (EMPTY_TYPE, WreathType, enumerate_types,
                               n_cycle_type, z_rho)

from test_heisenberg import z3_commutators, z3_payload_data
from test_wreath import types


class TestProduct:
    def test_sigma_square_value(self):
        g = cyclic(2)
        f = sigma_r_c(g, 1, 0)
        sq = fock_mul(f, f)
        # sigma_c * sigma_c = sigma^{(1,1)@c}, whose value is Z_rho = 8
        rho = WreathType.from_dict({0: (1, 1)})
        assert sq.value(rho) == 8
        assert z_rho(g, rho) == 8

    def test_product_is_type_union(self):
        g = symmetric(3)
        r1 = WreathType.from_dict({0: (2,)})
        r2 = WreathType.from_dict({1: (1,)})
        prod = fock_mul(sigma_rho(g, r1), sigma_rho(g, r2))
        target = r1.union(r2)
        assert prod.coeffs == sigma_rho(g, target).coeffs

    def test_oracle_product_agrees(self):
        g = cyclic(2)
        for r1 in (n_cycle_type(0, 1), n_cycle_type(1, 1),
                   n_cycle_type(0, 2)):
            for r2 in (n_cycle_type(0, 1), n_cycle_type(1, 1)):
                f1, f2 = sigma_rho(g, r1), sigma_rho(g, r2)
                assert oracle_product(f1, f2).equals(fock_mul(f1, f2))

    def test_oracle_product_of_class_functions(self):
        """Operands with several types (and a Fraction coefficient) go
        through the same bags as sigma monomials."""
        g = symmetric(3)
        f1 = trivial_char(g, 2) + sigma_rho(g, n_cycle_type(1, 2))
        for f2 in (sign_char(g, 1), sigma_r_c(g, 1, 2)):
            assert oracle_product(f1, f2).equals(fock_mul(f1, f2))

    @pytest.mark.parametrize("group,a,b", [(cyclic(3), 1, 2),
                                           (symmetric(3), 2, 1)],
                             ids=["z3-1x2", "s3-2x1"])
    def test_oracle_product_of_irrational_class_functions(self, group, a, b):
        """Fraction and Cyclotomic values, a different one at each type:
        the oracle's table of monomial products extends bilinearly to
        fock_mul."""
        w = Cyclotomic.root(3)

        def class_function(n, value):
            types = enumerate_types(group, n)
            return FockElement.from_values(
                group, {rho: value(i) for i, rho in enumerate(types)})

        def rational(i):
            return Fraction(i + 1, 5)

        def cyclotomic(i):
            return w ** i + Fraction(i, 2)

        for v1, v2 in ((cyclotomic, rational), (rational, cyclotomic)):
            f1, f2 = class_function(a, v1), class_function(b, v2)
            assert oracle_product(f1, f2).equals(fock_mul(f1, f2))

    def test_sampled_induction_oracle_is_seeded_and_labelled(
            self, monkeypatch):
        """Past the full-coverage cost the oracle checks a seeded sample
        and says how much of it: k of n target types, one split of each
        cut's m."""
        monkeypatch.setattr(fock, "ORACLE_FULL_COST", 0)
        runs = [hopf_verify(cyclic(2), 3) for _ in range(2)]
        assert runs[0].to_table() == runs[1].to_table()
        assert runs[0].all_passed
        assert [c.name for c in runs[0].checks[-2:]] == [
            "product matches induction oracle, degree 2 (sampled 5/5 "
            "types, 1/4 splits per cut, seed 0)",
            "product matches induction oracle, degree 3 (sampled 5/10 "
            "types, 1/10,10 splits per cut, seed 0)"]

    def test_fock_mul_unit(self):
        g = cyclic(3)
        u = sigma_r_c(g, 2, 1)
        assert fock_mul(FockElement.unit(g), u).equals(u)


def naive_mul(u, v, max_degree=None):
    """The product by definition, in Fractions: every pair of terms, the
    parts of both types merged without `union`, then zeros dropped."""
    out = {}
    for rho, a in u.coeffs.items():
        for tau, b in v.coeffs.items():
            if max_degree is not None and rho.degree + tau.degree > max_degree:
                continue
            parts = {}
            for c, lam in rho.parts + tau.parts:
                parts.setdefault(c, []).extend(lam)
            key = WreathType(tuple((c, tuple(sorted(lam, reverse=True)))
                                   for c, lam in sorted(parts.items())))
            a, b = (x if isinstance(x, Cyclotomic) else Fraction(x)
                    for x in (a, b))
            out[key] = out.get(key, Fraction(0)) + a * b
    return {key: x for key, x in out.items() if x}


coefficients = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
    st.builds(Cyclotomic, st.sampled_from([3, 4, 6]),
              st.lists(st.integers(-2, 2), min_size=1, max_size=4)))
rationals = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.builds(Fraction, st.integers(1, 4), st.integers(1, 6)))
Z4 = cyclic(4)      # four classes, as many labels as `types` uses
elements = st.dictionaries(types, coefficients, max_size=4).map(
    lambda d: FockElement(Z4, d))


class TestIntegerKernel:
    @settings(max_examples=200, deadline=None)
    @given(elements, elements, st.one_of(st.none(), st.integers(0, 12)))
    def test_fock_mul_matches_naive_product(self, u, v, max_degree):
        """int, Fraction and Cyclotomic coefficients, with truncation: the
        same coefficients as the naive product, none zero, none a float,
        and an integer one is an int when both operands are rational."""
        got = fock_mul(u, v, max_degree=max_degree).coeffs
        assert got == naive_mul(u, v, max_degree)
        assert all(x and not isinstance(x, float) for x in got.values())
        if not any(isinstance(x, Cyclotomic)
                   for w in (u, v) for x in w.coeffs.values()):
            assert all(type(x) is int for x in got.values()
                       if x == int(x))

    @settings(max_examples=100, deadline=None)
    @given(types, types, coefficients, rationals, rationals)
    def test_cancelling_products_drop_their_terms(self, alpha, beta, x, y,
                                                  p):
        """(x s^a + y s^b)(p s^b + q s^a) with y q = -x p: the coefficient
        of s^(a u b) cancels and is dropped."""
        if alpha == beta or not x:
            return
        u = FockElement(Z4, {alpha: x, beta: y})
        v = FockElement(Z4, {beta: p, alpha: div(-x * p, y)})
        got = fock_mul(u, v).coeffs
        assert alpha.union(beta) not in got
        assert got == naive_mul(u, v)


def splits_rebuilt(rho):
    """Uncached coproduct splits: every choice of a sub-multiset of each
    class's partition, weighted by the product of binomials of the part
    multiplicities."""
    per_class = []
    for c, lam in rho.parts:
        counts = sorted(Counter(lam).items(), reverse=True)
        options = []
        for take in itertools.product(*(range(m + 1) for _, m in counts)):
            sub = tuple(r for (r, _), a in zip(counts, take) for _ in range(a))
            rest = tuple(r for (r, m), a in zip(counts, take)
                         for _ in range(m - a))
            coef = 1
            for (_, m), a in zip(counts, take):
                coef *= comb(m, a)
            options.append((c, sub, rest, coef))
        per_class.append(options)
    out = Counter()
    for combo in itertools.product(*per_class):
        alpha = WreathType.from_dict({c: sub for c, sub, _, _ in combo})
        beta = WreathType.from_dict({c: rest for c, _, rest, _ in combo})
        coef = 1
        for *_, k in combo:
            coef *= k
        out[alpha, beta] += coef
    return out


class TestCoproduct:
    @settings(max_examples=150, deadline=None)
    @given(types)
    def test_splits_match_rebuild(self, rho):
        """The memoized splits against an uncached rebuild; each (alpha,
        beta) appears once."""
        splits = comul_splits(rho)
        assert len({(a, b) for a, b, _ in splits}) == len(splits)
        assert Counter({(a, b): k for a, b, k in splits}) == \
            splits_rebuilt(rho)
        assert all(a.union(b) == rho for a, b, _ in splits)
        assert comul_splits(rho) is splits          # memoized

    def test_splits_coefficients(self):
        rho = WreathType.from_dict({0: (1, 1)})
        splits = {(a, b): k for a, b, k in comul_splits(rho)}
        assert splits[(EMPTY_TYPE, rho)] == 1
        assert splits[(rho, EMPTY_TYPE)] == 1
        single = WreathType.from_dict({0: (1,)})
        assert splits[(single, single)] == 2
        assert len(splits) == 3

    def test_splits_zrho_ratio(self):
        g = symmetric(3)
        rho = WreathType.from_dict({0: (2, 1), 1: (1,)})
        for alpha, beta, k in comul_splits(rho):
            assert k == z_rho(g, rho) // (z_rho(g, alpha) * z_rho(g, beta))

    def test_restriction_oracle(self):
        g = cyclic(2)
        for rho in (WreathType.from_dict({0: (2, 1)}),
                    WreathType.from_dict({0: (1,), 1: (2,)})):
            for (alpha, beta), c in fock_comul(sigma_rho(g, rho)).items():
                if alpha.degree == 0 or beta.degree == 0:
                    continue
                # the value of a tensor term, coeff Z_alpha Z_beta, is the
                # evaluation at the embedded pair of representatives that
                # the element-level oracle computes
                v = c * (z_rho(g, alpha) * z_rho(g, beta))
                want = oracle_comul_value(sigma_rho(g, rho), alpha, beta)
                assert v == want

    def test_counit(self):
        g = cyclic(2)
        u = FockElement.unit(g) * Fraction(5) + sigma_r_c(g, 1, 1)
        assert counit(u) == 5


@lru_cache(maxsize=None)
def antipode_recursion(group, rho):
    """Graded-connected recursion: S(x) = -x - sum S(x') x'' over the
    reduced coproduct; the oracle for the closed-form antipode."""
    if rho.degree == 0:
        return FockElement.unit(group)
    out = sigma_rho(group, rho) * Fraction(-1)
    for alpha, beta, k in comul_splits(rho):
        if alpha.degree == 0 or alpha.degree == rho.degree:
            continue
        term = fock_mul(antipode_recursion(group, alpha),
                        sigma_rho(group, beta))
        out = out + term * Fraction(-k)
    return out


class TestAntipode:
    def test_primitives_negate(self):
        g = symmetric(3)
        for r in (1, 2, 3):
            for c in range(g.num_classes):
                u = sigma_r_c(g, r, c)
                assert antipode(u).equals(u * Fraction(-1))

    def test_antipode_is_algebra_antimorphism(self):
        g = cyclic(2)
        f1 = sigma_r_c(g, 1, 0)
        f2 = sigma_r_c(g, 2, 1)
        u = fock_mul(f1, f2)
        v = fock_mul(antipode(f2), antipode(f1))
        assert antipode(u).equals(v)

    @pytest.mark.parametrize("group,n,count", [
        (cyclic(2), 5, 73), (symmetric(3), 5, 193), (cyclic(3), 4, 85),
        (sl2_f3(), 3, 182)])
    def test_closed_form_matches_recursion(self, group, n, count):
        types = [rho for d in range(1, n + 1)
                 for rho in enumerate_types(group, d)]
        assert len(types) == count
        for rho in types:
            assert antipode(sigma_rho(group, rho)).equals(
                antipode_recursion(group, rho)), rho


def test_core_operations_make_no_z_rho_calls(monkeypatch):
    calls = []
    real = wreath.z_rho

    def counting(group, rho):
        calls.append(rho)
        return real(group, rho)

    for mod in (wreath, fock, heisenberg, lambda_ops):
        monkeypatch.setattr(mod, "z_rho", counting, raising=False)
    g = symmetric(3)
    basis = [sigma_rho(g, rho) for n in range(4)
             for rho in enumerate_types(g, n)]
    up = a_plus(2, sigma_basis(g, 1))
    down = a_minus(1, DualFunctional.delta(g, 2))
    calls.clear()
    for u in basis:
        fock_mul(u, basis[5])
        fock_comul(u)
        up(u)
        down(u)
    assert calls == []


def test_coefficients_are_never_floats(monkeypatch):
    """Every division is exact: no suite builds an element with a float
    coefficient, on rational groups and on cyclotomic payloads alike.  The
    sigma engine starts from int coefficients, and the counit and inner
    product of integer-valued elements are ints, zero included."""
    g = symmetric(3)
    rho = WreathType.from_dict({0: (2,), 1: (1,)})
    s, one = sigma_rho(g, rho), FockElement.unit(g)
    assert all(type(x) is int for u in (s, one) for x in u.coeffs.values())
    for got, want in ((counit(one), 1), (counit(s), 0),
                      (s.inner(s), z_rho(g, rho)), (s.inner(one), 0),
                      (one.inner(one), 1), ((s + one).inner(s), z_rho(g, rho))):
        assert type(got) is int and got == want
    orig = FockElement.__init__

    def guarded(self, *args):
        orig(self, *args)
        floats = [x for x in self.coeffs.values() if isinstance(x, float)]
        assert not floats, floats

    monkeypatch.setattr(FockElement, "__init__", guarded)
    orig_cf = ClassFunction.__init__

    def guarded_cf(self, *args):
        orig_cf(self, *args)
        floats = [x for x in self.values if isinstance(x, float)]
        assert not floats, floats

    monkeypatch.setattr(ClassFunction, "__init__", guarded_cf)
    for g in (cyclic(2), cyclic(3), symmetric(3)):
        assert hopf_verify(g, 3).all_passed
        assert lambda_ops.lambda_verify(g, 3).all_passed
        assert heisenberg.commutator_check(g, 3, 2).all_passed
        assert mackey_verify(g).all_passed
    v, _, _ = z3_payload_data()
    assert z3_commutators().all_passed
    assert lambda_ops.h_e_identities(
        v, trivial_character(v.group), 3).all_passed
    assert heisenberg.sf_commutator_check(1, 1, 3, 2).all_passed
    # the integer kernel of fock_mul: common denominators, truncation and a
    # cancelling product, whose zero coefficient is dropped
    g = symmetric(3)
    a, b = n_cycle_type(0, 1), n_cycle_type(1, 2)
    aa, ab, bb = a.union(a), a.union(b), b.union(b)
    u = sigma_rho(g, a) * Fraction(1, 3) + sigma_rho(g, b) * Fraction(2, 5)
    w = sigma_rho(g, b) * Fraction(5, 6) - sigma_rho(g, a)
    assert fock_mul(u, w).coeffs == {ab: Fraction(-11, 90),
                                     aa: Fraction(-1, 3), bb: Fraction(1, 3)}
    assert fock_mul(u, w, max_degree=3).coeffs == {ab: Fraction(-11, 90),
                                                   aa: Fraction(-1, 3)}
    half = fock_mul(sigma_rho(g, a) * Fraction(1, 2), sigma_rho(g, a) * 2)
    assert half.coeffs == {aa: 1} and type(half.coeffs[aa]) is int
    diff = fock_mul(sigma_rho(g, a) + sigma_rho(g, b),
                    sigma_rho(g, a) - sigma_rho(g, b))
    assert diff.coeffs == {aa: 1, bb: -1}


def integral_fractions(u: FockElement) -> list:
    return [x for x in u.coeffs.values()
            if type(x) is Fraction and x.denominator == 1]


@pytest.mark.parametrize("group", [sl2_f3(), symmetric(3)],
                         ids=lambda g: g.name)
def test_integral_lambda_coefficients_are_ints(group):
    """phi_n, omega_n, fock_exp, h_virtual and boxed_binomial hold an int
    wherever a coefficient is an integer, never a Fraction of denominator
    1, so later products take fock_mul's integer paths."""
    vs = lambda_ops._basis_and_combos(group)
    made = []
    for n in range(1, 5):
        made += [f(v, n) for f in (lambda_ops.phi_n, lambda_ops.omega_n)
                 for v in vs]
        made += [lambda_ops.boxed_binomial(v, w, n) for v in vs for w in vs]
        made += [lambda_ops.h_virtual([v], [w], n) for v in vs for w in vs]
        made += [lambda_ops.h_virtual([], [v], n) for v in vs]
        made += [fock_exp(sum((lambda_ops.omega_n(v, r) / (r + 1)
                               for r in range(1, n + 1)),
                              FockElement.zero(group)), n) for v in vs]
    assert not [bad for u in made if (bad := integral_fractions(u))]
    assert any(type(x) is int for u in made
               for rho, x in u.coeffs.items() if rho.degree)


def exp_term_by_term(u: FockElement, n: int) -> FockElement:
    """sum_k u^k / k! up to degree n, one power and one division at a
    time."""
    out = power = FockElement.unit(u.group)
    for k in range(1, n + 1):
        power = fock_mul(power, u, max_degree=n)
        out = out + power * Fraction(1, math.factorial(k))
    return out


def test_exp_matches_term_by_term_series():
    """One denominator for the whole series, or none with a Cyclotomic
    coefficient: the same element as the series summed term by term."""
    v, _, _ = z3_payload_data()
    g = v.group
    rational = (lambda_ops.omega_n(sigma_basis(g, 1), 1) * Fraction(2, 3)
                + lambda_ops.omega_n(sigma_basis(g, 2), 2) / 5)
    cyclotomic = lambda_ops.omega_n(v, 1) + lambda_ops.omega_n(v, 2) / 2
    assert any(isinstance(x, Cyclotomic) for x in cyclotomic.coeffs.values())
    for u in (rational, cyclotomic, rational + cyclotomic,
              FockElement.zero(g)):
        for n in range(5):
            assert fock_exp(u, n).equals(exp_term_by_term(u, n))


class TestFockElement:
    def test_exp(self):
        g = cyclic(2)
        u = sigma_r_c(g, 1, 0)
        e = fock_exp(u, 3)
        sq = fock_mul(sigma_r_c(g, 1, 0), sigma_r_c(g, 1, 0))
        assert e.component(0).value(EMPTY_TYPE) == 1
        assert e.component(1).equals(sigma_r_c(g, 1, 0))
        assert e.component(2).equals(sq * Fraction(1, 2))

    def test_exp_requires_positive_degrees(self):
        g = cyclic(2)
        with pytest.raises(FockError):
            fock_exp(FockElement.unit(g), 3)

    def test_degree_mismatch_guard(self):
        g, h = cyclic(2), cyclic(3)
        with pytest.raises(FockError):
            FockElement.unit(g) + FockElement.unit(h)

    def test_takes_over_a_map_without_zeros(self):
        """The element keeps the map it is given; a map with a zero is
        filtered into a new one and left as it was."""
        g = cyclic(2)
        a, b = sigma_r_c(g, 1, 0), sigma_r_c(g, 1, 1)
        full = {rho: 2 for rho in (a.coeffs | b.coeffs)}
        assert FockElement(g, full).coeffs is full
        with_zero = dict(full) | {EMPTY_TYPE: 0}
        before = dict(with_zero)
        u = FockElement(g, with_zero)
        assert with_zero == before and u.coeffs == full

    def test_sign_char_memo_hands_out_fresh_elements(self):
        """Changing a returned sign character leaves the memoized one
        alone."""
        g = symmetric(3)
        first = sign_char(g, 3)
        want = dict(first.coeffs)
        rho, tau = list(want)[:2]
        first.coeffs[rho] = Fraction(99)
        del first.coeffs[tau]
        assert sign_char(g, 3).coeffs == want


class TestGradedDim:
    def test_matches_euler_product(self):
        for g in (trivial_group(), cyclic(2), symmetric(3)):
            got = graded_dim(g, 6)
            want = euler_product(g.num_classes, 6)
            assert got == want


class TestVerify:
    @pytest.mark.parametrize("group,n", [(trivial_group(), 4),
                                         (cyclic(2), 4)])
    def test_hopf_verify(self, group, n):
        rep = hopf_verify(group, n)
        assert rep.all_passed, rep.to_json()

    def test_hopf_case_counts_are_pinned(self, monkeypatch):
        """The cases each check of hopf_verify(S3, 5) walks: the product
        row has 978 commutativity and 1,593 associativity cases."""
        counts = Counter()
        real_check = Report.check

        def counting_check(rep, name, cases, holds, witness=None):
            def counted():
                for case in cases:
                    counts[name] += 1
                    yield case
            return real_check(rep, name, counted(), holds, witness)

        monkeypatch.setattr(Report, "check", counting_check)
        assert hopf_verify(symmetric(3), 5).all_passed
        assert dict(counts) == {
            "product associative and commutative on basis": 2571,
            "unit axiom": 193,
            "coproduct coassociative on basis": 193,
            "counit axiom": 193,
            "coproduct is an algebra homomorphism": 978,
            "antipode axiom on basis": 193,
            "primitive space has dimension |G_*| per degree": 5,
            "coproduct matches element-level restriction oracle": 1364,
            "product matches induction oracle, degree 2 (full)": 9,
            "product matches induction oracle, degree 3 (full)": 54,
            "product matches induction oracle, degree 4 (sampled 5/51 "
            "types, 1/66,81,66 splits per cut, seed 0)": 3}
