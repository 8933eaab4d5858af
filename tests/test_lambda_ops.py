"""Lambda operations: outer powers, phi/ch/omega/psi, generating series."""
import itertools
import random
from fractions import Fraction

import pytest

from wreath_oracle import enumerate_wreath_elements, type_of
from wreathfock.groups import (ClassFunction, cyclic, sigma_basis, symmetric,
                               trivial_character)
from wreathfock.lambda_ops import (E_series, H_series, _alternate_signs,
                                   additivity_check,
                                   boxed_binomial, boxtimes_power, ch_n,
                                   free_lambda_basis_check,
                                   h_e_identities, h_virtual, lambda_n,
                                   lambda_verify, omega_n, phi_n,
                                   prop_41_status, psi_classical,
                                   psi_composite)
from wreathfock.fock import FockElement, fock_mul, sigma_r_c, trivial_char
from wreathfock.linalg import matrix_rank
from wreathfock.scalars import Cyclotomic
from wreathfock.wreath import WreathType, enumerate_types


def regular_representation(group):
    """Left-regular permutation matrices, for the trace oracle."""
    out = {}
    n = group.order
    for g in range(n):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            rows[group.mul(g, j)][j] = Fraction(1)
        out[g] = tuple(tuple(r) for r in rows)
    return out


def tensor_trace(rep, gs, perm):
    """Trace of (g; s) acting on the n-fold tensor power by
    (x_1 .. x_n) -> (g_1 x_{s^-1(1)}, ...), computed entrywise on the
    full tensor basis (no cycle-product shortcut)."""
    n = len(gs)
    d = len(rep[0])
    sinv = [0] * n
    for i, v in enumerate(perm):
        sinv[v] = i
    total = Fraction(0)
    for idx in itertools.product(range(d), repeat=n):
        term = Fraction(1)
        for i in range(n):
            term *= rep[gs[i]][idx[i]][idx[sinv[i]]]
            if term == 0:
                break
        total += term
    return total


class TestOuterPower:
    def test_trivial_power_is_trivial(self):
        for g in (cyclic(3), symmetric(3)):
            for n in range(4):
                assert boxtimes_power(trivial_character(g), n).equals(
                    trivial_char(g, n))

    def test_sign_rep_trace_oracle(self):
        g = cyclic(2)
        sign_rep = {0: ((Fraction(1),),), 1: ((Fraction(-1),),)}
        sign_cf = ClassFunction.from_rationals(g, [1, -1])
        for n in (1, 2, 3):
            f = boxtimes_power(sign_cf, n)
            for a in enumerate_wreath_elements(g, n):
                assert f.value(type_of(g, a)) == \
                    tensor_trace(sign_rep, a.gs, a.perm)

    def test_regular_rep_trace_oracle(self):
        g = symmetric(3)
        rep = regular_representation(g)
        reg_cf = ClassFunction.from_rationals(
            g, [g.order if c == 0 else 0 for c in range(g.num_classes)])
        f = boxtimes_power(reg_cf, 2)
        rng = random.Random(3)
        elems = enumerate_wreath_elements(g, 2)
        for a in rng.sample(elems, 12):
            assert f.value(type_of(g, a)) == tensor_trace(rep, a.gs, a.perm)

    def test_memo_hands_out_fresh_elements(self):
        """Changing a returned outer power leaves the memoized one alone."""
        v = sigma_basis(symmetric(3), 1)
        first = boxtimes_power(v, 3)
        want = dict(first.coeffs)
        rho, tau = list(want)[:2]
        first.coeffs[rho] = Fraction(99)
        del first.coeffs[tau]
        assert boxtimes_power(v, 3).coeffs == want

    def test_irrational_values_are_built_uncached(self):
        """A V with cyclotomic values is unhashable; its outer powers are
        still the products of V(c) over the cycles."""
        g = cyclic(3)
        w = Cyclotomic.root(3)
        v = ClassFunction(g, (Fraction(1), w, w * w))
        for n in range(4):
            f = boxtimes_power(v, n)
            for rho in enumerate_types(g, n):
                want = Fraction(1)
                for c, lam in rho.parts:
                    want = want * v.value(c) ** len(lam)
                assert f.value(rho) == want


class TestPhiChOmega:
    def test_phi_matches_omega(self):
        for g in (cyclic(3), symmetric(3)):
            for c in range(g.num_classes):
                v = sigma_basis(g, c)
                for n in (1, 2, 3):
                    assert phi_n(v, n).equals(omega_n(v, n))

    def test_phi_of_sigma_is_sigma_n(self):
        g = cyclic(3)
        for c in range(3):
            for n in (1, 2, 3):
                assert phi_n(sigma_basis(g, c), n).equals(sigma_r_c(g, n, c))

    def test_ch_inverts_omega(self):
        g = symmetric(3)
        v = ClassFunction.from_rationals(g, [1, -2, 3])
        for n in (1, 2, 3):
            assert ch_n(omega_n(v, n), n).equals(v * Fraction(n))

    def test_psi_candidates(self):
        g = cyclic(2)
        sign = ClassFunction.from_rationals(g, [1, -1])
        assert psi_classical(sign, 2).equals(trivial_character(g))
        assert psi_composite(sign, 2).equals(sign * Fraction(2))

    def test_prop_41_status(self):
        status = prop_41_status(cyclic(2), 2)
        assert status["ch_n(omega_n(V)) = n V"]
        assert status["omega_n(psi^n(V)) = n phi^n(V) [composite]"]
        assert not status["omega_n(psi^n(V)) = n phi^n(V) [classical]"]


class TestLambdaSeries:
    def test_lambda2_of_trivial(self):
        g = cyclic(2)
        f = lambda_n(trivial_character(g), 2)
        assert f.value(WreathType.from_dict({0: (2,)})) == -1
        assert f.value(WreathType.from_dict({0: (1, 1)})) == 1

    def test_eq21_exponential_form(self):
        for g in (cyclic(2), symmetric(3)):
            for c in range(g.num_classes):
                v = sigma_basis(g, c)
                assert H_series(v, 3).equals(h_virtual([v], [], 3))
                e_minus_q = _alternate_signs(E_series(v, 3))
                assert e_minus_q.equals(h_virtual([], [v], 3))

    def test_h_times_e_minus_is_one(self):
        g = cyclic(3)
        v = sigma_basis(g, 1)
        e_minus_q = _alternate_signs(E_series(v, 4))
        prod = fock_mul(H_series(v, 4), e_minus_q, max_degree=4)
        assert prod.equals(FockElement.unit(g))

    def test_boxed_binomial_additivity(self):
        g = cyclic(2)
        v = sigma_basis(g, 0)
        w = sigma_basis(g, 1)
        for n in (1, 2, 3):
            assert additivity_check(v, w, n)
        assert boxed_binomial(v, w, 2).equals(
            h_virtual([v], [w], 2).component(2))

    def test_h_e_identities_report(self):
        g = symmetric(3)
        rep = h_e_identities(sigma_basis(g, 1), sigma_basis(g, 2), 3)
        assert rep.all_passed


class TestStructure:
    def test_free_basis(self):
        assert free_lambda_basis_check(cyclic(2), 3)
        assert free_lambda_basis_check(symmetric(3), 2)

    @pytest.mark.parametrize("group", [cyclic(3), symmetric(3)])
    def test_free_basis_by_rank(self, group):
        """Oracle: the phi-products of each degree have full rank, read off
        their values."""
        g = group
        for n in range(1, 5):
            assert free_lambda_basis_check(g, n)
            types_n = enumerate_types(g, n)
            rows = []
            for rho in types_n:
                prod = FockElement.unit(g)
                for c, lam in rho.parts:
                    for r in lam:
                        prod = fock_mul(prod, phi_n(sigma_basis(g, c), r))
                rows.append([prod.value(tau) for tau in types_n])
            assert matrix_rank(rows) == len(types_n)

    @pytest.mark.parametrize("group,n", [(cyclic(2), 3), (symmetric(3), 2)])
    def test_lambda_verify(self, group, n):
        rep = lambda_verify(group, n)
        assert rep.all_passed, rep.to_json()
