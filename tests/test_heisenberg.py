"""Heisenberg operators on F_G and the super Fock space model."""
import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathfock import heisenberg
from wreathfock.fock import (FockElement, FockError, fock_comul, fock_mul,
                             graded_dim, sigma_r_c, sigma_rho)
from wreathfock.groups import (ClassFunction, DualFunctional, GroupError,
                               binary_dihedral, cyclic, sigma_basis,
                               symmetric, trivial_group)
from wreathfock.heisenberg import (HeisenbergError, SuperFockSpace, a_minus,
                                   a_minus_oracle, a_plus, commutator_check,
                                   heisenberg_verify, irreducibility_check,
                                   sf_commutator_check, vacuum)
from wreathfock.lambda_ops import omega_n
from wreathfock.linalg import matrix_rank
from wreathfock.report import Report
from wreathfock.scalars import Cyclotomic
from wreathfock.wreath import WreathType, enumerate_types, n_cycle_type


class TestCreation:
    def test_creation_on_vacuum(self):
        g = cyclic(3)
        for c in range(3):
            for m in (1, 2, 3):
                u = a_plus(m, sigma_basis(g, c))(vacuum(g))
                assert u.component(m).equals(sigma_r_c(g, m, c))

    def test_creation_concatenates_types(self):
        g = cyclic(2)
        u = a_plus(2, sigma_basis(g, 1))(sigma_r_c(g, 1, 0))
        target = WreathType.from_dict({0: (1,), 1: (2,)})
        assert u.component(3).equals(sigma_rho(g, target))


def test_basis_payload_weights_are_ints():
    """Basis-payload operators hold int weights: the omega_m coefficients
    zeta_c / zeta_c = 1 and the pairings m <delta_c, sigma_c> = m zeta_c."""
    for g in (cyclic(3), symmetric(3)):
        for c in range(g.num_classes):
            for m in (1, 2, 3):
                up = [x for _, x in a_plus(m, sigma_basis(g, c))._omega]
                down = [x for _, _, x in
                        a_minus(m, DualFunctional.delta(g, c))._form]
                assert up == [1] and down == [m * g.zeta(c)]
                assert all(type(x) is int for x in up + down)


class TestAnnihilation:
    def test_kills_vacuum(self):
        g = cyclic(2)
        u = a_minus(1, DualFunctional.delta(g, 0))(vacuum(g))
        assert u.equals(FockElement.zero(g))

    def test_single_mode(self):
        g = cyclic(2)
        # a_-m(delta_c) sigma_m(c') = m <delta_c, sigma_c'> |0> = m zeta_c
        for c in range(2):
            for cp in range(2):
                for m in (1, 2):
                    u = a_minus(m, DualFunctional.delta(g, c))(
                        sigma_r_c(g, m, cp))
                    want = FockElement.unit(g) * \
                        (Fraction(m * g.zeta(c)) if c == cp else Fraction(0))
                    assert u.equals(want)

    def test_multiplicity(self):
        g = cyclic(2)
        rho = WreathType.from_dict({0: (1, 1)})
        u = a_minus(1, DualFunctional.delta(g, 0))(sigma_rho(g, rho))
        # two removable 1-parts at c=0, each with weight 1 * zeta_0 = 2
        assert u.component(1).equals(sigma_r_c(g, 1, 0) * Fraction(4))

    def test_matches_oracle(self):
        g = symmetric(3)
        rhos = [WreathType.from_dict({0: (2, 1)}),
                WreathType.from_dict({1: (1, 1), 2: (1,)}),
                WreathType.from_dict({0: (1,), 1: (2,)})]
        for rho in rhos:
            f = sigma_rho(g, rho)
            for m in (1, 2):
                for c in range(g.num_classes):
                    eta = DualFunctional.delta(g, c)
                    got = a_minus(m, eta)(f)
                    want = a_minus_oracle(m, eta, f)
                    assert got.component(rho.degree - m).equals(want)


class TestGroupMismatch:
    # Z3 and S3 both have three classes, so only the group check can tell
    # an operator on one from a vector on the other.
    def test_annihilation_rejects_other_group(self):
        op = a_minus(1, DualFunctional.delta(cyclic(3), 0))
        with pytest.raises(GroupError):
            op(vacuum(symmetric(3)))

    def test_creation_rejects_other_group(self):
        op = a_plus(1, sigma_basis(cyclic(3), 0))
        with pytest.raises(GroupError):
            op(vacuum(symmetric(3)))


def z3_payload_data():
    """Z3 with V the character k -> w^k and eta with w coefficients, so the
    operator data is not rational; basis is sigma^rho up to degree 3."""
    g = cyclic(3)
    w = Cyclotomic.root(3)
    v = ClassFunction(g, (Fraction(1), w, w * w))
    eta = DualFunctional(g, (w, Fraction(2), w * w - w))
    basis = [sigma_rho(g, rho)
             for n in range(4) for rho in enumerate_types(g, n)]
    return v, eta, basis


@pytest.fixture
def z3_payloads():
    return z3_payload_data()


def z3_commutators() -> Report:
    """Eq. (24) on the Z3 payloads, for modes 1..3: every operator datum
    and the pairing <eta, V> lie in Q(w)."""
    v, eta, basis = z3_payload_data()
    pairing = eta.pair(v)
    ops = [(m, l, a_minus(m, eta), a_plus(l, v))
           for m in (1, 2, 3) for l in (1, 2, 3)]
    rep = Report("z3_commutators")
    rep.check("[a_-m(eta), a_l(V)] = l delta_ml <eta, V>",
              ((m, l, down, up, u) for m, l, down, up in ops for u in basis),
              lambda m, l, down, up, u: (down(up(u)) - up(down(u))).equals(
                  u * (pairing * (l if m == l else 0))),
              lambda m, l, down, up, u: f"m={m}, l={l}, {u!r}")
    return rep


class TestCyclotomicPayloads:
    def test_annihilation_matches_oracle(self, z3_payloads):
        _, eta, basis = z3_payloads
        for m in (1, 2, 3):
            op = a_minus(m, eta)
            for u in basis:
                n = u.degree
                if n >= m:
                    got = op(u).component(n - m)
                    assert got.equals(a_minus_oracle(m, eta, u))

    def test_creation_is_multiplication_by_omega(self, z3_payloads):
        v, _, basis = z3_payloads
        for m in (1, 2, 3):
            op = a_plus(m, v)
            omega = omega_n(v, m)
            for u in basis:
                assert op(u).equals(fock_mul(u, omega))

    def test_commutator(self, z3_payloads):
        v, eta, _ = z3_payloads
        assert isinstance(eta.pair(v), Cyclotomic)  # never a rational
        rep = z3_commutators()
        assert rep.all_passed, rep.to_table()


def a_minus_oracle_by_value_calls(m: int, eta: DualFunctional,
                                  f: FockElement) -> FockElement:
    """The evaluation oracle with one `f.value` call per (alpha, c): value
    at alpha is sum_c eta_c f(alpha u (m-cycle at c))."""
    g = f.group
    out = {}
    for n in {rho.degree for rho in f.coeffs}:
        if n < m:
            continue
        for alpha in enumerate_types(g, n - m):
            out[alpha] = sum((eta.coeffs[c]
                              * f.value(alpha.union(n_cycle_type(c, m)))
                              for c in range(g.num_classes)), 0)
    return FockElement.from_values(g, out)


def a_minus_oracle_full_sweep(m: int, eta: DualFunctional,
                              f: FockElement) -> FockElement:
    """The evaluation oracle over every alpha of degree n - m, per degree
    n >= m of f, reading a table of the values of f on its support."""
    g = f.group
    values = {rho: f.value(rho) for rho in f.coeffs}
    cycles = [(x, n_cycle_type(c, m)) for c, x in enumerate(eta.coeffs) if x]
    out = {}
    for n in {rho.degree for rho in values}:
        if n < m:
            continue
        for alpha in enumerate_types(g, n - m):
            unions = alpha.unions
            v = sum((x * values.get(unions[cyc], 0) for x, cyc in cycles), 0)
            if v:
                out[alpha] = v
    return FockElement.from_values(g, out)


def refuse(*args, **kwargs):
    raise AssertionError("the oracle must not call this")


class TestOracleValueTable:
    @pytest.mark.parametrize("group", [symmetric(3), cyclic(3),
                                       binary_dihedral(2)],
                             ids=["S3", "Z3", "Q8"])
    def test_matches_one_value_call_per_term(self, group, monkeypatch):
        """On multi-term elements of mixed degree <= 4 with int, Fraction
        and Cyclotomic coefficients, and on 0, for modes m <= 3 and
        functionals with zero, irrational and several nonzero coefficients,
        the oracle's preimage tables give what a sweep over every alpha
        gives, with a value table and with one read of f per (alpha, c),
        and neither the derivation, nor an operator, nor a part removal is
        asked."""
        g, w = group, Cyclotomic.root(3)
        rng = random.Random(5)
        types = [rho for n in range(5) for rho in enumerate_types(g, n)]
        makers = [lambda: rng.randint(-3, 3),      # int, Fraction, Cyclotomic
                  lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                  lambda: rng.randint(1, 3) * w + rng.randint(-2, 2)]
        elements = [FockElement.zero(g)] + [
            FockElement(g, {rho: make() for rho in rng.sample(types, 8)})
            for make in makers for _ in range(3)] + [
            FockElement(g, {rho: rng.choice(makers)()
                            for rho in rng.sample(types, 8)})
            for _ in range(3)]
        etas = [DualFunctional.delta(g, c) for c in range(g.num_classes)] + [
            DualFunctional(g, tuple(rng.choice((0, Fraction(1, 2), w, -2))
                                    for _ in range(g.num_classes))),
            DualFunctional(g, tuple(w + c for c in range(g.num_classes)))]
        monkeypatch.setattr(heisenberg, "_annihilate", refuse)
        monkeypatch.setattr(heisenberg.HeisenbergOp, "apply", refuse)
        monkeypatch.setattr(WreathType, "remove_part", refuse)
        for f in elements:
            assert not f.coeffs or len({rho.degree for rho in f.coeffs}) > 1
            for m in (1, 2, 3):
                for eta in etas:
                    want = a_minus_oracle_full_sweep(m, eta, f)
                    assert a_minus_oracle(m, eta, f).equals(want)
                    assert want.equals(
                        a_minus_oracle_by_value_calls(m, eta, f))


def per_vector_bracket_is(space, a, b, i, x, u) -> bool:
    """The bracket checked one basis vector at a time, with FockElement
    images: whether [a, b] u = x u, u the i-th basis vector, by comparing
    a(b u) with b(a u), negated for two odd labels, plus x u; where b u or
    a u is 0, that side is 0."""
    (op1, c1, img1), (op2, c2, img2) = a, b
    first = op1(img2[i]).coeffs if img2[i].coeffs else {}
    need = op2(img1[i]).coeffs if img1[i].coeffs else {}
    if min(c1, c2) >= space.odd:
        need = {k: -v for k, v in need.items()}
    if x:
        need = dict(need)
        for k, v in u.coeffs.items():
            need[k] = need.get(k, 0) + v * x
        need = {k: v for k, v in need.items() if v}
    return first == need


def bracket_tables(space, max_degree, modes, vees, etas):
    """The basis to max_degree and one entry (operator, label, images) per
    creation a_m(vees[c]) and annihilation a_-m(etas[c]): the batched
    check's, whose images are coefficient maps, and the per-vector
    check's, whose images are FockElements."""
    basis = [FockElement(space, {rho: 1}) for n in range(max_degree + 1)
             for rho in enumerate_types(space, n)]
    batched = [entry for make, payloads in ((a_plus, vees), (a_minus, etas))
               for entry in heisenberg._image_table(
                   modes, basis, make, payloads).values()]
    per_vector = [(op, c, [op(u) for u in basis]) for op, c, _ in batched]
    return basis, batched, per_vector


def bracket_value(space, a, b):
    """The scalar that [a, b] is: l <eta, V> for [a_-m(eta), a_l(V)] at
    m = l, the same for the other order where both labels are odd (an
    anticommutator), its negative where not; 0 between like operators."""
    (op1, c1, _), (op2, c2, _) = a, b
    if op1.sign == op2.sign or op1.mode != op2.mode:
        return 0
    down, up = (op1, op2) if op1.sign == -1 else (op2, op1)
    x = down.payload.pair(up.payload) * up.mode
    return x if op1.sign == -1 or min(c1, c2) >= space.odd else -x


def bracket_spaces():
    """S3 (N=3, M=2), the Z3 payloads (N=3, M=3) and the (1|1) model
    (N=4, M=2), with the basis payloads at every label."""
    g, sup = symmetric(3), SuperFockSpace(1, 1)
    v, eta, _ = z3_payload_data()
    return {
        "S3": (g, 3, range(1, 3),
               [sigma_basis(g, c) for c in range(3)],
               [DualFunctional.delta(g, c) for c in range(3)]),
        "Z3-payloads": (v.group, 3, range(1, 4), [v], [eta]),
        "(1|1)": (sup, 4, range(1, 3),
                  [sigma_basis(sup, c) for c in range(2)],
                  [DualFunctional.delta(sup, c) for c in range(2)])}


class TestBatchedBracket:
    @pytest.mark.parametrize("name", ["S3", "Z3-payloads", "(1|1)"])
    def test_matches_the_per_vector_check(self, name):
        """For every ordered pair of operators and for x = 0, 1 and the
        bracket's value, one list comparison over the basis gives what
        the per-vector check gives on all basis vectors."""
        space, n, modes, vees, etas = bracket_spaces()[name]
        basis, batched, per_vector = bracket_tables(space, n, modes, vees,
                                                    etas)
        verdicts = Counter()
        for a, pa in zip(batched, per_vector):
            for b, pb in zip(batched, per_vector):
                for x in (0, 1, bracket_value(space, a, b)):
                    want = all(per_vector_bracket_is(space, pa, pb, i, x, u)
                               for i, u in enumerate(basis))
                    got = heisenberg._bracket_is(space.odd, basis, a, b, x)
                    assert got is want, (a[:2], b[:2], x)
                    verdicts[got] += 1
        assert verdicts[True] and verdicts[False]

    @pytest.mark.parametrize("name", ["S3", "(1|1)"])
    def test_planted_wrong_image_is_reported(self, name):
        """An image wrong only at a middle basis index fails a bracket that
        holds, on either side: planted in the images of b, which the even
        creation a maps, or in the images of a, which the even creation b
        maps.  The per-vector check fails at that index alone."""
        space, n, modes, vees, etas = bracket_spaces()[name]
        basis, batched, per_vector = bracket_tables(space, n, modes, vees,
                                                    etas)
        mid = len(basis) // 2
        (rho,) = basis[mid].coeffs
        up_1, up_2 = 0, len(vees)          # a_1 and a_2 at label 0, even
        down_1 = len(modes) * len(vees)    # a_-1 at label 0
        for i, j, planted in ((up_2, up_1, 1), (down_1, up_1, 0)):
            ab, pab = [batched[i], batched[j]], [per_vector[i], per_vector[j]]
            x = bracket_value(space, *ab)
            assert heisenberg._bracket_is(space.odd, basis, *ab, x)
            op, c, images = ab[planted]
            wrong = dict(images[mid])
            wrong[rho] = wrong.get(rho, 0) + 1
            ab[planted] = (op, c, images[:mid] + [wrong] + images[mid + 1:])
            pab[planted] = (op, c, [FockElement(space, w)
                                    for w in ab[planted][2]])
            assert not heisenberg._bracket_is(space.odd, basis, *ab, x)
            assert [k for k, u in enumerate(basis)
                    if not per_vector_bracket_is(space, *pab, k, x, u)] \
                == [mid]


class TestRelations:
    @pytest.mark.parametrize("group", [cyclic(2), symmetric(3)])
    def test_commutators(self, group):
        assert commutator_check(group, 3, 2).all_passed

    def test_operator_data_does_not_grow_with_basis(self, monkeypatch):
        calls = {"pair": 0, "omega_n": 0}
        pair, omega = DualFunctional.pair, heisenberg.omega_n

        def counting_pair(self, v):
            calls["pair"] += 1
            return pair(self, v)

        def counting_omega(v, n):
            calls["omega_n"] += 1
            return omega(v, n)

        monkeypatch.setattr(DualFunctional, "pair", counting_pair)
        monkeypatch.setattr(heisenberg, "omega_n", counting_omega)
        counts = []
        for n in (2, 3):
            calls.update(pair=0, omega_n=0)
            assert commutator_check(cyclic(2), n, 2).all_passed
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["pair"] > 0 and counts[0]["omega_n"] > 0

    def test_irreducibility(self):
        assert irreducibility_check(cyclic(2), 2)
        assert irreducibility_check(symmetric(3), 3)

    @pytest.mark.parametrize("group", [cyclic(2), cyclic(3), symmetric(3)])
    def test_vacuum_cyclic_by_rank(self, group):
        """Oracle: the creation monomials applied to the vacuum have full
        rank in each degree, read off their values."""
        g = group
        assert irreducibility_check(g, 4)
        for n in range(5):
            types_n = enumerate_types(g, n)
            rows = []
            for rho in types_n:
                vec = vacuum(g)
                for c, lam in rho.parts:
                    for r in lam:
                        vec = a_plus(r, sigma_basis(g, c))(vec)
                rows.append([vec.value(tau) for tau in types_n])
            assert matrix_rank(rows) == len(types_n)

    def test_heisenberg_verify(self):
        rep = heisenberg_verify(cyclic(2), 3, 2)
        assert rep.all_passed, rep.to_json()


class TestSuperFock:
    def test_odd_square_is_zero(self):
        space = SuperFockSpace(0, 1)
        op = a_plus(1, sigma_basis(space, 0))
        assert op(op(vacuum(space))).equals(FockElement.zero(space))

    def test_odd_anticommutator(self):
        space = SuperFockSpace(0, 1)
        for m in (1, 2, 3):
            up = a_plus(m, sigma_basis(space, 0))
            dn = a_minus(m, DualFunctional.delta(space, 0))
            u = vacuum(space)
            got = dn(up(u)) + up(dn(u))
            assert got.equals(u * Fraction(m))

    def test_distinct_part_dimensions(self):
        space = SuperFockSpace(0, 1)
        dims = [len(enumerate_types(space, n)) for n in range(7)]
        assert dims == [1, 1, 1, 2, 2, 3, 4]

    def test_pure_even_matches_fock(self):
        space = SuperFockSpace(1, 0)
        got = [len(enumerate_types(space, n)) for n in range(6)]
        want = graded_dim(trivial_group(), 5)
        assert got == want

    def test_bad_generator(self):
        """A payload needs one entry per label, and a mode >= 1."""
        space = SuperFockSpace(1, 1)
        with pytest.raises(GroupError):
            a_plus(1, ClassFunction(space, (1,)))
        with pytest.raises(GroupError):
            a_minus(1, DualFunctional(space, (0, 0, 1)))
        with pytest.raises(HeisenbergError):
            a_plus(0, sigma_basis(space, 0))

    def test_operator_refuses_a_foreign_space(self):
        """An operator on the (2|0) space does not act on a (1|1) vector,
        although both have two labels; its repr names its space."""
        op = a_plus(1, sigma_basis(SuperFockSpace(2, 0), 1))
        with pytest.raises(GroupError):
            op(vacuum(SuperFockSpace(1, 1)))
        assert "ClassFunction((2|0), [0, 1])" in repr(op)

    def test_equal_spaces_are_one_space(self):
        """SuperFockSpace(d0, d1) is interned: vectors built from two calls
        add and compare as vectors of one space."""
        space = SuperFockSpace(1, 1)
        assert space is SuperFockSpace(1, 1) is SuperFockSpace(d0=1, d1=1)
        assert space is not SuperFockSpace(2, 0)
        assert copy.deepcopy(space) is space
        assert pickle.loads(pickle.dumps(space)) is space
        u = FockElement.unit(SuperFockSpace(1, 1))
        total = u + FockElement.unit(SuperFockSpace(1, 1))
        assert total.equals(u * 2)
        assert u.equals(FockElement.unit(SuperFockSpace(1, 1)))

    @pytest.mark.parametrize("d0,d1", [(-1, 2), (2, -1), (0, -1), (-1, 0)])
    def test_negative_dimensions_refused(self, d0, d1):
        """A negative dimension is refused when the space is built, not
        deep inside the type machinery."""
        with pytest.raises(HeisenbergError):
            SuperFockSpace(d0, d1)
        with pytest.raises(HeisenbergError):
            sf_commutator_check(d0, d1, 3, 2)

    @pytest.mark.parametrize("check", [
        lambda: commutator_check(cyclic(2), 3, 0),
        lambda: commutator_check(cyclic(2), -1, 2),
        lambda: sf_commutator_check(0, 0, 3, 2),
        lambda: sf_commutator_check(1, 1, 3, 0),
        lambda: sf_commutator_check(1, 1, -1, 2),
        lambda: irreducibility_check(cyclic(2), -1),
        lambda: irreducibility_check(SuperFockSpace(1, 1), -1),
    ], ids=["no-modes", "negative-degree", "no-labels", "super-no-modes",
            "super-negative-degree", "irreducibility-negative-degree",
            "super-irreducibility-negative-degree"])
    def test_vacuous_checks_refused(self, check):
        """A relation check with no mode, no degree or no label would pass
        every row with zero cases; it is refused instead."""
        with pytest.raises(HeisenbergError):
            check()

    @pytest.mark.parametrize("d0,d1", [(0, 1), (1, 1), (2, 2), (0, 3)])
    def test_vacuum_is_cyclic(self, d0, d1):
        """The creation monomials on the vacuum give each basis vector
        sigma^rho, with sign +1, up to degree 5."""
        assert irreducibility_check(SuperFockSpace(d0, d1), 5)

    @pytest.mark.parametrize("d0,d1", [(1, 0), (0, 1), (1, 1), (2, 1)])
    def test_value_api_uses_unit_weights(self, d0, d1):
        """On super vectors, value, from_values and inner read
        Z_rho = prod_c z_rho(c), every label of weight 1."""
        space = SuperFockSpace(d0, d1)
        for n in range(5):
            types = enumerate_types(space, n)
            for rho in types:
                z = prod(r ** m * factorial(m) for _, lam in rho.parts
                         for r, m in Counter(lam).items())
                u = FockElement(space, {rho: 3})
                assert u.value(rho) == 3 * z
                back = FockElement.from_values(space, {rho: 3 * z})
                assert back.equals(u) and back.value(rho) == 3 * z
                for tau in types:
                    got = FockElement(space, {rho: 1}).inner(
                        FockElement(space, {tau: 1}))
                    assert got == (z if tau is rho else 0)

    def test_even_line_has_the_trivial_group_weights(self):
        """SuperFockSpace(1, 0) and F_G for the trivial group have the
        same types and the same Z_rho."""
        space, g = SuperFockSpace(1, 0), trivial_group()
        for n in range(6):
            types = enumerate_types(space, n)
            assert types == enumerate_types(g, n)
            for rho in types:
                u = FockElement(space, {rho: Fraction(1, 2)})
                want = Fraction(sigma_rho(g, rho).value(rho), 2)
                assert u.value(rho) == want

    def test_sf_commutator_check(self):
        assert sf_commutator_check(1, 1, 4, 2).all_passed
        assert sf_commutator_check(2, 2, 3, 2).all_passed


# -- Koszul-sign oracle: words of generators, sorted by bubble sort ---------

def _word_product(space, word):
    """The product of the word's generators (mode, label), left to right,
    as a vector: bubble-sort into canonical order (labels ascending, modes
    descending), one sign per swap of two odd generators; 0 when an odd
    generator repeats."""
    odd = space.d0
    if any(c >= odd and word.count((m, c)) > 1 for m, c in word):
        return FockElement.zero(space)
    w, sign = list(word), 1
    for end in range(len(w) - 1, 0, -1):
        for j in range(end):
            (m1, c1), (m2, c2) = w[j], w[j + 1]
            if (c1, -m1) > (c2, -m2):
                w[j], w[j + 1] = w[j + 1], w[j]
                if c1 >= odd and c2 >= odd:
                    sign = -sign
    parts = {}
    for m, c in w:
        parts.setdefault(c, []).append(m)
    rho = WreathType.from_dict({c: tuple(ms) for c, ms in parts.items()})
    return FockElement(space, {rho: Fraction(sign)})


@st.composite
def super_words(draw):
    d0, d1 = draw(st.sampled_from(
        [(d0, d1) for d0 in range(3) for d1 in range(3) if d0 + d1]))
    space = SuperFockSpace(d0, d1)
    step = st.tuples(st.integers(1, 3), st.integers(0, d0 + d1 - 1))
    return space, draw(st.lists(step, max_size=6)), draw(step)


class TestKoszulOracle:
    @settings(max_examples=200, deadline=None)
    @given(super_words())
    def test_creation_word_on_vacuum(self, case):
        """a(p_k) ... a(p_1) |0> is the product p_k ... p_1."""
        space, word, _ = case
        u = vacuum(space)
        for m, c in word:
            u = a_plus(m, sigma_basis(space, c))(u)
        assert u.equals(_word_product(space, word[::-1]))

    @settings(max_examples=200, deadline=None)
    @given(super_words())
    def test_annihilation_removes_one_generator(self, case):
        """a_-m(w) on the product p_1 ... p_k is m times the sum over the
        positions j with p_j = (m, w) of the product without p_j, signed
        by the odd generators before p_j when w is odd."""
        space, product, (m, c) = case
        want = FockElement.zero(space)
        odd_before = 0
        for j, p in enumerate(product):
            if p == (m, c):
                sign = -1 if c >= space.d0 and odd_before % 2 else 1
                rest = _word_product(space, product[:j] + product[j + 1:])
                want = want + rest * Fraction(m * sign)
            odd_before += p[1] >= space.d0
        eta = DualFunctional.delta(space, c)
        got = a_minus(m, eta)(_word_product(space, product))
        assert got.equals(want)


# -- the supersymmetric product, against the word oracle ---------------------

SUPER_SPACES = [(1, 1), (2, 2), (0, 3)]
SUPER_DEGREE = 4


def _word(rho):
    """The generators (mode, label) of sigma^rho in canonical order."""
    return [(r, c) for c, lam in rho.parts for r in lam]


def _parity(rho, space):
    """The number of odd generators of sigma^rho, mod 2."""
    return sum(len(lam) for c, lam in rho.parts if c >= space.d0) % 2


def _monomials(space, max_degree):
    return [FockElement(space, {rho: 1}) for n in range(max_degree + 1)
            for rho in enumerate_types(space, n)]


@pytest.fixture(params=SUPER_SPACES, ids=lambda d: f"{d[0]}|{d[1]}")
def super_space(request):
    return SuperFockSpace(*request.param)


class TestSuperProduct:
    """fock_mul on the super model is the product of words of generators:
    bubble-sorting the concatenated words counts the inversions of their
    odd generators, which is the Koszul sign (`_word_product`)."""

    def test_product_is_the_sorted_word(self, super_space):
        space = super_space
        basis = _monomials(space, SUPER_DEGREE)
        for u in basis:
            (rho,), n = u.coeffs, u.degree
            for v in basis:
                (tau,), k = v.coeffs, v.degree
                if n + k > SUPER_DEGREE:
                    continue
                got = fock_mul(u, v)
                assert got.equals(
                    _word_product(space, _word(rho) + _word(tau))), (rho, tau)
                assert set(got.coeffs) <= set(enumerate_types(space, n + k))

    def test_graded_commutative(self, super_space):
        space = super_space
        basis = _monomials(space, SUPER_DEGREE)
        for u in basis:
            (rho,) = u.coeffs
            for v in basis:
                (tau,) = v.coeffs
                if u.degree + v.degree <= SUPER_DEGREE:
                    sign = -1 if _parity(rho, space) * _parity(tau, space) \
                        else 1
                    assert fock_mul(u, v).equals(fock_mul(v, u) * sign)

    def test_associative(self, super_space):
        space = super_space
        basis = _monomials(space, SUPER_DEGREE)
        for u in basis:
            for v in basis:
                rest = SUPER_DEGREE - u.degree - v.degree
                if rest < 0:
                    continue
                uv = fock_mul(u, v)
                for w in basis:
                    if w.degree <= rest:
                        assert fock_mul(uv, w).equals(
                            fock_mul(u, fock_mul(v, w)))

    def test_bilinear_on_rational_sums(self, super_space):
        """Sums with Fraction coefficients go through the integer
        numerators and one division: the product of sums is the sum of the
        monomial products."""
        space = super_space
        basis = _monomials(space, 2)
        x = sum((u * Fraction(i + 1, 2) for i, u in enumerate(basis)),
                FockElement.zero(space))
        y = sum((u * Fraction(1, 3 - i % 2) * (-1) ** i
                 for i, u in enumerate(basis)), FockElement.zero(space))
        want = FockElement.zero(space)
        for rho, a in x.coeffs.items():
            for tau, b in y.coeffs.items():
                want = want + fock_mul(FockElement(space, {rho: 1}),
                                       FockElement(space, {tau: 1})) * (a * b)
        assert fock_mul(x, y).equals(want)

    def test_repeated_odd_part_is_zero(self):
        space = SuperFockSpace(1, 1)
        odd = FockElement(space, {WreathType.from_dict({1: (1,)}): 1})
        assert fock_mul(odd, odd).equals(FockElement.zero(space))
        line = SuperFockSpace(0, 1)
        s21 = WreathType.from_dict({0: (2, 1)})
        omega = omega_n(sigma_basis(line, 0), 1)
        got = fock_mul(omega, FockElement(line, {s21: 1}))
        assert got.equals(FockElement.zero(line))

    def test_odd_generators_anticommute(self):
        """On (0|1): sigma_1 sigma_2 = -sigma^[2,1] = -sigma_2 sigma_1, as
        a_1(sigma) gives on sigma_2."""
        line = SuperFockSpace(0, 1)
        s1, s2 = (FockElement(line, {WreathType.from_dict({0: (r,)}): 1})
                  for r in (1, 2))
        s21 = FockElement(line, {WreathType.from_dict({0: (2, 1)}): 1})
        assert fock_mul(s1, s2).equals(s21 * -1)
        assert fock_mul(s2, s1).equals(s21)
        assert a_plus(1, sigma_basis(line, 0))(s2).equals(s21 * -1)

    def test_creation_is_multiplication_by_omega(self, super_space):
        """a_m(V) u = omega_m(V) u, for each basis payload and a payload
        with a rational value at every label."""
        space = super_space
        labels = range(space.d0 + space.d1)
        payloads = [sigma_basis(space, c) for c in labels] + [ClassFunction(
            space, tuple(Fraction(c + 1, 2) * (-1) ** c for c in labels))]
        basis = _monomials(space, SUPER_DEGREE)
        for v in payloads:
            for m in (1, 2, 3):
                op, omega = a_plus(m, v), omega_n(v, m)
                for u in basis:
                    assert op(u).equals(fock_mul(omega, u))

    def test_comul_refuses_odd_labels(self):
        """The coproduct splits sigma^rho unsigned, which is right only
        without odd labels; an even super space still splits as F_G of
        the trivial group does."""
        s21 = WreathType.from_dict({0: (2, 1)})
        with pytest.raises(FockError):
            fock_comul(FockElement(SuperFockSpace(0, 1), {s21: 1}))
        even, g = SuperFockSpace(1, 0), trivial_group()
        for rho in enumerate_types(g, 4):
            assert fock_comul(FockElement(even, {rho: 1})) == \
                fock_comul(sigma_rho(g, rho))
