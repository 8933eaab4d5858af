"""Wreath layer: the (g; s) oracle, types, Z_rho, sigma basis."""
import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_oracle import (WreathElement, cycle_products,
                           enumerate_wreath_elements, identity, perm_of,
                           perm_sign, representative, type_of as oracle_type,
                           wreath_cayley_group, wreath_conj, wreath_inv,
                           wreath_mul)
from wreathfock.fock import (FockElement, hopf_verify, sigma_r_c, sigma_rho,
                             sign_char, trivial_char)
from wreathfock import wreath
from wreathfock.groups import cyclic, symmetric
from wreathfock.heisenberg import SuperFockSpace
from wreathfock.scalars import euler_product
from wreathfock.wreath import (EMPTY_TYPE, WreathError, WreathType,
                               brute_force_classes, element_model,
                               enumerate_types, n_cycle_type, partitions,
                               representative_of_type, type_counts, type_of,
                               wreath_order, z_partition, z_rho)


class TestElements:
    def test_group_axioms_sampled(self):
        g = cyclic(3)
        rng = random.Random(7)
        elems = enumerate_wreath_elements(g, 3)
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert wreath_mul(g, wreath_mul(g, a, b), c) == \
                wreath_mul(g, a, wreath_mul(g, b, c))
            assert wreath_mul(g, a, wreath_inv(g, a)) == identity(3)
            assert wreath_mul(g, wreath_inv(g, a), a) == identity(3)

    def test_type_is_conjugation_invariant(self):
        g = symmetric(3)
        rng = random.Random(11)
        elems = enumerate_wreath_elements(g, 2)
        for _ in range(80):
            a, x = rng.choice(elems), rng.choice(elems)
            assert oracle_type(g, wreath_conj(g, x, a)) == oracle_type(g, a)

    def test_cycle_products_example(self):
        g = cyclic(4)
        # single 3-cycle with entries g1=g2=g3=1: product 1+1+1 = 3 mod 4
        a = WreathElement((1, 1, 1), (1, 2, 0))
        [(r, c)] = cycle_products(g, a)
        assert r == 3 and g.class_reps[c] == 3
        assert type_of(g, perm_of(g, a)) is WreathType(((c, (3,)),))

    def test_enumeration_limit(self):
        with pytest.raises(WreathError):
            brute_force_classes(symmetric(3), 4, limit=1000)


types = st.builds(WreathType.from_dict, st.dictionaries(
    st.integers(0, 3), st.lists(st.integers(1, 4), max_size=3).map(tuple),
    max_size=3))


class TestTypes:
    @settings(max_examples=200, deadline=None)
    @given(types, types)
    def test_cached_fields_and_union(self, a, b):
        """degree and length are fixed at construction and agree with a
        recomputation from the parts; every construction of the parts is
        the one object, so hashes agree; the union, kept in both types'
        tables, holds the parts of both at each class."""
        for t in (a, b):
            assert t.degree == sum(sum(lam) for _, lam in t.parts)
            assert t.length == sum(len(lam) for _, lam in t.parts)
            assert WreathType(t.parts) is t
            assert hash(t) == hash(WreathType(t.parts))
            assert repr(t) == repr(WreathType(t.parts))
        u = a.union(b)
        assert u == b.union(a)
        for c in range(4):
            assert Counter(u.partition(c)) == \
                Counter(a.partition(c)) + Counter(b.partition(c))
        assert u.degree == a.degree + b.degree
        assert u.length == a.length + b.length
        assert a.union(b) is u is a.unions[b] is b.unions[a]

    @pytest.mark.parametrize("space", [symmetric(3), SuperFockSpace(1, 1)],
                             ids=["S3", "(1|1)"])
    def test_union_merges_the_parts(self, space):
        """For every pair of types of degree <= 4, a fresh union table
        gives the type `from_dict` builds from the parts of both, the one
        object in both types' own tables."""
        every = [t for n in range(5) for t in enumerate_types(space, n)]
        for rho in every:
            fresh = wreath._Unions(rho)
            for tau in every:
                d: dict = {}
                for c, lam in rho.parts + tau.parts:
                    d.setdefault(c, []).extend(lam)
                assert fresh[tau] is WreathType.from_dict(d) \
                    is rho.unions[tau] is tau.unions[rho]

    @pytest.mark.parametrize("space", [symmetric(3), SuperFockSpace(1, 1)],
                             ids=["S3", "(1|1)"])
    def test_trusted_union_equals_a_validated_build(self, space,
                                                    monkeypatch):
        """A union is interned without the checks of `WreathType`: for
        every pair of types of degree <= 4, the union from a fresh table
        has the parts, degree and length of a validated `from_dict` build
        of the parts of both.  Each side is built in a private intern
        table, so that the unions are new types and not found in the
        process's table, whose types and union tables stay untouched."""
        every = [t for n in range(5) for t in enumerate_types(space, n)]
        trusted, validated = {}, {}
        monkeypatch.setattr(wreath, "_TYPES", trusted)
        mine = [WreathType(t.parts) for t in every]
        unions = {(rho.parts, tau.parts): wreath._Unions(rho)[tau]
                  for rho in mine for tau in mine}
        assert len(trusted) > len(mine)   # unions of degree > 4 were new
        monkeypatch.setattr(wreath, "_TYPES", validated)
        for (a, b), u in unions.items():
            d: dict = {}
            for c, lam in a + b:
                d.setdefault(c, []).extend(lam)
            want = WreathType.from_dict(d)
            assert (u.parts, u.degree, u.length) == \
                (want.parts, want.degree, want.length)
            assert u is trusted[u.parts] and want is validated[u.parts]

    @settings(max_examples=100, deadline=None)
    @given(types)
    def test_remove_part_inverts_union(self, t):
        """Removing one part r at class c and adding the r-cycle type back
        gives t again; both are memoized."""
        for c, lam in t.parts:
            for r in set(lam):
                smaller = t.remove_part(r, c)
                assert smaller.union(n_cycle_type(c, r)) == t
                assert smaller.degree == t.degree - r
                assert t.remove_part(r, c) is smaller
                assert n_cycle_type(c, r) is n_cycle_type(c, r)

    def test_equality_and_order_ignore_cached_fields(self):
        a = WreathType(((0, (2, 1)),))
        b = WreathType(((0, (2, 1)),))
        c = WreathType(((0, (3,)),))
        assert a == b and a is b is WreathType(a.parts)
        assert len({a, b}) == 1 and hash(a) == hash(b) and a != c
        assert (a < c) == (a.parts < c.parts)
        assert a <= b <= c and c > a and c >= c
        assert a.to_json_obj() == [[0, [2, 1]]]
        with pytest.raises(AttributeError):
            a.degree = 5
        with pytest.raises(AttributeError):
            del a.parts
        assert a.degree == 3 and a.parts == ((0, (2, 1)),)

    @settings(max_examples=100, deadline=None)
    @given(types, types, st.sampled_from([cyclic(2), cyclic(3), symmetric(3)]),
           st.integers(0, 3), st.randoms(use_true_random=False))
    def test_types_are_interned(self, a, b, group, n, rng):
        """Every way to reach a type returns the intern table's object,
        a type built directly too; it equals, hashes and sorts as the
        parts say."""
        reached = [a, b, a.union(b), EMPTY_TYPE, n_cycle_type(n, n + 1)]
        reached += [a.remove_part(r, c) for c, lam in a.parts for r in lam]
        reached += enumerate_types(group, n)
        reached += [type_of(group, rng.choice(
            element_model(group, n).perms)) for _ in range(3)]
        for t in reached:
            direct = WreathType(t.parts)
            assert direct is t
            assert direct == t and hash(direct) == hash(t)
            for u in (a, b):
                assert (direct < u) == (t < u) == (t.parts < u.parts)
                assert (u < direct) == (u < t)

    @settings(max_examples=100, deadline=None)
    @given(types)
    def test_copies_and_pickles_are_the_interned_type(self, t):
        """copy, deepcopy and a pickle round trip hand back the interned
        object, also as keys inside a container."""
        assert copy.copy(t) is t and copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
        [key] = copy.deepcopy({t: 1})
        assert key is t
        [key] = pickle.loads(pickle.dumps({t: 1}))
        assert key is t

    def test_warm_hopf_makes_no_type_comparisons(self, monkeypatch):
        """Interned types meet by identity: dict and cache lookups in a
        warm Hopf suite never call WreathType.__eq__."""
        run = lambda: hopf_verify(cyclic(2), 3)
        assert run().all_passed
        orig, calls = WreathType.__eq__, []

        def counting(self, other):
            calls.append((self, other))
            return orig(self, other)

        monkeypatch.setattr(WreathType, "__eq__", counting)
        assert run().all_passed
        assert calls == []

    def test_type_table_is_copied(self):
        g = cyclic(2)
        first = enumerate_types(g, 3)
        first.clear()
        again = enumerate_types(g, 3)
        assert len(again) == 10 and again == sorted(again)
        assert again is not enumerate_types(g, 3)

    def test_partitions(self):
        assert len(partitions(6)) == 11
        assert partitions(3) == ((3,), (2, 1), (1, 1, 1))

    def test_type_canonicalization(self):
        t = WreathType.from_dict({1: (1, 3, 2), 0: (2,)})
        assert t.parts == ((0, (2,)), (1, (3, 2, 1)))
        assert t.degree == 8 and t.length == 4
        with pytest.raises(WreathError):
            WreathType(((0, ()),))

    def test_union_remove(self):
        a = WreathType.from_dict({0: (2, 1)})
        b = WreathType.from_dict({0: (2,), 1: (1,)})
        u = a.union(b)
        assert u.parts == ((0, (2, 2, 1)), (1, (1,)))
        assert u.remove_part(1, 1) == WreathType.from_dict({0: (2, 2, 1)})

    def test_counts_match_colored_partitions(self):
        for k in (1, 2, 3):
            g = cyclic(k)
            series = euler_product(k, 6)
            for n in range(7):
                assert len(enumerate_types(g, n)) == series[n]

    def test_count_types(self):
        """The bounded counts against the euler_product coefficients."""
        for k in (1, 2, 3, 9):
            assert type_counts(cyclic(k), 12, 10 ** 9) == euler_product(k, 12)
        assert type_counts(symmetric(3), 30, 10 ** 9)[30] == 16_790_136
        assert type_counts(cyclic(2), 2, 5) == [1, 2, 5]
        with pytest.raises(WreathError, match="57222 at degree 16"):
            type_counts(symmetric(3), 30, 50_000)
        with pytest.raises(WreathError):
            type_counts(cyclic(2), 0, 0)
        with pytest.raises(WreathError, match="degree must be >= 0"):
            type_counts(cyclic(2), -1, 10 ** 9)

    def test_representative_realizes_type(self):
        g = symmetric(3)
        for n in range(5):
            for rho in enumerate_types(g, n):
                p = representative_of_type(g, rho)
                assert tuple(p) == perm_of(g, representative(g, rho))
                assert type_of(g, p) == rho


class TestConjugacy:
    @pytest.mark.parametrize("group,n", [(cyclic(2), 3), (cyclic(4), 2),
                                         (symmetric(3), 2)])
    def test_classes_are_types(self, group, n):
        classes = brute_force_classes(group, n)
        types = enumerate_types(group, n)
        assert [type_of(group, rep) for rep, _ in classes] == types
        total = wreath_order(group, n)
        for rep, size in classes:
            assert total // size == z_rho(group, type_of(group, rep))

    def test_centralizer_checks(self):
        """Per class: the brute-force centralizer order is |G_n|/|class|
        and Z_rho, and n zeta_c for the full-cycle classes."""
        g, n = cyclic(2), 3
        model = element_model(g, n)
        for cl in model.classes:
            rho = type_of(g, model.perms[cl[0]])
            cent = len(model.brute_centralizer(cl[0]))
            assert cent == len(model) // len(cl) == z_rho(g, rho)
            (c, lam), *rest = rho.parts
            if not rest and lam == (n,):
                assert cent == n * g.zeta(c)

    def test_z_values(self):
        g = cyclic(2)
        assert z_partition((1, 1)) == 2
        assert z_rho(g, WreathType.from_dict({0: (1, 1)})) == 8
        assert z_rho(g, WreathType.from_dict({0: (2,)})) == 4
        assert z_rho(g, EMPTY_TYPE) == 1

    def test_cayley_group_matches(self):
        gw, elems = wreath_cayley_group(cyclic(2), 2)
        assert gw.order == 8
        assert gw.num_classes == len(enumerate_types(cyclic(2), 2))


class TestSigmaBasis:
    def test_lemma_14_orthogonality(self):
        g = cyclic(3)
        for n in range(1, 4):
            types = enumerate_types(g, n)
            for r1 in types:
                for r2 in types:
                    f1, f2 = sigma_rho(g, r1), sigma_rho(g, r2)
                    got = f1.inner(f2)
                    want = Fraction(z_rho(g, r1)) if r1 == r2 else Fraction(0)
                    assert got == want
                    prod = f1.star(f2)
                    if r1 == r2:
                        assert prod.equals(f1 * Fraction(z_rho(g, r1)))
                    else:
                        assert not prod.coeffs

    def test_sigma_n_c_value(self):
        g = symmetric(3)
        f = sigma_r_c(g, 3, 1)
        assert f.value(n_cycle_type(1, 3)) == 3 * g.zeta(1)

    def test_trivial_and_sign_elementwise(self):
        for g in (cyclic(2), symmetric(3)):
            for n in range(1, 4):
                if wreath_order(g, n) > 2000:
                    continue
                triv = trivial_char(g, n)
                sgn = sign_char(g, n)
                for a in enumerate_wreath_elements(g, n):
                    rho = oracle_type(g, a)
                    assert triv.value(rho) == 1
                    assert sgn.value(rho) == perm_sign(a.perm)

    def test_eq6_eq7_expansions(self):
        g = cyclic(2)
        for n in range(1, 4):
            acc_t = FockElement.zero(g)
            acc_s = FockElement.zero(g)
            for rho in enumerate_types(g, n):
                z = z_rho(g, rho)
                acc_t = acc_t + sigma_rho(g, rho) * Fraction(1, z)
                acc_s = acc_s + sigma_rho(g, rho) * \
                    Fraction((-1) ** (n - rho.length), z)
            assert acc_t.equals(trivial_char(g, n))
            assert acc_s.equals(sign_char(g, n))
