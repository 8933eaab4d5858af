"""G-sets, wreath powers, orbifold Euler characteristics, McKay table."""
import json

import pytest

from wreathfock.groups import (all_subgroup_element_sets, cyclic, orbits,
                               sl2_f3, symmetric, trivial_group)
from wreathfock.fock import graded_dim
from wreathfock.gsets import (GSet, GSetError, burnside_check, coset_gset,
                              PowerGSet, euler_series_check, euler_verify,
                              gset_from_json, gset_power, inertia_dim,
                              ktheory_euler_check, lemma_16_check,
                              macdonald_check, mckay_table, orbifold_euler,
                              point_gset, power_orbifold_euler, regular_gset,
                              theorem_main_dim_check)
from wreathfock.scalars import euler_product
from wreathfock.wreath import WreathElement


def orbit_count(x: GSet) -> int:
    """The number of G-orbits on X."""
    return len(orbits(range(x.size),
                      [x.action[g].__getitem__ for g in range(x.group.order)]))


class TestGSet:
    def test_validation(self):
        g = cyclic(2)
        with pytest.raises(GSetError):
            GSet(g, 2, ((0, 1),))  # missing a row
        with pytest.raises(GSetError):
            GSet(g, 2, ((0, 1), (0, 0)))  # not a permutation
        with pytest.raises(GSetError):
            GSet(g, 2, ((1, 0), (0, 1)))  # identity must act trivially
        g3 = cyclic(3)
        with pytest.raises(GSetError):
            # each non-identity row a permutation, but not an action
            GSet(g3, 2, ((0, 1), (1, 0), (0, 1)))

    def test_constructors(self):
        g = symmetric(3)
        assert point_gset(g).size == 1
        assert orbit_count(regular_gset(g)) == 1
        two = coset_gset(g, [0, 1])  # index-3 subgroup of order 2
        assert two.size == 3 and orbit_count(two) == 1

    @pytest.mark.parametrize("elems,message", [
        ([0, 1, 2], "closed under the product"),
        ([1, 2], "contain the identity"),
        ([0, 6], "elements of the group"),
    ])
    def test_coset_gset_rejects_non_subgroups(self, elems, message):
        """A subset that is not a subgroup is refused before any coset is
        built."""
        with pytest.raises(GSetError, match=message):
            coset_gset(symmetric(3), elems)

    def test_json_roundtrip(self):
        g = cyclic(3)
        x = regular_gset(g)
        y = gset_from_json(g, x.to_json())
        assert y.action == x.action
        with pytest.raises(GSetError):
            gset_from_json(g, json.dumps({"size": 2}))

    def test_power(self):
        g = cyclic(2)
        p = gset_power(regular_gset(g), 2)
        assert p.size == 4
        a = WreathElement((1, 0), (1, 0))  # (g, e) with the swap
        assert p.act(a, (0, 1)) == (g.mul(1, 1), 0)
        assert p.fixed(a) == [x for x in p.points() if p.act(a, x) == x]


class TestEuler:
    def test_point_euler_is_class_count(self):
        for g in (cyclic(4), symmetric(3)):
            assert orbifold_euler(point_gset(g)) == g.num_classes

    def test_free_action_euler(self):
        g = cyclic(3)
        assert orbifold_euler(regular_gset(g)) == 1

    def test_inertia_dims(self):
        g = symmetric(3)
        assert inertia_dim(point_gset(g)) == g.num_classes
        assert inertia_dim(regular_gset(g)) == 1
        assert inertia_dim(coset_gset(g, [0, 1])) == 2

    def test_euler_equals_inertia_dim(self):
        g = symmetric(3)
        for x in (point_gset(g), regular_gset(g), coset_gset(g, [0, 1])):
            assert ktheory_euler_check(x)
            assert burnside_check(x)

    def test_power_series_point(self):
        g = cyclic(2)
        x = point_gset(g)
        want = euler_product(2, 3)
        for n in range(4):
            assert power_orbifold_euler(x, n) == want[n]

    def test_power_series_regular(self):
        g = cyclic(2)
        x = regular_gset(g)
        want = euler_product(1, 3)  # e(X, G) = 1
        for n in range(4):
            assert power_orbifold_euler(x, n) == want[n]

    def test_series_and_dim_checks(self):
        g = cyclic(3)
        for x in (point_gset(g), regular_gset(g)):
            assert euler_series_check(x, 3).all_passed
            assert theorem_main_dim_check(x, 3).all_passed

    def test_lemma_16(self):
        g = symmetric(3)
        for x in (point_gset(g), coset_gset(g, [0, 1])):
            assert lemma_16_check(x, 2)

    def test_all_s3_coset_spaces(self):
        g = symmetric(3)
        for elems in all_subgroup_element_sets(g):
            x = coset_gset(g, elems)
            assert ktheory_euler_check(x)
            assert euler_series_check(x, 2).all_passed


class TestMacdonald:
    def test_trivial_group_series(self):
        # e(X^n/S_n) = C(|X| + n - 1, n): Macdonald's formula at chi = |X|
        assert macdonald_check(1, 5)
        assert macdonald_check(3, 4)

    def test_explicit_values(self):
        # orbifold values follow the product formula with exponent |X| = 3
        g = trivial_group()
        x = GSet(g, 3, ((0, 1, 2),))
        got = [power_orbifold_euler(x, n) for n in range(5)]
        want = euler_product(3, 4)
        assert got == want


class TestMcKay:
    def test_table(self):
        rep = mckay_table()
        assert rep.all_passed, rep.to_json()

    def test_e6_series(self):
        assert graded_dim(sl2_f3(), 3) == [1, 7, 35, 140]

    def test_euler_verify(self):
        g = cyclic(2)
        rep = euler_verify(point_gset(g), 3)
        assert rep.all_passed, rep.to_json()


def test_power_orbit_work_is_pinned(monkeypatch):
    """The inertia-orbit count and Lemma 1.6 act once per (point, move):
    the PowerGSet.act calls on the regular S3-set at n = 2 are fixed."""
    calls = []
    act = PowerGSet.act

    def counting(self, a, x):
        calls.append(1)
        return act(self, a, x)

    monkeypatch.setattr(PowerGSet, "act", counting)
    x = regular_gset(symmetric(3))
    power_orbifold_euler.cache_clear()
    assert power_orbifold_euler(x, 2) == 2 and len(calls) == 504
    calls.clear()
    assert lemma_16_check(x, 2) and len(calls) == 3024
