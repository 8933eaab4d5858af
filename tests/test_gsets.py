"""G-sets, wreath powers, orbifold Euler characteristics, McKay table."""
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_oracle import act, enumerate_wreath_elements, perm_of
from wreathfock import gsets, wreath
from wreathfock.groups import (FiniteGroup, all_subgroup_element_sets,
                               binary_dihedral, cyclic, dihedral, orbits,
                               sl2_f3, symmetric, trivial_group)
from wreathfock.fock import graded_dim
from wreathfock.gsets import (GSet, GSetError, burnside_check, coset_gset,
                              commuting_pair_sum,
                              euler_series_check, euler_verify,
                              gset_from_json, gset_power, inertia_dim,
                              ktheory_euler_check, lemma_16_check,
                              macdonald_check, mckay_table, orbifold_euler,
                              point_gset, power_orbifold_euler, regular_gset,
                              theorem_main_dim_check)
from wreathfock.scalars import euler_product
from wreathfock.wreath import element_model


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

    @pytest.mark.parametrize("make", [lambda: symmetric(3),
                                      lambda: cyclic(7), lambda: dihedral(4)],
                             ids=["s3", "z7", "d4"])
    def test_regular_rows_are_the_table(self, make, monkeypatch):
        """The regular G-set acts by the rows of the Cayley table, g.x =
        gx; only the action check multiplies, once per (a, generator)."""
        g = make()
        calls = []
        mul = g.mul
        monkeypatch.setattr(g, "mul",
                            lambda a, b: calls.append(1) or mul(a, b))
        x = regular_gset(g)
        assert len(calls) == g.order * len(g.generators)
        assert x.size == g.order
        assert x.action == tuple(tuple(mul(a, b) for b in range(g.order))
                                 for a in range(g.order)) == g.table

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
        a = element_model(g, 2).perms[5]  # (g, e) with the swap
        # points (0,0) (0,1) (1,0) (1,1); (x0, x1) goes to (g x1, x0)
        table = p.point_table(a)
        assert table == (2, 0, 3, 1)
        assert p.fixed(a) == [t for t in range(4) if table[t] == t]


def all_pairs_action(group: FiniteGroup, size: int, action) -> bool:
    """The G-set axioms by definition: every row a permutation, the
    identity trivial, and (ab).x = a.(b.x) for every a, b and x."""
    n, points = group.order, list(range(size))
    return all(sorted(row) == points for row in action) and \
        list(action[0]) == points and \
        all(action[group.mul(a, b)][x] == action[a][action[b][x]]
            for a in range(n) for b in range(n) for x in points)


@st.composite
def edited_actions(draw):
    """A coset G-set of S3, Q8, D4 or Z4 with one row changed, so that
    every row is still a permutation: the row replaced by another row, or
    two of its entries swapped."""
    group = draw(st.sampled_from([symmetric(3), binary_dihedral(2),
                                  dihedral(4), cyclic(4)]))
    x = coset_gset(group, draw(st.sampled_from(
        all_subgroup_element_sets(group))))
    rows = [list(row) for row in x.action]
    g = draw(st.integers(0, group.order - 1))
    if draw(st.booleans()):
        rows[g] = list(rows[draw(st.integers(0, group.order - 1))])
    else:
        i, j = (draw(st.integers(0, x.size - 1)) for _ in range(2))
        rows[g][i], rows[g][j] = rows[g][j], rows[g][i]
    return group, x.size, tuple(map(tuple, rows))


class TestActionOnGenerators:
    @settings(max_examples=200, deadline=None)
    @given(edited_actions())
    def test_refused_exactly_when_some_pair_fails(self, edited):
        """Checking b over the generators refuses an action exactly when
        the check over all pairs (a, b) does."""
        group, size, action = edited
        try:
            GSet(group, size, action)
            refused = False
        except GSetError:
            refused = True
        assert refused == (not all_pairs_action(group, size, action))

    def test_work_is_order_times_generators(self, monkeypatch):
        """On the regular G-set of Z400 the law is checked for 400 x 1
        pairs (a, b), not |G|^2 = 160000."""
        g = cyclic(400)
        calls = []
        mul = FiniteGroup.mul
        monkeypatch.setattr(FiniteGroup, "mul", lambda self, a, b:
                            calls.append(None) or mul(self, a, b))
        GSet(g, g.order, g.table)  # row a is x -> a x
        assert g.generators == (1,)
        assert len(calls) == g.order * len(g.generators) == 400


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
    """The inertia-orbit count and Lemma 1.6 apply each move once per
    (point, move): the moves applied on the regular S3-set at n = 2 are
    fixed.  The orbit counts k_c on X itself are taken first.  The inertia
    orbits move 72 points by the 3 generators of S3 wr S2 (2 of S3 and
    the swap); Lemma 1.6 moves by whole centralizers, one per class of
    S3 wr S2."""
    x = regular_gset(symmetric(3))
    gsets._orbit_counts_by_class(x)
    calls = []
    real_orbits = gsets.orbits

    def counting_orbits(points, moves):
        def counted(move):
            return lambda x: calls.append(1) or move(x)
        return real_orbits(points, [counted(m) for m in moves])

    monkeypatch.setattr(gsets, "orbits", counting_orbits)
    power_orbifold_euler.cache_clear()
    assert power_orbifold_euler(x, 2) == 2 and len(calls) == 216
    calls.clear()
    centralizers = []
    real_centralizer = wreath.ElementModel.brute_centralizer
    monkeypatch.setattr(wreath.ElementModel, "brute_centralizer",
                        lambda model, i: centralizers.append(i) or
                        real_centralizer(model, i))
    assert lemma_16_check(x, 2) and len(calls) == 2664
    assert len(centralizers) == 9


# (group, G-set, n): the point G-set has |X| = 1, a one-bit mask, and the
# empty G-set no point at all
SMALL_POWERS = {
    "z3-regular-3": (cyclic(3), regular_gset, 3),
    "s3-regular-2": (symmetric(3), regular_gset, 2),
    "s3-cosets3-2": (symmetric(3), lambda g: coset_gset(g, [0, 1]), 2),
    "z2-pt-3": (cyclic(2), point_gset, 3),
    "z2-empty-2": (cyclic(2), lambda g: GSet(g, 0, ((),) * g.order), 2),
}


@pytest.mark.parametrize("case", SMALL_POWERS)
def test_fixed_mask_is_the_filtered_fixed_set(case):
    """For every element a of G_n, its point table agrees with the
    (g; s) action on tuples, bit t of fixed_mask(a) is set exactly when
    the t-th point is fixed, and fixed(a) lists those points in order."""
    g, make, n = SMALL_POWERS[case]
    x = make(g)
    power = gset_power(x, n)
    points = list(itertools.product(range(x.size), repeat=n))
    for a in enumerate_wreath_elements(g, n):
        p = perm_of(g, a)
        images = [act(x.action, a, y) for y in points]
        assert power.point_table(p) == tuple(map(points.index, images))
        want = [t for t, y in enumerate(points) if images[t] == y]
        assert power.fixed(p) == want
        assert power.fixed_mask(p) == sum(1 << t for t in want)


@pytest.mark.parametrize("case", SMALL_POWERS)
def test_pair_sum_per_class_is_the_all_element_sum(case):
    """The class-weighted pair sum equals the sum over every element a and
    every b in its centralizer (`brute_centralizer` at every id)."""
    g, make, n = SMALL_POWERS[case]
    power = gset_power(make(g), n)
    model = element_model(g, n)
    masks = [power.fixed_mask(p) for p in model.perms]
    want = sum((masks[a] & masks[b]).bit_count() for a in range(len(model))
               for b in model.brute_centralizer(a))
    assert commuting_pair_sum(masks, model) == want


def lemma_16_every_element(x: GSet, n: int) -> bool:
    """Lemma 1.6 walked at every element a of G_n, C(a) by
    `brute_centralizer` at a; the orbit count is also a class function."""
    model = element_model(x.group, n)
    power = gset_power(x, n)
    counts = []
    for a, p in enumerate(model.perms):
        cent = [power.point_table(model.perms[b]).__getitem__
                for b in model.brute_centralizer(a)]
        counts.append(len(orbits(power.fixed(p), cent)))
    assert all(counts[a] == counts[cl[0]]
               for cl in model.classes for a in cl)
    return all(count == gsets.symmetric_orbit_count(x, p)
               for count, p in zip(counts, model.perms))


# the SMALL_POWERS cases, then every coset G-set G/H of S3 and Q8 at n = 2
LEMMA_16_CASES = {
    **{name: (make(g), n) for name, (g, make, n) in SMALL_POWERS.items()},
    **{f"{g.name}/{len(h)}-{i}-2": (coset_gset(g, h), 2)
       for g in (symmetric(3), binary_dihedral(2))
       for i, h in enumerate(all_subgroup_element_sets(g))},
}


@pytest.mark.parametrize("case", LEMMA_16_CASES)
@pytest.mark.parametrize("off_by_one", [False, True], ids=["exact", "fault"])
def test_lemma_16_per_class_is_the_all_element_walk(case, off_by_one,
                                                    monkeypatch):
    """Lemma 1.6 at one representative per class gives the verdict of the
    walk over every element, also with a count one too high away from
    the identity, which both must catch."""
    x, n = LEMMA_16_CASES[case]
    if off_by_one:
        real_count = gsets.symmetric_orbit_count
        monkeypatch.setattr(gsets, "symmetric_orbit_count", lambda x, p:
                            real_count(x, p) + (tuple(p) !=
                                                tuple(range(len(p)))))
    want = lemma_16_every_element(x, n)
    assert want is not off_by_one
    assert lemma_16_check(x, n) is want


def test_commuting_pair_tests_are_pinned(monkeypatch):
    """e(X^3, S3 wr S3) on the regular S3-set runs 2376 full commutation
    tests: only the 3 classes with fixed points are walked, and each tests
    the 216 ids per S_n part commuting with its own (6 + 2 + 3 parts),
    after 3 x 6 tests on S_n parts (before: 28,512 full tests, 22 per
    element for all 1296 elements' centralizers)."""
    calls = {3: 0, 18: 0}       # permutation length: n, or |G| n
    orig = wreath._commutes

    def counting(p, q):
        calls[len(p)] += 1
        return orig(p, q)

    monkeypatch.setattr(wreath, "_commutes", counting)
    power_orbifold_euler.cache_clear()
    assert power_orbifold_euler(regular_gset(symmetric(3)), 3) == 3
    assert calls == {3: 18, 18: 2376}


def test_power_is_bounded_by_the_limit():
    """|X|^n and |G_n| are each refused past the caller's limit."""
    x = regular_gset(symmetric(3))
    power_orbifold_euler.cache_clear()
    with pytest.raises(GSetError, match="exceeds --limit 215"):
        power_orbifold_euler(x, 3, 215)
    with pytest.raises(wreath.WreathError, match="exceeds limit 1295"):
        power_orbifold_euler(x, 3, 1295)
    assert power_orbifold_euler(x, 3, 1296) == 3
