"""Group layer: constructors, conjugacy, class functions, induction, Mackey."""
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathfock.groups import (ClassFunction, DualFunctional, FiniteGroup,
                               GroupError, SubgroupEmbedding,
                               adams_psi, all_subgroup_element_sets,
                               binary_dihedral, binary_octahedral, builtin,
                               closure, cyclic, dihedral,
                               group_from_cayley_json,
                               group_from_permutations, induce_cf,
                               mackey_verify, orbits, restrict_cf,
                               sigma_basis, sl2_f3, sl2_f5,
                               subgroup_from_elements, symmetric,
                               trivial_character, trivial_group)
from wreathfock.gsets import GSet, regular_gset
from wreathfock.heisenberg import SuperFockSpace, a_minus, a_plus
from wreathfock.scalars import Cyclotomic, Scalar, conj

def regular_character(group: FiniteGroup) -> ClassFunction:
    vals = [0] * group.num_classes
    vals[0] = group.order
    return ClassFunction.from_rationals(group, vals)


def inner_product(chi: ClassFunction, psi: ClassFunction) -> Scalar:
    """(chi | psi) = (1/|G|) sum_g chi(g) conj(psi(g)), computed classwise."""
    assert chi.group is psi.group, "inner product needs a common group"
    g = chi.group
    return sum((chi.values[c] * conj(psi.values[c])
                * Fraction(g.class_size(c), g.order)
                for c in range(g.num_classes)), Fraction(0))


def relabelled(group: FiniteGroup, seed: int) -> FiniteGroup:
    """The group of a seeded random relabelling of the elements that keeps
    the identity at 0: entry [p(a)][p(b)] is p(a b)."""
    rest = list(range(1, group.order))
    random.Random(seed).shuffle(rest)
    p = [0] + rest
    table = [[0] * group.order for _ in range(group.order)]
    for a, row in enumerate(group.table):
        for b, ab in enumerate(row):
            table[p[a]][p[b]] = p[ab]
    return FiniteGroup(table, name=f"{group.name}~{seed}")


# builtin groups of order <= 24, one or more of each family, and one
# relabelled Cayley table
SMALL_GROUPS = {
    "trivial": trivial_group, "z2": lambda: cyclic(2),
    "z5": lambda: cyclic(5), "s3": lambda: symmetric(3),
    "s4": lambda: symmetric(4), "d4": lambda: dihedral(4),
    "d5": lambda: dihedral(5), "q8": lambda: binary_dihedral(2),
    "bd3": lambda: binary_dihedral(3), "sl2_f3": sl2_f3,
    "sl2_f3-relabelled": lambda: relabelled(sl2_f3(), 1),
}


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_generators_generate(name):
    """`generators` has no identity, and right multiplication by it
    reaches every element from the identity."""
    g = SMALL_GROUPS[name]()
    assert 0 not in g.generators
    moves = [lambda x, a=a: g.table[x][a] for a in g.generators]
    assert closure([0], moves) == set(range(g.order))


NON_ASSOCIATIVE_LOOP = [[0, 1, 2, 3, 4],
                        [1, 0, 3, 4, 2],
                        [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1],
                        [4, 3, 1, 2, 0]]


class TestConstruction:
    def test_cyclic(self):
        g = cyclic(4)
        assert g.order == 4 and g.num_classes == 4 and g.exponent == 4
        assert g.inv(1) == 3

    def test_symmetric(self):
        g = symmetric(3)
        assert g.order == 6 and g.num_classes == 3
        assert sorted(len(c) for c in g.classes) == [1, 2, 3]
        assert g.centralizer_orders[0] == 6

    def test_dihedral_and_quaternion(self):
        assert dihedral(4).order == 8 and dihedral(4).num_classes == 5
        q8 = binary_dihedral(2)
        assert q8.order == 8 and q8.num_classes == 5
        # Q8 has a unique element of order 2
        assert sum(1 for k in q8.element_orders if k == 2) == 1
        # D4 has five
        assert sum(1 for k in dihedral(4).element_orders if k == 2) == 5

    def test_bad_tables(self):
        with pytest.raises(GroupError):
            FiniteGroup(((0, 1), (0, 1)))  # no two-sided identity row
        with pytest.raises(GroupError):
            FiniteGroup(((0, 1), (1, 1)))  # 1 has no inverse
        with pytest.raises(GroupError):
            group_from_cayley_json(json.dumps({"order": 3,
                                               "table": [[0, 1], [1, 0]]}))

    def test_non_associative_loop_rejected(self):
        # an order-5 loop: two-sided identity 0, every element its own
        # two-sided inverse, yet no group (a group of order 5 is cyclic)
        with pytest.raises(GroupError, match="not associative"):
            FiniteGroup(NON_ASSOCIATIVE_LOOP)

    def test_permutation_closure(self):
        g = group_from_permutations([(1, 0, 2), (1, 2, 0)], 3)
        assert g.order == 6 and g.num_classes == 3
        with pytest.raises(GroupError):
            group_from_permutations([(0, 0, 1)], 3)

    def test_json_roundtrip(self):
        g = symmetric(3)
        g2 = group_from_cayley_json(g.to_json())
        assert g2.table == g.table

    def test_builtin_dispatch(self):
        assert builtin("cyclic", 5).order == 5
        assert builtin("sl2_f3").order == 24
        with pytest.raises(GroupError):
            builtin("cyclic")
        with pytest.raises(GroupError):
            builtin("sl2_f3", 2)
        with pytest.raises(GroupError):
            builtin("nope")


class TestClassFunctions:
    def test_sigma_orthogonality(self):
        g = symmetric(3)
        for c in range(g.num_classes):
            for d in range(g.num_classes):
                got = inner_product(sigma_basis(g, c), sigma_basis(g, d))
                want = Fraction(g.zeta(c)) if c == d else Fraction(0)
                assert got == want

    def test_regular_character(self):
        g = cyclic(3)
        chi = regular_character(g)
        assert inner_product(chi, trivial_character(g)) == 1

    def test_adams_composition(self):
        for g in (symmetric(3), cyclic(4)):
            chi = ClassFunction.from_rationals(
                g, range(1, g.num_classes + 1))
            assert adams_psi(1, chi).equals(chi)
            for n in (2, 3):
                for m in (2, 3):
                    assert adams_psi(n, adams_psi(m, chi)).equals(
                        adams_psi(n * m, chi))

    def test_adams_sign(self):
        g = cyclic(2)
        sign = ClassFunction.from_rationals(g, [1, -1])
        assert adams_psi(2, sign).equals(trivial_character(g))

    def test_dual_pairing(self):
        g = symmetric(3)
        for c in range(g.num_classes):
            for d in range(g.num_classes):
                got = DualFunctional.delta(g, c).pair(sigma_basis(g, d))
                want = Fraction(g.zeta(c)) if c == d else Fraction(0)
                assert got == want and type(got) is int

    def test_integer_values_stay_ints(self):
        """Integer class-function values, dual coefficients, pairings,
        differences and induced values are ints; a non-integer stays an
        exact Fraction."""
        g = symmetric(3)
        chi = ClassFunction.from_rationals(g, [3, -1, 2])
        half = ClassFunction.from_rationals(g, [Fraction(1, 2), 0, 1.5])
        assert half.values == (Fraction(1, 2), 0, Fraction(3, 2))
        a3 = subgroup_from_elements(g, next(
            s for s in all_subgroup_element_sets(g) if len(s) == 3))
        for f in (chi, sigma_basis(g, 1), chi - sigma_basis(g, 2),
                  trivial_character(g), regular_character(g),
                  induce_cf(a3, trivial_character(a3.source))):
            assert all(type(x) is int for x in f.values), f
        assert all(type(x) is int
                   for x in DualFunctional.delta(g, 1).coeffs)
        assert type(DualFunctional.delta(g, 1).pair(chi)) is int
        induced = induce_cf(a3, ClassFunction.from_rationals(
            a3.source, [1] + [0] * (a3.source.num_classes - 1)))
        assert induced.values[0] == 2 and type(induced.values[0]) is int

    @pytest.mark.parametrize("make", [
        lambda: sigma_basis(cyclic(3), -1),
        lambda: DualFunctional.delta(cyclic(3), 7),
        lambda: sigma_basis(SuperFockSpace(1, 1), 2),
    ], ids=["sigma-negative", "delta-past-end", "super-sigma-past-end"])
    def test_label_outside_the_space_is_refused(self, make):
        """A label is one of 0..len(weights)-1: a negative one does not
        wrap round to the last class, and one past the end is not a zero
        functional or a bare IndexError."""
        with pytest.raises(GroupError, match="no label"):
            make()


# (two constructions with equal fields, one with a field changed)
VALUE_CLASSES = {
    "ClassFunction": lambda: (sigma_basis(cyclic(3), 1),
                              ClassFunction(cyclic(3), (0, 3, 0)),
                              ClassFunction(cyclic(3), (0, 0, 3))),
    "DualFunctional": lambda: (DualFunctional.delta(cyclic(3), 1),
                               DualFunctional(cyclic(3), (0, 1, 0)),
                               DualFunctional(cyclic(4), (0, 1, 0, 0))),
    "GSet": lambda: (regular_gset(cyclic(2)),
                     GSet(cyclic(2), 2, ((0, 1), (1, 0)), name="regular"),
                     GSet(cyclic(2), 2, ((0, 1), (1, 0)))),
    "SubgroupEmbedding": lambda: (
        SubgroupEmbedding(cyclic(2), symmetric(3), (0, 1)),
        SubgroupEmbedding(cyclic(2), symmetric(3), (0, 1)),
        SubgroupEmbedding(cyclic(2), symmetric(3), (0, 2))),
    "HeisenbergOp": lambda: (a_plus(2, sigma_basis(cyclic(3), 1)),
                             a_plus(2, ClassFunction(cyclic(3), (0, 3, 0))),
                             a_plus(1, sigma_basis(cyclic(3), 1))),
}


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_equal_fields_give_equal_values(name):
    """Equal fields compare equal and hash equal, as the cache keys
    (`GSet`, `ClassFunction`) need; a changed field compares unequal."""
    a, same, other = VALUE_CLASSES[name]()
    assert a is not same and type(a).__name__ == name
    assert a == same and hash(a) == hash(same) and not a != same
    assert a != other and not a == other


def test_reprs_are_pinned():
    """The field-by-field reprs that a witness or a test may print."""
    w = Cyclotomic.root(3)
    assert repr(DualFunctional.delta(cyclic(3), 1)) == \
        "DualFunctional(group=FiniteGroup(Z3, order=3, classes=3), " \
        "coeffs=(0, 1, 0))"
    assert repr(DualFunctional(cyclic(3), (w, Fraction(2), w * w - w))) == \
        "DualFunctional(group=FiniteGroup(Z3, order=3, classes=3), " \
        "coeffs=(Cyc(1*z^1; m=3), Fraction(2, 1), Cyc(-1*z^0 + -2*z^1; m=3)))"
    eta = DualFunctional.delta(SuperFockSpace(1, 1), 1)
    assert repr(a_minus(1, eta)) == \
        "HeisenbergOp(sign=-1, mode=1, payload=DualFunctional(" \
        "group=SuperFockSpace(d0=1, d1=1), coeffs=(0, 1)))"


class TestInductionRestriction:
    def test_induced_trivial_from_a3(self):
        g = symmetric(3)
        a3 = next(s for s in all_subgroup_element_sets(g) if len(s) == 3)
        emb = subgroup_from_elements(g, a3)
        ind = induce_cf(emb, trivial_character(emb.source))
        # classes ordered: identity, then by smallest member
        sizes = [g.class_size(c) for c in range(g.num_classes)]
        vals = list(ind.values)
        # Ind(triv) from index-2 subgroup: 2 on classes inside A3, 0 outside
        for c in range(g.num_classes):
            inside = g.class_reps[c] in a3
            assert vals[c] == (2 if inside else 0)
        assert sum(v * s for v, s in zip(vals, sizes)) == g.order

    def test_frobenius_reciprocity(self):
        g = symmetric(3)
        for elems in all_subgroup_element_sets(g):
            emb = subgroup_from_elements(g, elems)
            h = emb.source
            for c in range(h.num_classes):
                f = sigma_basis(h, c)
                for d in range(g.num_classes):
                    chi = sigma_basis(g, d)
                    lhs = inner_product(induce_cf(emb, f), chi)
                    rhs = inner_product(f, restrict_cf(emb, chi))
                    assert lhs == rhs

    def test_subgroup_lattices(self):
        assert len(all_subgroup_element_sets(symmetric(3))) == 6
        assert len(all_subgroup_element_sets(dihedral(4))) == 10
        assert len(all_subgroup_element_sets(binary_dihedral(2))) == 6
        assert len(all_subgroup_element_sets(trivial_group())) == 1

    def test_subgroup_validation(self):
        g = symmetric(3)
        with pytest.raises(GroupError):
            subgroup_from_elements(g, [0, 3])  # 3-cycle without its inverse
        # two transpositions, each its own inverse, whose product (a
        # 3-cycle) lies outside the subset
        s, t = [x for x in range(g.order) if g.element_orders[x] == 2][:2]
        with pytest.raises(GroupError, match="not closed under product"):
            subgroup_from_elements(g, [0, s, t])

    @pytest.mark.parametrize("make", [lambda: symmetric(3),
                                      lambda: dihedral(4),
                                      lambda: binary_dihedral(2), sl2_f3],
                             ids=["s3", "d4", "q8", "sl2_f3"])
    def test_subgroup_table_is_the_restricted_table(self, make):
        """The table of each subgroup, built from the subset as
        generators, is G's table on the subset's ids, one product per
        pair."""
        g = make()
        for elems in all_subgroup_element_sets(g):
            emb = subgroup_from_elements(g, elems)
            assert [list(row) for row in emb.source.table] == \
                all_pairs_table(elems, g.mul)

    def test_mackey_sweeps(self):
        for g in (symmetric(3), dihedral(4), binary_dihedral(2)):
            assert mackey_verify(g).all_passed

    @pytest.mark.parametrize("make", [lambda: symmetric(3),
                                      lambda: dihedral(4),
                                      lambda: binary_dihedral(2), sl2_f3],
                             ids=["s3", "d4", "q8", "sl2_f3"])
    def test_induction_is_the_all_element_sum(self, make):
        """induce_cf walks each class of G once; the definition sums over
        every x in G: (Ind f)(z) = |H|^-1 sum of f(x^-1 z x) over the x
        with x^-1 z x in H.  Every subgroup, with sigma-basis, Fraction
        and Cyclotomic values."""
        g = make()
        for elems in all_subgroup_element_sets(g):
            emb = subgroup_from_elements(g, elems)
            h = emb.source
            pre = {y: x for x, y in enumerate(emb.mapping)}
            fs = [sigma_basis(h, c) for c in range(h.num_classes)]
            fs.append(ClassFunction(h, tuple(
                Fraction(c + 1, 3) for c in range(h.num_classes))))
            fs.append(ClassFunction(h, tuple(
                Cyclotomic(4, [Fraction(1, c + 2), c + 1])
                for c in range(h.num_classes))))
            for f in fs:
                want = []
                for z in g.class_reps:
                    acc = Fraction(0)
                    for x in range(g.order):
                        y = g.mul(g.mul(g.inv(x), z), x)
                        if y in pre:
                            acc = acc + f.at(pre[y])
                    want.append(acc / h.order)
                assert induce_cf(emb, f).values == tuple(want)


def test_binary_octahedral_table_is_recorded():
    """The integer Z[sqrt2] construction gives the table recorded from the
    earlier exact-Fraction construction, element numbering included."""
    path = Path(__file__).parent / "golden" / "binary_octahedral.json"
    assert binary_octahedral().to_json() == path.read_text()


# -- Cayley tables from generators against all |G|^2 products ---------------

def all_pairs_table(elems, mul) -> list[list[int]]:
    """The Cayley table by one product per pair, on elems in their order:
    the oracle of `groups._generated`."""
    index = {x: i for i, x in enumerate(elems)}
    return [[index[mul(a, b)] for b in elems] for a in elems]


def compose(a, b):
    return tuple(a[i] for i in b)


def permutation_elements(gens, degree: int) -> list:
    """The group the permutations generate: the identity, then the rest
    in sorted order."""
    ident = tuple(range(degree))
    elems = closure([ident], [lambda x, g=g: compose(x, g) for g in gens])
    return [ident] + sorted(elems - {ident})


def sl2_oracle(p: int) -> list[list[int]]:
    mats = [(a, b, c, d) for a, b, c, d in itertools.product(range(p),
                                                             repeat=4)
            if (a * d - b * c) % p == 1 and (a, b, c, d) != (1, 0, 0, 1)]

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)

    return all_pairs_table([(1, 0, 0, 1)] + sorted(mats), mul)


def binary_octahedral_oracle() -> list[list[int]]:
    """Quaternions with coordinates (a + b sqrt2)/2, stored as (a, b)."""
    def qmul(q, r):
        (a, b, c, d), (e, f, g, h) = q, r
        rows = (((1, a, e), (-1, b, f), (-1, c, g), (-1, d, h)),
                ((1, a, f), (1, b, e), (1, c, h), (-1, d, g)),
                ((1, a, g), (-1, b, h), (1, c, e), (1, d, f)),
                ((1, a, h), (1, b, g), (-1, c, f), (1, d, e)))
        return tuple((sum(s * (x[0] * y[0] + 2 * x[1] * y[1])
                          for s, x, y in row) // 2,
                      sum(s * (x[0] * y[1] + x[1] * y[0])
                          for s, x, y in row) // 2) for row in rows)

    zero = (0, 0)
    ident = ((2, 0), zero, zero, zero)
    gens = [(zero, (2, 0), zero, zero), ((-1, 0), (1, 0), (1, 0), (1, 0)),
            ((0, 1), (0, 1), zero, zero)]
    elems = closure([ident], [lambda q, g=g: qmul(q, g) for g in gens])
    return all_pairs_table([ident] + sorted(elems - {ident}), qmul)


def dihedral_oracle(n: int, binary: bool) -> list[list[int]]:
    """D_n as (k, e) = r^k s^e; with binary, s^2 = r^(n/2) instead of 1."""
    def mul(x, y):
        (k, e), (l, d) = x, y
        if e == 0:
            return ((k + l) % n, d)
        if binary and d == 1:
            return ((k - l + n // 2) % n, 0)
        return ((k - l) % n, 1 - d)

    return all_pairs_table([(k, e) for e in (0, 1) for k in range(n)], mul)


def symmetric_oracle(n: int) -> list[list[int]]:
    return all_pairs_table(sorted(itertools.permutations(range(n))), compose)


CAYLEY_ORACLES = {
    "trivial": (trivial_group, lambda: [[0]]),
    **{f"Z{n}": (lambda n=n: cyclic(n),
                 lambda n=n: all_pairs_table(range(n),
                                             lambda a, b: (a + b) % n))
       for n in range(1, 7)},
    "sl2_f3": (sl2_f3, lambda: sl2_oracle(3)),
    "sl2_f5": (sl2_f5, lambda: sl2_oracle(5)),
    "binary_octahedral": (binary_octahedral, binary_octahedral_oracle),
    **{f"S{n}": (lambda n=n: symmetric(n), lambda n=n: symmetric_oracle(n))
       for n in range(1, 5)},
    **{f"D{n}": (lambda n=n: dihedral(n),
                 lambda n=n: dihedral_oracle(n, False)) for n in range(1, 6)},
    **{f"BD{m}": (lambda m=m: binary_dihedral(m),
                  lambda m=m: dihedral_oracle(2 * m, True))
       for m in range(1, 5)},
}


@pytest.mark.parametrize("name", CAYLEY_ORACLES)
def test_builtin_cayley_table_matches_all_pairs(name):
    """Built from generators, each builtin table is the all-pairs table
    of the same elements in the same order."""
    build, oracle = CAYLEY_ORACLES[name]
    assert [list(row) for row in build().table] == oracle()


@pytest.mark.parametrize("seed", range(8))
def test_permutation_cayley_table_matches_all_pairs(seed):
    rng = random.Random(seed)
    degree = rng.randint(3, 6)
    gens = [tuple(rng.sample(range(degree), degree))
            for _ in range(rng.randint(1, 3))]
    want = all_pairs_table(permutation_elements(gens, degree), compose)
    got = group_from_permutations(gens, degree).table
    assert [list(row) for row in got] == want


@st.composite
def permutation_actions(draw):
    """A point order of 0..n-1 and a few permutations of the points."""
    n = draw(st.integers(1, 9))
    points = draw(st.permutations(range(n)))
    perms = draw(st.lists(st.permutations(range(n)), max_size=3))
    return points, perms


class TestOrbitHelper:
    @settings(max_examples=60, deadline=None)
    @given(permutation_actions())
    def test_orbits_match_union_find(self, action):
        """orbits partitions the points as a union-find oracle does, in
        order of first point."""
        points, perms = action
        parent = list(range(len(points)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for p in perms:
            for x, y in enumerate(p):
                parent[find(x)] = find(y)
        want = {}
        for x in points:
            want.setdefault(find(x), set()).add(x)
        got = orbits(points, [p.__getitem__ for p in perms])
        assert got == list(want.values())

    def test_closure_limit(self):
        step = [lambda x: (x + 1) % 10]
        assert closure([0], step, limit=10) == set(range(10))
        with pytest.raises(GroupError, match="closure exceeds limit 9"):
            closure([0], step, limit=9)
        # checked while the set grows: an unbounded search still stops
        with pytest.raises(GroupError, match="closure exceeds limit 5"):
            closure([0], [lambda x: x + 1], limit=5)
