"""The compiled element model of G_n against element-level sweeps over
the (g; s) arithmetic of `wreath_oracle`: commuting rows, conjugacy
classes, induction bags and types."""
from collections import Counter

import pytest

from test_groups import SMALL_GROUPS
from wreath_oracle import (enumerate_wreath_elements, perm_of, representative,
                           split_element, type_of as oracle_type,
                           wreath_conj, wreath_generators, wreath_inv,
                           wreath_mul)
from wreathfock import fock, wreath
from wreathfock.groups import closure, cyclic, symmetric
from wreathfock.gsets import power_orbifold_euler, regular_gset
from wreathfock.wreath import (WreathError, element_model, enumerate_types,
                               type_of, wreath_order)

CASES = [(cyclic(2), 3), (cyclic(3), 2), (symmetric(3), 2), (symmetric(3), 3)]
IDS = ["Z2wr3", "Z3wr2", "S3wr2", "S3wr3"]


def closure_classes(group, n):
    """Orbit closure under conjugation by the generators, on elements."""
    elements = enumerate_wreath_elements(group, n)
    gens = wreath_generators(group, n)
    gen_invs = [wreath_inv(group, g) for g in gens]
    seen = set()
    out = []
    for a in elements:
        if a in seen:
            continue
        orbit = {a}
        frontier = [a]
        while frontier:
            x = frontier.pop()
            for g, gi in zip(gens, gen_invs):
                y = wreath_mul(group, wreath_mul(group, g, x), gi)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        out.append((min(orbit), len(orbit)))
    out.sort(key=lambda t: (oracle_type(group, t[0]), t[0]))
    return out


def conjugation_bags(group, a, b, reps):
    """Count w^-1 z w over every w in G_n landing in G_a x G_b."""
    bags = {}
    elements = enumerate_wreath_elements(group, a + b)
    for pi in reps:
        z = representative(group, pi)
        bag = Counter()
        for w in elements:
            y = wreath_mul(group, wreath_mul(group, wreath_inv(group, w), z), w)
            if all(y.perm[i] < a for i in range(a)):
                left, right = split_element(y, a)
                bag[(oracle_type(group, left),
                     oracle_type(group, right))] += 1
        bags[pi] = bag
    return bags


@pytest.mark.parametrize("group,n", CASES, ids=IDS)
def test_commuting_rows_match_all_pairs(group, n):
    elements = enumerate_wreath_elements(group, n)
    rows = [[] for _ in elements]
    for i, a in enumerate(elements):
        for j in range(i, len(elements)):
            b = elements[j]
            if wreath_mul(group, a, b) == wreath_mul(group, b, a):
                rows[i].append(j)
                if j != i:
                    rows[j].append(i)
    assert [tuple(sorted(r)) for r in rows] == \
        list(element_model(group, n).centralizers)


@pytest.mark.parametrize("group,n", CASES, ids=IDS)
def test_classes_match_closure(group, n):
    assert wreath.brute_force_classes(group, n) == [
        (perm_of(group, rep), size) for rep, size in closure_classes(group, n)]


@pytest.mark.parametrize("group,n", CASES, ids=IDS)
def test_types_match_cycle_products(group, n):
    """On every id, the type read off the permutation is the type of the
    element's cycle products, and the CLI decoding gives the element."""
    model = element_model(group, n)
    for p, a in zip(model.perms, enumerate_wreath_elements(group, n)):
        assert type_of(group, p) is oracle_type(group, a)
        assert wreath.decode_element(group, p) == (list(a.gs), list(a.perm))


@pytest.mark.parametrize("group,n", CASES, ids=IDS)
def test_induction_bags_match_conjugation_sweep(group, n):
    for total in range(2, n + 1):
        reps = tuple(enumerate_types(group, total))
        for a in range(1, total):
            got = fock._induction_bags(group, a, total - a, reps, 50_000)
            assert got == conjugation_bags(group, a, total - a, reps)


@pytest.mark.parametrize("group,n", CASES[:3], ids=IDS[:3])
def test_model_structure(group, n):
    """Ids, permutations, inverses, conjugators and products against the
    (g; s) arithmetic; a permutation is compared as the tuple of its
    images, whatever its encoding."""
    model = element_model(group, n)
    elements = enumerate_wreath_elements(group, n)
    assert elements == sorted(elements)
    perms = [perm_of(group, a) for a in elements]
    assert [tuple(p) for p in model.perms] == perms
    assert tuple(model.perms[0]) == tuple(range(group.order * n))
    assert [tuple(h) for h in model.generators] == [
        perm_of(group, h) for h in wreath_generators(group, n)]
    for i, a in enumerate(elements):
        assert model.index[model.perms[i]] == i
        assert elements[model.inverse[i]] == wreath_inv(group, a)
        x = elements[model.conjugator[i]]
        z = elements[model.classes[model.class_of[i]][0]]
        assert wreath_mul(group, wreath_mul(group, x, z),
                          wreath_inv(group, x)) == a
        for j in (0, len(elements) // 3, len(elements) - 1):
            b = elements[j]
            ab = wreath._compose(model.perms[i], model.perms[j])
            assert tuple(ab) == tuple(map(perms[i].__getitem__, perms[j]))
            assert elements[model.index[ab]] == wreath_mul(group, a, b)


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_generators_close_to_the_wreath_product(name):
    """For n <= 3 with |G_n| <= 50,000, the products of the generators of
    G_n reach all |G_n| elements."""
    group = SMALL_GROUPS[name]()
    for n in range(1, 4):
        if wreath_order(group, n) > 50_000:
            break
        moves = [lambda p, h=h: tuple([h[x] for x in p])
                 for h in wreath._generators(group, n)]
        got = closure([tuple(range(group.order * n))], moves)
        assert len(got) == wreath_order(group, n)


def test_limit_raises_before_any_work():
    with pytest.raises(WreathError, match="exceeds limit 1000"):
        element_model(symmetric(3), 4, 1000)


def clear_caches():
    wreath._element_model.cache_clear()
    power_orbifold_euler.cache_clear()


def test_commutation_tests_below_all_pairs(monkeypatch):
    """e(X^2, S3_2) takes fewer commutation tests than |G_2|^2 = 5184."""
    tests = Counter()
    real_commutes = wreath._commutes

    def counting_commutes(p, q):
        tests["commutes"] += 1
        return real_commutes(p, q)

    monkeypatch.setattr(wreath, "_commutes", counting_commutes)
    clear_caches()
    try:
        g = symmetric(3)
        assert power_orbifold_euler(regular_gset(g), 2) == 2
    finally:
        clear_caches()
    assert 0 < tests["commutes"] < wreath_order(g, 2) ** 2


def test_model_past_256_points_is_tuples():
    """Z257 wr S_1 has 257 points, one more than a byte addresses: its
    permutations are tuples, and its classes, inverses and conjugators
    match the (g; s) arithmetic."""
    group = cyclic(257)
    model = element_model(group, 1)
    assert {type(p) for p in model.perms} == {tuple}
    assert len(model.perms[0]) == 257
    assert wreath.brute_force_classes(group, 1) == [
        (perm_of(group, rep), size) for rep, size in closure_classes(group, 1)]
    elements = enumerate_wreath_elements(group, 1)
    for i, a in enumerate(elements):
        assert elements[model.inverse[i]] == wreath_inv(group, a)
        z = elements[model.classes[model.class_of[i]][0]]
        assert wreath_conj(group, elements[model.conjugator[i]], z) == a


@pytest.mark.parametrize("group,n", [(symmetric(3), 2), (cyclic(3), 3)],
                         ids=["S3wr2", "Z3wr3"])
def test_tuple_path_builds_the_bytes_model(group, n, monkeypatch):
    """With the point cap of the bytes encoding one below |G| n, the same
    G_n is built from tuples, with equal tables and induction bags."""
    reps = tuple(enumerate_types(group, n))
    clear_caches()
    packed = element_model(group, n)
    packed_bags = fock._induction_bags(group, 1, n - 1, reps, 50_000)
    monkeypatch.setattr(wreath, "_BYTES_POINTS", group.order * n - 1)
    clear_caches()
    try:
        plain = element_model(group, n)
        plain_bags = fock._induction_bags(group, 1, n - 1, reps, 50_000)
    finally:
        clear_caches()
    assert {type(p) for p in packed.perms} == {bytes}
    assert {type(p) for p in plain.perms} == {tuple}
    assert [tuple(p) for p in packed.perms] == list(plain.perms)
    for name in ("inverse", "generator_conj", "classes", "class_of",
                 "conjugator", "centralizers"):
        assert getattr(packed, name) == getattr(plain, name), name
    assert packed_bags == plain_bags


@pytest.mark.parametrize("a", [1, 2, 3])
def test_induction_bags_type_each_half_once(a, monkeypatch):
    """Z3 wr S_4 cut at a: each distinct half of a member of G_a x G_b is
    typed once, so at most |G_a| + |G_b| types are read, not one pair per
    member."""
    group, b = cyclic(3), 4 - a
    calls = Counter()
    real_type_of = fock.type_of

    def counting_type_of(g, p):
        calls["type_of"] += 1
        return real_type_of(g, p)

    monkeypatch.setattr(fock, "type_of", counting_type_of)
    fock._induction_bags(group, a, b, tuple(enumerate_types(group, 4)),
                         50_000)
    assert 0 < calls["type_of"] <= \
        wreath_order(group, a) + wreath_order(group, b)
