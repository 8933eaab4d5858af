"""Finite G-sets: the concrete model for the fixed-point lemmas, the
delocalization dimension count, orbifold Euler characteristics, and the
Theorem 6.1 / Macdonald / McKay series identities.

Orbifold Euler characteristics are always computed by two independent
routes (commuting-pair average and inertia-orbit count) which must agree;
wreath powers reuse the same engine through the element model of G_n,
whose elements are permutations of the points of G x {0..n-1}
(`wreath.ElementModel`).  The points of X^n are indices in product order;
an element acts on them through one point table, and its fixed points are
a bit set.  The pair sum is walked once per conjugacy class: simultaneous
conjugation keeps |X^a n X^b|, so the sum over C(a) is the same for every
a in a class.
"""
from __future__ import annotations

import itertools
import json
from functools import cached_property, lru_cache
from math import comb
from operator import attrgetter

from .fock import graded_dim
from .groups import ByValue, FiniteGroup, binary_dihedral, \
    binary_octahedral, cyclic, json_count, json_rows, orbits, sl2_f3, sl2_f5
from .report import Report
from .scalars import euler_product
from .wreath import ElementModel, element_model, type_of, wreath_order


class GSetError(ValueError):
    pass


class GSet(ByValue):
    """A finite G-set on points 0..size-1; action[g][x] = g . x.

    (ab).x = a.(b.x) is checked for every a and every generator b: the b
    for which it holds for all a hold the identity and are closed under
    the product, as G is associative, so they are all of G."""

    __slots__ = ("group", "size", "action", "name")
    _key = attrgetter(*__slots__)

    def __init__(self, group: FiniteGroup, size: int,
                 action: tuple[tuple[int, ...], ...], name: str = "X"):
        self.group, self.size, self.action, self.name = \
            group, size, action, name
        g = group
        if len(self.action) != g.order:
            raise GSetError("need one action row per group element")
        for row in self.action:
            if len(row) != size or sorted(row) != list(range(size)):
                raise GSetError("each group element must act by a permutation")
        if tuple(self.action[0]) != tuple(range(self.size)):
            raise GSetError("identity must act trivially")
        for a in range(g.order):
            for b in g.generators:
                ab = g.mul(a, b)
                for x in range(self.size):
                    if self.action[ab][x] != self.action[a][self.action[b][x]]:
                        raise GSetError(
                            f"action not compatible at ({a},{b},{x})")

    def act(self, g: int, x: int) -> int:
        return self.action[g][x]

    def fixed(self, g: int) -> tuple[int, ...]:
        return tuple(x for x in range(self.size) if self.action[g][x] == x)

    def to_json(self) -> str:
        return json.dumps({"size": self.size,
                           "action": [list(r) for r in self.action]})


def point_gset(group: FiniteGroup) -> GSet:
    return GSet(group, 1, ((0,),) * group.order, name="pt")


def regular_gset(group: FiniteGroup) -> GSet:
    rows = tuple(tuple(group.mul(g, x) for x in range(group.order))
                 for g in range(group.order))
    return GSet(group, group.order, rows, name="regular")


def coset_gset(group: FiniteGroup, subgroup_elements) -> GSet:
    """G acting on the left cosets of the subgroup H with the given
    elements.  A GSetError unless H lies in G, contains the identity and
    is closed under the product."""
    h = sorted(set(subgroup_elements))
    hset = set(h)
    if not hset <= set(range(group.order)):
        raise GSetError("subgroup elements must be elements of the group")
    if 0 not in hset:
        raise GSetError("subgroup must contain the identity")
    if any(group.mul(a, b) not in hset for a in h for b in h):
        raise GSetError("subgroup must be closed under the product")
    # walking ids in order, the first id of each coset is its smallest
    coset_of, reps = [None] * group.order, []
    for x in range(group.order):
        if coset_of[x] is None:
            for a in h:
                coset_of[group.mul(x, a)] = len(reps)
            reps.append(x)
    rows = tuple(tuple(coset_of[group.mul(g, r)] for r in reps)
                 for g in range(group.order))
    return GSet(group, len(reps), rows, name=f"cosets{len(reps)}")


def gset_from_json(group: FiniteGroup, text: str, name: str = "X") -> GSet:
    data = json.loads(text)
    if not isinstance(data, dict) or "size" not in data or "action" not in data:
        raise GSetError("expected JSON object with 'size' and 'action'")
    action = json_rows(data["action"], "'action'", GSetError)
    return GSet(group, json_count(data["size"], "'size'", GSetError),
                tuple(tuple(r) for r in action), name=name)


# -- wreath powers ----------------------------------------------------------

class PowerGSet:
    """X^n with its G_n action a.(x_1..x_n) = (g_i x_{s^-1(i)})_i.  Point t
    is the t-th tuple of itertools.product(range(|X|), repeat=n), so
    t = sum of x_i |X|^(n-1-i); elements are `wreath.ElementModel`
    permutations, read through p[i |G|] = s(i) |G| + g_s(i)."""

    def __init__(self, base: GSet, n: int):
        self.base, self.n = base, n

    @property
    def size(self) -> int:
        return self.base.size ** self.n

    def point_table(self, p) -> tuple[int, ...]:
        """The point table of p: entry t is the index of p.x, x the t-th
        point.  Coordinate i of x adds g_s(i) x_i |X|^(n-1-s(i))."""
        k, n, order = self.base.size, self.n, self.base.group.order
        steps = []
        for i in range(n):
            j, g = divmod(p[i * order], order)
            steps.append([y * k ** (n - 1 - j) for y in self.base.action[g]])
        return tuple(map(sum, itertools.product(*steps)))

    @cached_property
    def _masks(self) -> dict[tuple[int, int, int], int]:
        """(g, i, j) -> bit set of the points x with g.x_i = x_j; bit t is
        the t-th point.  Built from the masks `at[i][y]` of x_i = y."""
        k, n = self.base.size, self.n
        at = []
        for i in range(n):
            step = k ** (n - 1 - i)         # run of equal x_i
            period = k * step
            # sum of 2^(t period) over t < k^i; no points when X is empty
            repeat = (((1 << (period * k ** i)) - 1) // ((1 << period) - 1)
                      if k else 0)
            at.append([(((1 << step) - 1) << (y * step)) * repeat
                       for y in range(k)])
        return {(g, i, j): sum(at[i][y] & at[j][row[y]] for y in range(k))
                for g, row in enumerate(self.base.action)
                for i in range(n) for j in range(n)}

    def fixed_mask(self, p) -> int:
        """The bit set of the points with x_{s(i)} = g_{s(i)} x_i, the AND
        over the coordinates i of one precomputed mask each."""
        masks, order = self._masks, self.base.group.order
        out = (1 << self.size) - 1
        for i in range(self.n):
            j, g = divmod(p[i * order], order)
            out &= masks[g, i, j]
        return out

    def fixed(self, p) -> list[int]:
        """The points of `fixed_mask(p)`, in increasing order."""
        return _bits(self.fixed_mask(p))


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def gset_power(x: GSet, n: int, limit: int = 50_000) -> PowerGSet:
    """X^n, refused when |X|^n exceeds the limit (the CLI's --limit)."""
    if n < 1:
        raise GSetError("power needs n >= 1")
    if x.size ** n > limit:
        raise GSetError(f"|X|^n = {x.size ** n} exceeds --limit {limit}")
    return PowerGSet(x, n)


# -- orbifold Euler characteristics ----------------------------------------

def commuting_pair_sum(masks: list[int], model: ElementModel) -> int:
    """sum over commuting pairs (a, b) in G_n of |X^a n X^b|, masks[i] the
    fixed-point mask of id i, walked once per class: |cl(z)| times the sum
    over b in C(z) at the representative z, C(z) by `brute_centralizer`."""
    total = 0
    for cl in model.classes:
        mz = masks[cl[0]]
        if mz:
            total += len(cl) * sum((mz & masks[b]).bit_count()
                                   for b in model.brute_centralizer(cl[0]))
    return total


@lru_cache(maxsize=32)
def power_orbifold_euler(x: GSet, n: int, limit: int = 50_000) -> int:
    """e(X^n, G_n), by the commuting-pair average and independently by
    counting inertia orbits; the two must agree.  Both |G_n| and |X|^n
    are refused past the limit."""
    if n == 0:
        return 1
    power = gset_power(x, n, limit)
    model = element_model(x.group, n, limit)
    masks = [power.fixed_mask(p) for p in model.perms]
    total = commuting_pair_sum(masks, model)
    if total % len(model) != 0:
        raise GSetError("commuting-pair sum is not divisible by |G_n|")
    e_pairs = total // len(model)

    # a generator h moves the inertia point (a, t) to (h a h^-1, h t)
    moves = [lambda it, conj=conj, table=power.point_table(h):
             (conj[it[0]], table[it[1]])
             for h, conj in zip(model.generators, model.generator_conj)]
    count = len(orbits([(i, t) for i, mask in enumerate(masks)
                        for t in _bits(mask)], moves))
    if e_pairs != count:
        raise GSetError(
            f"orbifold Euler forms disagree: pairs {e_pairs}, orbits {count}")
    return e_pairs


def orbifold_euler(x: GSet) -> int:
    """e(X, G): both definitions computed and compared."""
    return power_orbifold_euler(x, 1)


def inertia_basis(x: GSet) -> list[tuple[int, tuple[int, ...]]]:
    """(class c, orbit of X^c under the centralizer) pairs, one entry per
    orbit, each orbit as a sorted point tuple."""
    g = x.group
    out = []
    for c in range(g.num_classes):
        rep = g.class_reps[c]
        cent = [x.action[z].__getitem__ for z in range(g.order)
                if g.mul(z, rep) == g.mul(rep, z)]
        fixed = x.fixed(rep)
        for orbit in orbits(fixed, cent):
            if not orbit <= set(fixed):
                raise GSetError("centralizer orbit leaves the fixed set")
            out.append((c, tuple(sorted(orbit))))
    return out


def inertia_dim(x: GSet) -> int:
    """dim of the delocalized K-group: sum over classes of |X^c/Z(c)|."""
    return len(inertia_basis(x))


@lru_cache(maxsize=32)
def _orbit_counts_by_class(x: GSet) -> tuple[int, ...]:
    """k_c = |X^c/Z_G(c)| per class c of G."""
    k = [0] * x.group.num_classes
    for c, _orbit in inertia_basis(x):
        k[c] += 1
    return tuple(k)


def symmetric_orbit_count(x: GSet, p) -> int:
    """|(X^n)^p / Z(p)| predicted by the symmetric-product formula:
    prod over (c, r) of C(k_c + m - 1, m) with k_c = |X^c/Z_G(c)|."""
    k = _orbit_counts_by_class(x)
    out = 1
    rho = type_of(x.group, p)
    for c, lam in rho.parts:
        for r in set(lam):
            m = lam.count(r)
            out *= comb(k[c] + m - 1, m)
    return out


def lemma_16_check(x: GSet, n: int, limit: int = 50_000) -> bool:
    """For every a in G_n: the centralizer orbit count on (X^n)^a equals
    the symmetric-product formula.  One representative z per class is
    enough, C(z) by `brute_centralizer`: x carries (X^n)^z onto
    (X^n)^{x z x^-1} and C(z) onto C(x z x^-1), and the formula depends
    only on the type.  Each element acts through its point table, built
    once."""
    model = element_model(x.group, n, limit)
    power = gset_power(x, n, limit)
    moves = [power.point_table(p).__getitem__ for p in model.perms]
    for cl in model.classes:
        p = model.perms[cl[0]]
        cent = [moves[j] for j in model.brute_centralizer(cl[0])]
        if len(orbits(power.fixed(p), cent)) != symmetric_orbit_count(x, p):
            return False
    return True


def burnside_check(x: GSet) -> bool:
    """sum_c |X^c/Z(c)| equals the number of G-orbits on the inertia set
    {(g, x): g x = x}."""
    g = x.group
    pairs = [(h, p) for h in range(g.order) for p in x.fixed(h)]
    moves = [lambda hp, z=z: (g.conj(z, hp[0]), x.act(z, hp[1]))
             for z in range(g.order)]
    return len(orbits(pairs, moves)) == inertia_dim(x)


def ktheory_euler_check(x: GSet) -> bool:
    """Eq. (28): e(X, G) = dim K0 - dim K1 with K1 = 0 here."""
    return orbifold_euler(x) == inertia_dim(x)


def euler_series_check(x: GSet, max_degree: int,
                       limit: int = 50_000) -> Report:
    """Theorem 6.1: sum_n e(X^n, G_n) q^n = prod (1 - q^r)^(-e(X,G))."""
    rep = Report(f"euler_series_check({x.group.name}, {x.name}, N={max_degree})")
    e = orbifold_euler(x)
    rhs = euler_product(e, max_degree)
    lhs = [1] + [power_orbifold_euler(x, n, limit)
                 for n in range(1, max_degree + 1)]
    ok = lhs == rhs
    rep.add(f"Theorem 6.1 series, e(X,G) = {e}", ok,
            None if ok else f"lhs {lhs}")
    return rep


def theorem_main_dim_check(x: GSet, max_degree: int,
                           limit: int = 50_000) -> Report:
    """Theorem 3.1: inertia count of (G_n, X^n) equals the q^n coefficient
    of prod (1 - q^r)^(-inertia_dim(G, X))."""
    rep = Report(f"theorem_main_dim_check({x.group.name}, {x.name}, N={max_degree})")
    d = inertia_dim(x)
    rhs = euler_product(d, max_degree)
    rep.check(f"Theorem 3.1 graded dimension, inertia_dim = {d}",
              ((n, power_orbifold_euler(x, n, limit))
               for n in range(1, max_degree + 1)),
              lambda n, got: got == rhs[n],
              lambda n, got: f"n={n}: {got}")
    return rep


def macdonald_check(size_x: int, max_degree: int) -> bool:
    """Eq. (3): symmetric-product counts against (1 - q)^(-|X|)."""
    if size_x < 0:
        raise GSetError("need a nonnegative set size")
    for n in range(max_degree + 1):
        direct = sum(1 for _ in itertools.combinations_with_replacement(
            range(size_x), n))
        if direct != (comb(size_x + n - 1, n) if n else 1):
            return False
    return True


_MCKAY_ROWS = [
    ("cyclic(2)", lambda: cyclic(2), 2, "A1", 5),
    ("cyclic(3)", lambda: cyclic(3), 3, "A2", 5),
    ("cyclic(5)", lambda: cyclic(5), 5, "A4", 4),
    ("binary_dihedral(2)", lambda: binary_dihedral(2), 5, "D4", 4),
    ("binary_dihedral(3)", lambda: binary_dihedral(3), 6, "D5", 4),
    ("sl2_f3", sl2_f3, 7, "E6", 4),
    ("binary_octahedral", binary_octahedral, 8, "E7", 3),
    ("sl2_f5", sl2_f5, 9, "E8", 3),
]


def mckay_table() -> Report:
    """Class counts, ADE ranks, and the Goettsche-series coincidence
    dim_q F_G(pt) = prod (1 - q^r)^(-|G_*|) for the McKay groups."""
    rep = Report("mckay_table")
    for label, make, classes, ade, depth in _MCKAY_ROWS:
        g = make()
        ok = g.num_classes == classes
        rep.add(f"{label}: |G_*| = {classes} ({ade}, rank {classes - 1})",
                ok, None if ok else f"got {g.num_classes}")
        counts = graded_dim(g, depth)
        ok = counts == euler_product(classes, depth)
        rep.add(f"{label}: dim_q F_G(pt) = euler_product({classes}) "
                f"to q^{depth}", ok, None if ok else str(counts))
    return rep


def euler_limits(x: GSet, max_degree: int, limit: int = 50_000) -> None:
    """Refuse `euler_verify` before its work, with the error it would meet
    part way: past the limit, the Lemma 1.6 row's |G_2| |X|^2 point tables,
    then |X|^n and |G_n| for n = 1..max_degree."""
    lemma_cost = wreath_order(x.group, 2) * x.size ** 2
    if lemma_cost > limit:
        raise GSetError(f"|G_2| |X|^2 = {lemma_cost} exceeds --limit {limit}")
    for n in range(1, max_degree + 1):
        gset_power(x, n, limit)
        wreath_order(x.group, n, limit)


def euler_verify(x: GSet, max_degree: int, limit: int = 50_000) -> Report:
    """The orbifold-Euler suite for one G-set, refused before any row by
    `euler_limits` when it would pass the limit."""
    euler_limits(x, max_degree, limit)
    rep = Report(f"euler_verify({x.group.name}, {x.name}, N={max_degree})")
    try:
        e = orbifold_euler(x)
        rep.add(f"both e(X,G) definitions agree (value {e})", True)
    except GSetError as exc:
        rep.add("both e(X,G) definitions agree", False, str(exc))
        return rep
    rep.add("Burnside inertia consistency", burnside_check(x))
    rep.add("Eq. (28): e(X,G) = inertia_dim", ktheory_euler_check(x))
    rep.extend(euler_series_check(x, max_degree, limit).checks)
    rep.extend(theorem_main_dim_check(x, max_degree, limit).checks)
    rep.add("Lemma 1.6 symmetric-product counts (n = 2)",
            lemma_16_check(x, 2, limit))
    rep.add(f"Macdonald formula for |X| = {x.size}",
            macdonald_check(x.size, max_degree + 2))
    return rep
