"""Finite groups with conjugacy data, class functions and induction machinery.

Groups are closed multiplication tables over element ids 0..n-1 with 0 the
identity.  Every builtin, permutation group and subgroup is one builder,
`_generated`: an identity and generators closed under a product, the
identity first and the rest sorted.  Conjugacy classes are found by
brute-force orbit closure, which is fine at the scales this library
targets (|G| up to a few thousand); `closure` and `orbits` are that one
search, shared with the G-set code.
Class functions are stored per conjugacy class, with exact values in
Q(zeta_e) (`scalars`): a rational value is an ``int`` or a ``Fraction``,
and integer values stay ``int``s.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, attrgetter

from .scalars import Scalar, div


class GroupError(ValueError):
    pass


class ByValue:
    """Equality and hash by the tuple of fields that the class attribute
    `_key`, an `operator.attrgetter`, reads, as a frozen dataclass has."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and \
            self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))


def closure(seeds, moves, limit: int | None = None) -> set:
    """The set reached from the seeds by applying the moves (functions of
    one point) again and again.  Raises GroupError as soon as the set would
    grow past limit."""
    reached = set(seeds)
    stack = list(reached)
    while stack:
        x = stack.pop()
        for move in moves:
            y = move(x)
            if y not in reached:
                if limit is not None and len(reached) >= limit:
                    raise GroupError(f"closure exceeds limit {limit}")
                reached.add(y)
                stack.append(y)
    return reached


def orbits(points, moves) -> list[set]:
    """The orbits of the points under the moves, as sets, in order of
    their first point."""
    out, seen = [], set()
    for x in points:
        if x not in seen:
            out.append(closure((x,), moves))
            seen |= out[-1]
    return out


def conjugacy_classes(n: int, rows) -> tuple[tuple, tuple]:
    """(classes, class_of) of a group on ids 0..n-1, rows[t][x] the id of
    h_t x h_t^-1 for a generating set h_t: conjugating by generators
    reaches every conjugate.  Each class is sorted, and the classes are
    ordered by their smallest id, so class 0 is the identity's."""
    classes = tuple(tuple(sorted(orbit)) for orbit in
                    orbits(range(n), [row.__getitem__ for row in rows]))
    class_of = [0] * n
    for c, cls in enumerate(classes):
        for x in cls:
            class_of[x] = c
    return classes, tuple(class_of)


class LabelSpace:
    """The labels c = 0..len(weights)-1 of the sigma engine (`wreath`,
    `heisenberg`).  A label c >= odd is odd and takes distinct parts;
    Z_rho = prod_c z_{rho(c)} weights[c]^l(rho(c)) (Macdonald, I, App. B)."""

    weights: tuple[int, ...]
    odd: int


class FiniteGroup(LabelSpace):
    """A finite group given by its full Cayley table.

    Element 0 is the identity; conjugacy classes are ordered by their
    smallest member id, so class 0 is always the identity class.  As the
    label space of F_G, its labels are the classes, all even, of weight zeta_c.
    """

    def __init__(self, table, name: str = "G"):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise GroupError("Cayley table must be square and nonempty")
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise GroupError("table entries must be ids in 0..n-1")
        if any(table[0][j] != j for j in range(n)) or \
           any(table[i][0] != i for i in range(n)):
            raise GroupError("element 0 must be a two-sided identity")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == 0 and table[j][i] == 0:
                    inv[i] = j
                    break
            if inv[i] is None:
                raise GroupError(f"element {i} has no two-sided inverse")
        self.generators = tuple(_check_associative(table))
        self.order = n
        self.table = table
        self.inverse = tuple(inv)
        self.name = name
        self._init_conjugacy()
        self._init_exponent()

    def _init_conjugacy(self):
        n, t = self.order, self.table
        # row a maps x to a x a^-1
        self.classes, self.class_of = conjugacy_classes(n, [
            tuple(t[t[a][x]][self.inverse[a]] for x in range(n))
            for a in self.generators])
        self.num_classes = len(self.classes)
        self.class_reps = tuple(cls[0] for cls in self.classes)
        self.centralizer_orders = tuple(n // len(cls) for cls in self.classes)
        self.weights, self.odd = self.centralizer_orders, self.num_classes

    def _init_exponent(self):
        e = 1
        orders = []
        for g in range(self.order):
            k, x = 1, g
            while x != 0:
                x = self.table[x][g]
                k += 1
            orders.append(k)
            e = lcm(e, k)
        self.element_orders = tuple(orders)
        self.exponent = e

    # -- element arithmetic ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, g: int, k: int) -> int:
        k %= self.element_orders[g]
        out = 0
        for _ in range(k):
            out = self.table[out][g]
        return out

    def conj(self, x: int, g: int) -> int:
        """x g x^-1."""
        return self.table[self.table[x][g]][self.inverse[x]]

    def class_size(self, c: int) -> int:
        return len(self.classes[c])

    def zeta(self, c: int) -> int:
        """Order of the centralizer of an element in class c."""
        return self.centralizer_orders[c]

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order}, classes={self.num_classes})"

    def to_json(self) -> str:
        return json.dumps({"order": self.order,
                           "table": [list(r) for r in self.table]})


# -- constructors ----------------------------------------------------------

def _check_associative(table) -> list[int]:
    """Light's test: (x a) y == x (a y) for all x, y and every a in a set A
    whose left-normed products cover the table.  The a passing the test
    are closed under the product, so this is associativity everywhere.
    Returns A, a generating set of the group."""
    n = len(table)
    covered = {0}  # (x 0) y == x (0 y) holds for the identity
    gens = []
    for g in range(n):
        if g not in covered:
            gens.append(g)
            covered = closure(covered, [lambda x, a=a: table[x][a]
                                        for a in gens])
    for a in gens:
        row_a = table[a]
        for x in range(n):
            row_xa, row_x = table[table[x][a]], table[x]
            if row_xa != tuple([row_x[v] for v in row_a]):
                y = next(y for y in range(n) if row_xa[y] != row_x[row_a[y]])
                raise GroupError(f"table is not associative at ({x},{a},{y})")
    return gens


def json_rows(value, what: str, error=GroupError) -> list[list[int]]:
    """A JSON value that must be a list of lists of integers."""
    if not (isinstance(value, list) and all(
            isinstance(row, list) and all(type(v) is int for v in row)
            for row in value)):
        raise error(f"{what} must be a list of lists of integers")
    return value


def json_count(value, what: str, error=GroupError) -> int:
    """A JSON value that must be a nonnegative integer."""
    if type(value) is not int or value < 0:
        raise error(f"{what} must be a nonnegative integer")
    return value


# the builtins and permutation closures refuse a larger order before any
# table is built: a Cayley table has order^2 entries
MAX_ORDER = 2_000


def _check_order(order: int):
    if order > MAX_ORDER:
        raise GroupError(f"group order {order} exceeds cap {MAX_ORDER}")


def _generated(ident, gens, mul, name: str,
               limit: int = MAX_ORDER) -> FiniteGroup:
    """The group that gens generate under the product mul: the closure of
    ident under right multiplication by gens, refused as soon as it passes
    the limit, ordered identity first and the rest sorted.  Its Cayley
    table takes |G||S| products, and then a breadth-first spanning tree
    from the identity fills column z = y s from column y, as x z = (x y) s,
    by lookups only."""
    try:
        elems = closure([ident], [lambda x, s=s: mul(x, s) for s in gens],
                        limit)
    except GroupError:
        raise GroupError(f"group order exceeds cap {limit}") from None
    ordered = [ident] + sorted(elems - {ident})
    index = {x: i for i, x in enumerate(ordered)}
    right = [[index[mul(x, s)] for x in ordered] for s in gens]
    cols = {0: range(len(ordered))}
    queue = [0]
    for y in queue:
        col = cols[y]
        for r in right:
            z = r[y]
            if z not in cols:
                cols[z] = [r[v] for v in col]
                queue.append(z)
    return FiniteGroup(list(zip(*(cols[z] for z in range(len(ordered))))),
                       name)


def group_from_cayley_json(text: str, name: str = "G") -> FiniteGroup:
    data = json.loads(text)
    if not isinstance(data, dict) or "table" not in data:
        raise GroupError("expected JSON object with 'order' and 'table'")
    table = json_rows(data["table"], "'table'")
    if "order" in data and len(table) != json_count(data["order"], "'order'"):
        raise GroupError("declared order does not match table size")
    return FiniteGroup(table, name=name)


def group_from_permutations(generators, degree: int,
                            name: str = "perm") -> FiniteGroup:
    """Close a set of 0-indexed permutations of {0..degree-1} under product,
    refused with a GroupError as soon as the closure passes MAX_ORDER.  A
    degree past MAX_ORDER is refused first, so the closure holds at most
    MAX_ORDER^2 points, the size of the largest Cayley table."""
    if degree > MAX_ORDER:
        raise GroupError(f"permutation degree {degree} exceeds cap "
                         f"{MAX_ORDER}")
    gens = []
    for g in generators:
        p = tuple(g)
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise GroupError(f"not a permutation of 0..{degree - 1}: {g}")
        gens.append(p)
    return _generated(tuple(range(degree)), gens,
                      lambda a, b: tuple([a[i] for i in b]), name)


def group_from_permutations_json(text: str, name: str = "perm") -> FiniteGroup:
    data = json.loads(text)
    if not isinstance(data, dict) or "generators" not in data or "degree" not in data:
        raise GroupError("expected JSON object with 'degree' and 'generators'")
    gens = json_rows(data["generators"], "'generators'")
    degree = json_count(data["degree"], "'degree'")
    return group_from_permutations(gens, degree, name=name)


@lru_cache(maxsize=None)
def trivial_group() -> FiniteGroup:
    return _generated(0, [], add, "1")


@lru_cache(maxsize=None)
def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic(n) needs n >= 1")
    _check_order(n)
    return _generated(0, [1 % n], lambda a, b: (a + b) % n, f"Z{n}")


@lru_cache(maxsize=None)
def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("symmetric(n) needs n >= 1")
    gens = [(*range(1, n), 0)]              # the n-cycle
    if n > 1:
        gens.append((1, 0, *range(2, n)))   # and a transposition
    return group_from_permutations(gens, n, name=f"S{n}")


def _dihedral(n: int, m: int, name: str) -> FiniteGroup:
    """r^n = 1, s^2 = r^m, s r s^-1 = r^-1; r^k s^e is (e, k), so r^0..r^n-1
    come first, then r^0 s..r^n-1 s."""
    def mul(a, b):
        e, k = a
        d, l = b
        if e == 0:
            return (d, (k + l) % n)
        return (1 - d, (k - l + m * d) % n)

    return _generated((0, 0), [(0, 1 % n), (1, 0)], mul, name)


@lru_cache(maxsize=None)
def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: r^n = s^2 = 1, s r s = r^-1."""
    if n < 1:
        raise GroupError("dihedral(n) needs n >= 1")
    _check_order(2 * n)
    return _dihedral(n, 0, f"D{n}")


@lru_cache(maxsize=None)
def binary_dihedral(m: int) -> FiniteGroup:
    """Generalized quaternion group of order 4m: a^2m = 1, b^2 = a^m,
    b a b^-1 = a^-1.  Has m + 3 conjugacy classes (type D_{m+2})."""
    if m < 1:
        raise GroupError("binary_dihedral(m) needs m >= 1")
    _check_order(4 * m)
    return _dihedral(2 * m, m, f"BD{m}")


def _sl2(p: int, name: str) -> FiniteGroup:
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)

    # S = [[0, -1], [1, 0]] and T = [[1, 1], [0, 1]] generate SL2(F_p)
    return _generated((1, 0, 0, 1), [(0, p - 1, 1, 0), (1, 1, 0, 1)], mul,
                      name)


@lru_cache(maxsize=None)
def sl2_f3() -> FiniteGroup:
    """Binary tetrahedral group, order 24, 7 classes (type E6)."""
    return _sl2(3, "SL2F3")


@lru_cache(maxsize=None)
def sl2_f5() -> FiniteGroup:
    """Binary icosahedral group, order 120, 9 classes (type E8)."""
    return _sl2(5, "SL2F5")


@lru_cache(maxsize=None)
def binary_octahedral() -> FiniteGroup:
    """Binary octahedral group, order 48, 8 classes (type E7).

    Built from exact quaternion arithmetic over Z[sqrt2]: the binary
    tetrahedral units together with (1+i)/sqrt2.  Every coordinate is
    (a + b sqrt2)/2 with integers a, b, stored as the pair (a, b); the
    coordinates of a product of two units are again of that form, so
    halving the integer sums is exact.
    """
    def qmul(q, r):
        a, b, c, d = q
        e, f, g, h = r
        rows = (((1, a, e), (-1, b, f), (-1, c, g), (-1, d, h)),
                ((1, a, f), (1, b, e), (1, c, h), (-1, d, g)),
                ((1, a, g), (-1, b, h), (1, c, e), (1, d, f)),
                ((1, a, h), (1, b, g), (-1, c, f), (1, d, e)))
        out = []
        for row in rows:
            u = v = 0
            for sign, x, y in row:
                u += sign * (x[0] * y[0] + 2 * x[1] * y[1])
                v += sign * (x[0] * y[1] + x[1] * y[0])
            out.append((u // 2, v // 2))
        return tuple(out)

    zero = (0, 0)
    i = (zero, (2, 0), zero, zero)
    omega = ((-1, 0), (1, 0), (1, 0), (1, 0))
    s = ((0, 1), (0, 1), zero, zero)
    g = _generated(((2, 0), zero, zero, zero), [i, omega, s], qmul, "BO48")
    if g.order != 48:
        raise GroupError(f"binary octahedral closure has size {g.order}")
    return g


_BUILTIN_PARAMETRIC = {
    "cyclic": cyclic,
    "symmetric": symmetric,
    "dihedral": dihedral,
    "binary_dihedral": binary_dihedral,
}

_BUILTIN_FIXED = {
    "trivial": trivial_group,
    "sl2_f3": sl2_f3,
    "sl2_f5": sl2_f5,
    "binary_octahedral": binary_octahedral,
}


def builtin(name: str, parameter: int | None = None) -> FiniteGroup:
    """Look up a named group; e.g. builtin('cyclic', 5) or builtin('sl2_f3')."""
    name = name.lower()
    if name in _BUILTIN_FIXED:
        if parameter is not None:
            raise GroupError(f"{name} takes no parameter")
        return _BUILTIN_FIXED[name]()
    if name in _BUILTIN_PARAMETRIC:
        if parameter is None:
            raise GroupError(f"{name} needs a parameter")
        return _BUILTIN_PARAMETRIC[name](parameter)
    raise GroupError(f"unknown builtin group {name!r}")


# -- subgroups -------------------------------------------------------------

class SubgroupEmbedding(ByValue):
    """An injective homomorphism from a small group into a bigger one."""

    __slots__ = ("source", "target", "mapping")
    _key = attrgetter(*__slots__)

    def __init__(self, source: FiniteGroup, target: FiniteGroup,
                 mapping: tuple[int, ...]):
        self.source, self.target, self.mapping = source, target, mapping
        h, g, f = source, target, mapping
        if len(f) != h.order:
            raise GroupError("mapping must cover every source element")
        if len(set(f)) != len(f):
            raise GroupError("mapping must be injective")
        if f[0] != 0:
            raise GroupError("mapping must send identity to identity")
        for a in range(h.order):
            for b in range(h.order):
                if f[h.mul(a, b)] != g.mul(f[a], f[b]):
                    raise GroupError("mapping is not a homomorphism")

    def __call__(self, h_elem: int) -> int:
        return self.mapping[h_elem]

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.mapping)


def subgroup_from_elements(g: FiniteGroup, elements,
                           name: str | None = None) -> SubgroupEmbedding:
    """The abstract subgroup on a subset that holds 0 and is closed under
    the product, its ids in increasing order.  The subset generates its
    closure, which is larger unless the subset is closed: a finite subset
    closed under the product is a subgroup."""
    elems = sorted(set(elements))
    if not elems or elems[0] != 0:
        raise GroupError("subgroup must contain the identity 0")
    if elems[-1] >= g.order:
        raise GroupError(f"subgroup element {elems[-1]} is not in {g.name}")
    try:
        sub = _generated(0, elems, g.mul, name or f"{g.name}_sub{len(elems)}",
                         len(elems))
    except GroupError:
        raise GroupError("subset not closed under product") from None
    return SubgroupEmbedding(sub, g, tuple(elems))


# all_subgroup_element_sets refuses a group with more subgroups than this
MAX_SUBGROUPS = 40


def all_subgroup_element_sets(g: FiniteGroup) -> list[tuple[int, ...]]:
    """All subgroups as sorted element tuples, by iterated generator growth.
    A finite seed generates its closure under right multiplication by the
    seed elements.  Raises GroupError as soon as there are more than
    MAX_SUBGROUPS subgroups."""
    def generated(seed):
        return tuple(sorted(closure(
            [0], [lambda y, s=s: g.table[y][s] for s in seed])))

    try:
        found = closure([(0,)], [lambda sub, x=x: sub if x in sub
                                 else generated(sub + (x,))
                                 for x in range(g.order)], MAX_SUBGROUPS)
    except GroupError:
        raise GroupError(f"subgroup lattice exceeds cap {MAX_SUBGROUPS}"
                         ) from None
    return sorted(found, key=lambda s: (len(s), s))


# -- class functions -------------------------------------------------------

class ClassFunction(ByValue):
    """One exact value per label of a label space: on a finite group, per
    conjugacy class; on the super Fock model, a vector of its (d0|d1)."""

    __slots__ = ("group", "values")
    _key = attrgetter(*__slots__)

    def __init__(self, group: LabelSpace, values: tuple[Scalar, ...]):
        self.group, self.values = group, values
        if len(values) != len(group.weights):
            raise GroupError("need one value per label")

    @classmethod
    def from_rationals(cls, group: FiniteGroup, values) -> "ClassFunction":
        return cls(group, tuple(v if isinstance(v, int) else Fraction(v)
                                for v in values))

    @classmethod
    def zero(cls, group: FiniteGroup) -> "ClassFunction":
        return cls.from_rationals(group, [0] * group.num_classes)

    def value(self, c: int) -> Scalar:
        return self.values[c]

    def at(self, g_elem: int) -> Scalar:
        """The value at the element g_elem of G."""
        return self.values[self.group.class_of[g_elem]]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.group, tuple(
            a + b for a, b in zip(self.values, other.values)))

    def _check(self, other):
        if self.group is not other.group:
            raise GroupError("class functions live on different groups")

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self + (other * -1)

    def __mul__(self, scalar) -> "ClassFunction":
        return ClassFunction(self.group, tuple(v * scalar for v in self.values))

    __rmul__ = __mul__

    def star(self, other: "ClassFunction") -> "ClassFunction":
        """Pointwise product; corresponds to the tensor product."""
        self._check(other)
        return ClassFunction(self.group, tuple(
            a * b for a, b in zip(self.values, other.values)))

    def equals(self, other: "ClassFunction") -> bool:
        return self.group is other.group and self.values == other.values

    def __repr__(self):
        return f"ClassFunction({self.group.name}, {list(self.values)})"


def _check_label(group: LabelSpace, c: int):
    if not 0 <= c < len(group.weights):
        raise GroupError(f"no label {c} on {group.name}")


def sigma_basis(group: LabelSpace, c: int) -> ClassFunction:
    """Indicator of label c scaled by its weight; on G, by zeta_c."""
    _check_label(group, c)
    vals = [0] * len(group.weights)
    vals[c] = group.weights[c]
    return ClassFunction.from_rationals(group, vals)


def trivial_character(group: FiniteGroup) -> ClassFunction:
    return ClassFunction.from_rationals(group, [1] * group.num_classes)


def adams_psi(n: int, chi: ClassFunction) -> ClassFunction:
    """Classical Adams operation: chi goes to (g -> chi(g^n))."""
    g = chi.group
    vals = [chi.at(g.power(g.class_reps[c], n))
            for c in range(g.num_classes)]
    return ClassFunction(g, tuple(vals))


class DualFunctional(ByValue):
    """Linear functional on class functions: <eta, V> = sum_c eta_c V(c)."""

    __slots__ = ("group", "coeffs")
    _key = attrgetter(*__slots__)

    def __init__(self, group: LabelSpace, coeffs: tuple[Scalar, ...]):
        self.group, self.coeffs = group, coeffs
        if len(coeffs) != len(group.weights):
            raise GroupError("need one coefficient per label")

    def __repr__(self):
        return f"DualFunctional(group={self.group!r}, coeffs={self.coeffs!r})"

    @classmethod
    def delta(cls, group: LabelSpace, c: int) -> "DualFunctional":
        _check_label(group, c)
        return cls(group, tuple(int(d == c)
                                for d in range(len(group.weights))))

    def pair(self, v: ClassFunction) -> Scalar:
        if v.group is not self.group:
            raise GroupError("pairing needs a common group")
        return sum(e * x for e, x in zip(self.coeffs, v.values))


# -- induction / restriction / Mackey --------------------------------------

def restrict_cf(emb: SubgroupEmbedding, chi: ClassFunction) -> ClassFunction:
    """Pull a class function on G back to the subgroup H."""
    if chi.group is not emb.target:
        raise GroupError("class function must live on the embedding target")
    h = emb.source
    vals = tuple(chi.at(emb(h.class_reps[c]))
                 for c in range(h.num_classes))
    return ClassFunction(h, vals)


def induce_cf(emb: SubgroupEmbedding, f: ClassFunction) -> ClassFunction:
    """Induced class function, by a walk over each class of G: each y in
    cl(z) is x^-1 z x for zeta_G(z) elements x, so (Ind f)(z) =
    zeta_G(z)/|H| sum of f(y) over y in cl(z) meet H."""
    if f.group is not emb.source:
        raise GroupError("class function must live on the embedding source")
    g, h = emb.target, emb.source
    pre = {emb(x): x for x in range(h.order)}
    return ClassFunction(g, tuple(
        div(sum(f.at(pre[y]) for y in cls if y in pre) * g.zeta(c), h.order)
        for c, cls in enumerate(g.classes)))


def double_cosets(g: FiniteGroup, emb_h: SubgroupEmbedding,
                  emb_l: SubgroupEmbedding) -> list[int]:
    """Minimal representatives of the double cosets H\\G/L."""
    if emb_h.target is not g or emb_l.target is not g:
        raise GroupError("embeddings must land in the given group")
    h_img = sorted(emb_h.image)
    l_img = sorted(emb_l.image)
    seen = [False] * g.order
    reps = []
    for x in range(g.order):
        if seen[x]:
            continue
        reps.append(x)
        for a in h_img:
            ax = g.mul(a, x)
            for b in l_img:
                seen[g.mul(ax, b)] = True
    return reps


# mackey_verify refuses a group of higher order, before its lattice
MAX_MACKEY_ORDER = 120


def mackey_verify(g: FiniteGroup):
    """Mackey's formula over every subgroup pair, with the sigma basis of
    each H as test functions.  Returns a Report."""
    from .report import Report
    if g.order > MAX_MACKEY_ORDER:
        raise GroupError(f"group order {g.order} exceeds Mackey cap "
                         f"{MAX_MACKEY_ORDER}")
    rep = Report(f"mackey_verify({g.name})")
    subs = all_subgroup_element_sets(g)
    embeddings = [subgroup_from_elements(g, s) for s in subs]
    rep.check(f"Mackey formula over {len(subs)}^2 subgroup pairs",
              ((emb_h, emb_l, c) for emb_h in embeddings
               for emb_l in embeddings
               for c in range(emb_h.source.num_classes)),
              lambda emb_h, emb_l, c: mackey_check(
                  g, emb_h, emb_l, sigma_basis(emb_h.source, c)),
              lambda emb_h, emb_l, c: f"|H|={emb_h.source.order}, "
                                      f"|L|={emb_l.source.order}, class {c}")
    return rep


def mackey_check(g: FiniteGroup, emb_h: SubgroupEmbedding,
                 emb_l: SubgroupEmbedding, f: ClassFunction) -> bool:
    """Res_L Ind_H^G f = sum over double cosets HsL of Ind_{H_s}^L f^s,
    with H_s = s^-1 H s meet L and f^s(y) = f(s y s^-1).  The left side
    is `restrict_cf` of `induce_cf`.  The right side walks the classes of
    L itself, (Ind_{H_s}^L f^s)(z) = zeta_L(z)/|H_s| sum of f^s(y) over y
    in cl_L(z) meet H_s, and shares no code with `induce_cf`, so a fault
    on either side shows."""
    lhs = restrict_cf(emb_l, induce_cf(emb_h, f))
    lsub = emb_l.source
    h_id = {emb_h(x): x for x in range(emb_h.source.order)}
    terms = _mackey_terms(g, emb_h, emb_l)
    rhs = []
    for c, cls in enumerate(lsub.classes):
        total = 0
        for s, s_inv, hs in terms:
            acc = sum(f.at(h_id[g.mul(g.mul(s, y), s_inv)])
                      for y in map(emb_l, cls) if y in hs)
            total = total + div(acc * lsub.zeta(c), len(hs))
        rhs.append(total)
    return lhs.equals(ClassFunction(lsub, tuple(rhs)))


@lru_cache(maxsize=1)
def _mackey_terms(g: FiniteGroup, emb_h: SubgroupEmbedding,
                  emb_l: SubgroupEmbedding) -> tuple:
    """(s, s^-1, H_s) for each double coset HsL, H_s = s^-1 H s meet L as
    a set of ids of G, found once per pair (H, L): mackey_verify checks
    the classes of H one after another for each pair."""
    terms = []
    for s in double_cosets(g, emb_h, emb_l):
        s_inv = g.inv(s)
        terms.append((s, s_inv, frozenset(
            g.conj(s_inv, x) for x in emb_h.image) & emb_l.image))
    return tuple(terms)
