"""The wreath product G_n: types, Z_rho and the element model.

A conjugacy class of G_n is a type: a partition-valued function on the
conjugacy classes of G.  Class functions on G_n are elements of F_G in
sigma coordinates (`fock.FockElement`), keyed by these types.  Types and
Z_rho are defined over any `groups.LabelSpace`: G, whose labels are its
classes, or the super Fock model's `heisenberg.SuperFockSpace`.  Elements
of G_n only ever appear inside brute-force oracles, where whole groups up
to a few tens of thousands of elements are enumerated.

An element (g_1..g_n; s) is its permutation of the |G| n points of
G x {0..n-1}, (g; s).(h, i) = (g_{s(i)} h, s(i)), with point (h, i) at
index i |G| + h: `bytes` up to 256 points and a tuple above.  A product is a
composition (`_compose`), and p[i |G|] = s(i) |G| + g_{s(i)} gives (g; s) back
(`decode_element`).  The type is read off the block cycles of p (`type_of`).

The oracles share one compiled model per (G, n), `element_model`.  Ids run
over (g_1..g_n) in lexicographic order and, for each, over the
permutations s in lexicographic order, so the smallest id of a class is
its smallest (g; s).  Conjugacy classes come from the closure that gives
those of G, `groups.conjugacy_classes`, under conjugation by the
generators: (g, e, .., e; 1) for g in the generating set of G that
`FiniteGroup` keeps, the swap and, for n >= 3, the n-cycle (3 for
S3 wr S_2 and 4 for S3 wr S_n, n >= 3, not |G| + 1).  The oracles walk one
representative z per class.  C(z) is found by brute force with an S_n
pre-filter: id j has S_n part s_j, the (j mod n!)-th permutation, and
since G_n -> S_n is a homomorphism only ids whose s_j commutes with s_z
get the full commutation test with z.  No |G_n|^2 table is built.
"""
from __future__ import annotations

import itertools
from functools import lru_cache, total_ordering
from math import factorial

from .groups import FiniteGroup, LabelSpace, conjugacy_classes
from .scalars import product_coefficients


class WreathError(ValueError):
    pass


_TYPES: dict[tuple, "WreathType"] = {}     # parts -> its type; never cleared


class _Unions(dict):
    """rho.unions[tau] = rho u tau, the type whose parts at each class are
    those of both; computed on a miss and kept, for tau u rho too."""

    __slots__ = ("rho",)

    def __init__(self, rho: "WreathType"):
        self.rho = rho

    def __missing__(self, tau: "WreathType") -> "WreathType":
        # merge the canonical parts; at a shared label, join and re-sort.
        # Valid parts, so a new type is interned unchecked, its sizes summed
        rho = self.rho
        a, b = rho.parts, tau.parts
        parts, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            c, cc = a[i][0], b[j][0]
            if c < cc:
                parts.append(a[i])
            elif cc < c:
                parts.append(b[j])
            else:
                parts.append((c, tuple(sorted(a[i][1] + b[j][1],
                                              reverse=True))))
            i, j = i + (c <= cc), j + (cc <= c)
        parts = tuple(parts) + a[i:] + b[j:]
        out = _intern(parts, rho.degree + tau.degree, rho.length + tau.length)
        self[tau] = tau.unions[rho] = out
        return out


def _intern(parts: tuple, degree: int, length: int) -> "WreathType":
    """The type of these canonical parts from `_TYPES`, built there on
    first use, unchecked: the one place a type is built."""
    self = _TYPES.get(parts)
    if self is None:
        self = _TYPES[parts] = object.__new__(WreathType)
        _PARTS(self, parts)
        _DEGREE(self, degree)
        _LENGTH(self, length)
        _UNIONS(self, _Unions(self))
    return self


@total_ordering
class WreathType:
    """Partition-valued function on the labels of a label space; over G,
    on its classes, the conjugacy invariant of G_n.  Stored canonically:
    nonempty partitions only, sorted by label, parts weakly decreasing.

    `WreathType(parts)`, like `from_dict` and `union`, returns the one
    object per `parts` from `_TYPES`, built by `_intern` on first use, and
    validated first except where the parts are canonical by construction:
    a union, a part removed, or a type `enumerate_types` lists.
    So equality and hash are `object`'s identity, at C speed; order and
    repr read `parts`; copies and pickles return the interned object."""

    __slots__ = ("parts", "degree", "length", "unions")

    def __new__(cls, parts: tuple[tuple[int, tuple[int, ...]], ...]):
        self = _TYPES.get(parts)
        if self is None:
            last, degree, length = -1, 0, 0
            for c, lam in parts:
                if c <= last:
                    raise WreathError("class ids must be strictly increasing")
                last = c
                if not lam or list(lam) != sorted(lam, reverse=True) \
                        or lam[-1] < 1:
                    raise WreathError("partitions must be nonempty, weakly "
                                      "decreasing, positive")
                degree += sum(lam)
                length += len(lam)
            self = _intern(parts, degree, length)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return WreathType, (self.parts,)

    def __lt__(self, other):
        return self.parts < other.parts if type(other) is WreathType \
            else NotImplemented

    @classmethod
    def from_dict(cls, d: dict[int, tuple[int, ...]]) -> "WreathType":
        items = []
        for c in sorted(d):
            lam = tuple(sorted(d[c], reverse=True))
            if lam:
                items.append((c, lam))
        return cls(tuple(items))

    def partition(self, c: int) -> tuple[int, ...]:
        for cc, lam in self.parts:
            if cc == c:
                return lam
        return ()

    def union(self, other: "WreathType") -> "WreathType":
        """The type with the parts of both at each class: `unions[other]`."""
        return self.unions[other]

    @lru_cache(maxsize=None)
    def remove_part(self, r: int, c: int) -> "WreathType":
        """The type with one part r removed at class c, cut out of the
        canonical parts (a ValueError if there is none); memoized."""
        parts = self.parts
        i = [cc for cc, _ in parts].index(c)
        lam = parts[i][1]
        j = lam.index(r)
        lam = lam[:j] + lam[j + 1:]
        parts = parts[:i] + ((c, lam),) * bool(lam) + parts[i + 1:]
        return _intern(parts, self.degree - r, self.length - 1)

    def to_json_obj(self):
        return [[c, list(lam)] for c, lam in self.parts]

    def __repr__(self):
        inner = ", ".join(f"{c}:{list(lam)}" for c, lam in self.parts)
        return f"Type({{{inner}}})"


_PARTS, _DEGREE, _LENGTH, _UNIONS = (  # the slot setters, for `_intern`
    getattr(WreathType, name).__set__ for name in WreathType.__slots__)
EMPTY_TYPE = WreathType(())


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, parts weakly decreasing, lexicographic order."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def enumerate_types(space: LabelSpace, n: int) -> list[WreathType]:
    """All degree-n types over the labels of the space, duplicate-free, in
    canonical order; an odd label takes distinct parts.  Over G the labels
    are the classes, all even.  The parts are built canonical, so their
    types are interned unchecked, in the order of their parts."""
    if n < 0:
        raise WreathError("degree must be >= 0")
    table = _tables(space)[0]
    if n not in table:
        labels, odd = len(space.weights), space.odd
        results: list[tuple] = []

        def rec(c, remaining, parts):
            if c == labels:
                if remaining == 0:
                    results.append(parts)
                return
            sizes = [remaining] if c == labels - 1 else range(remaining + 1)
            for size in sizes:
                for lam in partitions(size):
                    if c < odd or len(set(lam)) == len(lam):
                        rec(c + 1, remaining - size,
                            parts + ((c, lam),) if lam else parts)

        rec(0, n, ())
        table[n] = tuple(_intern(p, n, sum(len(lam) for _, lam in p))
                         for p in sorted(results))
    return list(table[n])


@lru_cache(maxsize=8)
def _tables(space: LabelSpace) -> tuple[dict, dict]:
    """Per label space, filled on demand: degree -> its types (a tuple),
    and type -> Z_rho."""
    return {}, {}


def type_counts(group: FiniteGroup, n: int, limit: int) -> list[int]:
    """The numbers of types over G of degrees 0..n: the coefficients of
    prod (1 - q^r)^(-k), k the number of classes, one degree at a time.
    They never decrease with the degree, so the count stops with a
    WreathError at the first degree past the limit."""
    if n < 0:
        raise WreathError("degree must be >= 0")
    counts = []
    for d, count in zip(range(n + 1),
                        product_coefficients(group.num_classes, 0)):
        if count > limit:
            raise WreathError(f"degree-{n} types exceed limit {limit} "
                              f"({count} at degree {d})")
        counts.append(count)
    return counts


@lru_cache(maxsize=None)
def z_partition(lam: tuple[int, ...]) -> int:
    """z_lambda = prod r^{m_r} m_r!, the S_n centralizer order."""
    out = 1
    for r in set(lam):
        m = lam.count(r)
        out *= r ** m * factorial(m)
    return out


def z_rho(space: LabelSpace, rho: WreathType) -> int:
    """Z_rho = prod_c z_{rho(c)} w(c)^l(rho(c)), w the weights of the space;
    over G, the centralizer order in G_n of an element of type rho."""
    table = _tables(space)[1]
    z = table.get(rho)
    if z is None:
        z = 1
        for c, lam in rho.parts:
            z *= z_partition(lam) * space.weights[c] ** len(lam)
        table[rho] = z
    return z


def wreath_order(group: FiniteGroup, n: int, limit: int | None = None) -> int:
    """|G_n| = |G|^n n!, refused with a WreathError past the limit."""
    if n < 0:
        raise WreathError("degree must be >= 0")
    total = group.order ** n * factorial(n)
    if limit is not None and total > limit:
        raise WreathError(f"|G_n| = {total} exceeds limit {limit}")
    return total


@lru_cache(maxsize=None)
def n_cycle_type(c: int, n: int) -> WreathType:
    return WreathType(((c, (n,)),))


# -- the element model (oracles) --------------------------------------------

_IDENT = bytes(range(256))
_BYTES_POINTS = 256     # a permutation of more points is a tuple


def _perm(group: FiniteGroup, gs, s) -> bytes | tuple[int, ...]:
    """The permutation of (g_1..g_n; s): (h, i) -> (g_{s(i)} h, s(i))."""
    k, table = group.order, group.table
    out = [j * k + v for j in s for v in table[gs[j]]]
    return bytes(out) if len(out) <= _BYTES_POINTS else tuple(out)


def _compose(p, q):
    """p o q, the permutation x -> p[q[x]]."""
    if type(q) is bytes:
        return q.translate(p + _IDENT[len(p):])
    return tuple([p[x] for x in q])


def _perm_inverse(p):
    """p^-1, in the encoding of p."""
    return type(p)(sorted(range(len(p)), key=p.__getitem__))


def _conjugates(x, ps):
    """x p x^-1 for p in ps, one at a time."""
    xi = _perm_inverse(x)
    if type(x) is bytes:
        tail, xt = _IDENT[len(x):], x + _IDENT[len(x):]
        return (xi.translate(p + tail).translate(xt) for p in ps)
    return (tuple([x[p[v]] for v in xi]) for p in ps)


def _commutes(p, q) -> bool:
    """One commutation test: pq == qp as permutations."""
    return _compose(p, q) == _compose(q, p)


def decode_element(group: FiniteGroup, p) -> tuple[list[int], list[int]]:
    """(g_1..g_n, s) of the element p: p[i |G|] = s(i) |G| + g_s(i)."""
    k = group.order
    gs, s = [0] * (len(p) // k), []
    for v in p[::k]:
        j, g = divmod(v, k)
        gs[j] = g
        s.append(j)
    return gs, s


def type_of(group: FiniteGroup, p) -> WreathType:
    """The type of the element p, its conjugacy class in G_n.  A cycle is
    walked from the point (e, i) of its first block i: it is back in block
    i after r steps, at (h, i) with h the cycle product, so it is one part
    r at the class of h."""
    k, class_of = group.order, group.class_of
    seen = [False] * (len(p) // k)
    parts: dict = {}
    for i, done in enumerate(seen):
        if done:
            continue
        start = i * k
        x, r = p[start], 1
        while not start <= x < start + k:
            seen[x // k] = True
            x, r = p[x], r + 1
        parts.setdefault(class_of[x - start], []).append(r)
    return WreathType.from_dict(parts)


def representative_of_type(group: FiniteGroup, rho: WreathType):
    """Canonical element of the given type: per part an r-cycle block with
    the class representative in its first slot."""
    n = rho.degree
    gs = [0] * n
    s = list(range(n))
    pos = 0
    for c, lam in rho.parts:
        for r in lam:
            gs[pos] = group.class_reps[c]
            for i in range(r):
                s[pos + i] = pos + (i + 1) % r
            pos += r
    return _perm(group, gs, s)


def _generators(group: FiniteGroup, n: int) -> tuple:
    """(g, e, .., e; 1) for each g in `group.generators`, then for n >= 2
    the swap (0 1) and for n >= 3 the n-cycle i -> i + 1 (at n = 2 it is
    the swap), with every g_i = e: a generating set of G_n, as S_n carries
    g to every slot."""
    e = (0,) * n
    gens = [_perm(group, (g,) + e[1:], range(n)) for g in group.generators]
    if n >= 2:
        gens.append(_perm(group, e, (1, 0) + tuple(range(2, n))))
    if n >= 3:
        gens.append(_perm(group, e, tuple((i + 1) % n for i in range(n))))
    return tuple(gens)


class ElementModel:
    """G_n compiled into permutation ids; see the module docstring.

    Id 0 is the identity.  Elements are `bytes` when |G| n <= 256 and
    tuples above, `index` is keyed by them, and `_compose`, `_conjugates`
    and `_commutes` read both, on bytes in C.  The classes come from
    `conjugacy_classes` on `generator_conj`, as those of G do from its
    Cayley table.
    """

    def __init__(self, group: FiniteGroup, n: int):
        # the S_n parts: id j has the (j mod n!)-th
        self.sn = sn = tuple(itertools.permutations(range(n)))
        # (g_1..g_n; s) = (g_1..g_n; 1) o (e..e; s)
        moves = [_perm(group, (0,) * n, s) for s in sn]
        bases = (_perm(group, gs, sn[0]) for gs in itertools.product(
            range(group.order), repeat=n))
        self.perms = tuple(_compose(b, t) for b in bases for t in moves)
        self.index = index = {p: i for i, p in enumerate(self.perms)}
        self.generators = _generators(group, n)
        # generator_conj[t][i]: id of h_t x_i h_t^-1
        self.generator_conj = tuple(
            tuple(map(index.__getitem__, _conjugates(h, self.perms)))
            for h in self.generators)
        self.classes, self.class_of = conjugacy_classes(len(self.perms),
                                                        self.generator_conj)

    def __len__(self):
        return len(self.perms)

    def brute_centralizer(self, i: int) -> tuple[int, ...]:
        """Sorted ids commuting with element i.  Ids j = k n! + t share the
        S_n part of id t < n!; one full commutation test for each j whose
        S_n part commutes with that of i, none for the others."""
        sn = self.sn
        s = sn[i % len(sn)]
        near = [t for t, u in enumerate(sn) if _commutes(s, u)]
        perms = self.perms
        p = perms[i]
        return tuple(j for k in range(0, len(perms), len(sn))
                     for j in (k + t for t in near) if _commutes(p, perms[j]))


def element_model(group: FiniteGroup, n: int,
                  limit: int = 200_000) -> ElementModel:
    """The compiled G_n, built once per (G, n); raises past the limit."""
    wreath_order(group, n, limit)
    return _element_model(group, n)


@lru_cache(maxsize=8)
def _element_model(group: FiniteGroup, n: int) -> ElementModel:
    return ElementModel(group, n)


def brute_force_classes(group: FiniteGroup, n: int, limit: int = 200_000
                        ) -> list[tuple[tuple[int, ...], int]]:
    """Conjugacy classes of G_n by orbit closure under conjugation by a
    generating set: (smallest element, class size) pairs sorted by the
    type, classes of one type in id order."""
    model = element_model(group, n, limit)
    return sorted(((tuple(model.perms[cl[0]]), len(cl))
                   for cl in model.classes),
                  key=lambda t: type_of(group, t[0]))
