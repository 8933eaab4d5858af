"""The wreath product G_n: elements, cycle products, types and Z_rho.

A conjugacy class of G_n is a type: a partition-valued function on the
conjugacy classes of G.  Class functions on G_n are elements of F_G in
sigma coordinates (`fock.FockElement`), keyed by these types.  The element
model of G_n only ever appears inside brute-force oracles, where whole
groups up to a few tens of thousands of elements are enumerated.

Those oracles share one compiled model per (G, n), `element_model`.  Each
element (g; s) becomes its permutation of the |G| n points of
G x {0..n-1}, (g; s).(h, i) = (g_{s(i)} h, s(i)), with point (h, i) at
index i |G| + h; a product is a composition of two permutation tuples.
Element ids follow `enumerate_wreath_elements`, which is also
`WreathElement` order, so the smallest id of a class is its smallest
element.  Conjugacy classes come from closure under conjugation by
`wreath_generators`, recording per element one conjugator x from its
class representative z.  C(z) is found by brute force with an S_n
pre-filter: id j has S_n part s_j, the (j mod n!)-th permutation, and
since G_n -> S_n is a homomorphism only ids whose s_j commutes with s_z
get the full commutation test with z.  C(x z x^-1) = x C(z) x^-1.  No
|G_n|^2 table is built.
"""
from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, total_ordering
from math import factorial
from typing import NamedTuple

from .groups import FiniteGroup
from .scalars import product_coefficients


class WreathError(ValueError):
    pass


class WreathElement(NamedTuple):
    """Element (g_1..g_n; s) of G_n.  perm[i] is the image s(i), 0-based."""

    gs: tuple[int, ...]
    perm: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.gs)


def wreath_mul(group: FiniteGroup, a: WreathElement, b: WreathElement) -> WreathElement:
    """(g, s)(h, t) = (g . s(h), s t) with s(h)_i = h_{s^-1(i)}."""
    if a.degree != b.degree:
        raise WreathError("degree mismatch")
    s = a.perm
    sinv = [0] * len(s)
    for i, v in enumerate(s):
        sinv[v] = i
    gs = tuple(group.mul(a.gs[i], b.gs[sinv[i]]) for i in range(len(s)))
    perm = tuple(s[b.perm[i]] for i in range(len(s)))
    return WreathElement(gs, perm)


def wreath_inv(group: FiniteGroup, a: WreathElement) -> WreathElement:
    s = a.perm
    sinv = [0] * len(s)
    for i, v in enumerate(s):
        sinv[v] = i
    gs = tuple(group.inv(a.gs[s[i]]) for i in range(len(s)))
    return WreathElement(gs, tuple(sinv))


def wreath_conj(group: FiniteGroup, x: WreathElement, a: WreathElement) -> WreathElement:
    return wreath_mul(group, wreath_mul(group, x, a), wreath_inv(group, x))


def cycle_products(group: FiniteGroup, a: WreathElement) -> list[tuple[int, int]]:
    """(cycle length r, class id of the cycle product) per cycle of the
    permutation; the product along a cycle (i1..ir) is g_{ir} ... g_{i1}."""
    n = a.degree
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        prod = 0
        i = start
        r = 0
        while not seen[i]:
            seen[i] = True
            prod = group.mul(a.gs[i], prod)
            i = a.perm[i]
            r += 1
        out.append((r, group.class_of[prod]))
    return out


_TYPES: dict[tuple, "WreathType"] = {}     # parts -> its type; never cleared


class _Unions(dict):
    """rho.unions[tau] = rho u tau, the type whose parts at each class are
    those of both; computed on a miss and kept, for tau u rho too."""

    __slots__ = ("rho",)

    def __init__(self, rho: "WreathType"):
        self.rho = rho

    def __missing__(self, tau: "WreathType") -> "WreathType":
        d: dict[int, list[int]] = {}
        for c, lam in self.rho.parts + tau.parts:
            d.setdefault(c, []).extend(lam)
        out = self[tau] = tau.unions[self.rho] = WreathType.from_dict(d)
        return out


@total_ordering
class WreathType:
    """Partition-valued function on the classes of G; the conjugacy
    invariant of G_n.  Stored canonically: nonempty partitions only,
    sorted by class id, parts weakly decreasing.

    `WreathType(parts)`, like `of`, `from_dict` and `union`, returns the
    one object per `parts` from `_TYPES`, built and validated on first use.
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
            self = _TYPES[parts] = object.__new__(cls)
            for name, v in (("parts", parts), ("degree", degree),
                            ("length", length), ("unions", _Unions(self))):
                object.__setattr__(self, name, v)
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
    def of(cls, parts) -> "WreathType":
        """The interned type with these canonical parts."""
        return cls(parts)

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
        """The type with one part r removed at class c; memoized."""
        d = dict(self.parts)
        d[c] = list(d[c])
        d[c].remove(r)
        return WreathType.from_dict(d)

    def to_json_obj(self):
        return [[c, list(lam)] for c, lam in self.parts]

    def __repr__(self):
        inner = ", ".join(f"{c}:{list(lam)}" for c, lam in self.parts)
        return f"Type({{{inner}}})"


EMPTY_TYPE = WreathType(())


def type_of(group: FiniteGroup, a: WreathElement) -> WreathType:
    d: dict[int, list[int]] = {}
    for r, c in cycle_products(group, a):
        d.setdefault(c, []).append(r)
    return WreathType.from_dict({c: tuple(v) for c, v in d.items()})


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


def enumerate_types(group: FiniteGroup, n: int) -> list[WreathType]:
    """All degree-n types over G, duplicate-free, canonical order."""
    if n < 0:
        raise WreathError("degree must be >= 0")
    table = _type_table(group)
    if n not in table:
        k = group.num_classes
        table[n] = label_types(k, n, odd=k)
    return list(table[n])


@lru_cache(maxsize=8)
def _type_table(group: FiniteGroup) -> dict[int, tuple[WreathType, ...]]:
    """Per group, filled on demand: degree -> its types."""
    return {}


def label_types(labels: int, n: int, odd: int) -> tuple[WreathType, ...]:
    """All degree-n types over the labels 0..labels-1, canonical order;
    a label >= odd takes distinct parts.  Over G the labels are the
    classes, all even; `enumerate_types` keeps them per group."""
    results: list[WreathType] = []

    def rec(c, remaining, acc):
        if c == labels:
            if remaining == 0:
                results.append(WreathType.of(tuple(acc)))
            return
        if c == labels - 1:
            sizes = [remaining]
        else:
            sizes = range(remaining + 1)
        for size in sizes:
            for lam in partitions(size):
                if c >= odd and len(set(lam)) < len(lam):
                    continue
                if lam:
                    acc.append((c, lam))
                    rec(c + 1, remaining - size, acc)
                    acc.pop()
                else:
                    rec(c + 1, remaining - size, acc)

    rec(0, n, [])
    return tuple(sorted(results))


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


def z_rho(group: FiniteGroup, rho: WreathType) -> int:
    """Centralizer order in G_n of an element of type rho."""
    table = _z_table(group)
    z = table.get(rho)
    if z is None:
        z = 1
        for c, lam in rho.parts:
            z *= z_partition(lam) * group.zeta(c) ** len(lam)
        table[rho] = z
    return z


@lru_cache(maxsize=8)
def _z_table(group: FiniteGroup) -> dict[WreathType, int]:
    """Per group, filled on demand: type -> Z_rho."""
    return {}


def wreath_order(group: FiniteGroup, n: int) -> int:
    return group.order ** n * factorial(n)


@lru_cache(maxsize=None)
def n_cycle_type(c: int, n: int) -> WreathType:
    return WreathType.of(((c, (n,)),))


# -- brute-force element model (oracles) -----------------------------------

def enumerate_wreath_elements(group: FiniteGroup, n: int,
                              limit: int = 200_000) -> list[WreathElement]:
    total = wreath_order(group, n)
    if total > limit:
        raise WreathError(f"|G_n| = {total} exceeds limit {limit}")
    perms = list(itertools.permutations(range(n)))
    return [WreathElement(gs, p)
            for gs in itertools.product(range(group.order), repeat=n)
            for p in perms]


def wreath_generators(group: FiniteGroup, n: int) -> list[WreathElement]:
    gens = []
    for g in range(1, group.order):
        gens.append(WreathElement((g,) + (0,) * (n - 1), tuple(range(n))))
    if n >= 2:
        swap = list(range(n))
        swap[0], swap[1] = 1, 0
        gens.append(WreathElement((0,) * n, tuple(swap)))
        cyc = tuple((i + 1) % n for i in range(n))
        gens.append(WreathElement((0,) * n, cyc))
    return gens


class ElementModel:
    """G_n compiled into permutation ids; see the module docstring.

    Id 0 is the identity.  Products are compositions of permutation
    tuples, `perms[a] o perms[b] = tuple([perms[a][x] for x in perms[b]])`;
    the list comprehension sizes the tuple exactly, so the temporaries are
    not resized into CPython's tuple free lists (which would hold on to
    about 2000 of them per length).
    """

    def __init__(self, group: FiniteGroup, n: int):
        self.group = group
        self.n = n
        self.elements = tuple(enumerate_wreath_elements(
            group, n, wreath_order(group, n)))
        self.perms = tuple(self.perm_of(a) for a in self.elements)
        self.index = index = {p: i for i, p in enumerate(self.perms)}
        self.inverse = tuple(index[_perm_inverse(p)] for p in self.perms)
        self.generators = tuple(wreath_generators(group, n))
        gen_perms = [self.perm_of(h) for h in self.generators]
        # generator_conj[t][i]: id of h_t x_i h_t^-1
        self.generator_conj = tuple(
            tuple(index[tuple([h[p[x]] for x in hi])]
                  for p in self.perms)
            for h, hi in ((h, _perm_inverse(h)) for h in gen_perms))
        class_of = [-1] * len(self.perms)
        conjugator = [0] * len(self.perms)
        classes = []
        for r in range(len(self.perms)):
            if class_of[r] >= 0:
                continue
            c = len(classes)
            class_of[r] = c
            members = [r]
            for x in members:
                cx = self.perms[conjugator[x]]
                for h, conj in zip(gen_perms, self.generator_conj):
                    y = conj[x]
                    if class_of[y] < 0:
                        class_of[y] = c
                        conjugator[y] = index[tuple([h[v] for v in cx])]
                        members.append(y)
            classes.append(tuple(sorted(members)))
        self.classes = tuple(classes)
        self.class_of = tuple(class_of)
        # conjugator[i] = x with x_i = x z x^-1, z the representative
        self.conjugator = tuple(conjugator)

    def __len__(self):
        return len(self.perms)

    def perm_of(self, a: WreathElement) -> tuple[int, ...]:
        """(g;s).(h, i) = (g_{s(i)} h, s(i)), point (h, i) at i*|G| + h."""
        k = self.group.order
        table = self.group.table
        return tuple([j * k + v for j in a.perm for v in table[a.gs[j]]])

    def id_of(self, a: WreathElement) -> int:
        return self.index[self.perm_of(a)]

    def brute_centralizer(self, i: int) -> tuple[int, ...]:
        """Sorted ids commuting with element i.  Ids j = k n! + t share the
        S_n part of id t < n!; one full commutation test for each j whose
        S_n part commutes with that of i, none for the others."""
        nf = factorial(self.n)
        s = self.elements[i].perm
        near = [t for t in range(nf) if _commutes(s, self.elements[t].perm)]
        perms = self.perms
        p = perms[i]
        return tuple(j for k in range(0, len(perms), nf)
                     for j in (k + t for t in near) if _commutes(p, perms[j]))

    @cached_property
    def centralizers(self) -> tuple[tuple[int, ...], ...]:
        """Per element, the sorted ids of its centralizer: the brute test at
        each class representative z, and x C(z) x^-1 for x z x^-1."""
        perms, index = self.perms, self.index
        at_rep = [[perms[j] for j in self.brute_centralizer(cl[0])]
                  for cl in self.classes]
        out = []
        for i, x in enumerate(self.conjugator):
            px, pxi = perms[x], perms[self.inverse[x]]
            out.append(tuple(sorted(
                index[tuple([px[q[v]] for v in pxi])]
                for q in at_rep[self.class_of[i]])))
        return tuple(out)


def _perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _commutes(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """One commutation test: pq == qp as permutations."""
    return [p[x] for x in q] == [q[x] for x in p]


def element_model(group: FiniteGroup, n: int,
                  limit: int = 200_000) -> ElementModel:
    """The compiled G_n, built once per (G, n); raises past the limit."""
    total = wreath_order(group, n)
    if total > limit:
        raise WreathError(f"|G_n| = {total} exceeds limit {limit}")
    return _element_model(group, n)


@lru_cache(maxsize=8)
def _element_model(group: FiniteGroup, n: int) -> ElementModel:
    return ElementModel(group, n)


def brute_force_classes(group: FiniteGroup, n: int,
                        limit: int = 200_000) -> list[tuple[WreathElement, int]]:
    """Conjugacy classes of G_n by orbit closure under conjugation by a
    generating set; returns (representative, class size) pairs sorted by
    the representative's type."""
    model = element_model(group, n, limit)
    out = [(model.elements[cl[0]], len(cl)) for cl in model.classes]
    out.sort(key=lambda t: (type_of(group, t[0]), t[0]))
    return out


def representative_of_type(group: FiniteGroup, rho: WreathType) -> WreathElement:
    """Canonical element of the given type: per part an r-cycle block with
    the class representative in its first slot."""
    n = rho.degree
    gs = [0] * n
    perm = list(range(n))
    pos = 0
    for c, lam in rho.parts:
        for r in lam:
            gs[pos] = group.class_reps[c]
            for i in range(r):
                perm[pos + i] = pos + (i + 1) % r
            pos += r
    return WreathElement(tuple(gs), tuple(perm))


def centralizer_order_brute(group: FiniteGroup, n: int, a: WreathElement,
                            limit: int = 200_000) -> int:
    model = element_model(group, n, limit)
    return len(model.brute_centralizer(model.id_of(a)))


def centralizer_checks(group: FiniteGroup, n: int, limit: int = 200_000):
    """Per class: brute-force centralizer order (as |G_n|/orbit size)
    against Z_rho, and n * zeta_c for full-cycle classes.  Returns a list
    of (description, ok, details)."""
    from .report import CheckResult
    results = []
    total = wreath_order(group, n)
    classes = brute_force_classes(group, n, limit)
    small = total <= 5000
    for rep, size in classes:
        rho = type_of(group, rep)
        zr = z_rho(group, rho)
        cent = total // size
        ok = cent == zr
        if small:
            ok = ok and centralizer_order_brute(group, n, rep, limit) == zr
        results.append(CheckResult(
            f"centralizer {group.name} n={n} type={rho!r}", ok,
            None if ok else f"brute {cent} vs Z_rho {zr}"))
        if len(rho.parts) == 1 and len(rho.parts[0][1]) == 1 \
                and rho.parts[0][1][0] == n:
            c = rho.parts[0][0]
            ok2 = cent == n * group.zeta(c)
            results.append(CheckResult(
                f"n-cycle centralizer {group.name} n={n} class={c}", ok2,
                None if ok2 else f"{cent} vs {n * group.zeta(c)}"))
    return results


def wreath_cayley_group(group: FiniteGroup, n: int,
                        limit: int = 5000) -> tuple[FiniteGroup, list[WreathElement]]:
    """G_n as a plain FiniteGroup (identity-first element order), plus the
    element list realizing the numbering.  Only for small instances."""
    model = element_model(group, n, limit)
    perms, index = model.perms, model.index
    table = [[index[tuple([p[x] for x in q])] for q in perms]
             for p in perms]
    return FiniteGroup(table, name=f"{group.name}wr{n}"), list(model.elements)

