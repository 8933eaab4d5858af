"""The (g; s) arithmetic of G_n on element tuples: the independent check of
the compiled permutation model in `wreathfock.wreath`.

An element is (g_1..g_n; s), perm[i] = s(i) 0-based, with product
(g, s)(h, t) = (g . s(h), s t), s(h)_i = h_{s^-1(i)}.  Nothing here reads
the permutation layout except `perm_of`, which writes it from the formula
(g; s).(h, i) = (g_{s(i)} h, s(i)), point (h, i) at index i |G| + h.
"""
import itertools
from typing import NamedTuple

from wreathfock.groups import FiniteGroup
from wreathfock.wreath import WreathType


class WreathElement(NamedTuple):
    """Element (g_1..g_n; s) of G_n.  perm[i] is the image s(i), 0-based."""

    gs: tuple[int, ...]
    perm: tuple[int, ...]


def identity(n: int) -> WreathElement:
    return WreathElement((0,) * n, tuple(range(n)))


def wreath_mul(group: FiniteGroup, a: WreathElement,
               b: WreathElement) -> WreathElement:
    """(g, s)(h, t) = (g . s(h), s t) with s(h)_i = h_{s^-1(i)}."""
    assert len(a.gs) == len(b.gs), "degree mismatch"
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


def wreath_conj(group: FiniteGroup, x: WreathElement,
                a: WreathElement) -> WreathElement:
    return wreath_mul(group, wreath_mul(group, x, a), wreath_inv(group, x))


def cycle_products(group: FiniteGroup,
                   a: WreathElement) -> list[tuple[int, int]]:
    """(cycle length r, class id of the cycle product) per cycle of the
    permutation; the product along a cycle (i1..ir) is g_{ir} ... g_{i1}."""
    n = len(a.gs)
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


def type_of(group: FiniteGroup, a: WreathElement) -> WreathType:
    d: dict[int, list[int]] = {}
    for r, c in cycle_products(group, a):
        d.setdefault(c, []).append(r)
    return WreathType.from_dict(d)


def enumerate_wreath_elements(group: FiniteGroup,
                              n: int) -> list[WreathElement]:
    """Every element, (g_1..g_n) then s in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    return [WreathElement(gs, p)
            for gs in itertools.product(range(group.order), repeat=n)
            for p in perms]


def wreath_generators(group: FiniteGroup, n: int) -> list[WreathElement]:
    """(g, e, .., e; 1) for g in G's generating set, the swap (0 1) and,
    for n >= 3, the n-cycle."""
    gens = [WreathElement((g,) + (0,) * (n - 1), tuple(range(n)))
            for g in group.generators]
    if n >= 2:
        gens.append(WreathElement((0,) * n, (1, 0) + tuple(range(2, n))))
    if n >= 3:
        gens.append(WreathElement((0,) * n,
                                  tuple((i + 1) % n for i in range(n))))
    return gens


def representative(group: FiniteGroup, rho: WreathType) -> WreathElement:
    """Per part of rho an r-cycle block with the class representative in
    its first slot."""
    gs, perm, pos = [0] * rho.degree, list(range(rho.degree)), 0
    for c, lam in rho.parts:
        for r in lam:
            gs[pos] = group.class_reps[c]
            for i in range(r):
                perm[pos + i] = pos + (i + 1) % r
            pos += r
    return WreathElement(tuple(gs), tuple(perm))


def split_element(a: WreathElement,
                  k: int) -> tuple[WreathElement, WreathElement]:
    """The components in G_k x G_(n-k) of an element of that subgroup."""
    left = WreathElement(a.gs[:k], a.perm[:k])
    right = WreathElement(a.gs[k:], tuple(p - k for p in a.perm[k:]))
    return left, right


def perm_of(group: FiniteGroup, a: WreathElement) -> tuple[int, ...]:
    """The permutation of G x {0..n-1}: (h, i) -> (g_{s(i)} h, s(i))."""
    k = group.order
    return tuple(a.perm[i] * k + group.mul(a.gs[a.perm[i]], h)
                 for i in range(len(a.gs)) for h in range(k))


def act(action, a: WreathElement, x: tuple[int, ...]) -> tuple[int, ...]:
    """a on a point of X^n, (a.x)_{s(i)} = g_{s(i)} x_i; action[g][y] is
    g.y on X."""
    out = [0] * len(x)
    for i, j in enumerate(a.perm):
        out[j] = action[a.gs[j]][x[i]]
    return tuple(out)


def perm_sign(p) -> int:
    sign, seen = 1, [False] * len(p)
    for i in range(len(p)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j, length = p[j], length + 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def wreath_cayley_group(group: FiniteGroup,
                        n: int) -> tuple[FiniteGroup, list[WreathElement]]:
    """G_n as a plain FiniteGroup, numbered as `enumerate_wreath_elements`,
    plus that element list.  Only for small instances."""
    elems = enumerate_wreath_elements(group, n)
    index = {a: i for i, a in enumerate(elems)}
    table = [[index[wreath_mul(group, a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, name=f"{group.name}wr{n}"), elems
