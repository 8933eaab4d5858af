"""The graded space F_G = direct sum of C(G_n) in sigma coordinates.

F_G is the polynomial ring in the sigma_r(c) (r >= 1, c a class of G), and
sigma^rho is the monomial over the parts of rho.  A `FockElement` stores
u = sum coeffs[rho] sigma^rho as a sparse map from `WreathType` to the
sigma-coefficient; a class function on G_n is a homogeneous element of
degree n, with value coeffs[rho] Z_rho at rho.  Over the labels of
another `groups.LabelSpace`, a `heisenberg.SuperFockSpace`, the same
element is a vector of the super Fock model.  The coproduct lands in
F_G tensor F_G, held as a plain dict from pairs of types (alpha, beta) to
the coefficient of sigma^alpha tensor sigma^beta.

In these coordinates the product merges monomials,
sigma^rho sigma^tau = sigma^(rho u tau); the coproduct splits them
(sigma_r(c) is primitive); the antipode is S(sigma^rho) =
(-1)^l(rho) sigma^rho.  None of them needs Z_rho.  Odd generators
anticommute: one kernel, `_merge`, gives the product with the Koszul sign
`_koszul`, and the coproduct refuses odd labels.  Values are read only
where they are the definition or the comparison: `value`, `inner`,
`star`, `from_values` and the element-level induction and restriction
oracles, which pin the conventions down.

A coefficient is an ``int`` where it is an integer, a ``Fraction`` after a
division, and a ``Cyclotomic`` when it is irrational.  The structure
constants are integers (merged monomials, binomial counts, signs), so
sigma^rho, the unit and everything the Hopf operations make of them stay
``int``; every division goes through `scalars.div`, so none is a float,
and an integral quotient is an ``int``.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from math import comb, factorial, lcm

from .groups import FiniteGroup, LabelSpace
from .linalg import matrix_rank
from .report import Report
from .scalars import Cyclotomic, Scalar, conj, div
from .wreath import (EMPTY_TYPE, WreathError, WreathType, element_model,
                     enumerate_types, n_cycle_type, representative_of_type,
                     split_type, type_of, wreath_order, z_rho)


class FockError(ValueError):
    pass


class FockElement:
    """u = sum of coeffs[rho] sigma^rho over types rho, finitely supported.
    Zero coefficients are dropped.  `group` is the label space of the
    types: G, or a `heisenberg.SuperFockSpace` for the super Fock model.
    The element takes over the map it is given when no value is zero, so
    a caller passes a fresh map or a copy, and nobody changes it after."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: LabelSpace, coeffs: dict):
        self.group = group
        self.coeffs = coeffs if all(coeffs.values()) else {
            k: v for k, v in coeffs.items() if v}

    @classmethod
    def unit(cls, group: LabelSpace) -> "FockElement":
        return cls(group, {EMPTY_TYPE: 1})

    @classmethod
    def zero(cls, group: LabelSpace) -> "FockElement":
        return cls(group, {})

    @classmethod
    def from_values(cls, group: LabelSpace,
                    values: dict[WreathType, Scalar]) -> "FockElement":
        """The class function with the given value at each type."""
        return cls(group, {rho: div(v, z_rho(group, rho))
                           for rho, v in values.items()})

    def value(self, rho: WreathType) -> Scalar:
        """The class-function value coeff Z_rho at a type."""
        c = self.coeffs.get(rho)
        if c is None:
            return 0
        return c * z_rho(self.group, rho)

    @property
    def degree(self) -> int:
        """The degree of a nonzero homogeneous element."""
        degrees = {rho.degree for rho in self.coeffs}
        if len(degrees) != 1:
            raise FockError(f"not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def component(self, n: int) -> "FockElement":
        return FockElement(self.group, {rho: v
                                        for rho, v in self.coeffs.items()
                                        if rho.degree == n})

    def _check(self, other):
        if self.group is not other.group:
            raise FockError("different base groups")

    def __add__(self, other: "FockElement") -> "FockElement":
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return FockElement(self.group, out)

    def __sub__(self, other: "FockElement") -> "FockElement":
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] - v if k in out else -v
        return FockElement(self.group, out)

    def __mul__(self, scalar) -> "FockElement":
        return FockElement(self.group,
                           {k: v * scalar for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, d) -> "FockElement":
        return FockElement(self.group,
                           {k: div(v, d) for k, v in self.coeffs.items()})

    def star(self, other: "FockElement") -> "FockElement":
        """Typewise product of values (tensor product of G_n
        representations)."""
        self._check(other)
        return FockElement(self.group, {
            rho: v * other.coeffs[rho] * z_rho(self.group, rho)
            for rho, v in self.coeffs.items() if rho in other.coeffs})

    def inner(self, other: "FockElement") -> Scalar:
        """Sum over types of F1 conj(F2) / Z_rho, F1 and F2 the values."""
        self._check(other)
        return sum((div(self.value(rho) * conj(other.value(rho)),
                        z_rho(self.group, rho))
                    for rho in self.coeffs if rho in other.coeffs), 0)

    def equals(self, other: "FockElement") -> bool:
        return self.group is other.group and self.coeffs == other.coeffs

    def __repr__(self):
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.coeffs.items())
        return f"Fock({{{inner}}})"


def sigma_rho(group: FiniteGroup, rho: WreathType) -> FockElement:
    """The monomial sigma^rho: value Z_rho at rho, 0 elsewhere."""
    return FockElement(group, {rho: 1})


def sigma_r_c(group: FiniteGroup, r: int, c: int) -> FockElement:
    """The generator sigma_r(c): value r zeta_c at the r-cycle type over c."""
    if r < 1:
        raise WreathError("cycle length must be >= 1")
    return sigma_rho(group, n_cycle_type(c, r))


def trivial_char(group: FiniteGroup, n: int) -> FockElement:
    return FockElement.from_values(
        group, {rho: 1 for rho in enumerate_types(group, n)})


def sign_char(group: FiniteGroup, n: int) -> FockElement:
    """(-1)^(n - length(rho)) per type: G^n acts trivially, S_n by sign;
    each call copies the map built once per (G, n)."""
    return FockElement(group, dict(_sign_char_coeffs(group, n)))


@lru_cache(maxsize=32)
def _sign_char_coeffs(group: FiniteGroup, n: int) -> dict:
    return FockElement.from_values(
        group, {rho: (-1) ** (n - rho.length)
                for rho in enumerate_types(group, n)}).coeffs


def _numerators(coeffs: dict) -> tuple[int, dict] | None:
    """(d, {rho: d x}) with int values, d the lcm of the denominators of
    the rational coefficients x; None when one is a Cyclotomic."""
    if all(map(int.__instancecheck__, coeffs.values())):
        return 1, coeffs
    if any(isinstance(x, Cyclotomic) for x in coeffs.values()):
        return None
    d = lcm(*(x.denominator for x in coeffs.values()))
    return d, {rho: x.numerator * (d // x.denominator)
               for rho, x in coeffs.items()}


def _first_odd(space: LabelSpace) -> int | None:
    """The first odd label of the space, None when every label is even."""
    return space.odd if space.odd < len(space.weights) else None


def _koszul(rho: WreathType, tau: WreathType, odd: int) -> int:
    """The sign in sigma^rho sigma^tau = sign sigma^(rho u tau), the labels
    >= odd being odd: (-1) to the number of pairs of odd parts, one of each
    type, with tau's part first in canonical order (labels ascending, parts
    descending at a label); 0 when the two types share an odd part."""
    crossed = 0
    for c, lam in rho.parts:
        for cc, mu in tau.parts:
            if odd <= cc <= c:
                for r in lam:
                    for q in mu:
                        if cc == c and q == r:
                            return 0
                        crossed += cc < c or q > r
    return -1 if crossed % 2 else 1


def fock_mul(u: FockElement, v: FockElement,
             max_degree: int | None = None) -> FockElement:
    """sigma^rho sigma^tau = sign sigma^(rho u tau), the Koszul sign, past
    max_degree dropped: integer numerators of rational operands, one
    division per output coefficient (none with a Cyclotomic coefficient).
    Two int monomials over even labels merge directly."""
    u._check(v)
    odd = _first_odd(u.group)
    if odd is None and len(u.coeffs) == 1 == len(v.coeffs):
        (rho, a), = u.coeffs.items()
        (tau, b), = v.coeffs.items()
        if type(a) is int and type(b) is int:
            if max_degree is not None and rho.degree + tau.degree > max_degree:
                return FockElement(u.group, {})
            return FockElement(u.group, {rho.unions[tau]: a * b})
    nu, nv = _numerators(u.coeffs), _numerators(v.coeffs)
    if nu is None or nv is None:
        nu, nv = (1, u.coeffs), (1, v.coeffs)
    (du, left), (dv, right) = nu, nv
    out = _merge(left.items(), right.items(), odd, max_degree)
    d = du * dv
    if d != 1:
        out = {rho: div(x, d) for rho, x in out.items()}
    return FockElement(u.group, out)


def _merge(left, right, odd: int | None = None,
           max_degree: int | None = None) -> dict:
    """The product kernel: sigma^rho sigma^tau = sign sigma^(rho u tau)
    over (type, coefficient) pairs, rho from left (walked once per term of
    right), without degrees past max_degree; zeros are kept.  odd is the
    first odd label, or None: `_koszul` is asked only of two types with odd
    parts, and a pair of sign 0 adds nothing."""
    if max_degree is not None:  # the terms that fit beside tau: a prefix
        left = sorted(left, key=lambda t: t[0].degree)
        degrees = [t[0].degree for t in left]
    out: dict = {}
    for tau, b in right:
        terms = left if max_degree is None else left[
            :bisect_right(degrees, max_degree - tau.degree)]
        unions = tau.unions
        signed = odd is not None and tau.parts and tau.parts[-1][0] >= odd
        for rho, a in terms:
            if signed and rho.parts and rho.parts[-1][0] >= odd:
                sign = _koszul(rho, tau, odd)
                if not sign:
                    continue
                a *= sign
            key = unions[rho]
            out[key] = out.get(key, 0) + b * a
    return out


def fock_exp(u: FockElement, max_degree: int) -> FockElement:
    """exp inside F_G of an element u = v/d with no degree-0 part,
    truncated: sum_k v^k d^(N-k) N!/k! over one denominator d^N N!.  With
    a Cyclotomic coefficient d = 1 and v = u, as in `fock_mul`."""
    if EMPTY_TYPE in u.coeffs:
        raise FockError("fock_exp needs vanishing degree-0 component")
    d, v = _numerators(u.coeffs) or (1, u.coeffs)
    n, odd = max_degree, _first_odd(u.group)
    denom = weight = d ** n * factorial(n)
    power, out = {EMPTY_TYPE: 1}, {EMPTY_TYPE: denom}
    for k in range(1, n + 1):
        power = _merge(v.items(), power.items(), odd, n)  # v^k
        weight //= d * k                # d^(N-k) N!/k!
        for rho, x in power.items():
            out[rho] = out.get(rho, 0) + x * weight
    return FockElement(u.group, {rho: div(x, denom)
                                 for rho, x in out.items()})


@lru_cache(maxsize=None)
def comul_splits(rho: WreathType) -> tuple[tuple[WreathType, WreathType, int], ...]:
    """The (alpha, beta, coefficient) with alpha u beta = rho of the
    coproduct of sigma^rho: k of its m largest parts r at the first label go
    to alpha, in (m choose k) ways, beside each split of the rest; memoized."""
    if rho is EMPTY_TYPE:
        return ((EMPTY_TYPE, EMPTY_TYPE, 1),)
    c, lam = rho.parts[0]
    r, m = lam[0], lam.count(lam[0])
    rest = WreathType.from_dict(dict(rho.parts) | {c: lam[m:]})
    out = []
    for k in range(m + 1):
        a = WreathType.from_dict({c: (r,) * k})         # to alpha
        b = WreathType.from_dict({c: (r,) * (m - k)})   # to beta
        out += [(a.unions[alpha], b.unions[beta], comb(m, k) * x)
                for alpha, beta, x in comul_splits(rest)]
    return tuple(out)


def fock_comul(
        u: FockElement) -> dict[tuple[WreathType, WreathType], Scalar]:
    """Restriction coproduct as {(alpha, beta): coefficient of
    sigma^alpha tensor sigma^beta}: sigma_r(c) is primitive and the
    coproduct is an algebra map, so sigma^rho splits over the sub-multisets
    of its parts.  Zero coefficients are dropped.  Odd labels, where a
    split carries a Koszul sign, are refused."""
    if _first_odd(u.group) is not None:
        raise FockError(f"fock_comul needs even labels, not {u.group.name}")
    out: dict = {}
    for rho, c in u.coeffs.items():
        for alpha, beta, k in comul_splits(rho):
            out[alpha, beta] = out.get((alpha, beta), 0) + c * k
    return {key: v for key, v in out.items() if v}


def _tensor_mul(s: dict, t: dict) -> dict:
    """Product in F_G tensor F_G of two `fock_comul` results: unions of
    types, componentwise."""
    out: dict = {}
    for (a1, b1), x in s.items():
        for (a2, b2), y in t.items():
            key = (a1.unions[a2], b1.unions[b2])
            out[key] = out.get(key, 0) + x * y
    return {key: v for key, v in out.items() if v}


def counit(u: FockElement) -> Scalar:
    return u.coeffs.get(EMPTY_TYPE, 0)


def antipode(u: FockElement) -> FockElement:
    """S(sigma^rho) = (-1)^l(rho) sigma^rho: S negates the primitive
    sigma_r(c) and is an algebra map on the commutative F_G."""
    return FockElement(u.group, {rho: -c if rho.length % 2 else c
                                 for rho, c in u.coeffs.items()})


def graded_dim(space: LabelSpace, max_degree: int) -> list[int]:
    """q-dimension of F_G(pt): the number of degree-n types per degree."""
    return [len(enumerate_types(space, n)) for n in range(max_degree + 1)]


# -- element-level oracles --------------------------------------------------

def _induction_bags(group: FiniteGroup, a: int, b: int,
                    reps: tuple[WreathType, ...], limit: int):
    """For each target type: a Counter over (left type, right type) of the
    conjugates w^-1 z w (w in G_n) landing in the Young subgroup G_a x G_b.
    Each member of the class of z is hit |C(z)| = |G_n|/|cl(z)| times, so
    the class is walked once with that weight."""
    model = element_model(group, a + b, limit)
    cut = a * group.order  # points of G x {0..a-1}
    bags = {}
    for pi in reps:
        members = model.classes[model.class_of[
            model.index[representative_of_type(group, pi)]]]
        weight = len(model) // len(members)
        bag: Counter = Counter()
        for y in members:
            p = model.perms[y]
            if max(p[:cut]) < cut:
                bag[split_type(group, p, a)] += weight
        bags[pi] = bag
    return bags


@lru_cache(maxsize=8)
def _induction_table(group: FiniteGroup, a: int, b: int,
                     reps: tuple[WreathType, ...], limit: int):
    """(t1, t2) -> [(pi, c)]: the sigma-coefficient c at pi of sigma^t1
    sigma^t2 induced from G_a x G_b.  Its value at pi is the bag's count
    of (t1, t2) times Z_t1 Z_t2 over |G_a x G_b|, so c is that over Z_pi."""
    sub_order = wreath_order(group, a) * wreath_order(group, b)
    table: dict = {}
    for pi, bag in _induction_bags(group, a, b, reps, limit).items():
        for (t1, t2), count in bag.items():
            table.setdefault((t1, t2), []).append((pi, div(
                count * z_rho(group, t1) * z_rho(group, t2),
                sub_order * z_rho(group, pi))))
    return table


def oracle_product(f1: FockElement, f2: FockElement,
                   reps: tuple[WreathType, ...] | None = None,
                   limit: int = 200_000) -> FockElement:
    """Element-level induction from G_a x G_b: the brute-force side of the
    Fock multiplication, evaluated at the given target types, bilinear
    over the table of monomial products."""
    g = f1.group
    a, b = f1.degree, f2.degree
    if reps is None:
        reps = tuple(enumerate_types(g, a + b))
    table = _induction_table(g, a, b, tuple(reps), limit)
    out: dict = {}
    for t1, x in f1.coeffs.items():
        for t2, y in f2.coeffs.items():
            for pi, c in table.get((t1, t2), ()):
                out[pi] = out.get(pi, 0) + x * y * c
    return FockElement(g, out)


def oracle_comul_value(f: FockElement, alpha: WreathType,
                       beta: WreathType) -> Scalar:
    """Element-level restriction: the value of Res f at the embedded pair
    of canonical representatives of (alpha, beta)."""
    g = f.group
    left = representative_of_type(g, alpha)
    shift = len(left)  # alpha.degree |G| points
    right = tuple([v + shift for v in representative_of_type(g, beta)])
    return f.value(type_of(g, left + right))


# -- verification ----------------------------------------------------------

# past this many target types times |G_n|, the induction oracle samples
ORACLE_FULL_COST = 300_000


def hopf_verify(group: FiniteGroup, max_degree: int,
                oracle_limit: int = 50_000) -> Report:
    """Hopf axioms on the sigma basis up to the given total degree, plus
    element-level induction/restriction oracles where group sizes allow."""
    rep = Report(f"hopf_verify({group.name}, N={max_degree})")
    g = group
    by_degree = {n: enumerate_types(g, n) for n in range(max_degree + 1)}
    basis = [rho for n in range(1, max_degree + 1) for rho in by_degree[n]]
    pairs = [(r1, r2) for r1 in basis
             for n2 in range(1, max_degree - r1.degree + 1)
             for r2 in by_degree[n2]]
    # each monomial sigma^rho, EMPTY_TYPE included, is built once
    sig = {rho: sigma_rho(g, rho) for types in by_degree.values()
           for rho in types}

    def product_cases():
        # (r1, r2, None) is a commutativity case, (r1, r2, r3) an
        # associativity case; both reuse sigma^r1 sigma^r2
        for r1, r2 in pairs:
            p12 = fock_mul(sig[r1], sig[r2])
            yield r1, r2, None, p12
            for n3 in range(1, max_degree - r1.degree - r2.degree + 1):
                for r3 in by_degree[n3]:
                    yield r1, r2, r3, p12

    def product_axiom(r1, r2, r3, p12):
        if r3 is None:
            return p12.equals(fock_mul(sig[r2], sig[r1]))
        left = fock_mul(p12, sig[r3])
        right = fock_mul(sig[r1], fock_mul(sig[r2], sig[r3]))
        return left.equals(right)

    rep.check("product associative and commutative on basis",
              product_cases(), product_axiom,
              lambda *case: ",".join(repr(r) for r in case[:3]
                                     if r is not None))

    one = FockElement.unit(g)
    rep.check("unit axiom", zip(basis),
              lambda r: fock_mul(one, sig[r]).equals(sig[r]))

    def coassociative(rho):
        # basis-coefficient computation
        left: Counter = Counter()
        right: Counter = Counter()
        for a1, b1, k1 in comul_splits(rho):
            for a2, b2, k2 in comul_splits(a1):
                left[(a2, b2, b1)] += k1 * k2
            for a2, b2, k2 in comul_splits(b1):
                right[(a1, a2, b2)] += k1 * k2
        return {k: v for k, v in left.items() if v} == \
            {k: v for k, v in right.items() if v}

    rep.check("coproduct coassociative on basis", zip(basis), coassociative,
              repr)

    def counit_axiom(rho):
        # (counit x id) Delta = id
        acc: Counter = Counter()
        for a1, b1, k in comul_splits(rho):
            acc[b1] += counit(sig[a1]) * k
        return {b: v for b, v in acc.items() if v} == {rho: 1}

    rep.check("counit axiom", zip(basis), counit_axiom)

    def comul_multiplicative(r1, r2):
        lhs = fock_comul(fock_mul(sig[r1], sig[r2]))
        rhs = _tensor_mul(fock_comul(sig[r1]), fock_comul(sig[r2]))
        return lhs == rhs

    rep.check("coproduct is an algebra homomorphism", pairs,
              comul_multiplicative, lambda r1, r2: f"{r1!r},{r2!r}")

    def antipode_axiom(rho):
        # m (S x id) Delta = counit * unit
        acc = FockElement.zero(g)
        for alpha, beta, k in comul_splits(rho):
            term = fock_mul(antipode(sig[alpha]), sig[beta])
            acc = acc + term * k
        return acc.equals(FockElement.zero(g))

    rep.check("antipode axiom on basis", zip(basis), antipode_axiom, repr)

    rep.check("primitive space has dimension |G_*| per degree",
              ((n, _primitive_dim(by_degree[n]))
               for n in range(1, max_degree + 1)),
              lambda n, dim: dim == g.num_classes,
              lambda n, dim: f"degree {n}: nullity {dim} != {g.num_classes}")

    # the value of a tensor term is coeff Z_alpha Z_beta
    rep.check("coproduct matches element-level restriction oracle",
              ((rho, alpha, beta, c) for rho in basis
               for (alpha, beta), c in fock_comul(sig[rho]).items()),
              lambda rho, alpha, beta, c:
                  c * (z_rho(g, alpha) * z_rho(g, beta))
                  == oracle_comul_value(sig[rho], alpha, beta),
              lambda rho, alpha, beta, c: f"{rho!r} at ({alpha!r},{beta!r})")

    # element-level induction oracle where the wreath groups are small;
    # sigma-coefficients agree exactly where values do, as Z_rho != 0
    def induction_cases(splits, reps):
        for r1, r2 in splits:
            direct = fock_mul(sig[r1], sig[r2])
            brute = oracle_product(sig[r1], sig[r2],
                                   reps=reps, limit=oracle_limit)
            yield r1, r2, next((pi for pi in reps if brute.coeffs.get(pi, 0)
                                != direct.coeffs.get(pi, 0)), None)

    for total in range(2, max_degree + 1):
        if wreath_order(g, total) > oracle_limit:
            break
        reps = tuple(by_degree[total])
        cuts = [[(r1, r2) for r1 in by_degree[a]
                 for r2 in by_degree[total - a]] for a in range(1, total)]
        splits = [s for cut in cuts for s in cut]
        label = "full"
        if len(reps) * wreath_order(g, total) > ORACLE_FULL_COST:
            # a seeded sample of 5 target types and one split per cut
            rng, k = random.Random(0), min(5, len(reps))
            label = (f"sampled {k}/{len(reps)} types, "
                     f"1/{','.join(str(len(cut)) for cut in cuts)} "
                     f"splits per cut, seed 0")
            reps = tuple(sorted(rng.sample(reps, k)))
            splits = [s for cut in cuts for s in rng.sample(cut, 1)]
        rep.check(f"product matches induction oracle, degree {total} "
                  f"({label})",
                  induction_cases(splits, reps),
                  lambda r1, r2, pi: pi is None,
                  lambda r1, r2, pi: f"{r1!r}*{r2!r} at {pi!r}")

    return rep


def _primitive_dim(types_n: list[WreathType]) -> int:
    """Nullity of the reduced coproduct on the degree-n sigma basis: the
    dimension of the primitive space in that degree."""
    n = types_n[0].degree
    index = {}
    rows = []
    for rho in types_n:
        row = {}
        for alpha, beta, k in comul_splits(rho):
            if alpha.degree in (0, n):
                continue
            col = index.setdefault((alpha, beta), len(index))
            row[col] = row.get(col, 0) + k
        rows.append(row)
    return len(types_n) - matrix_rank(rows)
