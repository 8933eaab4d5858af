"""The graded space F_G = direct sum of C(G_n): product, coproduct, Hopf suite.

The product and coproduct are computed through sigma-basis combinatorics
(disjoint union of types, binomial splits); element-level induction and
restriction over the wreath groups appear only as oracles that pin the
conventions down.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

from .groups import FiniteGroup
from .linalg import matrix_rank
from .report import CheckResult, Report
from .scalars import Cyclotomic, TruncSeries, align, cyc_eq
from .wreath import (EMPTY_TYPE, WreathClassFunction, WreathElement,
                     WreathError, WreathType, element_model, enumerate_types,
                     representative_of_type, sigma_rho, type_of, wreath_order,
                     z_rho)


class FockError(ValueError):
    pass


def _unit_wcf(group: FiniteGroup) -> WreathClassFunction:
    return WreathClassFunction.build(
        group, 0, {EMPTY_TYPE: Cyclotomic.one(group.exponent)})


def wcf_mul(f1: WreathClassFunction, f2: WreathClassFunction) -> WreathClassFunction:
    """Induction product in the type basis: sigma^rho sigma^tau = sigma^(rho u tau)."""
    if f1.group is not f2.group:
        raise FockError("different base groups")
    g = f1.group
    out: dict[WreathType, Cyclotomic] = {}
    for rho, a in f1.vals:
        za = z_rho(g, rho)
        for tau, b in f2.vals:
            zb = z_rho(g, tau)
            pi = rho.union(tau)
            x, y = align(a, b)
            term = (x * y) * Fraction(z_rho(g, pi), za * zb)
            if pi in out:
                t, cur = align(term, out[pi])
                out[pi] = cur + t
            else:
                out[pi] = term
    return WreathClassFunction.build(g, f1.degree + f2.degree, out)


@lru_cache(maxsize=None)
def _partition_submultisets(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """(sub, complement, multiplicity) for all sub-multisets of a partition;
    multiplicity = product of binomials over part sizes."""
    items = sorted(set(lam), reverse=True)
    out = [((), (), 1)]
    for r in items:
        m = lam.count(r)
        new = []
        for sub, rest, coef in out:
            for a in range(m + 1):
                new.append((sub + (r,) * a, rest + (r,) * (m - a),
                            coef * comb(m, a)))
        out = new
    return tuple(out)


def comul_splits(rho: WreathType) -> list[tuple[WreathType, WreathType, int]]:
    """All (alpha, beta, coefficient) with alpha u beta = rho in the
    basis expansion of the coproduct of sigma^rho."""
    choices = []
    for c, lam in rho.parts:
        per_class = [(c, sub, rest, coef)
                     for sub, rest, coef in _partition_submultisets(lam)]
        choices.append(per_class)
    out = []
    for combo in itertools.product(*choices):
        da, db = {}, {}
        coef = 1
        for c, sub, rest, k in combo:
            if sub:
                da[c] = sub
            if rest:
                db[c] = rest
            coef *= k
        out.append((WreathType.from_dict(da), WreathType.from_dict(db), coef))
    return out


@dataclass
class FockElement:
    """Finitely supported graded family of class functions on the G_n."""

    group: FiniteGroup
    parts: dict[int, WreathClassFunction] = field(default_factory=dict)

    def __post_init__(self):
        self.parts = {n: f for n, f in self.parts.items() if not f.is_zero()}

    @classmethod
    def unit(cls, group: FiniteGroup) -> "FockElement":
        return cls(group, {0: _unit_wcf(group)})

    @classmethod
    def zero(cls, group: FiniteGroup) -> "FockElement":
        return cls(group, {})

    @classmethod
    def from_wcf(cls, f: WreathClassFunction) -> "FockElement":
        return cls(f.group, {f.degree: f})

    @classmethod
    def scalar(cls, group: FiniteGroup, value) -> "FockElement":
        u = _unit_wcf(group) * value
        return cls(group, {0: u})

    def component(self, n: int) -> WreathClassFunction:
        return self.parts.get(n, WreathClassFunction.zero(self.group, n))

    @property
    def max_degree(self) -> int:
        return max(self.parts, default=0)

    def __add__(self, other: "FockElement") -> "FockElement":
        self._check(other)
        out = dict(self.parts)
        for n, f in other.parts.items():
            out[n] = out[n] + f if n in out else f
        return FockElement(self.group, out)

    def _check(self, other):
        if self.group is not other.group:
            raise FockError("different base groups")

    def __sub__(self, other):
        return self + (other * Fraction(-1))

    def __mul__(self, scalar) -> "FockElement":
        return FockElement(self.group,
                           {n: f * scalar for n, f in self.parts.items()})

    __rmul__ = __mul__

    def equals(self, other: "FockElement") -> bool:
        if self.group is not other.group:
            return False
        for n in set(self.parts) | set(other.parts):
            if not self.component(n).equals(other.component(n)):
                return False
        return True

    def truncate(self, max_degree: int) -> "FockElement":
        return FockElement(self.group, {n: f for n, f in self.parts.items()
                                        if n <= max_degree})

    def to_json(self) -> str:
        return json.dumps([[n, self.parts[n].to_json_obj()]
                           for n in sorted(self.parts)])

    def __repr__(self):
        return f"Fock({ {n: self.parts[n] for n in sorted(self.parts)} })"


def fock_mul(u: FockElement, v: FockElement,
             max_degree: int | None = None) -> FockElement:
    u._check(v)
    out: dict[int, WreathClassFunction] = {}
    for a, fa in u.parts.items():
        for b, fb in v.parts.items():
            if max_degree is not None and a + b > max_degree:
                continue
            prod = wcf_mul(fa, fb)
            n = a + b
            out[n] = out[n] + prod if n in out else prod
    return FockElement(u.group, out)


def fock_exp(u: FockElement, max_degree: int) -> FockElement:
    """exp inside F_G of an element with no degree-0 part, truncated."""
    if 0 in u.parts:
        raise FockError("fock_exp needs vanishing degree-0 component")
    out = FockElement.unit(u.group)
    power = FockElement.unit(u.group)
    fact = 1
    for k in range(1, max_degree + 1):
        power = fock_mul(power, u, max_degree=max_degree)
        fact *= k
        out = out + power * Fraction(1, fact)
        if not power.parts:
            break
    return out


@dataclass
class TensorElement:
    """Element of F_G tensor F_G, stored with function values per type pair:
    sigma^a tensor sigma^b carries value Z_a Z_b at (a, b)."""

    group: FiniteGroup
    vals: dict[tuple[WreathType, WreathType], Cyclotomic] = field(default_factory=dict)

    def __post_init__(self):
        self.vals = {k: v for k, v in self.vals.items() if not v.is_zero()}

    def value(self, alpha: WreathType, beta: WreathType) -> Cyclotomic:
        return self.vals.get((alpha, beta), Cyclotomic.zero(self.group.exponent))

    def add_term(self, alpha: WreathType, beta: WreathType, v: Cyclotomic):
        key = (alpha, beta)
        if key in self.vals:
            a, b = align(self.vals[key], v)
            s = a + b
            if s.is_zero():
                del self.vals[key]
            else:
                self.vals[key] = s
        elif not v.is_zero():
            self.vals[key] = v

    def __add__(self, other: "TensorElement") -> "TensorElement":
        out = TensorElement(self.group, dict(self.vals))
        for (a, b), v in other.vals.items():
            out.add_term(a, b, v)
        return out

    def __mul__(self, scalar) -> "TensorElement":
        return TensorElement(self.group,
                             {k: v * scalar for k, v in self.vals.items()})

    __rmul__ = __mul__

    def tensor_mul(self, other: "TensorElement") -> "TensorElement":
        g = self.group
        out = TensorElement(g, {})
        for (a1, b1), v1 in self.vals.items():
            w1 = Fraction(1, z_rho(g, a1) * z_rho(g, b1))
            for (a2, b2), v2 in other.vals.items():
                w2 = Fraction(1, z_rho(g, a2) * z_rho(g, b2))
                aa = a1.union(a2)
                bb = b1.union(b2)
                x, y = align(v1, v2)
                scale = w1 * w2 * z_rho(g, aa) * z_rho(g, bb)
                out.add_term(aa, bb, (x * y) * scale)
        return out

    def equals(self, other: "TensorElement") -> bool:
        for key in set(self.vals) | set(other.vals):
            a = self.vals.get(key, Cyclotomic.zero(self.group.exponent))
            b = other.vals.get(key, Cyclotomic.zero(other.group.exponent))
            if not cyc_eq(a, b):
                return False
        return True


def fock_comul(u: FockElement) -> TensorElement:
    """Restriction coproduct; sigma_r(c) is primitive and the coproduct is
    extended as an algebra map over the sigma basis."""
    g = u.group
    out = TensorElement(g, {})
    for n, f in u.parts.items():
        for rho, v in f.vals:
            coeff = v / z_rho(g, rho)
            for alpha, beta, k in comul_splits(rho):
                scale = Fraction(k * z_rho(g, alpha) * z_rho(g, beta))
                out.add_term(alpha, beta, coeff * scale)
    return out


def counit(u: FockElement) -> Cyclotomic:
    return u.component(0).value(EMPTY_TYPE)


@lru_cache(maxsize=None)
def _antipode_basis(group: FiniteGroup, rho: WreathType) -> WreathClassFunction:
    """Graded-connected recursion: S(x) = -x - sum S(x') x'' over the
    reduced coproduct."""
    if rho.degree == 0:
        return _unit_wcf(group)
    out = sigma_rho(group, rho) * Fraction(-1)
    for alpha, beta, k in comul_splits(rho):
        if alpha.degree == 0 or alpha.degree == rho.degree:
            continue
        term = wcf_mul(_antipode_basis(group, alpha), sigma_rho(group, beta))
        out = out + term * Fraction(-k)
    return out


def antipode(u: FockElement) -> FockElement:
    g = u.group
    out = FockElement.zero(g)
    for n, f in u.parts.items():
        for rho, v in f.vals:
            coeff = v / z_rho(g, rho)
            out = out + FockElement.from_wcf(_antipode_basis(g, rho)) * coeff
    return out


def graded_dim(group: FiniteGroup, max_order: int) -> TruncSeries:
    """q-dimension of F_G(pt): the number of degree-n types per degree."""
    return TruncSeries.from_coeffs(
        [len(enumerate_types(group, n)) for n in range(max_order + 1)])


# -- element-level oracles --------------------------------------------------

def _split_element(a: WreathElement, k: int) -> tuple[WreathElement, WreathElement]:
    left = WreathElement(a.gs[:k], a.perm[:k])
    right = WreathElement(a.gs[k:], tuple(p - k for p in a.perm[k:]))
    return left, right


@lru_cache(maxsize=8)
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
            model.id_of(representative_of_type(group, pi))]]
        weight = len(model) // len(members)
        bag: Counter = Counter()
        for y in members:
            if max(model.perms[y][:cut]) < cut:
                left, right = _split_element(model.elements[y], a)
                bag[(type_of(group, left), type_of(group, right))] += weight
        bags[pi] = bag
    return bags


def oracle_product(f1: WreathClassFunction, f2: WreathClassFunction,
                   reps: tuple[WreathType, ...] | None = None,
                   limit: int = 200_000) -> WreathClassFunction:
    """Element-level induction from G_a x G_b: the brute-force side of the
    Fock multiplication, evaluated at the given target types."""
    g = f1.group
    a, b = f1.degree, f2.degree
    if reps is None:
        reps = tuple(enumerate_types(g, a + b))
    bags = _induction_bags(g, a, b, tuple(reps), limit)
    sub_order = wreath_order(g, a) * wreath_order(g, b)
    d1 = f1.as_dict()
    d2 = f2.as_dict()
    m = g.exponent
    out = {}
    for pi, bag in bags.items():
        acc = Cyclotomic.zero(m)
        for (t1, t2), count in bag.items():
            v1 = d1.get(t1)
            v2 = d2.get(t2)
            if v1 is None or v2 is None:
                continue
            x, y = align(v1.rescale(m), v2.rescale(m))
            t, acc = align((x * y) * count, acc)
            acc = acc + t
        out[pi] = acc / sub_order
    return WreathClassFunction.build(g, a + b, out)


def oracle_comul_value(f: WreathClassFunction, alpha: WreathType,
                       beta: WreathType) -> Cyclotomic:
    """Element-level restriction: the value of Res f at the embedded pair
    of canonical representatives of (alpha, beta)."""
    g = f.group
    a, b = alpha.degree, beta.degree
    left = representative_of_type(g, alpha)
    right = representative_of_type(g, beta)
    combined = WreathElement(left.gs + right.gs,
                             left.perm + tuple(p + a for p in right.perm))
    return f.value_at_element(combined)


# -- verification ----------------------------------------------------------

def hopf_verify(group: FiniteGroup, max_degree: int,
                oracle_limit: int = 50_000,
                oracle_full_cost: int = 300_000) -> Report:
    """Hopf axioms on the sigma basis up to the given total degree, plus
    element-level induction/restriction oracles where group sizes allow."""
    rep = Report(f"hopf_verify({group.name}, N={max_degree})")
    g = group
    by_degree = {n: enumerate_types(g, n) for n in range(max_degree + 1)}
    basis = [rho for n in range(1, max_degree + 1) for rho in by_degree[n]]

    # associativity and commutativity of the product
    ok = True
    witness = None
    for r1 in basis:
        for r2 in basis:
            if r1.degree + r2.degree > max_degree:
                continue
            p12 = wcf_mul(sigma_rho(g, r1), sigma_rho(g, r2))
            p21 = wcf_mul(sigma_rho(g, r2), sigma_rho(g, r1))
            if not p12.equals(p21):
                ok, witness = False, f"{r1!r},{r2!r}"
                break
            for r3 in basis:
                if r1.degree + r2.degree + r3.degree > max_degree:
                    continue
                left = wcf_mul(p12, sigma_rho(g, r3))
                right = wcf_mul(sigma_rho(g, r1),
                                wcf_mul(sigma_rho(g, r2), sigma_rho(g, r3)))
                if not left.equals(right):
                    ok, witness = False, f"{r1!r},{r2!r},{r3!r}"
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("product associative and commutative on basis", ok, witness)

    # unit axiom
    one = FockElement.unit(g)
    ok = all(fock_mul(one, FockElement.from_wcf(sigma_rho(g, r))).equals(
        FockElement.from_wcf(sigma_rho(g, r))) for r in basis)
    rep.add("unit axiom", ok)

    # coassociativity on basis (basis-coefficient computation)
    ok = True
    witness = None
    for rho in basis:
        left: Counter = Counter()
        right: Counter = Counter()
        for a1, b1, k1 in comul_splits(rho):
            for a2, b2, k2 in comul_splits(a1):
                left[(a2, b2, b1)] += k1 * k2
            for a2, b2, k2 in comul_splits(b1):
                right[(a1, a2, b2)] += k1 * k2
        if {k: v for k, v in left.items() if v} != \
           {k: v for k, v in right.items() if v}:
            ok, witness = False, repr(rho)
            break
    rep.add("coproduct coassociative on basis", ok, witness)

    # counit axiom
    ok = True
    for rho in basis:
        acc: Counter = Counter()
        for a1, b1, k in comul_splits(rho):
            if a1.degree == 0:
                acc[b1] += k
        if dict(acc) != {rho: 1}:
            ok = False
            break
    rep.add("counit axiom", ok)

    # coproduct is an algebra map
    ok = True
    witness = None
    for r1 in basis:
        for r2 in basis:
            if r1.degree + r2.degree > max_degree:
                continue
            lhs = fock_comul(FockElement.from_wcf(
                wcf_mul(sigma_rho(g, r1), sigma_rho(g, r2))))
            rhs = fock_comul(FockElement.from_wcf(sigma_rho(g, r1))).tensor_mul(
                fock_comul(FockElement.from_wcf(sigma_rho(g, r2))))
            if not lhs.equals(rhs):
                ok, witness = False, f"{r1!r},{r2!r}"
                break
        if not ok:
            break
    rep.add("coproduct is an algebra homomorphism", ok, witness)

    # antipode axiom: m (S x id) Delta = counit * unit
    ok = True
    witness = None
    for rho in basis:
        acc = FockElement.zero(g)
        for alpha, beta, k in comul_splits(rho):
            term = fock_mul(
                FockElement.from_wcf(_antipode_basis(g, alpha)),
                FockElement.from_wcf(sigma_rho(g, beta)))
            acc = acc + term * Fraction(k)
        if not acc.equals(FockElement.zero(g)):
            ok, witness = False, repr(rho)
            break
    rep.add("antipode axiom on basis", ok, witness)

    # primitive space dimension per degree equals the class count
    ok = True
    witness = None
    for n in range(1, max_degree + 1):
        types_n = by_degree[n]
        index = {}
        rows = []
        for rho in types_n:
            row_entries = {}
            for alpha, beta, k in comul_splits(rho):
                if alpha.degree in (0, n):
                    continue
                row_entries[(alpha, beta)] = row_entries.get((alpha, beta), 0) + k
            for key in row_entries:
                index.setdefault(key, len(index))
            rows.append(row_entries)
        mat = []
        for row_entries in rows:
            row = [Fraction(0)] * max(len(index), 1)
            for key, v in row_entries.items():
                row[index[key]] = Fraction(v)
            mat.append(row)
        nullity = len(types_n) - matrix_rank(mat)
        if nullity != g.num_classes:
            ok, witness = False, f"degree {n}: nullity {nullity} != {g.num_classes}"
            break
    rep.add("primitive space has dimension |G_*| per degree", ok, witness)

    # element-level restriction oracle (full sweep, cheap)
    ok = True
    witness = None
    for rho in basis:
        t = fock_comul(FockElement.from_wcf(sigma_rho(g, rho)))
        for (alpha, beta), v in t.vals.items():
            want = oracle_comul_value(sigma_rho(g, rho), alpha, beta)
            if not cyc_eq(v, want):
                ok, witness = False, f"{rho!r} at ({alpha!r},{beta!r})"
                break
        if not ok:
            break
    rep.add("coproduct matches element-level restriction oracle", ok, witness)

    # element-level induction oracle where the wreath groups are small
    for total in range(2, max_degree + 1):
        if wreath_order(g, total) > oracle_limit:
            break
        reps_all = tuple(by_degree[total])
        cost = len(reps_all) * wreath_order(g, total)
        sampled = cost > oracle_full_cost
        reps = reps_all[:5] if sampled else reps_all
        ok = True
        witness = None
        for a in range(1, total):
            b = total - a
            pairs = [(r1, r2) for r1 in by_degree[a] for r2 in by_degree[b]]
            if sampled:
                pairs = pairs[:1]
            for r1, r2 in pairs:
                direct = wcf_mul(sigma_rho(g, r1), sigma_rho(g, r2))
                brute = oracle_product(sigma_rho(g, r1), sigma_rho(g, r2),
                                       reps=reps, limit=oracle_limit)
                dd = direct.as_dict()
                for pi in reps:
                    got = brute.value(pi)
                    want = dd.get(pi, Cyclotomic.zero(g.exponent))
                    if not cyc_eq(got, want):
                        ok, witness = False, f"{r1!r}*{r2!r} at {pi!r}"
                        break
                if not ok:
                    break
            if not ok:
                break
        label = "sampled" if sampled else "full"
        rep.add(f"product matches induction oracle, degree {total} ({label})",
                ok, witness)

    return rep
