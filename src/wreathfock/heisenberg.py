"""Creation/annihilation operators on F_G and the Heisenberg relations,
plus an abstract Z2-graded Fock model for the super (odd) case.

In sigma coordinates F_G is the polynomial ring in the sigma_r(c).
Creation a_m(V) is multiplication by omega_m(V), the linear form with
coefficient V(c)/zeta_c on sigma_m(c); annihilation a_{-m}(eta) is the
derivation sum_c m <eta, sigma_c> d/d sigma_m(c).  An evaluation-style
restriction oracle is the independent cross-check.  What an operator needs
apart from the vector it acts on (the element omega_m(V), or the weights
m <eta, sigma_c>) is computed once, when the operator is built, and the
relation checks compute the image of every basis vector under every
operator once per check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .fock import FockElement, fock_mul, sigma_rho
from .groups import (ClassFunction, DualFunctional, FiniteGroup, GroupError,
                     sigma_basis)
from .lambda_ops import omega_n
from .report import Report
from .scalars import Scalar
from .wreath import WreathType, enumerate_types, n_cycle_type


class HeisenbergError(ValueError):
    pass


@dataclass(frozen=True)
class HeisenbergOp:
    """a_m(V) for sign +1 (payload a ClassFunction), a_{-m}(eta) for sign
    -1 (payload a DualFunctional)."""

    sign: int
    mode: int
    payload: object
    # a_m(V): the FockElement omega_m(V); a_{-m}(eta): the tuple of
    # weights m <eta, sigma_c> indexed by class c
    _data: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode < 1:
            raise HeisenbergError("mode must be >= 1")
        if self.sign not in (1, -1):
            raise HeisenbergError("sign must be +1 or -1")
        want = ClassFunction if self.sign == 1 else DualFunctional
        if not isinstance(self.payload, want):
            raise HeisenbergError(f"payload must be a {want.__name__}")
        g, m = self.payload.group, self.mode
        if self.sign == 1:
            data = omega_n(self.payload, m)
        else:
            data = tuple(self.payload.pair(sigma_basis(g, c)) * Fraction(m)
                         for c in range(g.num_classes))
        object.__setattr__(self, "_data", data)

    def __call__(self, u: FockElement) -> FockElement:
        if u.group is not self.payload.group:
            raise GroupError("operator and vector need a common group")
        if self.sign == 1:
            return fock_mul(u, self._data)
        return _apply_minus(self.mode, self._data, u)


def a_plus(m: int, v: ClassFunction) -> HeisenbergOp:
    return HeisenbergOp(1, m, v)


def a_minus(m: int, eta: DualFunctional) -> HeisenbergOp:
    return HeisenbergOp(-1, m, eta)


def vacuum(group: FiniteGroup) -> FockElement:
    return FockElement.unit(group)


def _apply_minus(m: int, weights: tuple[Scalar, ...],
                 u: FockElement) -> FockElement:
    """The derivation sum_c weights[c] d/d sigma_m(c), with weights[c] =
    m <eta, sigma_c>: on sigma^rho, sum_c (multiplicity of part m at c)
    weights[c] sigma^{rho minus one m-part at c}."""
    out: dict[WreathType, Scalar] = {}
    for rho, coeff in u.coeffs.items():
        for c, lam in rho.parts:
            mult = lam.count(m)
            if mult == 0:
                continue
            new = rho.remove_part(m, c)
            out[new] = out.get(new, 0) + coeff * weights[c] * mult
    return FockElement(u.group, out)


def a_minus_oracle(m: int, eta: DualFunctional,
                   f: FockElement) -> FockElement:
    """(1 tensor eta ch_m) Res, computed by evaluation: value at alpha is
    sum_c eta_c f(alpha u (m-cycle at c)), per degree n >= m of f."""
    g = f.group
    out = {}
    for n in {rho.degree for rho in f.coeffs}:
        if n < m:
            continue
        for alpha in enumerate_types(g, n - m):
            out[alpha] = sum((eta.coeffs[c]
                              * f.value(alpha.union(n_cycle_type(c, m)))
                              for c in range(g.num_classes)), Fraction(0))
    return FockElement.from_values(g, out)


# -- verification on F_G ----------------------------------------------------

def commutator_check(group: FiniteGroup, max_degree: int,
                     max_mode: int) -> Report:
    """Eq. (24)-(26) on the sigma^rho spanning set with basis payloads.
    Each operator is applied to each basis vector once, up front; each
    relation applies one more operator to those images.  Like operators
    are checked once per unordered pair of distinct operators."""
    g = group
    rep = Report(f"commutator_check({g.name}, N={max_degree}, M={max_mode})")
    basis = [sigma_rho(g, rho)
             for n in range(max_degree + 1)
             for rho in enumerate_types(g, n)]
    etas = [DualFunctional.delta(g, c) for c in range(g.num_classes)]
    vees = [sigma_basis(g, c) for c in range(g.num_classes)]
    pairings = [[eta.pair(v) for v in vees] for eta in etas]
    modes = range(1, max_mode + 1)
    downs = {m: [a_minus(m, eta) for eta in etas] for m in modes}
    ups = {m: [a_plus(m, v) for v in vees] for m in modes}

    def images(ops):
        """img[m][c][i] = ops[m][c](basis[i])"""
        return {m: [[op(u) for u in basis] for op in ops[m]] for m in modes}

    down_img, up_img = images(downs), images(ups)

    pairs = [(m, l) for m in modes for l in modes]

    def eq24(m, l, ci, cj, down, up):
        expect = pairings[ci][cj] * Fraction(l if m == l else 0)
        return all((down(up_img[l][cj][i]) - up(down_img[m][ci][i])).equals(
            u * expect) for i, u in enumerate(basis))

    rep.check("Eq. (24): [a_-m(eta), a_l(V)] = l delta_ml <eta,V>",
              ((m, l, ci, cj, down, up) for m, l in pairs
               for ci, down in enumerate(downs[m])
               for cj, up in enumerate(ups[l])),
              eq24, lambda m, l, ci, cj, *_: f"m={m},l={l},c={ci},c'={cj}")

    for label, ops, img in (("Eq. (25): creation", ups, up_img),
                            ("Eq. (26): annihilation", downs, down_img)):
        rep.check(f"{label} operators commute",
                  ((m, l, ops[m][ci], ops[l][cj], img[m][ci], img[l][cj])
                   for m, l in pairs
                   for ci in range(g.num_classes)
                   for cj in range(g.num_classes) if (m, ci) < (l, cj)),
                  lambda m, l, op1, op2, img1, img2: all(
                      op1(x2).equals(op2(x1)) for x1, x2 in zip(img1, img2)),
                  lambda m, l, *_: f"m={m},l={l}")

    rep.check("annihilation matches evaluation-restriction oracle",
              ((m, u, eta, down_img[m][ci][i]) for m in modes
               for ci, eta in enumerate(etas) for i, u in enumerate(basis)),
              lambda m, u, eta, image: image.equals(
                  a_minus_oracle(m, eta, u)),
              lambda m, u, *_: f"m={m},deg={u.degree}")
    return rep


def irreducibility_check(group: FiniteGroup, max_degree: int) -> bool:
    """Monomials in the a_m(sigma_c) applied to the vacuum span each
    graded piece: rank equals dim C(G_n) per degree.  The monomial over the
    parts of rho must give exactly sigma^rho; equality with the basis is the
    whole test, since the sigma^rho of degree n are linearly independent
    and there are dim C(G_n) of them."""
    g = group
    ups = {(r, c): a_plus(r, sigma_basis(g, c))
           for r in range(1, max_degree + 1) for c in range(g.num_classes)}
    for n in range(max_degree + 1):
        for rho in enumerate_types(g, n):
            vec = vacuum(g)
            for c, lam in rho.parts:
                for r in lam:
                    vec = ups[r, c](vec)
            if not vec.equals(sigma_rho(g, rho)):
                return False
    return True


# -- abstract super Fock model ----------------------------------------------

Generator = tuple[int, int]          # (parity, index); parity 0 even, 1 odd
Entry = tuple[int, int, int]         # (mode, parity, index)
Monomial = tuple[Entry, ...]         # sorted; odd entries pairwise distinct


@dataclass(frozen=True)
class SuperFockSpace:
    """S(direct sum over r >= 1 of W[r]) for W of dimension (d0 | d1)."""

    d0: int
    d1: int

    def generators(self) -> list[Generator]:
        return [(0, i) for i in range(self.d0)] + \
               [(1, i) for i in range(self.d1)]

    def check_generator(self, w: Generator):
        parity, idx = w
        bound = self.d0 if parity == 0 else self.d1
        if not (parity in (0, 1) and 0 <= idx < bound):
            raise HeisenbergError(f"no generator {w} in ({self.d0}|{self.d1})")

    def monomials(self, degree: int) -> list[Monomial]:
        """All basis monomials of the given total degree (sum of modes)."""
        entries = [(r, p, i) for r in range(1, degree + 1)
                   for (p, i) in self.generators()]

        out: list[Monomial] = []

        def rec(start, remaining, acc):
            if remaining == 0:
                out.append(tuple(acc))
                return
            for k in range(start, len(entries)):
                e = entries[k]
                if e[0] > remaining:
                    continue
                if e[1] == 1 and acc and acc[-1] == e:
                    continue
                acc.append(e)
                rec(k if e[1] == 0 else k + 1, remaining - e[0], acc)
                acc.pop()

        rec(0, degree, [])
        return sorted(out)


class SuperElement(dict):
    """Sparse linear combination monomial -> Fraction."""

    @classmethod
    def vac(cls) -> "SuperElement":
        return cls({(): Fraction(1)})

    def __add__(self, other: "SuperElement") -> "SuperElement":
        out = SuperElement(self)
        for k, v in other.items():
            out[k] = out.get(k, Fraction(0)) + v
            if out[k] == 0:
                del out[k]
        return out

    def __sub__(self, other: "SuperElement") -> "SuperElement":
        return self + other.scale(Fraction(-1))

    def scale(self, x: Fraction) -> "SuperElement":
        return SuperElement({k: v * x for k, v in self.items() if v * x != 0})

    def equals(self, other: "SuperElement") -> bool:
        return {k: v for k, v in self.items() if v} == \
               {k: v for k, v in other.items() if v}


def _insert_entry(mono: Monomial, e: Entry) -> tuple[Monomial, int] | None:
    """Sorted insertion with Koszul sign; None if an odd entry repeats."""
    pos = 0
    while pos < len(mono) and mono[pos] < e:
        pos += 1
    if e[1] == 1:
        if e in mono:
            return None
        crossed = sum(1 for x in mono[:pos] if x[1] == 1)
        sign = -1 if crossed % 2 else 1
    else:
        sign = 1
    return mono[:pos] + (e,) + mono[pos:], sign


def sf_a_plus(space: SuperFockSpace, w: Generator, m: int):
    """Creation: supersymmetric multiplication by the mode-m copy of w."""
    space.check_generator(w)
    if m < 1:
        raise HeisenbergError("mode must be >= 1")
    e: Entry = (m, w[0], w[1])

    def apply(u: SuperElement) -> SuperElement:
        out = SuperElement()
        for mono, coeff in u.items():
            ins = _insert_entry(mono, e)
            if ins is None:
                continue
            new, sign = ins
            out[new] = out.get(new, Fraction(0)) + coeff * sign
            if out[new] == 0:
                del out[new]
        return out

    return apply


def sf_a_minus(space: SuperFockSpace, eta: Generator, m: int):
    """Annihilation: superderivation contracting mode-m copies of the
    generator dual to eta, with coefficient m <eta, w> = m."""
    space.check_generator(eta)
    if m < 1:
        raise HeisenbergError("mode must be >= 1")
    e: Entry = (m, eta[0], eta[1])

    def apply(u: SuperElement) -> SuperElement:
        out = SuperElement()
        for mono, coeff in u.items():
            for pos, entry in enumerate(mono):
                if entry != e:
                    continue
                if e[1] == 1:
                    crossed = sum(1 for x in mono[:pos] if x[1] == 1)
                    sign = -1 if crossed % 2 else 1
                else:
                    sign = 1
                new = mono[:pos] + mono[pos + 1:]
                out[new] = out.get(new, Fraction(0)) + coeff * sign * m
                if out[new] == 0:
                    del out[new]
        return out

    return apply


def sf_commutator_check(d0: int, d1: int, max_degree: int,
                        max_mode: int) -> Report:
    """Theorem 5.1 super relations on SuperFockSpace(d0, d1): commutators,
    with anticommutators on odd-odd pairs, plus the graded dimension."""
    from .scalars import graded_dim_series

    space = SuperFockSpace(d0, d1)
    rep = Report(f"sf_commutator_check({d0},{d1}, N={max_degree}, M={max_mode})")
    basis = [SuperElement({mono: Fraction(1)})
             for n in range(max_degree + 1)
             for mono in space.monomials(n)]
    gens = space.generators()

    modes = range(1, max_mode + 1)
    pairs = [(m, l) for m in modes for l in modes]

    def table(make):
        """(m, w) -> (operator, parity of w, its images of the basis)"""
        out = {}
        for m in modes:
            for w in gens:
                op = make(space, w, m)
                out[m, w] = (op, w[0], [op(u) for u in basis])
        return out

    ops = {"create": table(sf_a_plus), "annihilate": table(sf_a_minus)}

    def bracket(a, b, i):
        """[a, b] on basis[i], an anticommutator when both are odd."""
        (op1, par1, img1), (op2, par2, img2) = a, b
        first, second = op1(img2[i]), op2(img1[i])
        return first + second if par1 == par2 == 1 else first - second

    def eq24(m, l, eta, w):
        scalar = Fraction(l) if (m == l and eta == w) else Fraction(0)
        return all(bracket(ops["annihilate"][m, eta], ops["create"][l, w],
                           i).equals(u.scale(scalar))
                   for i, u in enumerate(basis))

    rep.check("super Eq. (24): [a_-m(eta), a_l(w)] = l delta delta",
              ((m, l, eta, w) for m, l in pairs for eta in gens for w in gens),
              eq24, lambda m, l, eta, w: f"m={m},l={l},eta={eta},w={w}")

    # each unordered pair once; the diagonal stays, since a^2 = 0 for an
    # odd generator is a real check
    rep.check("super Eq. (25)/(26): like operators super-commute",
              ((kind, m, l, w1, w2, i) for m, l in pairs for w1 in gens
               for w2 in gens if (m, w1) <= (l, w2)
               for i in range(len(basis))
               for kind in ("create", "annihilate")),
              lambda kind, m, l, w1, w2, i: bracket(
                  ops[kind][m, w1], ops[kind][l, w2], i).equals(SuperElement()),
              lambda kind, m, l, *_: f"{kind} m={m},l={l}")

    counts = [len(space.monomials(n)) for n in range(max_degree + 1)]
    want = graded_dim_series(d0, d1, max_degree)
    rep.check("graded dimension matches (1+q^r)^d1/(1-q^r)^d0",
              enumerate(counts),
              lambda n, c: Fraction(c) == want.coefficient(n),
              lambda *_: str(counts))
    return rep


def heisenberg_verify(group: FiniteGroup, max_degree: int,
                      max_mode: int) -> Report:
    """The full Heisenberg suite for one group: relations, oracle,
    vacuum cyclicity, and a small super sweep."""
    rep = Report(f"heisenberg_verify({group.name}, N={max_degree}, M={max_mode})")
    rep.extend(commutator_check(group, max_degree, max_mode).checks)
    rep.add("vacuum is cyclic: rank = dim C(G_n) per degree",
            irreducibility_check(group, max_degree))
    sup = sf_commutator_check(1, 1, min(max_degree, 4), min(max_mode, 2))
    rep.add("super Fock relations (d0=d1=1)", sup.all_passed,
            None if sup.all_passed else sup.first_failure.name)
    return rep
