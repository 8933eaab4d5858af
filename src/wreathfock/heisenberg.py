"""Creation/annihilation operators on one graded-commutative sigma engine,
and the Heisenberg relations on F_G and on the (d0|d1) super Fock model.

The engine is the polynomial ring in generators sigma_r(c), r >= 1, over
the labels c of a `groups.LabelSpace`, the group of each vector: a
monomial sigma^rho is a `WreathType` rho, a vector a `FockElement`.  Odd
generators anticommute, so an odd label takes distinct parts (Macdonald,
Ch. I, App. B); the monomial is ordered canonically: labels ascending,
parts descending at each label.  F_G has the classes of G as labels, all
even, of weight zeta_c.  The super model `SuperFockSpace(d0, d1)` has
labels 0..d0-1 even and d0..d0+d1-1 odd, all of weight 1.

An operator's payload is a vector on the labels of the space, whichever
it is, and one rule with the space's weights w gives its linear form
sum_c x_c sigma_m(c).  Creation a_m(V) is left multiplication by
omega_m(V), x_c = V(c)/w(c), in `fock_mul`'s kernel `fock._merge`;
annihilation a_{-m}(eta) is the derivation sum_c x_c d/d sigma_m(c), with
x_c = m <eta, sigma_c> = m eta_c w(c).  On the super model the payloads
`sigma_basis(space, c)` and `DualFunctional.delta(space, c)` give the
generator at label c.  Both carry the Koszul sign `fock._koszul`.  An
evaluation-style restriction oracle, which reads a table of the values of
its vector, is the independent cross-check on F_G.
What an operator needs apart from the vector it acts on, its form, is
computed once, when the operator is built, and `HeisenbergOp.apply` maps
coefficient maps to coefficient maps.  One `relation_check` checks
Eq. (24)-(26) on any label space: the image of every basis vector under
every operator is computed once, in `_image_table`, and `_bracket_is`
checks a bracket on the whole basis with one comparison of two lists of
coefficient maps, applying no operator to an image that is 0.
"""
from __future__ import annotations

from functools import partial
from operator import attrgetter

from .fock import FockElement, _first_odd, _koszul, _merge, graded_dim
from .groups import (ByValue, ClassFunction, DualFunctional, FiniteGroup,
                     GroupError, LabelSpace, sigma_basis)
from .lambda_ops import omega_n
from .report import Report
from .scalars import Scalar, graded_dim_series
from .wreath import WreathType, enumerate_types, n_cycle_type


class HeisenbergError(ValueError):
    pass


# an annihilation form: its nonzero terms (label c, sigma_m(c)'s type, x_c)
Form = tuple[tuple[int, WreathType, Scalar], ...]
Coeffs = dict[WreathType, Scalar]
Entry = tuple[object, int, list[Coeffs]]  # operator, label, images


def _annihilate(m: int, form: Form, odd: int, coeffs: Coeffs) -> Coeffs:
    """The derivation sum_c x_c d/d sigma_m(c), zeros kept: on sigma^rho,
    per label c, x_c times (the multiplicity of part m at c, or for a label
    >= odd the sign of moving sigma_m(c) to the front) sigma^{rho - part}."""
    out: Coeffs = {}
    for rho, a in coeffs.items():
        for c, tau, x in form:
            mult = rho.partition(c).count(m)
            if not mult:
                continue
            new = rho.remove_part(m, c)
            k = _koszul(tau, new, odd) if c >= odd else mult
            out[new] = out.get(new, 0) + a * x * k
    return out


def _bracket_is(odd: int, basis: list[FockElement], a: Entry, b: Entry,
                x: Scalar) -> bool:
    """Whether [a, b] u = x u for every basis vector u.  The bracket is
    a(b u) - b(a u), or a(b u) + b(a u) when both labels are odd; it is
    never built: the list of the a(b u) is compared once with the list of
    the b(a u), negated for two odd labels, plus x u.  Where b u or a u is
    0, that side is 0 and no operator is applied."""
    (op1, c1, img1), (op2, c2, img2) = a, b
    first = [op1.apply(v) if v else v for v in img2]
    need = [op2.apply(v) if v else v for v in img1]
    if min(c1, c2) >= odd:
        need = [{k: -v for k, v in w.items()} for w in need]
    if x:
        for i, u in enumerate(basis):
            w = need[i] = dict(need[i])
            for k, v in u.coeffs.items():
                w[k] = w.get(k, 0) + v * x
                if not w[k]:
                    del w[k]
    return first == need


def _image_table(modes, basis: list[FockElement], make,
                 payloads: list) -> dict[tuple[int, int], Entry]:
    """(m, c) -> (the operator make(m, payloads[c]), c, its images of the
    basis, coefficient maps): each operator applied to each vector once."""
    ops = {(m, c): make(m, payload)
           for m in modes for c, payload in enumerate(payloads)}
    return {(m, c): (op, c, [op.apply(u.coeffs) for u in basis])
            for (m, c), op in ops.items()}


class HeisenbergOp(ByValue):
    """a_m(V) for sign +1 (payload a ClassFunction V), a_{-m}(eta) for sign
    -1 (payload a DualFunctional eta).  It acts on the vectors of the
    payload's label space, F_G or a super Fock model, and refuses others.
    a_m(V) multiplies by `_omega`, the terms of omega_m(V), from the left
    in `fock._merge`; a_{-m}(eta) keeps its form `_form`, the coefficients
    m <eta, sigma_c> by label c.  `_odd` is the first odd label (for
    creation None when there is none).  Integral coefficients are ints."""

    __slots__ = ("sign", "mode", "payload", "_omega", "_odd", "_form")
    _key = attrgetter("sign", "mode", "payload")

    def __init__(self, sign: int, mode: int, payload):
        self.sign, self.mode, self.payload = sign, mode, payload
        if mode < 1:
            raise HeisenbergError("mode must be >= 1")
        if sign not in (1, -1):
            raise HeisenbergError("sign must be +1 or -1")
        want = ClassFunction if sign == 1 else DualFunctional
        if not isinstance(payload, want):
            raise HeisenbergError(f"payload must be a {want.__name__}")
        g, m = payload.group, mode
        if sign == 1:
            self._omega = tuple(omega_n(payload, m).coeffs.items())
            self._odd = _first_odd(g)
            return
        coeffs = (payload.pair(sigma_basis(g, c)) * m
                  for c in range(len(g.weights)))
        self._form = tuple((c, n_cycle_type(c, m), x)
                           for c, x in enumerate(coeffs) if x)
        self._odd = g.odd

    def __repr__(self):
        return (f"HeisenbergOp(sign={self.sign!r}, mode={self.mode!r}, "
                f"payload={self.payload!r})")

    def __call__(self, u: FockElement) -> FockElement:
        if u.group is not self.payload.group:
            raise GroupError("operator and vector need a common group")
        return FockElement(u.group, self.apply(u.coeffs))

    def apply(self, coeffs: Coeffs) -> Coeffs:
        """The image of the vector with these coefficients on the payload's
        space, as a new map without zeros."""
        out = _merge(self._omega, coeffs.items(), self._odd) if self.sign > 0 \
            else _annihilate(self.mode, self._form, self._odd, coeffs)
        return out if all(out.values()) else {k: v for k, v in out.items()
                                              if v}


def a_plus(m: int, v: ClassFunction) -> HeisenbergOp:
    return HeisenbergOp(1, m, v)


def a_minus(m: int, eta: DualFunctional) -> HeisenbergOp:
    return HeisenbergOp(-1, m, eta)


def vacuum(group: LabelSpace) -> FockElement:
    return FockElement.unit(group)


def a_minus_oracle(m: int, eta: DualFunctional,
                   f: FockElement) -> FockElement:
    """(1 tensor eta ch_m) Res, computed by evaluation: value at alpha is
    sum_c eta_c f(alpha u (m-cycle at c)), per degree n >= m of f, read
    from a table of the values of f on its support."""
    g = f.group
    values = {rho: f.value(rho) for rho in f.coeffs}
    cycles = [(x, n_cycle_type(c, m)) for c, x in enumerate(eta.coeffs) if x]
    out = {}
    for n in {rho.degree for rho in values}:
        if n < m:
            continue
        for alpha in enumerate_types(g, n - m):
            unions = alpha.unions
            v = sum((x * values.get(unions[cyc], 0) for x, cyc in cycles), 0)
            if v:
                out[alpha] = v
    return FockElement.from_values(g, out)


# -- the relations on any label space ----------------------------------------

def relation_check(rep: Report, space: LabelSpace, max_degree: int,
                   max_mode: int, eq24: str, like, names):
    """Eq. (24)-(26) on the sigma^rho of degree <= max_degree, for the basis
    payloads of modes <= max_mode, as rows of `rep`: `eq24`, whose witness
    names labels c, c' by `names(c, c')`, and per (name, kinds) in `like`
    the super-commutators of those kinds, each unordered pair once; an
    operator meets itself only at an odd label, where a^2 = 0 is a real
    check (at an even one [a, a] = 0 by construction).  Returns the basis
    and the annihilation table for the caller's own rows."""
    labels = range(len(space.weights))
    if max_mode < 1 or max_degree < 0 or not labels:
        raise HeisenbergError(f"no relations to check on {space.name} at "
                              f"N={max_degree}, M={max_mode}")
    basis = [FockElement(space, {rho: 1})
             for n in range(max_degree + 1)
             for rho in enumerate_types(space, n)]
    etas = [DualFunctional.delta(space, c) for c in labels]
    vees = [sigma_basis(space, c) for c in labels]
    pairings = [[eta.pair(v) for v in vees] for eta in etas]
    modes = range(1, max_mode + 1)
    pairs = [(m, l) for m in modes for l in modes]
    ops = {"create": _image_table(modes, basis, a_plus, vees),
           "annihilate": _image_table(modes, basis, a_minus, etas)}
    bracket_is = partial(_bracket_is, space.odd, basis)
    rep.check(eq24,
              ((m, l, ce, cw) for m, l in pairs for ce in labels
               for cw in labels),
              lambda m, l, ce, cw: bracket_is(
                  ops["annihilate"][m, ce], ops["create"][l, cw],
                  pairings[ce][cw] * (l if m == l else 0)),
              lambda m, l, ce, cw: f"m={m},l={l},{names(ce, cw)}")
    for name, kinds in like:
        rep.check(name,
                  ((kind, m, l, ops[kind][m, c1], ops[kind][l, c2])
                   for m, l in pairs for c1 in labels for c2 in labels
                   if (m, c1) < (l, c2) or (m, c1) == (l, c2)
                   and c1 >= space.odd
                   for kind in kinds),
                  lambda kind, m, l, a, b: bracket_is(a, b, 0),
                  lambda kind, m, l, *_: f"{kind} m={m},l={l}"
                  if len(kinds) > 1 else f"m={m},l={l}")
    return basis, ops["annihilate"]


def commutator_check(group: FiniteGroup, max_degree: int,
                     max_mode: int) -> Report:
    """The relations on F_G, with Eq. (25) and (26) as two rows, and the
    annihilation operators against the evaluation-restriction oracle."""
    g = group
    rep = Report(f"commutator_check({g.name}, N={max_degree}, M={max_mode})")
    basis, downs = relation_check(
        rep, g, max_degree, max_mode,
        "Eq. (24): [a_-m(eta), a_l(V)] = l delta_ml <eta,V>",
        (("Eq. (25): creation operators commute", ("create",)),
         ("Eq. (26): annihilation operators commute", ("annihilate",))),
        lambda ci, cj: f"c={ci},c'={cj}")
    rep.check("annihilation matches evaluation-restriction oracle",
              ((m, u, op.payload, images[i])
               for (m, _), (op, _, images) in downs.items()
               for i, u in enumerate(basis)),
              lambda m, u, eta, image: image == a_minus_oracle(
                  m, eta, u).coeffs,
              lambda m, u, *_: f"m={m},deg={u.degree}")
    return rep


def irreducibility_check(space: LabelSpace, max_degree: int) -> bool:
    """Monomials in the a_m(sigma_c) applied to the vacuum span each graded
    piece: the creations over the parts of rho, in reverse canonical order
    so that each lands in front with Koszul sign +1, give exactly sigma^rho,
    and the sigma^rho of degree n are a basis of that piece."""
    if max_degree < 0:
        raise HeisenbergError("max_degree must be >= 0")
    ups = {(r, c): a_plus(r, sigma_basis(space, c))
           for r in range(1, max_degree + 1)
           for c in range(len(space.weights))}
    for n in range(max_degree + 1):
        for rho in enumerate_types(space, n):
            vec = vacuum(space)
            for c, lam in reversed(rho.parts):
                for r in reversed(lam):
                    vec = ups[r, c](vec)
            if not vec.equals(FockElement(space, {rho: 1})):
                return False
    return True


# -- the (d0|d1) super Fock model -------------------------------------------

_SPACES: dict[tuple[int, int], "SuperFockSpace"] = {}


class SuperFockSpace(LabelSpace):
    """S(direct sum over r >= 1 of W[r]) for W of dimension (d0 | d1): the
    labels 0..d0-1 (even) and d0..d0+d1-1 (odd), all of weight 1.  Its
    vectors are `FockElement`s with this space as their group.
    `SuperFockSpace(d0, d1)` is the one object per (d0, d1) in `_SPACES`,
    built and checked on first use, as `WreathType` interns its parts: so
    equality and hash are identity, and copies return the interned object."""

    def __new__(cls, d0: int, d1: int):
        self = _SPACES.get((d0, d1))
        if self is None:
            if min(d0, d1) < 0:
                raise HeisenbergError(f"no super space ({d0}|{d1})")
            self = _SPACES[d0, d1] = super().__new__(cls)
            self.d0, self.d1, self.odd = d0, d1, d0
            self.weights, self.name = (1,) * (d0 + d1), f"({d0}|{d1})"
        return self

    def __repr__(self):
        return f"SuperFockSpace(d0={self.d0}, d1={self.d1})"

    def __reduce__(self):
        return SuperFockSpace, (self.d0, self.d1)

    def generators(self) -> list[tuple[int, int]]:
        """The generators (parity, index), parity 0 even and 1 odd, in label
        order: the k-th is at label k."""
        return [(0, i) for i in range(self.d0)] + \
               [(1, i) for i in range(self.d1)]


def sf_commutator_check(d0: int, d1: int, max_degree: int,
                        max_mode: int) -> Report:
    """Theorem 5.1 super relations on SuperFockSpace(d0, d1), Eq. (25) and
    (26) as one row, plus the graded dimension.  A witness names a label
    by its generator (parity, index)."""
    space = SuperFockSpace(d0, d1)
    rep = Report(f"sf_commutator_check({d0},{d1}, N={max_degree}, M={max_mode})")
    gens = space.generators()
    relation_check(
        rep, space, max_degree, max_mode,
        "super Eq. (24): [a_-m(eta), a_l(w)] = l delta delta",
        (("super Eq. (25)/(26): like operators super-commute",
          ("create", "annihilate")),),
        lambda ce, cw: f"eta={gens[ce]},w={gens[cw]}")
    counts = graded_dim(space, max_degree)
    want = graded_dim_series(d0, d1, max_degree)
    rep.check("graded dimension matches (1+q^r)^d1/(1-q^r)^d0",
              enumerate(counts),
              lambda n, c: c == want[n],
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
