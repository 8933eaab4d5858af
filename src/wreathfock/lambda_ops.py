"""The lambda-operation calculus on F_G: outer powers, phi/ch/omega/psi,
lambda operations, and the H/E generating series with their exponential
identities.

Elements of F_G are `FockElement`s in sigma coordinates; outer powers,
lambda^n and star are defined by their values and converted once.  Where
the same map has two natural formulas (phi_n via the star formula vs.
omega_n directly; the boxed binomial expansion vs. the exponential
bilinear extension) both are implemented so each can serve as the other's
oracle.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from .fock import (FockElement, fock_exp, fock_mul, sigma_r_c, sigma_rho,
                   sign_char)
from .groups import ClassFunction, FiniteGroup, adams_psi, sigma_basis
from .report import Report
from .scalars import Cyclotomic, div
from .wreath import WreathError, enumerate_types, n_cycle_type


def boxtimes_power(v: ClassFunction, n: int) -> FockElement:
    """Character of the n-th outer tensor power: value at rho is the
    product of V(c) over the cycles of rho (one factor per part).

    Memoized on (V, n) in a bounded cache, which holds the coefficient
    map; each call wraps a copy of it in a new element.
    A V with irrational values is not hashable and is built uncached."""
    if n < 0:
        raise WreathError("outer power needs n >= 0")
    build = _outer_power_coeffs
    if any(isinstance(x, Cyclotomic) for x in v.values):
        build = build.__wrapped__
    return FockElement(v.group, dict(build(v, n)))


@lru_cache(maxsize=128)
def _outer_power_coeffs(v: ClassFunction, n: int) -> dict:
    g = v.group
    powers = [[v.value(c) ** k for k in range(n + 1)]
              for c in range(g.num_classes)]
    out = {}
    for rho in enumerate_types(g, n):
        val = 1
        for c, lam in rho.parts:
            val = val * powers[c][len(lam)]
        out[rho] = val
    return FockElement.from_values(g, out).coeffs


def omega_n(v: ClassFunction, n: int) -> FockElement:
    """sum_c V(c)/w(c) sigma_n(c), w the weights of the label space (on G,
    w(c) = zeta_c): value n V(c) at the n-cycle type over c."""
    if n < 1:
        raise WreathError("omega_n needs n >= 1")
    w = v.group.weights
    return FockElement(v.group, {n_cycle_type(c, n): div(v.value(c), w[c])
                                 for c in range(len(w))})


def phi_n(v: ClassFunction, n: int) -> FockElement:
    """phi^n(V) = sum_c zeta_c^-1 V^boxtimes-n star sigma_n(c); computed
    literally from that formula (omega_n gives the closed form)."""
    if n < 1:
        raise WreathError("phi_n needs n >= 1")
    g = v.group
    power = boxtimes_power(v, n)
    total = FockElement.zero(g)
    for c in range(g.num_classes):
        total = total + power.star(sigma_r_c(g, n, c)) / g.zeta(c)
    return total


def ch_n(f: FockElement, n: int) -> ClassFunction:
    """Read the n-cycle-type values off as a class function on G."""
    if any(rho.degree != n for rho in f.coeffs):
        raise WreathError(f"ch_n needs a degree-{n} class function")
    g = f.group
    return ClassFunction(g, tuple(f.value(n_cycle_type(c, n))
                                  for c in range(g.num_classes)))


def psi_classical(v: ClassFunction, n: int) -> ClassFunction:
    if n < 1:
        raise WreathError("psi needs n >= 1")
    return adams_psi(n, v)


def psi_composite(v: ClassFunction, n: int) -> ClassFunction:
    """The literal composition n phi^-1 theta pr phi_n boxtimes-n at X = pt
    collapses to n * V."""
    if n < 1:
        raise WreathError("psi needs n >= 1")
    return v * n


def lambda_n(v: ClassFunction, n: int) -> FockElement:
    """lambda^n(V) = V^boxtimes-n star (sign of S_n pulled back to G_n)."""
    if n < 1:
        raise WreathError("lambda_n needs n >= 1")
    return boxtimes_power(v, n).star(sign_char(v.group, n))


# -- generating series inside F_G ------------------------------------------

def H_series(v: ClassFunction, max_degree: int) -> FockElement:
    """H(V, q) = sum_n V^boxtimes-n q^n, the degree grading playing q."""
    out = boxtimes_power(v, 0)
    for n in range(1, max_degree + 1):
        out = out + boxtimes_power(v, n)
    return out


def E_series(v: ClassFunction, max_degree: int) -> FockElement:
    """E(V, q) = sum_n lambda^n(V) q^n."""
    out = boxtimes_power(v, 0)
    for n in range(1, max_degree + 1):
        out = out + lambda_n(v, n)
    return out


def _alternate_signs(u: FockElement) -> FockElement:
    """q -> -q on the degree grading."""
    return FockElement(u.group, {rho: -c if rho.degree % 2 else c
                                 for rho, c in u.coeffs.items()})


def h_virtual(pluses: list[ClassFunction], minuses: list[ClassFunction],
              max_degree: int) -> FockElement:
    """H extended bilinearly to virtual classes sum(pluses) - sum(minuses)
    through the exponential form of Eq. (21)."""
    if not pluses and not minuses:
        raise WreathError("need at least one class function")
    g = (pluses or minuses)[0].group
    arg = FockElement.zero(g)
    for r in range(1, max_degree + 1):
        acc = ClassFunction.zero(g)
        for v in pluses:
            acc = acc + v
        for w in minuses:
            acc = acc - w
        arg = arg + omega_n(acc, r) / r
    return fock_exp(arg, max_degree)


def boxed_binomial(v: ClassFunction, w: ClassFunction,
                   n: int) -> FockElement:
    """([V] - [W])^boxtimes-n by the boxed binomial formula:
    sum_j (-1)^j Ind[V^(n-j) boxtimes (W^j star sign)]."""
    g = v.group
    total = FockElement.zero(g)
    for j in range(n + 1):
        left = boxtimes_power(v, n - j)
        right = boxtimes_power(w, j)
        if j >= 1:
            right = right.star(sign_char(g, j))
        term = fock_mul(left, right)
        total = total - term if j % 2 else total + term
    # a sum of Fractions stays a Fraction: dividing by 1 through `div`
    # turns the integral ones into ints
    return total / 1


def additivity_check(v: ClassFunction, w: ClassFunction, n: int) -> bool:
    """Boxed binomial formula against the exponential bilinear extension,
    plus additivity of phi^n on the n-cycle components."""
    boxed = boxed_binomial(v, w, n)
    viaexp = h_virtual([v], [w], n).component(n)
    if not boxed.equals(viaexp):
        return False
    phi_diff = omega_n(v, n) - omega_n(w, n)
    cycles = {n_cycle_type(c, n) for c in range(v.group.num_classes)}
    projected = FockElement(v.group, {rho: x for rho, x in boxed.coeffs.items()
                                      if rho in cycles})
    # phi^n = n * (projection of the outer power to n-cycle types)
    return (projected * n).equals(phi_diff)


# -- structural verification ------------------------------------------------

def free_lambda_basis_check(group: FiniteGroup, n: int) -> bool:
    """Products prod phi^r(sigma_c) over the parts of each degree-n type
    reproduce the sigma^rho basis (Prop. 4.3's freeness at degree n).
    Equality with the basis is the whole test: the sigma^rho are linearly
    independent, so products equal to them are too."""
    g = group
    phis = {(r, c): phi_n(sigma_basis(g, c), r)
            for r in range(1, n + 1) for c in range(g.num_classes)}
    for rho in enumerate_types(g, n):
        prod = FockElement.unit(g)
        for c, lam in rho.parts:
            for r in lam:
                prod = fock_mul(prod, phis[r, c])
        if not prod.component(n).equals(sigma_rho(g, rho)):
            return False
    return True


def _basis_and_combos(group: FiniteGroup) -> list[ClassFunction]:
    """The sigma_c basis plus two fixed integer combinations."""
    vs = [sigma_basis(group, c) for c in range(group.num_classes)]
    combo1 = ClassFunction.from_rationals(
        group, [((3 * c + 1) % 5) - 2 for c in range(group.num_classes)])
    combo2 = ClassFunction.from_rationals(
        group, [((2 * c + 3) % 7) - 3 for c in range(group.num_classes)])
    return vs + [combo1, combo2]


def h_e_identities(v: ClassFunction, w: ClassFunction,
                   max_degree: int) -> Report:
    """Final-corollary identities: H(-V,q) = E(V,-q) and
    H(V+W,q) = H(V,q) H(W,q), degreewise to max_degree."""
    g = v.group
    rep = Report(f"h_e_identities({g.name}, N={max_degree})")
    e_minus = _alternate_signs(E_series(v, max_degree))
    h_neg = h_virtual([], [v], max_degree)
    rep.add("H(-V, q) = E(V, -q)", h_neg.equals(e_minus))
    h_sum = H_series(v + w, max_degree)
    h_prod = fock_mul(H_series(v, max_degree), H_series(w, max_degree),
                      max_degree=max_degree)
    rep.add("H(V + W, q) = H(V, q) H(W, q)", h_sum.equals(h_prod))
    return rep


def prop_41_status(group: FiniteGroup, n: int) -> dict[str, bool]:
    """Status of the three Prop. 4.1 identities for both psi candidates;
    only ch_n(omega_n) = n Id is asserted elsewhere."""
    out = {}
    vs = _basis_and_combos(group)
    out["ch_n(omega_n(V)) = n V"] = all(
        ch_n(omega_n(v, n), n).equals(v * n) for v in vs)
    for label, psi in (("classical", psi_classical),
                       ("composite", psi_composite)):
        out[f"omega_n(psi^n(V)) = n phi^n(V) [{label}]"] = all(
            omega_n(psi(v, n), n).equals(omega_n(v, n) * n) for v in vs)
        out[f"ch_n(phi^n(V)) = n psi^n(V) [{label}]"] = all(
            ch_n(omega_n(v, n), n).equals(psi(v, n) * n) for v in vs)
    return out


def lambda_verify(group: FiniteGroup, max_degree: int) -> Report:
    """The lambda-ops verification suite for one group."""
    g = group
    rep = Report(f"lambda_verify({g.name}, N={max_degree})")
    vs = _basis_and_combos(g)

    degrees = range(1, max_degree + 1)
    rep.check("phi^n formula agrees with omega_n closed form",
              itertools.product(vs, degrees),
              lambda v, n: phi_n(v, n).equals(omega_n(v, n)))
    rep.check("ch_n(omega_n(V)) = n V (Prop. 4.1)",
              itertools.product(vs, degrees),
              lambda v, n: ch_n(omega_n(v, n), n).equals(v * n))
    rep.check("phi^n is additive on honest classes", zip(degrees),
              lambda n: phi_n(vs[0] + vs[-1], n).equals(
                  phi_n(vs[0], n) + phi_n(vs[-1], n)))
    rep.check("lambda^1 = Id", zip(vs),
              lambda v: lambda_n(v, 1).equals(boxtimes_power(v, 1)))

    def eq21(v):
        return (H_series(v, max_degree).equals(h_virtual([v], [], max_degree))
                and _alternate_signs(E_series(v, max_degree)).equals(
                    h_virtual([], [v], max_degree)))

    rep.check("Eq. (21): H = exp(sum phi^r q^r/r), E(-q) = exp(-sum)",
              zip(vs), eq21)

    pairs = [(vs[0], vs[-1]), (vs[-2], vs[-1])]
    rep.check("H(-V,q) = E(V,-q) and H(V+W) = H(V)H(W)", pairs,
              lambda v, w: h_e_identities(v, w, max_degree).all_passed)
    rep.check("boxed binomial formula = bilinear extension",
              ((v, w, n) for v, w in pairs for n in degrees), additivity_check)
    rep.check("free lambda-ring basis (Prop. 4.3) per degree", zip(degrees),
              lambda n: free_lambda_basis_check(g, n))

    status = prop_41_status(g, min(2, max_degree) if max_degree >= 2 else 1)
    summary = "; ".join(f"{k}: {'holds' if v else 'fails'}"
                        for k, v in status.items())
    rep.add("Prop. 4.1 psi-candidate status recorded (informational)",
            True, summary)
    return rep
