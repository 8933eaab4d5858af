"""Check reports: the check runner, each verify suite's failure path, and
the amount of work a verify suite does."""
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from wreathfock import fock, gsets, groups, heisenberg, lambda_ops, wreath
from wreathfock.fock import FockElement, hopf_verify
from wreathfock.groups import (ClassFunction, FiniteGroup, cyclic, dihedral,
                               mackey_verify, sl2_f3, symmetric,
                               trivial_group)
from wreathfock.gsets import (euler_verify, regular_gset,
                              theorem_main_dim_check)
from wreathfock.heisenberg import (HeisenbergOp, commutator_check,
                                   heisenberg_verify, sf_commutator_check)
from wreathfock.lambda_ops import lambda_verify
from wreathfock.report import Report
from wreathfock.scalars import Cyclotomic

from test_heisenberg import z3_commutators


def test_check_result_repr_is_pinned():
    rep = Report("r")
    rep.add("a", True)
    rep.add("b", False, "w=1")
    assert [repr(c) for c in rep.checks] == [
        "CheckResult(name='a', passed=True, witness=None)",
        "CheckResult(name='b', passed=False, witness='w=1')"]


def test_check_stops_at_first_failure():
    seen, witnessed = [], []

    def cases():
        for n in range(10):
            seen.append(n)
            yield n, n * n

    def witness(n, sq):
        witnessed.append(n)
        return f"n={n}"

    rep = Report("r")
    rep.check("squares below 10", cases(), lambda n, sq: sq < 10, witness)
    rep.check("all squares", zip(range(3)), lambda n: n * n >= 0, witness)
    rep.check("no witness given", [(1,)], lambda n: False)
    assert seen == [0, 1, 2, 3, 4] and witnessed == [4]
    assert rep.to_table() == ("[FAIL] squares below 10  (n=4)\n"
                              "[PASS] all squares\n"
                              "[FAIL] no witness given\n"
                              "1/3 checks passed")


def _antipode_identity(monkeypatch):
    monkeypatch.setattr(fock, "antipode", lambda u: u)
    return hopf_verify(cyclic(2), 3)


def _induction_oracle_doubled(monkeypatch):
    """The witness is the first split and its first differing type."""
    orig = fock.oracle_product
    monkeypatch.setattr(fock, "oracle_product", lambda f1, f2, **kw:
                        orig(f1, f2, **kw) * (1 + (f1.degree + f2.degree == 3)))
    return hopf_verify(cyclic(2), 3)


def _comul_oracle_off_by_one(monkeypatch):
    orig = fock.oracle_comul_value

    def off(f, alpha, beta):
        val = orig(f, alpha, beta)
        return val + 1 if alpha.degree and beta.degree else val

    monkeypatch.setattr(fock, "oracle_comul_value", off)
    return hopf_verify(cyclic(2), 3)


def _annihilation_oracle_zero(monkeypatch):
    monkeypatch.setattr(heisenberg, "a_minus_oracle",
                        lambda m, eta, f: FockElement.zero(f.group))
    return heisenberg_verify(cyclic(2), 2, 2)


def _creation_sign_flip(monkeypatch):
    """Creation negates its result; the shared Koszul sign is left alone,
    since a flip there would cancel in every bracket.  The relation checks
    call fock_mul nowhere, so every product kernel call is a creation."""
    orig = heisenberg._merge
    monkeypatch.setattr(heisenberg, "_merge", lambda *args: {
        k: -v for k, v in orig(*args).items()})
    return sf_commutator_check(1, 1, 3, 2)


def _scaled_op(monkeypatch, sign, mode, factor, big):
    """The operators of this sign and mode, on F_G and on the super model
    alike, multiply their result by `factor` on inputs with a type for
    which `big` holds."""
    orig = HeisenbergOp.apply

    def apply(self, coeffs):
        out = orig(self, coeffs)
        if (self.sign, self.mode) == (sign, mode) and any(map(big, coeffs)):
            return {k: v * factor for k, v in out.items()}
        return out

    monkeypatch.setattr(HeisenbergOp, "apply", apply)


def _creation_2_doubled(monkeypatch):
    _scaled_op(monkeypatch, 1, 2, 2, lambda rho: rho.degree >= 2)
    return commutator_check(cyclic(2), 3, 2)


def _annihilation_1_tripled(monkeypatch):
    _scaled_op(monkeypatch, -1, 1, 3, lambda rho: rho.length >= 2)
    return commutator_check(cyclic(2), 3, 2)


def _super_creation_2_doubled(monkeypatch):
    _scaled_op(monkeypatch, 1, 2, 2, lambda rho: rho.degree >= 2)
    return sf_commutator_check(1, 1, 3, 2)


def _super_annihilation_1_tripled(monkeypatch):
    _scaled_op(monkeypatch, -1, 1, 3, lambda rho: rho.length >= 2)
    return sf_commutator_check(1, 1, 3, 2)


def _odd_square_nonzero(monkeypatch):
    """The Koszul sign is +1 where an odd label already has the part, so
    creation makes a repeated odd part instead of zero and a(w)^2 = 0
    fails for the odd generator w.  The product kernel and annihilation
    both ask `_koszul`."""
    orig = fock._koszul
    faulty = lambda *args: orig(*args) or 1
    monkeypatch.setattr(fock, "_koszul", faulty)
    monkeypatch.setattr(heisenberg, "_koszul", faulty)
    return sf_commutator_check(1, 1, 3, 2)


def _mackey_fails_late(monkeypatch):
    orig = groups.mackey_check

    def check(g, emb_h, emb_l, f):
        if emb_h.source.order == 2 and emb_l.source.order == 3:
            return False
        return orig(g, emb_h, emb_l, f)

    monkeypatch.setattr(groups, "mackey_check", check)
    return mackey_verify(symmetric(3))


def _mackey_induction_doubled(monkeypatch):
    """`induce_cf` doubles every value away from the identity class.  Only
    the left side of Mackey's formula induces through it; it passed when
    the right side did too."""
    groups._mackey_terms.cache_clear()
    orig = groups.induce_cf
    monkeypatch.setattr(groups, "induce_cf", lambda emb, f: ClassFunction(
        emb.target, tuple(v * (1 + (c > 0))
                          for c, v in enumerate(orig(emb, f).values))))
    return mackey_verify(symmetric(3))


def _mackey_double_coset_dropped(monkeypatch):
    """The right side of Mackey's formula misses one double coset."""
    groups._mackey_terms.cache_clear()
    orig = groups.double_cosets
    monkeypatch.setattr(groups, "double_cosets",
                        lambda *args: orig(*args)[:-1])
    return mackey_verify(symmetric(3))


def _orbifold_euler_off_by_one(monkeypatch):
    orig = gsets.power_orbifold_euler
    monkeypatch.setattr(gsets, "power_orbifold_euler",
                        lambda x, n, limit: orig(x, n, limit) + (n >= 2))
    return theorem_main_dim_check(regular_gset(cyclic(2)), 3)


def _lemma_16_count_off_by_one(monkeypatch):
    """The symmetric-product count is one too high at every type but the
    identity's."""
    orig = gsets.symmetric_orbit_count
    monkeypatch.setattr(gsets, "symmetric_orbit_count", lambda x, p: orig(
        x, p) + (tuple(p) != tuple(range(len(p)))))
    return euler_verify(regular_gset(cyclic(2)), 2)


def _e_series_is_h_series(monkeypatch):
    monkeypatch.setattr(lambda_ops, "E_series", lambda_ops.H_series)
    return lambda_verify(cyclic(2), 2)


FAULTS = {
    "antipode-identity": (_antipode_identity, """\
[PASS] product associative and commutative on basis
[PASS] unit axiom
[PASS] coproduct coassociative on basis
[PASS] counit axiom
[PASS] coproduct is an algebra homomorphism
[FAIL] antipode axiom on basis  (Type({0:[1]}))
[PASS] primitive space has dimension |G_*| per degree
[PASS] coproduct matches element-level restriction oracle
[PASS] product matches induction oracle, degree 2 (full)
[PASS] product matches induction oracle, degree 3 (full)
9/10 checks passed"""),
    "comul-oracle-off-by-one": (_comul_oracle_off_by_one, """\
[PASS] product associative and commutative on basis
[PASS] unit axiom
[PASS] coproduct coassociative on basis
[PASS] counit axiom
[PASS] coproduct is an algebra homomorphism
[PASS] antipode axiom on basis
[PASS] primitive space has dimension |G_*| per degree
[FAIL] coproduct matches element-level restriction oracle  \
(Type({0:[1], 1:[1]}) at (Type({1:[1]}),Type({0:[1]})))
[PASS] product matches induction oracle, degree 2 (full)
[PASS] product matches induction oracle, degree 3 (full)
9/10 checks passed"""),
    "induction-oracle-doubled": (_induction_oracle_doubled, """\
[PASS] product associative and commutative on basis
[PASS] unit axiom
[PASS] coproduct coassociative on basis
[PASS] counit axiom
[PASS] coproduct is an algebra homomorphism
[PASS] antipode axiom on basis
[PASS] primitive space has dimension |G_*| per degree
[PASS] coproduct matches element-level restriction oracle
[PASS] product matches induction oracle, degree 2 (full)
[FAIL] product matches induction oracle, degree 3 (full)  \
(Type({0:[1]})*Type({0:[1], 1:[1]}) at Type({0:[1, 1], 1:[1]}))
9/10 checks passed"""),
    "annihilation-oracle-zero": (_annihilation_oracle_zero, """\
[PASS] Eq. (24): [a_-m(eta), a_l(V)] = l delta_ml <eta,V>
[PASS] Eq. (25): creation operators commute
[PASS] Eq. (26): annihilation operators commute
[FAIL] annihilation matches evaluation-restriction oracle  (m=1,deg=1)
[PASS] vacuum is cyclic: rank = dim C(G_n) per degree
[PASS] super Fock relations (d0=d1=1)
5/6 checks passed"""),
    "insert-sign-flip": (_creation_sign_flip, """\
[FAIL] super Eq. (24): [a_-m(eta), a_l(w)] = l delta delta  \
(m=1,l=1,eta=(0, 0),w=(0, 0))
[PASS] super Eq. (25)/(26): like operators super-commute
[PASS] graded dimension matches (1+q^r)^d1/(1-q^r)^d0
2/3 checks passed"""),
    # the commute checks visit each unordered pair of operators once; these
    # reports are the ones recorded when they visited both orders
    "creation-2-doubled": (_creation_2_doubled, """\
[FAIL] Eq. (24): [a_-m(eta), a_l(V)] = l delta_ml <eta,V>  (m=1,l=2,c=0,c'=0)
[FAIL] Eq. (25): creation operators commute  (m=1,l=2)
[PASS] Eq. (26): annihilation operators commute
[PASS] annihilation matches evaluation-restriction oracle
2/4 checks passed"""),
    "annihilation-1-tripled": (_annihilation_1_tripled, """\
[FAIL] Eq. (24): [a_-m(eta), a_l(V)] = l delta_ml <eta,V>  (m=1,l=1,c=0,c'=0)
[PASS] Eq. (25): creation operators commute
[FAIL] Eq. (26): annihilation operators commute  (m=1,l=2)
[FAIL] annihilation matches evaluation-restriction oracle  (m=1,deg=2)
1/4 checks passed"""),
    "super-creation-2-doubled": (_super_creation_2_doubled, """\
[FAIL] super Eq. (24): [a_-m(eta), a_l(w)] = l delta delta  \
(m=1,l=2,eta=(0, 0),w=(0, 0))
[FAIL] super Eq. (25)/(26): like operators super-commute  (create m=1,l=2)
[PASS] graded dimension matches (1+q^r)^d1/(1-q^r)^d0
1/3 checks passed"""),
    "super-annihilation-1-tripled": (_super_annihilation_1_tripled, """\
[FAIL] super Eq. (24): [a_-m(eta), a_l(w)] = l delta delta  \
(m=1,l=1,eta=(0, 0),w=(0, 0))
[FAIL] super Eq. (25)/(26): like operators super-commute  \
(annihilate m=1,l=2)
[PASS] graded dimension matches (1+q^r)^d1/(1-q^r)^d0
1/3 checks passed"""),
    # a_-1(w) reads the repeated odd part of a_1(w) sigma_1(w) once, with
    # the faulty sign +1, so the anticommutator fails already at m = l = 1
    "odd-square-nonzero": (_odd_square_nonzero, """\
[FAIL] super Eq. (24): [a_-m(eta), a_l(w)] = l delta delta  \
(m=1,l=1,eta=(1, 0),w=(1, 0))
[FAIL] super Eq. (25)/(26): like operators super-commute  (create m=1,l=1)
[PASS] graded dimension matches (1+q^r)^d1/(1-q^r)^d0
1/3 checks passed"""),
    "mackey-fails-late": (_mackey_fails_late, """\
[FAIL] Mackey formula over 6^2 subgroup pairs  (|H|=2, |L|=3, class 0)
0/1 checks passed"""),
    "mackey-induction-doubled": (_mackey_induction_doubled, """\
[FAIL] Mackey formula over 6^2 subgroup pairs  (|H|=2, |L|=2, class 1)
0/1 checks passed"""),
    "mackey-double-coset-dropped": (_mackey_double_coset_dropped, """\
[FAIL] Mackey formula over 6^2 subgroup pairs  (|H|=1, |L|=1, class 0)
0/1 checks passed"""),
    "orbifold-euler-off-by-one": (_orbifold_euler_off_by_one, """\
[FAIL] Theorem 3.1 graded dimension, inertia_dim = 1  (n=2: 3)
0/1 checks passed"""),
    "lemma-16-count-off-by-one": (_lemma_16_count_off_by_one, """\
[PASS] both e(X,G) definitions agree (value 1)
[PASS] Burnside inertia consistency
[PASS] Eq. (28): e(X,G) = inertia_dim
[PASS] Theorem 6.1 series, e(X,G) = 1
[PASS] Theorem 3.1 graded dimension, inertia_dim = 1
[FAIL] Lemma 1.6 symmetric-product counts (n = 2)
[PASS] Macdonald formula for |X| = 2
6/7 checks passed"""),
    "e-series-is-h-series": (_e_series_is_h_series, """\
[PASS] phi^n formula agrees with omega_n closed form
[PASS] ch_n(omega_n(V)) = n V (Prop. 4.1)
[PASS] phi^n is additive on honest classes
[PASS] lambda^1 = Id
[FAIL] Eq. (21): H = exp(sum phi^r q^r/r), E(-q) = exp(-sum)
[FAIL] H(-V,q) = E(V,-q) and H(V+W) = H(V)H(W)
[PASS] boxed binomial formula = bilinear extension
[PASS] free lambda-ring basis (Prop. 4.3) per degree
[PASS] Prop. 4.1 psi-candidate status recorded (informational)  \
(ch_n(omega_n(V)) = n V: holds; omega_n(psi^n(V)) = n phi^n(V) \
[classical]: fails; ch_n(phi^n(V)) = n psi^n(V) [classical]: fails; \
omega_n(psi^n(V)) = n phi^n(V) [composite]: holds; \
ch_n(phi^n(V)) = n psi^n(V) [composite]: fails)
7/9 checks passed"""),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_failure_report(fault, monkeypatch):
    """A planted fault shows as a FAIL line with its first witness; the
    other checks of the suite are unchanged."""
    run, want = FAULTS[fault]
    assert run(monkeypatch).to_table() == want


def _count_calls(monkeypatch, counts, owner, name, key):
    orig = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[key] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


# calls made by one warm run of each suite; the Z2 suites are all rational,
# so they build no Cyclotomic.  Every operator of F_G and of the super
# model is a `HeisenbergOp`, and creation is one call of the product
# kernel `_merge` on both (fock_mul calls it too, but not in these
# suites, and not on the int monomials of hopf_verify); only two types
# with odd parts ask `_koszul`: 184 calls on the super model, 250 when
# creation asked its sign at every odd label of its form.  The relation
# checks build no bracket, and an operator maps coefficient maps: their
# FockElements are the basis, the creation elements omega_m(sigma_c) and,
# on F_G, the oracle's values (896 and 689 elements when every image was
# one).  They apply no operator to a zero image (1152 calls, 576 kernel
# calls and 1246 elements on F_G, 1080, 540 and 1099 on the super model,
# when they did), and the oracle reads the values of f once,
# on its support (348 reads when it read one per (alpha, c)).  The
# like-operator rows pair an operator with itself only at an odd label,
# where a^2 = 0 is a real check.  A product with a Cyclotomic counts
# once, on whichever side the Cyclotomic is (1978 for z3_commutators when
# only a Cyclotomic on the left counted).
WORK = {
    "commutator_check": (lambda: commutator_check(cyclic(2), 3, 2), {
        "HeisenbergOp.apply": 802, "fock_mul": 0,
        "Cyclotomic.__mul__": 0, "_merge": 376, "_koszul": 0,
        "FockElement.__init__": 94, "FockElement.value": 72}),
    "hopf_verify": (lambda: hopf_verify(cyclic(2), 3), {
        "HeisenbergOp.apply": 0, "fock_mul": 195,
        "Cyclotomic.__mul__": 0, "_merge": 0, "_koszul": 0}),
    "z3_commutators": (z3_commutators, {
        "HeisenbergOp.apply": 1260, "fock_mul": 0,
        "Cyclotomic.__mul__": 3125, "_merge": 630, "_koszul": 0}),
    "sf_commutator_check": (lambda: sf_commutator_check(1, 1, 3, 2), {
        "HeisenbergOp.apply": 670, "fock_mul": 0,
        "Cyclotomic.__mul__": 0, "_merge": 332, "_koszul": 184,
        "FockElement.__init__": 19}),
    # D4's 10 subgroups, and no group per double coset: H_s is a set of
    # ids of G (205 builds when each H_s was built once per subgroup pair,
    # 481 when once per class of H)
    "mackey_verify": (lambda: mackey_verify(dihedral(4)), {
        "FiniteGroup.__init__": 10}),
    # fock_exp sums its series by the integer kernel, not by fock_mul
    # (2146 calls when it did)
    "lambda_verify": (lambda: lambda_verify(sl2_f3(), 4), {
        "fock_mul": 2046}),
}


@pytest.mark.parametrize("suite", WORK)
def test_verify_work_is_pinned(suite, monkeypatch):
    """Each case is evaluated once: the call counts of a passing run are
    fixed."""
    run, want = WORK[suite]
    assert run().all_passed          # warm the process-level caches
    counts = Counter()
    _count_calls(monkeypatch, counts, HeisenbergOp, "apply",
                 "HeisenbergOp.apply")
    for name in ("__mul__", "__rmul__"):   # __rmul__ is __mul__
        _count_calls(monkeypatch, counts, Cyclotomic, name,
                     "Cyclotomic.__mul__")
    _count_calls(monkeypatch, counts, FockElement, "value",
                 "FockElement.value")
    for module in (fock, heisenberg):
        _count_calls(monkeypatch, counts, module, "_merge", "_merge")
        _count_calls(monkeypatch, counts, module, "_koszul", "_koszul")
    _count_calls(monkeypatch, counts, fock, "fock_mul", "fock_mul")
    _count_calls(monkeypatch, counts, lambda_ops, "fock_mul", "fock_mul")
    _count_calls(monkeypatch, counts, FockElement, "__init__",
                 "FockElement.__init__")
    _count_calls(monkeypatch, counts, FiniteGroup, "__init__",
                 "FiniteGroup.__init__")
    assert run().all_passed
    assert {k: counts[k] for k in want} == want


def test_one_relation_check_serves_both_models(monkeypatch):
    """SuperFockSpace(1, 0) and F_G of the trivial group have the same
    types and weights, so their relation checks apply the operators
    equally often (112 times each when zero images were acted on)."""
    calls = []
    for run in (lambda: commutator_check(trivial_group(), 3, 2),
                lambda: sf_commutator_check(1, 0, 3, 2)):
        counts = Counter()
        with monkeypatch.context() as patch:
            _count_calls(patch, counts, HeisenbergOp, "apply", "calls")
            assert run().all_passed
        calls.append(counts["calls"])
    assert calls == [88, 88]


# Types interned by one cold run, in a fresh interpreter: the intern table
# holds only EMPTY_TYPE after import, and the type tables, unions, part
# removals, n-cycle types, coproduct splits and the induction bags start
# empty.  A type is built only by the intern table, so each type a suite
# needs is built exactly once: the 17 nonempty types of degree <= 3 over Z2
# and the 34 over Z3 (before interning 325 and 133; before the type caches,
# a fresh process built 2147 and 2745).  The relation check over Z2 builds
# 98: its basis, and the types up to degree 7 that two creations and the
# oracle reach as unions, interned without re-validation.  The intern
# table is never cleared in a running process: types alive across a clear
# would get twins.
COLD_TYPES = {
    "hopf_verify": ("hopf_verify(cyclic(2), 3)", 17),
    "lambda_verify": ("lambda_verify(cyclic(3), 3)", 34),
    "commutator_check": ("commutator_check(cyclic(2), 3, 2)", 98),
}
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("suite", COLD_TYPES)
def test_cold_run_builds_each_type_once(suite):
    """The table grows by the pinned count, and no live type is outside
    it."""
    run, want = COLD_TYPES[suite]
    script = f"""
import gc
from wreathfock import wreath
from wreathfock.fock import hopf_verify
from wreathfock.groups import cyclic
from wreathfock.heisenberg import commutator_check
from wreathfock.lambda_ops import lambda_verify
before = len(wreath._TYPES)
assert {run}.all_passed
live = sum(type(t) is wreath.WreathType for t in gc.get_objects())
print(before, len(wreath._TYPES) - before, live)
"""
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    before, built, live = map(int, out.stdout.split())
    assert (before, built, live) == (1, want, 1 + want)


def test_warm_hopf_computes_no_new_union(monkeypatch):
    """Each type keeps its unions: a second hopf_verify(Z2, 3) finds every
    union it needs in the tables."""
    run = lambda: hopf_verify(cyclic(2), 3)
    assert run().all_passed
    counts = Counter()
    _count_calls(monkeypatch, counts, wreath._Unions, "__missing__", "miss")
    assert run().all_passed
    assert counts["miss"] == 0


def test_each_sign_character_is_built_once(monkeypatch):
    """A warm lambda_verify(Z3, 3) asks 38 times for the sign character of
    S_n pulled back to G_n, at 3 distinct (G, n), and builds each once
    (before the memo, it built all 38)."""
    run = lambda: lambda_verify(cyclic(3), 3)
    assert run().all_passed
    fock._sign_char_coeffs.cache_clear()
    asked = Counter()
    orig = lambda_ops.sign_char

    def counting(group, n):
        asked[group, n] += 1
        return orig(group, n)

    monkeypatch.setattr(lambda_ops, "sign_char", counting)
    assert run().all_passed
    built = fock._sign_char_coeffs.cache_info().misses
    assert (sum(asked.values()), len(asked), built) == (38, 3, 3)


def test_each_outer_power_is_built_once(monkeypatch):
    """A warm lambda_verify asks for 160 outer powers of 28 distinct
    (V, n), and builds each of those once (before the memo, it built all
    160)."""
    run = lambda: lambda_verify(cyclic(3), 3)
    assert run().all_passed
    lambda_ops._outer_power_coeffs.cache_clear()
    asked = Counter()
    orig = lambda_ops.boxtimes_power

    def counting(v, n):
        asked[v, n] += 1
        return orig(v, n)

    monkeypatch.setattr(lambda_ops, "boxtimes_power", counting)
    assert run().all_passed
    built = lambda_ops._outer_power_coeffs.cache_info().misses
    assert (sum(asked.values()), len(asked), built) == (160, 28, 28)
