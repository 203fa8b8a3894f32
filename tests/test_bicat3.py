import hashlib
import os
import subprocess
import sys
from itertools import product

import pytest

import bistack
from bistack.bicat3 import (Perturbation, PsTwoFunctor, PsTwoNatTrans,
                            Trimodification, Tritransformation,
                            TwoModification, check_perturbation,
                            check_ps_two_functor, check_ps_two_nat,
                            check_trihom_data, check_trimodification,
                            check_tritransformation, check_two_modification,
                            compose_ps_two_functors, identity_ps_two_functor,
                            identity_ps_two_nat, identity_trimodification,
                            identity_tritransformation, representable_trihom,
                            strict_trihom, yoneda_pert, yoneda_trimod,
                            yoneda_tritrans, _identities,
                            _ps_two_functor_cells, _ps_two_functor_typing,
                            _ps_two_nat_cells, _ps_two_nat_typing,
                            _trimod_cells, _tritrans_cells)
from bistack.builders import chain_suspension
from bistack.fincat import discrete, walking_arrow
from bistack.generate import generate
from bistack.report import Budget
from bistack.two_cat import Fin2Cat, check_two_category, from_fincat
from bistack.workspace import load_data

from test_two_cat import split_idempotent_2cat
import typing_oracles


@pytest.fixture
def wa2():
    return from_fincat(walking_arrow())


@pytest.fixture
def ksplit():
    return split_idempotent_2cat()


def one_object_z2():
    """One object, one 1-cell, and a 2-cell of order two on it."""
    z2 = {("2id_id_P", "2id_id_P"): "2id_id_P", ("2id_id_P", "t"): "t",
          ("t", "2id_id_P"): "t", ("t", "t"): "2id_id_P"}
    return Fin2Cat(["P"], {"id_P": ("P", "P")},
                   {"2id_id_P": ("id_P", "id_P"), "t": ("id_P", "id_P")},
                   {"P": "id_P"}, {"id_P": "2id_id_P"},
                   z2, {("id_P", "id_P"): "id_P"}, dict(z2))


def one_object_z3():
    """One object, one 1-cell, and 2-cells w, w2 of order three on it:
    here a 2-cell is not its own inverse."""
    cells = ("2id_id_P", "w", "w2")
    z3 = {(b, a): cells[(cells.index(b) + cells.index(a)) % 3]
          for b in cells for a in cells}
    return Fin2Cat(["P"], {"id_P": ("P", "P")},
                   {x: ("id_P", "id_P") for x in cells},
                   {"P": "id_P"}, {"id_P": "2id_id_P"},
                   z3, {("id_P", "id_P"): "id_P"}, dict(z3))


def _unit_twisted_trimodification(t):
    """On a trihom t with value B(Z/3) at every object, acted on by the
    identity: (theta, phi, comp) for trimodifications theta => phi with
    components comp.  Each component of theta is the identity with
    unitor w and compositor w2, and its unit comparison gamma is w; phi
    is the identity tritransformation.  Unit coherence forces each
    component in comp to have the cell w at the identity 1-cell, so the
    unit axiom of check_trimodification reads an inverse that is not
    the cell itself."""
    z3 = t.ob[t.base.objects[0]]
    twisted = twisted_identity(z3, "w2", "w")
    comp = {c: twisted for c in t.base.objects}
    square = {f: identity_ps_two_nat(compose_ps_two_functors(
        twisted, t.on1[f])) for f in t.base.onecells}
    theta = Tritransformation(t, t, comp, square,
                              gamma={c: {"P": "w"} for c in t.base.objects})
    phi = identity_tritransformation(t)
    return theta, phi, {c: PsTwoNatTrans(twisted, phi.comp[c],
                                         {"P": "id_P"}, {"id_P": "w"})
                        for c in t.base.objects}


def collapse_functor(k):
    """ksplit -> ksplit: everything onto the object A via identities."""
    return PsTwoFunctor(
        k, k, {"A": "A", "B": "A"},
        {f: "id_A" for f in k.onecells},
        {a: "2id_id_A" for a in k.twocells})


def e_transformation(k):
    """Id => Id on ksplit with the idempotent e as component at A."""
    comp = {"A": "e", "B": "id_B"}
    i = identity_ps_two_functor(k)
    cell = {f: k.id2(k.c1(f, comp[k.src1(f)])) for f in k.onecells}
    return PsTwoNatTrans(i, i, comp, cell)


def trihom_over_arrow(values, action=None):
    """Strict homomorphism data on the walking arrow."""
    k = from_fincat(walking_arrow())
    ob = {"0": values, "1": values}
    on1 = {"id_0": identity_ps_two_functor(values),
           "id_1": identity_ps_two_functor(values),
           "a": action or identity_ps_two_functor(values)}
    return strict_trihom(k, ob, on1, {})


def constant_trihom(k, values):
    """values at every object of k, acted on by the identity."""
    ident = identity_ps_two_functor(values)
    return strict_trihom(k, {c: values for c in k.objects},
                         {f: ident for f in k.onecells},
                         {a: identity_ps_two_nat(ident) for a in k.twocells})


def _constant_z2_trihom(k):
    """B(Z/2) at every object of k, acted on by the identity."""
    return constant_trihom(k, one_object_z2())


# --- pseudofunctors ---------------------------------------------------------

def test_one_object_z2_is_a_two_category():
    assert check_two_category(one_object_z2()).ok


def test_identity_pseudofunctor_passes(ksplit):
    i = identity_ps_two_functor(ksplit)
    assert check_ps_two_functor(i).ok
    assert compose_ps_two_functors(i, i) == i


def test_collapse_pseudofunctor_passes_and_absorbs(ksplit):
    c = collapse_functor(ksplit)
    assert check_ps_two_functor(c).ok
    assert compose_ps_two_functors(c, identity_ps_two_functor(ksplit)) == c
    assert compose_ps_two_functors(c, c) == c


def nonfunctorial_functor(k):
    """u and v are kept but their composite e goes to id_A, so the kept
    images of the 2-cells between id_A and e have the wrong boundary."""
    on1 = {f: f for f in k.onecells}
    on1["e"] = "id_A"
    on2 = {a: a for a in k.twocells}
    on2["2id_e"] = "2id_id_A"
    return PsTwoFunctor(k, k, {x: x for x in k.objects}, on1, on2)


def test_nonfunctorial_one_cell_table_is_flagged(ksplit):
    # the checker takes a well-typed pseudofunctor; loaded tables are
    # typed first, as check_trihom_data does
    r = _ps_two_functor_typing(nonfunctorial_functor(ksplit))
    assert not r.ok
    assert r.witness == {"twocell": "c[id_A>e]"}


def test_nonfunctorial_witness_does_not_depend_on_the_hash_seed():
    """The thin 2-category lists its cells in the builder's order, so the
    first bad cell is the same under every hash seed."""
    src = os.path.dirname(os.path.dirname(bistack.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.path.dirname(__file__)]))
    script = ("from bistack.bicat3 import _ps_two_functor_typing\n"
              "from test_bicat3 import nonfunctorial_functor\n"
              "from test_two_cat import split_idempotent_2cat\n"
              "print(_ps_two_functor_typing(nonfunctorial_functor("
              "split_idempotent_2cat())).witness)")
    witnesses = {subprocess.run(
        [sys.executable, "-c", script], env=dict(env, PYTHONHASHSEED=str(h)),
        check=True, capture_output=True, text=True).stdout
        for h in range(6)}
    assert witnesses == {"{'twocell': 'c[id_A>e]'}\n"}


# --- transformations and modifications --------------------------------------

def test_idempotent_component_transformation_passes(ksplit):
    assert check_ps_two_nat(e_transformation(ksplit)).ok
    assert check_ps_two_nat(
        identity_ps_two_nat(collapse_functor(ksplit))).ok


def wrong_cell_transformation(k):
    t = e_transformation(k)
    t.cell["u"] = "2id_e"
    return t


def test_transformation_with_wrong_cell_is_flagged(ksplit):
    r = _ps_two_nat_typing(wrong_cell_transformation(ksplit))
    assert not r.ok
    assert r.witness["onecell"] == "u"


def e_modification(k, at_a="c[id_A>e]"):
    """Id => e_transformation, with the given component at A."""
    s = identity_ps_two_nat(identity_ps_two_functor(k))
    return TwoModification(s, e_transformation(k),
                           {"A": at_a, "B": "2id_id_B"})


def test_modification_between_parallel_transformations(ksplit):
    assert check_two_modification(e_modification(ksplit)).ok
    assert typing_oracles.two_modification(e_modification(ksplit)) is None
    # the checker takes well-typed components; the oracle types them
    r = typing_oracles.two_modification(e_modification(ksplit, "c[e>id_A]"))
    assert not r.ok and r.witness["object"] == "A"


# --- display failures over B(Z/3) --------------------------------------------
#
# Well-typed pseudofunctors and transformations into B(Z/3), each of which
# fails one display first; B(Z/3) is not locally thin, so no display is
# skipped, and a cell of order three is not its own inverse.

def _to_z3(k, chi=None):
    """k -> B(Z/3), everything onto P, id_P and the identity 2-cell, with
    compositor chi (by default the identities)."""
    return PsTwoFunctor(k, one_object_z3(), {x: "P" for x in k.objects},
                        {f: "id_P" for f in k.onecells},
                        {a: "2id_id_P" for a in k.twocells}, chi=chi)


def _with_compositor(k, pair):
    """_to_z3(k) with the compositor w at pair."""
    return _to_z3(k, {**{p: "2id_id_P" for p in k.hcomp1}, pair: "w"})


def _w_to_w():
    """B(Z/3) -> B(Z/3) sending both w and w2 to w."""
    z3 = one_object_z3()
    return PsTwoFunctor(z3, z3, {"P": "P"}, {"id_P": "id_P"},
                        {"2id_id_P": "2id_id_P", "w": "w", "w2": "w"})


_PS_FUNCTOR_DISPLAY_MUTANTS = [
    (_w_to_w, "vertical composition not preserved at ('w', 'w')",
     {"pair": ["w", "w"]}),
    (lambda: _with_compositor(split_idempotent_2cat(), ("u", "e")),
     "compositor not natural at ('2id_u', 'c[id_A>e]')",
     {"pair": ["2id_u", "c[id_A>e]"]}),
    (lambda: _with_compositor(from_fincat(walking_arrow()), ("a", "id_0")),
     "compositor not associative at ('a', 'id_0', 'id_0')",
     {"triple": ["a", "id_0", "id_0"]}),
]


@pytest.mark.parametrize("build, message, witness",
                         _PS_FUNCTOR_DISPLAY_MUTANTS,
                         ids=["vertical", "naturality", "associativity"])
def test_ps_two_functor_display_mutants_fail(build, message, witness):
    h = build()
    assert _ps_two_functor_typing(h) is None
    r = check_ps_two_functor(h)
    assert (r.verdict, r.details, r.witness) == ("fail", [message], witness)


def test_ps_two_nat_display_mutants_fail(ksplit):
    g = _to_z3(ksplit)
    cell = {f: "2id_id_P" for f in ksplit.onecells}
    t = PsTwoNatTrans(g, g, {"A": "id_P", "B": "id_P"}, dict(cell, e="w"))
    assert _ps_two_nat_typing(t) is None
    r = check_ps_two_nat(t)
    assert (r.verdict, r.details, r.witness) == (
        "fail", ["2-cell naturality fails at 'c[id_A>e]'"],
        {"twocell": "c[id_A>e]"})
    # a transformation into a target whose unit is w, which no cell makes
    # up for, fails the unit display that check_ps_two_nat dropped; but
    # that target is no pseudofunctor, and check_ps_two_functor, which
    # runs on every boundary first, refuses it at its unit coherence
    z3 = one_object_z3()
    twisted = PsTwoFunctor(z3, z3, {"P": "P"}, {"id_P": "id_P"},
                           {a: a for a in z3.twocells}, unit={"P": "w"})
    assert _ps_two_functor_typing(twisted) is None
    r = check_ps_two_functor(twisted)
    assert (r.verdict, r.details, r.witness) == (
        "fail", ["unit coherence fails at 'id_P'"], {"onecell": "id_P"})


# --- homomorphism data -------------------------------------------------------

def test_strict_trihom_data_passes(ksplit):
    t = trihom_over_arrow(ksplit, collapse_functor(ksplit))
    r = check_trihom_data(t)
    assert r.ok
    assert r.details == ["value pseudofunctors, value transformations and "
                         "local strictness verified"]


def _generated_bases():
    return [k for profile in ("locally-discrete-site", "tiny-2site")
            for seed in range(10)
            for k in load_data(generate(seed, profile)).two_cats.values()]


def test_representable_trihom_data_passes(ksplit):
    t = representable_trihom(ksplit, "A")
    assert check_trihom_data(t).ok
    # values are the morphisms into A; the action is precomposition
    assert sorted(t.ob["B"].objects) == ["v"]
    assert t.on1["u"].ob["v"] == "e"
    bases = [chain_suspension(n) for n in (2, 3, 4)] + _generated_bases()
    for k in bases:
        for c in sorted(k.objects):
            assert check_trihom_data(representable_trihom(k, c)).ok, c


# --- transformations between homomorphisms -----------------------------------

def test_identity_tritransformation_passes(ksplit):
    t = trihom_over_arrow(ksplit, collapse_functor(ksplit))
    assert check_tritransformation(identity_tritransformation(t)).ok
    z = trihom_over_arrow(one_object_z2())
    assert check_tritransformation(identity_tritransformation(z)).ok


def test_wrong_composition_comparison_is_detected_via_associativity():
    t = trihom_over_arrow(one_object_z2())
    tr = identity_tritransformation(t)
    tr.beta[("a", "id_0")]["P"] = "t"
    r = check_tritransformation(tr)
    assert not r.ok
    assert any("associativity axiom" in d for d in r.details)
    # the mutated pair appears an odd number of times across the display
    assert r.witness["triple"] == ["a", "id_0", "id_0"]


def test_wrong_composition_comparison_other_slot():
    t = trihom_over_arrow(one_object_z2())
    tr = identity_tritransformation(t)
    tr.beta[("id_1", "a")]["P"] = "t"
    r = check_tritransformation(tr)
    assert not r.ok
    assert any("associativity axiom" in d for d in r.details)


def test_wrong_unit_comparison_is_detected():
    t = trihom_over_arrow(one_object_z2())
    tr = identity_tritransformation(t)
    tr.gamma["0"]["P"] = "t"
    r = check_tritransformation(tr)
    assert not r.ok


# --- the axiom reports, pinned ------------------------------------------------

def _assignments(families, joint):
    """The comparison tables of a structure whose declared cells are the
    identities: with each cell set alone to each 2-cell on its boundary,
    and, if joint, with every assignment of such 2-cells to all cells."""
    families = [(slot, list(cells)) for slot, cells in families]
    slots = [(table, key, x, val.two_cells_between(src(), tgt))
             for (table, key), cells in families
             for x, val, src, tgt in cells]

    def assigned(picks):
        tables = _identities(families)
        for (table, key, x, _), pick in picks:
            tables[table][key][x] = pick
        return tables

    for slot in slots:
        for pick in slot[3]:
            yield assigned([(slot, pick)])
    if joint:
        for picks in product(*(slot[3] for slot in slots)):
            yield assigned(zip(slots, picks))


def _axiom_reports():
    """(verdict, details, witness, steps) of check_tritransformation on
    the identity tritransformation, and of check_trimodification on the
    identity trimodification, under every assignment of _assignments:
    over B(Z/2) on the walking arrow (joint assignments too), the
    constant B(Z/2) on chain_suspension(2) and B(Z/3) on the walking
    arrow; then of check_trimodification on
    _unit_twisted_trimodification over B(Z/3) on the walking arrow, joint
    assignments too."""
    z3 = trihom_over_arrow(one_object_z3())
    structures = []
    for t, joint in ((trihom_over_arrow(one_object_z2()), True),
                     (_constant_z2_trihom(chain_suspension(2)), False),
                     (z3, False)):
        tr = identity_tritransformation(t)
        structures.append((tr, tr, identity_trimodification(tr).comp, joint,
                           True))
    structures.append(_unit_twisted_trimodification(z3) + (True, False))
    out = []
    for th, ph, comp, joint, with_tritrans in structures:
        cases = [
            (check_trimodification, _trimod_cells(th, ph, comp),
             lambda tables: Trimodification(th, ph, comp, **tables))]
        if with_tritrans:
            cases.insert(0, (
                check_tritransformation,
                _tritrans_cells(th.dom, th.cod, th.comp, th.square),
                lambda tables: Tritransformation(th.dom, th.cod, th.comp,
                                                 th.square, **tables)))
        for check, families, build in cases:
            for tables in _assignments(families, joint):
                budget = Budget()
                r = check(build(tables), budget)
                out.append((r.verdict, r.details, r.witness, budget.steps))
    return out


# recorded while every trihom still carried its compositor, unitor and
# comparison tables as identities, before the axioms were written for the
# strict case; re-recorded, with the same checkers, when the B(Z/3)
# structures were added (the first 114 reports keep the old digest,
# 16a0d153960ed3465526971201ec77be2e0dc0bc36d865e7dfe454ed323c289d), and
# again when each axiom display came to spend one step, and when the
# trimodification unit axiom, which composition implies, was dropped
# (1,154 steps to 1,114; from 865bf922...).  The second digest is of the
# reports without steps, recorded before each axiom display spent a step.
_AXIOM_REPORTS_PINNED = (
    "2a64e3b38607d7db8a75e55c5dbf3558aff45d4e694408ba0f5aaf3bc499c1eb",
    "d137c8b9f4f308780098f3a9c42e28459f463b6f1152ceb2e42fff3fb8321c5f")


def test_axiom_reports_are_pinned():
    reports = _axiom_reports()
    assert {r[0] for r in reports} == {"pass", "fail"}
    assert tuple(hashlib.sha256(repr(x).encode()).hexdigest()
                 for x in (reports, [r[:-1] for r in reports])) \
        == _AXIOM_REPORTS_PINNED


# --- modifications and perturbations -----------------------------------------

def test_identity_trimodification_passes(ksplit):
    t = trihom_over_arrow(ksplit, collapse_functor(ksplit))
    m = identity_trimodification(identity_tritransformation(t))
    assert check_trimodification(m).ok


def test_trimodification_with_wrong_square_cell_fails():
    t = trihom_over_arrow(one_object_z2())
    m = identity_trimodification(identity_tritransformation(t))
    m.cell["id_0"]["P"] = "t"
    r = check_trimodification(m)
    assert not r.ok


def test_z2_gamma_mutant_breaks_the_tritransformation_unit_axiom():
    """A trimodification out of a tritransformation whose unit comparison
    gamma is the order-two 2-cell fails the unit display that
    check_trimodification dropped, which composition implies only between
    tritransformations that satisfy their unit axioms.  That boundary
    breaks its own: check_tritransformation, which the direct decider runs
    on every tritransformation it draws, refuses it.  The composition
    axiom reads no gamma, so the trimodification passes its check."""
    t = trihom_over_arrow(one_object_z2())
    th, ph = identity_tritransformation(t), identity_tritransformation(t)
    th.gamma["0"]["P"] = "t"
    m = identity_trimodification(ph)
    m = Trimodification(th, ph, m.comp, m.cell)
    assert typing_oracles.trimodification(m) is None
    assert check_trimodification(m).ok
    assert typing_oracles.tritransformation(th) is None
    r = check_tritransformation(th)
    assert (r.verdict, r.details, r.witness) == (
        "fail", ["right unit axiom fails at ('a', 'P')"],
        {"onecell": "a", "object": "P", "lhs": "t", "rhs": "2id_id_P"})


def test_identity_perturbation_passes_and_mutant_fails():
    t = trihom_over_arrow(one_object_z2())
    tr = identity_tritransformation(t)
    m = identity_trimodification(tr)
    val = t.ob["0"]
    comp = {c: {x: val.id2(m.comp[c].comp[x])
                for x in t.ob[c].objects}
            for c in ("0", "1")}
    p = Perturbation(m, m, comp)
    assert check_perturbation(p).ok
    p.comp["0"]["P"] = "t"
    r = check_perturbation(p)
    assert not r.ok
    assert r.witness["onecell"] == "a"


# --- Yoneda actions ----------------------------------------------------------

def test_yoneda_transformation_restricts_the_chosen_object(ksplit):
    f = representable_trihom(ksplit, "A")
    s = yoneda_tritrans(f, "A", "id_A")
    assert check_tritransformation(s).ok
    # component at D sends g: D -> A to the restriction id_A . g
    for d in ksplit.objects:
        for g in s.dom.ob[d].objects:
            assert s.comp[d].ob[g] == f.on1[g].ob["id_A"]


def test_yoneda_transformation_on_nondiscrete_values():
    t = trihom_over_arrow(one_object_z2())
    s = yoneda_tritrans(t, "1", "P")
    assert check_tritransformation(s).ok
    assert s.comp["0"].ob["a"] == "P"


def test_yoneda_modification_restricts_the_chosen_one_cell(ksplit):
    f = representable_trihom(ksplit, "A")
    m = yoneda_trimod(f, "A", "c[id_A>e]")
    assert check_trimodification(m).ok
    for d in ksplit.objects:
        for g in m.dom.dom.ob[d].objects:
            assert m.comp[d].comp[g] == f.on1[g].on1["c[id_A>e]"]


def test_yoneda_perturbation_restricts_the_chosen_two_cell():
    t = trihom_over_arrow(one_object_z2())
    p = yoneda_pert(t, "1", "t")
    assert check_perturbation(p).ok
    for d in ("0", "1"):
        for g in p.dom.dom.dom.ob[d].objects:
            assert p.comp[d][g] == t.on1[g].on2["t"]


# --- the locally thin shortcut -------------------------------------------------

def identity_perturbation(t):
    """The identity perturbation on t's identity trimodification."""
    m = identity_trimodification(identity_tritransformation(t))
    return Perturbation(m, m, {
        c: {x: t.ob[c].id2(m.comp[c].comp[x]) for x in t.ob[c].objects}
        for c in t.base.objects})


def _identity_checks(t):
    """(name, checker, structure): the identity cells over trihom t."""
    tr = identity_tritransformation(t)
    return [("tritrans", check_tritransformation, tr),
            ("trimod", check_trimodification, identity_trimodification(tr)),
            ("pert", check_perturbation, identity_perturbation(t)),
            ("trihom", check_trihom_data, t)]


def _typed(typing, check):
    """check after typing, as check_trihom_data runs the pseudofunctor and
    transformation checkers on loaded tables."""
    return lambda x, budget: typing(x) or check(x, budget)


def _ksplit_checks(k):
    """Every bicat3 checker on valid structures over ksplit, and the
    typing of loaded pseudofunctors and transformations on ones with one
    mistyped cell.  Built afresh on each call."""
    typed_functor = _typed(_ps_two_functor_typing, check_ps_two_functor)
    t = trihom_over_arrow(k, collapse_functor(k))
    ids = ({x: x for x in k.objects}, {f: f for f in k.onecells},
           {a: a for a in k.twocells})
    chi = {pair: k.id2(c) for pair, c in k.hcomp1.items()}
    chi[("v", "u")] = "c[id_A>e]"
    rep = representable_trihom(k, "A")
    return _identity_checks(t) + [
        ("id", check_ps_two_functor, identity_ps_two_functor(k)),
        ("collapse", check_ps_two_functor, collapse_functor(k)),
        ("nonfunctorial", typed_functor, nonfunctorial_functor(k)),
        ("bad-compositor", typed_functor, PsTwoFunctor(k, k, *ids, chi=chi)),
        ("bad-unitor", typed_functor, PsTwoFunctor(
            k, k, *ids, unit={"A": "c[id_A>e]", "B": "2id_id_B"})),
        ("e-nat", check_ps_two_nat, e_transformation(k)),
        ("wrong-cell", _typed(_ps_two_nat_typing, check_ps_two_nat),
         wrong_cell_transformation(k)),
        ("mod", check_two_modification, e_modification(k)),
        ("yoneda-tritrans", check_tritransformation,
         yoneda_tritrans(rep, "A", "id_A")),
        ("yoneda-trimod", check_trimodification,
         yoneda_trimod(rep, "A", "c[id_A>e]")),
    ]


def _outcomes(cases):
    out = {}
    for name, check, x in cases:
        budget = Budget()
        r = check(x, budget)
        out[name] = (r.verdict, r.details, r.witness, budget.steps)
    return out


def test_checkers_do_not_see_the_thin_shortcut(ksplit, monkeypatch):
    assert ksplit.locally_thin()
    fast = _outcomes(_ksplit_checks(ksplit))
    monkeypatch.setattr(Fin2Cat, "locally_thin", lambda self: False)
    general = _outcomes(_ksplit_checks(ksplit))
    # the same reports, for no more steps on any check and fewer in all
    assert {name: o[:-1] for name, o in fast.items()} \
        == {name: o[:-1] for name, o in general.items()}
    assert all(fast[name][-1] <= o[-1] for name, o in general.items())
    assert sum(o[-1] for o in fast.values()) \
        < sum(o[-1] for o in general.values())
    verdicts = {name: o[0] for name, o in general.items()}
    assert {verdicts[n] for n in verdicts if n.startswith("bad")
            or n in ("nonfunctorial", "wrong-cell")} == {"fail"}
    assert verdicts["id"] == verdicts["yoneda-trimod"] == "pass"


def _half_thin_trihom():
    """B(Z/2) at 0 and a point, which is locally thin, at 1 of the walking
    arrow, with a acting by the inclusion of the point."""
    z2, point = one_object_z2(), from_fincat(discrete(["P"]))
    into = PsTwoFunctor(point, z2, {"P": "P"}, {"id_P": "id_P"},
                        {"2id_id_P": "2id_id_P"})
    return strict_trihom(from_fincat(walking_arrow()), {"0": z2, "1": point},
                         {"id_0": identity_ps_two_functor(z2),
                          "id_1": identity_ps_two_functor(point),
                          "a": into}, {})


def test_axioms_are_skipped_value_by_value(monkeypatch):
    """With one value thin and one not, the tritransformation,
    trimodification and perturbation axioms are skipped in the thin value
    alone: the reports are those of the general path, for fewer steps,
    and some steps are spent in the other value."""
    fast = _outcomes(_identity_checks(_half_thin_trihom()))
    monkeypatch.setattr(Fin2Cat, "locally_thin", lambda self: False)
    general = _outcomes(_identity_checks(_half_thin_trihom()))
    assert {name: o[:-1] for name, o in fast.items()} \
        == {name: o[:-1] for name, o in general.items()}
    for name in ("tritrans", "trimod", "pert"):
        assert 0 < fast[name][-1] < general[name][-1]


def test_typing_oracles_locate_one_mistyped_cell(ksplit):
    """The tritransformation, trimodification and perturbation checkers
    take well-typed candidates; the typing oracles pass the identity cells
    over ksplit and locate one mistyped cell in each."""
    t = trihom_over_arrow(ksplit, collapse_functor(ksplit))
    bad_beta = identity_tritransformation(t)
    bad_gamma = identity_tritransformation(t)
    bad_square = identity_trimodification(identity_tritransformation(t))
    bad_pert = identity_perturbation(t)
    cases = [(typing_oracles.tritransformation, bad_beta),
             (typing_oracles.tritransformation, bad_gamma),
             (typing_oracles.trimodification, bad_square),
             (typing_oracles.perturbation, bad_pert)]
    assert [oracle(x) for oracle, x in cases] == [None] * 4
    bad_beta.beta[("a", "id_0")]["A"] = "c[id_A>e]"
    bad_gamma.gamma["0"]["A"] = "c[id_A>e]"
    bad_square.cell["a"]["A"] = "c[id_A>e]"
    bad_pert.comp["0"]["A"] = "c[id_A>e]"
    got = [(r.details[-1], r.witness) for r in
           (oracle(x) for oracle, x in cases)]
    assert got == [
        ("bad composition comparison at ('a', 'id_0', 'A')",
         {"pair": ["a", "id_0"], "object": "A"}),
        ("bad unit comparison at ('0', 'A')",
         {"object": "0", "twocell": "c[id_A>e]"}),
        ("bad square comparison at ('a', 'A')",
         {"onecell": "a", "object": "A"}),
        ("bad component at 'A'", {"object": "A"})]


def test_z2_value_never_takes_the_shortcut(monkeypatch):
    z2 = one_object_z2()
    real = Fin2Cat.locally_thin
    seen = []

    def spy(self):
        seen.append((self, real(self)))
        return seen[-1][1]

    monkeypatch.setattr(Fin2Cat, "locally_thin", spy)
    outcomes = _outcomes(_identity_checks(trihom_over_arrow(z2)))
    assert all(o[0] == "pass" for o in outcomes.values())
    on_z2 = [thin for k, thin in seen if k == z2]
    assert on_z2 and not any(on_z2)


# --- comparison tables built on first read ---------------------------------------

def _first_read_trihoms():
    """The representable trihoms of ladder rungs N=3..6; the trihoms of
    site seeds 0-79 of both generator profiles and the representables of
    their bases; and B(Z/2) values over the walking arrow, acted on by the
    identity."""
    out = []
    for n in range(3, 7):
        k = chain_suspension(n)
        out += [representable_trihom(k, c) for c in sorted(k.objects)]
    for profile in ("locally-discrete-site", "tiny-2site"):
        for seed in range(80):
            doc = load_data(generate(seed, profile))
            k = doc.two_cats["K"]
            out += [doc.trihoms[name] for name in sorted(doc.trihoms)]
            out += [representable_trihom(k, c) for c in sorted(k.objects)]
    return out + [trihom_over_arrow(one_object_z2())]


def _built_on_first_read(x, families, names):
    """Each table of x in names is absent until read, and then the eager
    identity table of the declared families."""
    eager = _identities(families)
    assert not set(names) & set(vars(x))
    for name in names:
        assert getattr(x, name) == eager.get(name, {})
        assert name in vars(x)


def _functor_on_first_read(h):
    _built_on_first_read(h, _ps_two_functor_cells(h.dom, h.cod, h.ob, h.on1),
                         ("chi", "unit"))


def _nat_on_first_read(t):
    _built_on_first_read(t, _ps_two_nat_cells(t.dom, t.cod, t.comp),
                         ("cell",))


def _composite_on_first_read(k2, h):
    """k2 after h, whose compositor and unitor are absent until read, and
    then the composites of the factors' tables, by the formula that
    compose_ps_two_functors applied at construction before."""
    cod = k2.cod
    chi = {(b, a): cod.v(k2.on2[h.chi[(b, a)]],
                         k2.chi[(h.on1[b], h.on1[a])])
           for b, a in h.dom.hcomp1}
    unit = {x: cod.v(k2.on2[h.unit[x]], k2.unit[h.ob[x]])
            for x in h.dom.objects}
    x = compose_ps_two_functors(k2, h)
    assert not {"chi", "unit"} & set(vars(x))
    assert (x.chi, x.unit) == (chi, unit)
    return x


def twisted_identity(val, chi, unit):
    """The identity of a one-object value with compositor chi and unitor
    unit, a pseudofunctor where the two cells are mutually inverse."""
    return PsTwoFunctor(val, val, {"P": "P"}, {"id_P": "id_P"},
                        {a: a for a in val.twocells},
                        chi={("id_P", "id_P"): chi}, unit={"P": unit})


TWISTED = [(one_object_z2, "t", "t"), (one_object_z3, "w2", "w")]


def test_comparison_tables_built_on_first_read_are_the_eager_identities():
    """The identity comparison tables of the identity and Yoneda
    transformations and modifications over a trihom, of their component
    pseudofunctors and of their squares, are built on first read; each
    equals the table that ``_identities`` builds eagerly from the
    structure's declaration.  The compositor and unitor of a composite
    pseudofunctor are built on first read too, and equal the eager
    composite of its factors' tables, also where these are no identities:
    twisted identities of B(Z/2) and B(Z/3) and their composites."""
    count = 0
    for t in _first_read_trihoms():
        k = t.base
        tr = identity_tritransformation(t)
        trimods = [identity_trimodification(tr)]
        c = sorted(k.objects)[-1]
        val = t.ob[c]
        sigma = {x: yoneda_tritrans(t, c, x) for x in sorted(val.objects)}
        trimods += [yoneda_trimod(t, c, a, sigma[x], sigma[y])
                    for a, (x, y) in sorted(val.onecells.items())]
        for comp in trimods[0].comp.values():
            _nat_on_first_read(comp)
        for tr in [tr, *sigma.values()]:
            for h in tr.comp.values():
                _functor_on_first_read(h)
            for g, (e, d) in sorted(k.onecells.items()):
                _nat_on_first_read(tr.square[g])
                _composite_on_first_read(tr.comp[e], tr.dom.on1[g])
                _composite_on_first_read(tr.cod.on1[g], tr.comp[d])
            _built_on_first_read(tr, _tritrans_cells(tr.dom, tr.cod, tr.comp,
                                                     tr.square),
                                 ("beta", "gamma"))
        for m in trimods:
            _built_on_first_read(m, _trimod_cells(m.dom, m.cod, m.comp),
                                 ("cell",))
        count += len(sigma) + len(trimods)
    assert count > 500
    compositors = []
    for val, chi, unit in TWISTED:
        pool = [identity_ps_two_functor(val()), twisted_identity(val(), chi,
                                                                 unit)]
        _functor_on_first_read(pool[0])
        pool += [_composite_on_first_read(k2, h) for k2 in pool for h in pool]
        pool += [_composite_on_first_read(k2, h) for k2 in pool for h in pool]
        compositors += [h.chi[("id_P", "id_P")] for h in pool]
        _nat_on_first_read(PsTwoNatTrans(pool[1], pool[-1], {"P": "id_P"}))
    assert {"t", "w", "w2"} <= set(compositors)
