import pytest

from bistack import descent
from bistack.bicat3 import (PsTwoFunctor, check_ps_two_functor,
                            identity_ps_two_functor, representable_trihom,
                            strict_trihom, _ps_two_functor_typing)
from bistack.builders import chain_suspension
from bistack.descent import (check_descent_datum_mor, check_matching_family,
                             check_weak_descent_datum, descent_category,
                             descent_datum_from_morphism,
                             find_amalgamations, find_effective_gluing_mor,
                             find_weak_effective_gluing, is_2stack,
                             is_2stack_direct, is_2stack_direct_on_sieve,
                             is_stack_catvalued, is_subcanonical,
                             matching_family_from_cell,
                             weak_datum_from_object, _connecting_isos,
                             _wdd_displays)
from bistack.errors import MalformedTable, SearchBudgetExceeded
from bistack.fincat import FinCat, discrete, walking_arrow
from bistack.generate import _z2_base
from bistack.report import Budget, guarded, merge, passed
from bistack.sieves import Bitopology, build_bisieve, \
    literal_maximal_bisieve, maximal_bisieve, representable
from bistack.two_cat import Fin2Cat, from_fincat

from test_bicat3 import constant_trihom, one_object_z2, one_object_z3, \
    trihom_over_arrow
from test_two_cat import split_idempotent_2cat
from sigma_oracles import tabulated
import typing_oracles


@pytest.fixture
def ksplit():
    return split_idempotent_2cat()


@pytest.fixture
def ksieve(ksplit):
    """Bisieve on A whose witnesses are non-identity invertible 2-cells."""
    return build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}})


@pytest.fixture
def wa2():
    return from_fincat(walking_arrow())


@pytest.fixture
def wa_sieve(wa2):
    return build_bisieve(wa2, "1", {"0": {"a"}})


def arrow_trihom(v1, v0, ob_map, one_map=None, two_map=None):
    """Strict homomorphism data on the walking arrow with given action."""
    wa = from_fincat(walking_arrow())
    action = PsTwoFunctor(
        v1, v0, ob_map,
        one_map or {m: v0.id1(ob_map[v1.onecells[m][0]])
                    for m in v1.onecells},
        two_map or {a: v0.id2(v0.id1(ob_map[v1.onecells[
            v1.twocells[a][0]][0]])) for a in v1.twocells})
    return wa, strict_trihom(
        wa, {"1": v1, "0": v0},
        {"id_1": identity_ps_two_functor(v1),
         "id_0": identity_ps_two_functor(v0),
         "a": action}, {})


def collapse_objects_trihom():
    """Two global objects become equal after restriction."""
    v1 = from_fincat(discrete(["P", "Q"]))
    v0 = from_fincat(discrete(["Z"]))
    return arrow_trihom(v1, v0, {"P": "Z", "Q": "Z"})


def collapse_twocells_trihom():
    """The order-two 2-cell dies after restriction."""
    z2 = one_object_z2()
    wa = from_fincat(walking_arrow())
    kill = PsTwoFunctor(z2, z2, {"P": "P"}, {"id_P": "id_P"},
                        {"2id_id_P": "2id_id_P", "t": "2id_id_P"})
    return wa, strict_trihom(
        wa, {"1": z2, "0": z2},
        {"id_1": identity_ps_two_functor(z2),
         "id_0": identity_ps_two_functor(z2),
         "a": kill}, {})


def unreachable_object_trihom():
    """A local object that is not the restriction of any global one."""
    v1 = from_fincat(discrete(["P"]))
    v0 = from_fincat(discrete(["Z1", "Z2"]))
    return arrow_trihom(v1, v0, {"P": "Z1"})


# --- soundness of restriction ------------------------------------------------

def test_restricted_two_cells_are_matching_families(ksplit, ksieve):
    F = representable_trihom(ksplit, "A")
    for w0 in sorted(F.ob["A"].twocells):
        mf = matching_family_from_cell(F, ksieve, w0)
        assert check_matching_family(mf).ok
        assert find_amalgamations(mf) == [w0]


def test_restricted_morphisms_are_effective_descent_data(ksplit, ksieve):
    F = representable_trihom(ksplit, "A")
    for w0 in sorted(F.ob["A"].onecells):
        dd = descent_datum_from_morphism(F, ksieve, w0)
        assert check_descent_datum_mor(dd).ok
        out = find_effective_gluing_mor(dd)
        assert out is not None and list(out) == ["w", "psi"]


def test_restricted_objects_are_weakly_effective(ksplit, ksieve):
    F = representable_trihom(ksplit, "A")
    for x0 in sorted(F.ob["A"].objects):
        wdd = weak_datum_from_object(F, ksieve, x0)
        assert check_weak_descent_datum(wdd).ok
        out = find_weak_effective_gluing(wdd)
        assert out is not None
        assert list(out) == ["W", "psi", "epsilon", "psi_cells"]


def test_restriction_witnesses_are_nontrivial(ksplit, ksieve):
    # the chosen sieve forces non-identity invertible witnesses, so the
    # soundness tests above exercise non-degenerate comparison cells
    assert any(c != ksplit.id2(ksieve.tilde[p])
               for p, c in ksieve.sigma.items())


def test_checkers_reject_nonstrict_values():
    """A pseudofunctor of B(Z/2) whose compositor and unitor are the
    order-two 2-cell is well typed and valid but not strict, so
    strict_trihom refuses it as an action, and no decider meets it."""
    z2 = one_object_z2()
    h = PsTwoFunctor(z2, z2, {"P": "P"}, {"id_P": "id_P"},
                     {a: a for a in z2.twocells},
                     chi={("id_P", "id_P"): "t"}, unit={"P": "t"})
    assert _ps_two_functor_typing(h) is None and check_ps_two_functor(h).ok
    with pytest.raises(MalformedTable, match="not a strict 2-functor"):
        trihom_over_arrow(z2, h)


# --- mistyped data, located by the typing oracles ------------------------------
#
# The datum checkers take a well-typed datum, as the enumerators draw it;
# whether a datum is well typed is the question of tests/typing_oracles.py.

def test_mistyped_family_member_is_flagged(ksplit, ksieve):
    F = representable_trihom(ksplit, "A")
    mf = matching_family_from_cell(F, ksieve, "2id_2id_id_A")
    assert typing_oracles.matching_family(mf) is None
    mf.w["v"] = "2id_2id_e"  # lives in the wrong hom-category
    r = typing_oracles.matching_family(mf)
    assert not r.ok and "mistyped" in r.details[0]


def test_corrupted_transition_cell_is_flagged(ksplit, ksieve):
    F = representable_trihom(ksplit, "A")
    dd = descent_datum_from_morphism(F, ksieve, "c[id_A>e]")
    assert typing_oracles.descent_datum_mor(dd) is None
    some_gamma = next(iter(dd.eta))
    del dd.eta[some_gamma]
    r = typing_oracles.descent_datum_mor(dd)
    assert not r.ok and "missing" in r.details[0]


# (table, key, new cell or None to delete it, message, witness)
_COMPARISON_MUTANTS = [
    ("phi", ("v", "u"), None,
     "comparison phi at ('v', 'u') missing, mistyped or not invertible",
     {"member": "v", "onecell": "u"}),
    ("phi", ("id_A", "e"), "2id_2id_e",
     "comparison phi at ('id_A', 'e') missing, mistyped or not invertible",
     {"member": "id_A", "onecell": "e"}),
    ("eta", "2id_v", None,
     "comparison eta at '2id_v' missing, mistyped or not invertible",
     {"twocell": "2id_v"}),
    ("eta", "2id_id_A", "2id_2id_e",
     "comparison eta at '2id_id_A' missing, mistyped or not invertible",
     {"twocell": "2id_id_A"}),
    ("rho", "v", None,
     "rho at 'v' missing, mistyped or not invertible", {"member": "v"}),
    ("rho", "id_A", "2id_2id_e",
     "rho at 'id_A' missing, mistyped or not invertible",
     {"member": "id_A"}),
    ("beta", ("v", "u", "v"), None,
     "beta at ('v', 'u', 'v') missing, mistyped or not invertible",
     {"member": "v", "pair": ["u", "v"]}),
    ("beta", ("id_A", "e", "e"), "2id_2id_e",
     "beta at ('id_A', 'e', 'e') missing, mistyped or not invertible",
     {"member": "id_A", "pair": ["e", "e"]}),
    ("rho2", ("2id_v", "u"), None,
     "rho2 at ('2id_v', 'u') missing, mistyped or not invertible",
     {"twocell": "2id_v", "onecell": "u"}),
    ("rho2", ("2id_id_A", "e"), "2id_2id_e",
     "rho2 at ('2id_id_A', 'e') missing, mistyped or not invertible",
     {"twocell": "2id_id_A", "onecell": "e"}),
    ("alpha", ("v", "2id_u"), None,
     "alpha at ('v', '2id_u') missing, mistyped or not invertible",
     {"member": "v", "twocell": "2id_u"}),
    ("alpha", ("id_A", "2id_e"), "2id_2id_e",
     "alpha at ('id_A', '2id_e') missing, mistyped or not invertible",
     {"member": "id_A", "twocell": "2id_e"}),
]


_MUTANT_IDS = ["%s-%s" % (m[0], "retype" if m[2] else "delete")
               for m in _COMPARISON_MUTANTS]


def comparison_mutant(F, s, table, key, cell):
    """(typing oracle, datum): the restriction of c[id_A>e] (phi, eta) or
    of id_A (the others) with one comparison cell deleted or retyped."""
    if table in ("phi", "eta"):
        datum = descent_datum_from_morphism(F, s, "c[id_A>e]")
        oracle = typing_oracles.descent_datum_mor
    else:
        datum = weak_datum_from_object(F, s, "id_A")
        oracle = typing_oracles.weak_descent_datum
    assert oracle(datum) is None
    cells = getattr(datum, table)
    if cell is None:
        del cells[key]
    else:
        assert cells[key] != cell
        cells[key] = cell
    return oracle, datum


@pytest.mark.parametrize(
    "table, key, cell, message, witness", _COMPARISON_MUTANTS,
    ids=_MUTANT_IDS)
def test_comparison_cell_mutants_are_located(ksplit, ksieve, table, key, cell,
                                             message, witness):
    F = representable_trihom(ksplit, "A")
    oracle, datum = comparison_mutant(F, ksieve, table, key, cell)
    r = oracle(datum)
    assert (r.verdict, r.details[0], r.witness) == ("fail", message, witness)


def test_swapped_weak_transition_breaks_coherence(ksplit, ksieve):
    """Swapping a phi for its pseudo-inverse turns it the wrong way
    round: the typing oracle locates it."""
    F = representable_trihom(ksplit, "A")
    wdd = weak_datum_from_object(F, ksieve, "id_A")
    key = ("id_A", "e")
    val = F.ob[ksplit.onecells["e"][0]]
    wdd.phi[key] = val.equivalence_data(wdd.phi[key])[0]
    r = typing_oracles.weak_descent_datum(wdd)
    assert (r.verdict, r.witness) == ("fail",
                                      {"member": "id_A", "onecell": "e"})


# --- display failures over B(Z/3) --------------------------------------------
#
# The constant B(Z/3) trihom on a base, and a sieve; each row sets a few
# cells of the restriction of a global 2-cell, 1-cell or object to 2-cells
# of order three, which keeps the datum well typed, and names the first
# display that fails.  B(Z/3) is not locally thin, so no display is
# skipped, and a cell of order three is not its own inverse.

def _z3_over(k, target, members):
    return constant_trihom(k, one_object_z3()), \
        build_bisieve(k, target, members)


def _arrow():
    return from_fincat(walking_arrow())


# (base, target, members, cells set, message, witness)
_MOR_DISPLAY_MUTANTS = [
    (split_idempotent_2cat, "B", {"B": {"id_B"}, "A": {"u"}},
     {("phi", ("id_B", "u")): "w2"}, "cocycle fails at ('u', 'v', 'u')",
     {"member": "u", "pair": ["v", "u"], "lhs": "w2", "rhs": "2id_id_P"}),
    (_z2_base, "P", {"P": {"id_P"}}, {("eta", "t"): "w2"},
     "eta not compatible with composition at ('t', 't')",
     {"pair": ["t", "t"], "lhs": "2id_id_P", "rhs": "w"}),
    (split_idempotent_2cat, "A", {"A": {"e", "id_A"}, "B": {"v"}},
     {("eta", "c[e>id_A]"): "w", ("eta", "c[id_A>e]"): "w2"},
     "phi/eta square fails at ('c[e>id_A]', 'e')",
     {"twocell": "c[e>id_A]", "onecell": "e", "lhs": "2id_id_P",
      "rhs": "w"}),
]


@pytest.mark.parametrize(
    "base, target, members, cells, message, witness", _MOR_DISPLAY_MUTANTS,
    ids=["cocycle", "eta-composition", "phi-eta-square"])
def test_morphism_datum_display_mutants_fail(base, target, members, cells,
                                             message, witness):
    F, s = _z3_over(base(), target, members)
    dd = descent_datum_from_morphism(F, s, "id_P")
    assert check_descent_datum_mor(dd).ok
    for (table, key), cell in cells.items():
        getattr(dd, table)[key] = cell
    assert typing_oracles.descent_datum_mor(dd) is None
    r = check_descent_datum_mor(dd)
    assert (r.verdict, r.details, r.witness) == ("fail", [message], witness)


def test_matching_family_two_cell_mutant_fails():
    F, s = _z3_over(chain_suspension(2), "Y", {"X": {"f0", "f1"}})
    mf = matching_family_from_cell(F, s, "2id_id_P")
    mf.w["f1"] = "w"
    assert typing_oracles.matching_family(mf) is None
    r = check_matching_family(mf)
    assert (r.verdict, r.details, r.witness) == (
        "fail", ["2-cell compatibility fails at 'r0_1'"],
        {"twocell": "r0_1", "lhs": "2id_id_P", "rhs": "w"})


# (base, target, members, cells set, message, witness) of _wdd_displays
# under the first family of connecting isos, the identities
_WEAK_DISPLAY_MUTANTS = [
    (_z2_base, "P", {"P": {"id_P"}}, {("rho2", ("t", "id_P")): "w"},
     "rho display fails at 't'", {"twocell": "t"}),
    (split_idempotent_2cat, "A", {"A": {"e", "id_A"}, "B": {"v"}},
     {("rho2", ("c[e>id_A]", "e")): "w"},
     "composition display for rho2 fails at "
     "('c[id_A>e]', 'c[e>id_A]', 'e')",
     {"pair": ["c[id_A>e]", "c[e>id_A]"], "onecell": "e"}),
    (lambda: chain_suspension(2), "Y", {"X": {"f0", "f1"}},
     {("beta", ("f0", "id_X", "id_X")): "w"},
     "beta naturality fails at ('r0_1', 'id_X', 'id_X')",
     {"twocell": "r0_1", "pair": ["id_X", "id_X"]}),
    (_arrow, "1", {"0": {"a"}, "1": {"id_1"}},
     {("beta", ("a", "id_0", "id_0")): "w"},
     "four-fold cocycle fails at ('id_1', 'a', 'id_0', 'id_0')",
     {"member": "id_1", "triple": ["a", "id_0", "id_0"]}),
    (_arrow, "1", {"0": {"a"}, "1": {"id_1"}}, {("rho", "id_1"): "w"},
     "cocycle identity display (outer) fails at ('id_1', 'a')",
     {"member": "id_1", "onecell": "a"}),
]


@pytest.mark.parametrize(
    "base, target, members, cells, message, witness", _WEAK_DISPLAY_MUTANTS,
    ids=["rho", "rho2-composition", "beta-naturality", "four-fold-cocycle",
         "outer-identity-leg"])
def test_weak_datum_display_mutants_fail(base, target, members, cells,
                                         message, witness):
    F, s = _z3_over(base(), target, members)
    wdd = weak_datum_from_object(F, s, "P")
    u, cc = ({key: pool[0] for key, pool in isos.items()}
             for isos in _connecting_isos(wdd))
    assert _wdd_displays(wdd, u, cc, Budget()) is None
    for (table, key), cell in cells.items():
        getattr(wdd, table)[key] = cell
    assert typing_oracles.weak_descent_datum(wdd) is None
    assert _wdd_displays(wdd, u, cc, Budget()) == (message, witness)


# --- effectiveness refutations ------------------------------------------------

def test_non_members_give_refutation_with_replay():
    wa, F = collapse_objects_trihom()
    s = build_bisieve(wa, "1", {"0": {"a"}})
    dd = descent_datum_from_morphism(F, s, "id_P")
    dd.X, dd.Y = "P", "Q"
    dd.w = {"a": "id_Z"}
    dd.phi = {("a", "id_0"): "2id_id_Z"}
    dd.eta = {wa.id2("a"): "2id_id_Z"}
    assert check_descent_datum_mor(dd).ok
    b1, b2 = Budget(), Budget()
    assert find_effective_gluing_mor(dd, b1) is None
    assert find_effective_gluing_mor(dd, b2) is None
    assert b1.steps == b2.steps


def test_unreachable_local_object_is_not_weakly_effective():
    wa, F = unreachable_object_trihom()
    s = build_bisieve(wa, "1", {"0": {"a"}})
    wdd = weak_datum_from_object(F, s, "P")
    wdd.W = {"a": "Z2"}
    wdd.eta = {wa.id2("a"): "id_Z2"}
    wdd.phi = {("a", "id_0"): "id_Z2"}
    wdd.rho = {"a": "2id_id_Z2"}
    wdd.beta = {("a", "id_0", "id_0"): "2id_id_Z2"}
    wdd.rho2 = {(wa.id2("a"), "id_0"): "2id_id_Z2"}
    wdd.alpha = {("a", wa.id2("id_0")): "2id_id_Z2"}
    assert check_weak_descent_datum(wdd).ok
    assert find_weak_effective_gluing(wdd) is None


# --- category-valued stack condition -----------------------------------------

def test_representables_form_a_stack_on_split_site(ksplit, ksieve):
    tau = Bitopology(ksplit, {"A": [maximal_bisieve(ksplit, "A"), ksieve],
                              "B": [maximal_bisieve(ksplit, "B")]})
    assert is_stack_catvalued(representable(ksplit, "A"), tau).ok
    assert is_subcanonical(ksplit, tau).ok


def test_non_subcanonical_topology_is_refuted(wa2, wa_sieve):
    tau = Bitopology(wa2, {"1": [wa_sieve]})
    r = is_stack_catvalued(representable(wa2, "0"), tau)
    assert not r.ok
    r = is_subcanonical(wa2, tau)
    assert not r.ok and r.witness["representable"] == "0"


def test_descent_category_over_singleton_cover(wa2, wa_sieve):
    F = representable(wa2, "1")
    desc, _ = tabulated(descent_category(F, wa_sieve))
    # a single member with only identity legs: descent data are just
    # objects of the value at the member's source
    assert len(desc.objects) == len(F.ob["0"].objects)


# --- the 2-stack verdict and the direct cross-check ---------------------------

def direct_search(F, tau, budget=None):
    """is_2stack_direct with no sieve passed by the Yoneda lemma: the
    per-sieve search on every covering sieve, its reports placed in the
    cover as the public op places them."""
    budget = budget or Budget()
    reports = []
    for c in sorted(F.base.objects):
        for i, s in enumerate(tau.sieves_on(c)):
            r = descent._on_sieve(is_2stack_direct_on_sieve(F, s, budget),
                                  c, i)
            if not r.ok:
                return r
            reports.append(r)
    return merge("is_2stack_direct", reports) if reports else \
        passed("is_2stack_direct", ["no covering sieves declared"])


def stack_pair(f_data, tau, budget=None):
    """Both deciders' searches, the direct one on every sieve."""
    budget = budget or Budget(50_000_000)
    a = guarded("is_2stack", budget, is_2stack, f_data, tau, budget)
    b = guarded("is_2stack_direct", budget, direct_search,
                f_data, tau, budget)
    return a, b


def test_2stack_checkers_agree_on_representable_site(ksplit):
    s = build_bisieve(ksplit, "A", {"A": {"id_A", "e"}, "B": {"v"}})
    tau = Bitopology(ksplit, {"A": [s],
                              "B": [maximal_bisieve(ksplit, "B")]})
    a, b = stack_pair(representable_trihom(ksplit, "A"), tau)
    assert a.ok and b.ok


def test_2stack_checkers_agree_on_walking_arrow(wa2, wa_sieve):
    tau = Bitopology(wa2, {"1": [wa_sieve]})
    a, b = stack_pair(representable_trihom(wa2, "1"), tau)
    assert a.ok and b.ok


def test_object_collapse_fails_morphism_gluing(wa2, wa_sieve):
    _, F = collapse_objects_trihom()
    tau = Bitopology(wa2, {"1": [wa_sieve]})
    a, b = stack_pair(F, tau)
    assert not a.ok and a.witness["condition"] == "M"
    assert not b.ok and b.witness["condition"] == "M"


def test_twocell_collapse_fails_unique_amalgamation(wa2, wa_sieve):
    _, F = collapse_twocells_trihom()
    tau = Bitopology(wa2, {"1": [wa_sieve]})
    a, b = stack_pair(F, tau)
    assert not a.ok and a.witness["condition"] == "2C"
    assert not b.ok and b.witness["condition"] == "2C"


def test_unreachable_object_fails_object_gluing(wa2, wa_sieve):
    _, F = unreachable_object_trihom()
    tau = Bitopology(wa2, {"1": [wa_sieve]})
    a, b = stack_pair(F, tau)
    assert not a.ok and a.witness["condition"] == "O"
    assert not b.ok and b.witness["condition"] == "O"


def test_a_non_equivalence_component_is_skipped_at_object_gluing(
        monkeypatch):
    """A value with a non-invertible 1-cell b: B -> A, constant over one
    object under its maximal sieve, is a 2-stack.  At (O) the direct
    decider compares the restriction of B with the restriction of A first,
    through the trimodification with component b, which is no
    equivalence; it goes on to the restriction of B itself."""
    c = discrete(["A", "B"])
    val = from_fincat(FinCat(c.objects, dict(c.src, b="B"),
                             dict(c.tgt, b="A"), c.identity,
                             {**c.comp, ("b", "id_B"): "b",
                              ("id_A", "b"): "b"}))
    k = from_fincat(discrete(["0"]))
    tau = Bitopology(k, {"0": [literal_maximal_bisieve(k, "0")]})
    seen = []

    def spy(m, budget):
        seen.append((m.cod.comp["0"].ob, real(m, budget)))
        return seen[-1][1]

    real = descent._pointwise_equivalent
    monkeypatch.setattr(descent, "_pointwise_equivalent", spy)
    a, b = stack_pair(constant_trihom(k, val), tau)
    assert (a.verdict, b.verdict) == ("pass", "pass")
    assert seen == [({"id_0": "A"}, True), ({"id_0": "A"}, False),
                    ({"id_0": "B"}, True)]


def test_direct_checker_is_inconclusive_on_nonliteral_sieves(ksplit, ksieve):
    tau = Bitopology(ksplit, {"A": [ksieve]})
    r = is_2stack_direct(representable_trihom(ksplit, "A"), tau)
    assert r.verdict == "inconclusive"


def test_budget_exhaustion_is_inconclusive(ksplit, ksieve):
    tau = Bitopology(ksplit, {"A": [ksieve]})
    F = representable_trihom(ksplit, "A")
    tight = Budget(5)
    r = guarded("is_2stack", tight, is_2stack, F, tau, tight)
    assert r.verdict == "inconclusive"


# --- classical degeneration ----------------------------------------------------

def brute_force_sheaf(site, covers, psh_ob, psh_mor):
    """Set-valued sheaf condition by direct enumeration.

    site: FinCat; covers: target -> list of morphism sets (sieves);
    psh_ob: object -> list of elements; psh_mor: morphism -> dict
    (restriction maps, contravariant).
    """
    for c, sieves in covers.items():
        for sv in sieves:
            families = []
            members = sorted(sv)
            pools = [psh_ob[site.src[f]] for f in members]
            from itertools import product as prod
            for choice in prod(*pools):
                fam = dict(zip(members, choice))
                if all(psh_mor[g][fam[f]] == fam[site.compose(f, g)]
                       for f in members
                       for g in site.morphisms
                       if site.tgt[g] == site.src[f]
                       and site.compose(f, g) in sv):
                    families.append(fam)
            for fam in families:
                hits = [x for x in psh_ob[c]
                        if all(psh_mor[f][x] == fam[f] for f in members)]
                if len(hits) != 1:
                    return False
    return True


def test_classical_degeneration_matches_sheaf_condition(wa2, wa_sieve):
    site = walking_arrow()
    covers = {"1": [{"a"}]}
    tau = Bitopology(wa2, {"1": [wa_sieve]})
    # a sheaf: restriction is a bijection
    v1 = from_fincat(discrete(["P", "Q"]))
    v0 = from_fincat(discrete(["Zp", "Zq"]))
    _, good = arrow_trihom(v1, v0, {"P": "Zp", "Q": "Zq"})
    assert brute_force_sheaf(site, covers,
                             {"1": ["P", "Q"], "0": ["Zp", "Zq"]},
                             {"a": {"P": "Zp", "Q": "Zq"},
                              "id_1": {"P": "P", "Q": "Q"},
                              "id_0": {"Zp": "Zp", "Zq": "Zq"}})
    assert is_2stack(good, tau).ok
    # not a sheaf: two sections restrict to the same element
    _, bad = collapse_objects_trihom()
    assert not brute_force_sheaf(site, covers,
                                 {"1": ["P", "Q"], "0": ["Z"]},
                                 {"a": {"P": "Z", "Q": "Z"},
                                  "id_1": {"P": "P", "Q": "Q"},
                                  "id_0": {"Z": "Z"}})
    assert not is_2stack(bad, tau).ok


# --- the locally thin shortcut of the descent displays -----------------------

def _descent_cases(k, s):
    """(name, checker or gluing search, datum) over the thin k: the
    restriction of every global cell, 1-cell and object.  Built afresh on
    each call."""
    F = representable_trihom(k, "A")
    val = F.ob["A"]
    cases = []
    for w0 in sorted(val.twocells):
        cases.append(("family-" + w0, check_matching_family,
                      matching_family_from_cell(F, s, w0)))
    for w0 in sorted(val.onecells):
        dd = descent_datum_from_morphism(F, s, w0)
        cases += [("mor-" + w0, check_descent_datum_mor, dd),
                  ("glue-mor-" + w0, find_effective_gluing_mor, dd)]
    for x0 in sorted(val.objects):
        wdd = weak_datum_from_object(F, s, x0)
        cases += [("weak-" + x0, check_weak_descent_datum, wdd),
                  ("glue-weak-" + x0, find_weak_effective_gluing, wdd)]
    return cases


def _outcome(check, datum, limit=None):
    """What check returns on datum under a budget of limit, with steps."""
    budget = Budget(limit)
    try:
        out = check(datum, budget)
    except SearchBudgetExceeded:
        return ("inconclusive", budget.steps)
    if out is None:
        return ("no gluing", budget.steps)
    if isinstance(out, dict):
        return ("gluing", out, budget.steps)
    return (out.verdict, out.details, out.witness, budget.steps)


def _descent_outcomes(k, s, totals=None):
    """Each case's outcome without a limit, then under every limit from 0
    to totals[name], by default to its full steps."""
    out = {}
    for name, check, datum in _descent_cases(k, s):
        full = _outcome(check, datum)
        total = full[-1] if totals is None else totals[name]
        out[name] = [full] + [_outcome(check, datum, limit)
                              for limit in range(total + 1)]
    return out


def test_descent_checkers_do_not_see_the_thin_shortcut(ksplit, ksieve,
                                                      monkeypatch):
    """With the shortcut, each case gives the general path's outcome for
    no more steps, and fewer in all.  Under each limit up to the general
    path's steps, a run that the general path finishes finishes with the
    shortcut too, with the same outcome, and a run that runs out stops
    one past its limit."""
    assert all(v.locally_thin()
               for v in representable_trihom(ksplit, "A").ob.values())
    monkeypatch.setattr(Fin2Cat, "locally_thin", lambda self: False)
    slow = _descent_outcomes(ksplit, ksieve)
    monkeypatch.undo()
    fast = _descent_outcomes(ksplit, ksieve,
                             {name: runs[0][-1] for name, runs
                              in slow.items()})
    assert fast.keys() == slow.keys()
    for name, runs in slow.items():
        for a, b in zip(fast[name], runs):
            if b[0] != "inconclusive":
                assert a[:-1] == b[:-1] and a[-1] <= b[-1]
        for sweep in (fast[name][1:], runs[1:]):
            assert all(out[-1] == limit + 1 for limit, out
                       in enumerate(sweep) if out[0] == "inconclusive")
    assert sum(runs[0][-1] for runs in fast.values()) \
        < sum(runs[0][-1] for runs in slow.values())
    verdicts = {name: o[0][0] for name, o in fast.items()}
    assert {v for name, v in verdicts.items()
            if not name.startswith("glue")} == {"pass"}
    assert {v for name, v in verdicts.items() if name.startswith("glue")} \
        == {"gluing"}


def test_z2_mutant_never_takes_the_descent_shortcut(wa2, wa_sieve,
                                                   monkeypatch):
    _, F = collapse_twocells_trihom()
    real = Fin2Cat.locally_thin
    seen = []

    def spy(self):
        seen.append(real(self))
        return seen[-1]

    monkeypatch.setattr(Fin2Cat, "locally_thin", spy)
    val = F.ob["1"]
    for w0 in sorted(val.twocells):
        assert check_matching_family(
            matching_family_from_cell(F, wa_sieve, w0)).ok
    for w0 in sorted(val.onecells):
        dd = descent_datum_from_morphism(F, wa_sieve, w0)
        assert check_descent_datum_mor(dd).ok
        find_effective_gluing_mor(dd)
    for x0 in sorted(val.objects):
        wdd = weak_datum_from_object(F, wa_sieve, x0)
        assert check_weak_descent_datum(wdd).ok
        find_weak_effective_gluing(wdd)
    a, _ = stack_pair(F, Bitopology(wa2, {"1": [wa_sieve]}))
    assert not a.ok and a.witness["condition"] == "2C"
    assert seen and not any(seen)
