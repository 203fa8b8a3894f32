from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from bistack import descent, sigma_colim
from bistack.bicat3 import literally_closed, representable_trihom
from bistack.builders import chain_suspension, suspension_two_cat, \
    thin_two_cat
from bistack.descent import is_2stack_direct, is_2stack_direct_on_sieve, \
    is_stack_catvalued, is_stack_on_sieve, is_subcanonical
from bistack.fincat import FinCat, discrete, walking_arrow
from bistack.generate import generate
from bistack.report import Budget, guarded
from bistack.sieves import (Bitopology, build_bisieve, check_bisieve,
                            contains_identity, groth,
                            inclusion_transformation,
                            literal_maximal_bisieve, maximal_bisieve,
                            representable)
from bistack.sigma_colim import (Diagram, SigmaCocone, check_sigma_cocone,
                                 cocone_morphisms, enumerate_sigma_cocones,
                                 is_sigma_bicolim_bisieve,
                                 projection_diagram, universal_cocone,
                                 verify_sigma_bicolim, whisker_cocone)
from bistack.two_cat import Fin2Cat, check_two_category, from_fincat
from bistack.workspace import load_data

from sigma_oracles import check_diagram, conicalize, \
    sigma_cocone_category, sigma_cocone_typing, tabulated_is_equivalence, \
    typed_sigma_cocones, verify_coconofstar
from test_acceptance import _discrete_cat_presheaf
from test_sieves import _pool_docs, _pool_sieves
from test_tabulate import _reports as _tabulated_reports, \
    _sieves as _tabulated_sieves
from test_two_cat import split_idempotent_2cat
import test_metamorphic as metamorphic


@pytest.fixture
def wa2():
    return from_fincat(walking_arrow())


@pytest.fixture
def ksplit():
    return split_idempotent_2cat()


def empty_2cat():
    return Fin2Cat([], {}, {}, {}, {}, {}, {}, {})


def one_object_diagram(k, image):
    shape = from_fincat(discrete(["p"]))
    return Diagram(shape, k, {"p": image}, {"id_p": k.id1(image)},
                   {"2id_id_p": k.id2(k.id1(image))})


def test_projection_of_elements_is_a_diagram(wa2, ksplit):
    for k, target in ((wa2, "1"), (ksplit, "A")):
        gt = groth(maximal_bisieve(k, target))
        assert check_diagram(projection_diagram(gt)).ok


def test_empty_diagram_has_terminal_cocone_category(wa2):
    d = Diagram(empty_2cat(), wa2, {}, {}, {})
    cat, _, _ = sigma_cocone_category(d, "1")
    assert len(cat.objects) == 1
    assert len(cat.morphisms) == 1


def test_one_object_diagram_cocones_match_hom(ksplit):
    d = one_object_diagram(ksplit, "A")
    cat, _, _ = sigma_cocone_category(d, "A")
    hom = ksplit.hom_cat("A", "A")
    assert len(cat.objects) == len(hom.objects)
    assert len(cat.morphisms) == len(hom.morphisms)


def one_way_2cell():
    """Two parallel 1-cells f, g: A -> B with a single one-way 2-cell
    f => g."""
    return thin_two_cat(
        ["A", "B"],
        {"id_A": ("A", "A"), "id_B": ("B", "B"),
         "f": ("A", "B"), "g": ("A", "B")},
        {"A": "id_A", "B": "id_B"},
        {("id_A", "id_A"): "id_A", ("id_B", "id_B"): "id_B",
         ("f", "id_A"): "f", ("id_B", "f"): "f",
         ("g", "id_A"): "g", ("id_B", "g"): "g"},
        [("f", "g")])


def test_marked_morphisms_filter_noninvertible_structure_cells():
    k = one_way_2cell()
    shape = from_fincat(walking_arrow())
    base = {"ob": {"0": "A", "1": "A"},
            "on1": {"id_0": "id_A", "id_1": "id_A", "a": "id_A"},
            "on2": {x: k.id2("id_A") for x in
                    ("2id_id_0", "2id_id_1", "2id_a")}}
    plain = Diagram(shape, k, **base)
    marked = Diagram(shape, k, marked=["a"], **base)
    # unmarked: any pair (l0, l1) with a 2-cell l0 => l1 gives a cocone
    assert len(enumerate_sigma_cocones(plain, "B")) == 3
    # marked: the structure cell on `a` must be invertible, killing f => g
    assert len(enumerate_sigma_cocones(marked, "B")) == 2


def test_least_failing_marked_cell_is_reported():
    """Of two marked 1-cells whose structure cells are not invertible,
    check_sigma_cocone names the least, whatever the hash seed."""
    k = one_way_2cell()
    # the walking parallel pair a, b: 0 -> 1
    shape = from_fincat(FinCat(
        ["0", "1"], {"id_0": "0", "id_1": "1", "a": "0", "b": "0"},
        {"id_0": "0", "id_1": "1", "a": "1", "b": "1"},
        {"0": "id_0", "1": "id_1"},
        {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
         ("a", "id_0"): "a", ("id_1", "a"): "a",
         ("b", "id_0"): "b", ("id_1", "b"): "b"}))
    d = Diagram(shape, k, {"0": "A", "1": "A"},
                {m: "id_A" for m in shape.onecells},
                {x: k.id2("id_A") for x in shape.twocells},
                marked=["b", "a"])
    f_to_g = k.two_cells_between("f", "g")[0]
    cc = SigmaCocone.make("B", {"0": "f", "1": "g"},
                          {"id_0": k.id2("f"), "id_1": k.id2("g"),
                           "a": f_to_g, "b": f_to_g})
    r = check_sigma_cocone(d, cc)
    assert (r.verdict, r.witness) == ("fail", {"onecell": "a"})


def test_universal_cocone_legs_and_witness_cells(ksplit):
    s = build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}})
    gt = groth(s)
    d, mu = universal_cocone(s, gt)
    assert mu.apex == "A"
    for name, (dd, f) in gt.ob_of.items():
        assert mu.leg(name) == f
    # on morphisms with identity 2-cell component the structure cell is
    # exactly the chosen restriction witness
    k = ksplit
    for name, (g, alpha) in gt.one_of.items():
        _, tgt_name = gt.two_cat.onecells[name]
        f = gt.ob_of[tgt_name][1]
        if alpha == k.id2(s.tilde[(f, g)]):
            assert mu.cell(name) == s.sigma[(f, g)]
    assert check_sigma_cocone(d, mu).ok


def test_universal_cocone_cell_is_the_factorization_composite(ksplit):
    from bistack.sieves import factor_groth_morphism
    s = maximal_bisieve(ksplit, "A")
    gt = groth(s)
    d, mu = universal_cocone(s, gt)
    k = ksplit
    for name in gt.two_cat.onecells:
        later, earlier = factor_groth_morphism(gt, name)
        composite = k.v(k.wr(mu.cell(later), d.on1[earlier]),
                        mu.cell(earlier))
        assert mu.cell(name) == composite


def test_maximal_sieves_are_sigma_bicolim(wa2, ksplit):
    for k, target in ((wa2, "0"), (wa2, "1"), (ksplit, "B")):
        rep = is_sigma_bicolim_bisieve(maximal_bisieve(k, target))
        assert rep.ok, (target, rep.details, rep.witness)


def test_empty_sieve_is_refuted(wa2):
    s = build_bisieve(wa2, "1", {})
    rep = is_sigma_bicolim_bisieve(s)
    assert rep.verdict == "fail"
    # the empty cocone on 0 cannot be hit from the empty Hom(1, 0)
    assert rep.witness["test_object"] == "0"


def test_cocone_whiskering_and_modifications(ksplit):
    s = build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}})
    gt = groth(s)
    d, mu = universal_cocone(s, gt)
    nu = whisker_cocone(d, mu, "e")
    assert check_sigma_cocone(d, nu).ok
    assert nu.apex == "A"
    # the invertible cell id_A => e whiskers to a modification mu -> nu
    mods = cocone_morphisms(d, mu, nu)
    wanted = tuple(sorted((x, ksplit.wr("c[id_A>e]", mu.leg(x)))
                          for x, _ in mu.legs))
    assert wanted in mods


def test_whiskering_is_strictly_pseudonatural_in_the_test_object():
    """verify_sigma_bicolim checks no pseudonaturality in the test object,
    which a valid 2-category forces: whiskering each pool and tabulated
    sieve's universal cocone by e.r equals whiskering it by r, then by
    e."""
    checked = 0
    for s in _pool_sieves() + _tabulated_sieves():
        k = s.k
        if not check_two_category(k).ok:
            continue
        d, mu = universal_cocone(s)
        for e, (u1, _) in k.onecells.items():
            for r in k.one_cells_between(mu.apex, u1):
                assert whisker_cocone(d, mu, k.c1(e, r)) \
                    == whisker_cocone(d, whisker_cocone(d, mu, r), e)
                checked += 1
    assert checked


def test_conicalize_inclusion_recovers_universal_cocone(wa2, ksplit):
    for k, target in ((wa2, "1"), (ksplit, "A")):
        s = maximal_bisieve(k, target)
        gt = groth(s)
        w = inclusion_transformation(s)
        d1, cc1 = conicalize(s, gt, w)
        d2, cc2 = universal_cocone(s, gt)
        assert cc1 == cc2
        assert d1.ob == d2.ob and d1.on1 == d2.on1 and d1.on2 == d2.on2


def _ordinary_cocones(cat, shape, dob, dmor, u):
    sobs = sorted(shape.objects)
    out = []
    for legs in product(*(cat.hom(dob[s], u) for s in sobs)):
        rho = dict(zip(sobs, legs))
        if all(rho[shape.src[m]] == cat.compose(rho[shape.tgt[m]], dmor[m])
               for m in shape.morphisms):
            out.append(tuple(sorted(rho.items())))
    return out


def _is_ordinary_colimit(cat, shape, dob, dmor, apex, legs):
    """Brute-force 1-categorical colimit check: hom(apex, -) must map
    bijectively onto cocones by whiskering."""
    for u in cat.objects:
        cocones = _ordinary_cocones(cat, shape, dob, dmor, u)
        hit = {}
        for r in cat.hom(apex, u):
            img = tuple(sorted((s, cat.compose(r, l)) for s, l in legs))
            if img not in cocones or img in hit:
                return False
            hit[img] = r
        if len(hit) != len(cocones):
            return False
    return True


def test_agrees_with_ordinary_colimits_on_locally_discrete_base():
    cat = walking_arrow()
    k = from_fincat(cat)
    shape1 = walking_arrow()
    dob = {"0": "0", "1": "1"}
    dmor = {m: m for m in shape1.morphisms}
    cases = [
        # identity diagram with apex 1: a genuine colimit
        (shape1, dob, dmor, "1", {"0": "a", "1": "id_1"}, True),
        # single object 0 with apex 1 along a: not a colimit
        (discrete(["p"]), {"p": "0"}, {"id_p": "id_0"}, "1", {"p": "a"},
         False),
        # single object 0 with apex 0: a colimit
        (discrete(["p"]), {"p": "0"}, {"id_p": "id_0"}, "0", {"p": "id_0"},
         True),
    ]
    for shape, ob, mor, apex, legs, expect in cases:
        oracle = _is_ordinary_colimit(cat, shape, ob, mor, apex,
                                      legs.items())
        assert oracle is expect
        shape2 = from_fincat(shape)
        d = Diagram(shape2, k, ob,
                    on1=mor,
                    on2={shape2.id2(m): k.id2(mor[m])
                         for m in shape.morphisms})
        mu = SigmaCocone.make(
            apex, legs,
            {m: k.id2(legs[shape.src[m]]) for m in shape.morphisms})
        rep = verify_sigma_bicolim(d, mu)
        assert rep.ok is expect, (apex, rep.details, rep.witness)


def test_change_of_base_along_identity_matches_direct_check(wa2):
    s = maximal_bisieve(wa2, "1")
    direct = is_sigma_bicolim_bisieve(s)
    along_id = verify_coconofstar(s, "id_1")
    assert direct.ok and along_id.ok


def test_change_of_base_along_noninvertible_morphism(wa2):
    s = maximal_bisieve(wa2, "1")
    rep = verify_coconofstar(s, "a")
    assert rep.ok, (rep.details, rep.witness)


def test_change_of_base_reports_missing_iso_comma():
    objs = ["X", "Y", "D"]
    mors = {"f": ("X", "Y"), "h": ("D", "Y")}
    src = {m: s for m, (s, t) in mors.items()}
    tgt = {m: t for m, (s, t) in mors.items()}
    for o in objs:
        src["id_%s" % o] = tgt["id_%s" % o] = o
    identity = {o: "id_%s" % o for o in objs}
    comp = {}
    for m in src:
        comp[(m, identity[src[m]])] = m
        comp[(identity[tgt[m]], m)] = m
    k = from_fincat(FinCat(objs, src, tgt, identity, comp))
    s = build_bisieve(k, "Y", {"D": {"h"}})
    rep = verify_coconofstar(s, "f")
    assert rep.verdict == "fail"
    assert rep.witness["reason"] == "IsoCommaMissing"
    assert rep.witness["member"] == "h"


def test_certificate_report_shape(wa2):
    s = maximal_bisieve(wa2, "1")
    d, mu = universal_cocone(s)
    rep = verify_sigma_bicolim(d, mu)
    assert rep.name == "verify_sigma_bicolim"
    assert rep.verdict == "pass"
    assert set(rep.witness["per_object"]) == {"0", "1"}
    assert all(v == "pass" for v in rep.witness["per_object"].values())



@pytest.mark.parametrize("limit", [0, 1, 3])
def test_budget_exhausted_while_checking_the_cocone_is_inconclusive(
        wa2, limit):
    """verify_sigma_bicolim checks no display of the cocone, so a budget
    that runs out at once runs out in the comparison at 1, after the
    comparison at 0 passes onto no cocones with no step.  The report is
    inconclusive and keeps the verdict at 0: in the full search, which
    the public op skips on this sieve."""
    rep = verify_sigma_bicolim(*universal_cocone(maximal_bisieve(wa2, "1")),
                               Budget(limit))
    assert rep.verdict == "inconclusive"
    assert rep.details == ["budget exhausted after %d steps" % (limit + 1)]
    assert rep.witness == {"steps": limit + 1, "per_object": {"0": "pass"}}


# --- drawn cocones -----------------------------------------------------------

def _enumerations(sieves, enumerate_cocones):
    """The cocones that enumerate_cocones finds on each test object over
    each sieve's elements, with the steps it spends."""
    out = []
    for s in sieves:
        d, _ = universal_cocone(s)
        for u in sorted(s.k.objects):
            budget = Budget()
            out.append((enumerate_cocones(d, u, budget), budget.steps))
    return out


def test_universal_cocones_are_typed():
    """check_sigma_cocone takes the universal cocone as typed: on every
    covering sieve of the corpus and of site seeds 0-79, and on every
    sieve of test_tabulate, each of which passes check_bisieve, the
    universal cocone passes the typing and the identity condition
    (``sigma_cocone_typing``) and its displays."""
    sieves = [s for doc in _pool_docs() for tau in doc.bitopologies.values()
              for cover in tau.covering.values() for s in cover]
    sieves += _tabulated_sieves()
    assert len(sieves) == 753
    for s in sieves:
        assert check_bisieve(s).ok
        d, mu = universal_cocone(s)
        assert sigma_cocone_typing(d, mu) is None
        assert check_sigma_cocone(d, mu).ok


def test_drawn_cocones_are_tested_on_their_displays_alone(monkeypatch):
    """enumerate_sigma_cocones draws each cocone typed and hands it to
    its displays alone.  On every bisieve of the corpus, of site seeds
    0-79 and of test_tabulate, and on every test object: the enumerator
    that types each cocone before checking it finds the same cocones,
    in the same order, with the same steps; every cocone handed to the
    displays is well typed with its identity condition; and some fail
    their displays."""
    sieves = _pool_sieves() + _tabulated_sieves()
    drawn = _enumerations(sieves, enumerate_sigma_cocones)
    assert drawn == _enumerations(sieves, typed_sigma_cocones)
    handed, seen = [], []
    displays = sigma_colim._cocone_displays

    def recorded(d, legs, cells, budget):
        r = displays(d, legs, cells, budget)
        handed.append((dict(legs), dict(cells), r.verdict))
        return r

    monkeypatch.setattr(sigma_colim, "_cocone_displays", recorded)
    for s in sieves:
        d, _ = universal_cocone(s)
        for u in sorted(s.k.objects):
            handed.clear()
            enumerate_sigma_cocones(d, u)
            seen += [(sigma_cocone_typing(
                d, SigmaCocone.make(u, legs, cells)), verdict)
                for legs, cells, verdict in handed]
    assert all(bad is None for bad, _ in seen)
    assert {verdict for _, verdict in seen} == {"pass", "fail"}


# --- the direct decision against the tabulated category -----------------------

def _groupoid(objects, order):
    """The connected groupoid on objects o0, o1, ... with the cyclic group
    of the given order as every hom-set: g<i><j>_<n> is the arrow from oi
    to oj of index n, and indexes add under composition."""
    obs = ["o%d" % i for i in range(objects)]
    arrows = {"g%d%d_%d" % (i, j, n): (i, j, n) for i in range(objects)
              for j in range(objects) for n in range(order)}
    return FinCat(obs, {a: obs[i] for a, (i, _, _) in arrows.items()},
                  {a: obs[j] for a, (_, j, _) in arrows.items()},
                  {o: "g%d%d_0" % (i, i) for i, o in enumerate(obs)},
                  {(b, a): "g%d%d_%d" % (i, l, (n + m) % order)
                   for a, (i, j, n) in arrows.items()
                   for b, (j2, l, m) in arrows.items() if j2 == j})


def _suspensions():
    """Suspensions of hom categories with parallel 2-cells, so that a
    comparison can fail fullness and faithfulness as well as essential
    surjectivity."""
    return [suspension_two_cat(_groupoid(n, order))
            for n, order in ((1, 2), (1, 4), (2, 1), (2, 3))] + [
        suspension_two_cat(walking_arrow())]


def _discrete_diagrams(k):
    """(diagram, apex, cocone): the empty diagram and the discrete
    diagrams of one or two copies of X, under every apex and every choice
    of legs."""
    for names in ((), ("p",), ("p", "q")):
        shape = from_fincat(discrete(names))
        d = Diagram(shape, k, {p: "X" for p in names},
                    {"id_%s" % p: "id_X" for p in names},
                    {"2id_id_%s" % p: "2id_id_X" for p in names})
        for apex in sorted(k.objects):
            for legs in product(*(k.one_cells_between("X", apex)
                                  for _ in names)):
                legs = dict(zip(names, legs))
                yield d, apex, SigmaCocone.make(
                    apex, legs, {"id_%s" % p: k.id2(legs[p]) for p in names})


def _cocone_cases():
    """(diagram, apex, cocone): the discrete diagrams into the
    suspensions, and every sigma-cocone on every object over the elements
    of the fixed sieves of test_tabulate and of the maximal sieves on the
    suspensions with at most eight 2-cells (on the largest one, they take
    seconds)."""
    for k in _suspensions():
        yield from _discrete_diagrams(k)
    sieves = _tabulated_sieves() + [maximal_bisieve(k, c)
                                    for k in _suspensions()
                                    if len(k.twocells) <= 8
                                    for c in sorted(k.objects)]
    for s in sieves:
        d, _ = universal_cocone(s)
        for apex in sorted(s.k.objects):
            for mu in enumerate_sigma_cocones(d, apex):
                yield d, apex, mu


def _comparisons(cases):
    """The comparison at every test object of each (diagram, apex,
    cocone) case, with its steps."""
    out = []
    for d, apex, mu in cases:
        for u in sorted(d.k.objects):
            budget = Budget()
            r, count = sigma_colim._comparison(d, mu, u, budget)
            out.append(((r.name, r.verdict, r.details, r.witness, count),
                        budget.steps))
    return out


def _sieve_reports(sieves, limit=None):
    """Each sieve's sigma report and steps, decided in full, also on a
    sieve that contains the identity, which the public op passes without
    search."""
    out = []
    for s in sieves:
        budget = Budget(limit)
        r = guarded("sigma", budget, verify_sigma_bicolim,
                    *universal_cocone(s), budget)
        out.append(((r.verdict, r.details, r.witness), budget.steps))
    return out


def test_sigma_decision_matches_the_tabulated_category(monkeypatch):
    """Deciding each comparison directly gives the verdicts, details,
    witnesses and per-object reports of is_equivalence over the tabulated
    cocone category, in at most its steps: on every bisieve of the corpus
    and of site seeds 0-79, on the fixed sieves of test_tabulate (two of
    them with non-identity restriction witnesses on the non-thin split
    idempotent); and at every test object, on cocones that fail fullness
    and faithfulness."""
    sieves = _pool_sieves() + _tabulated_sieves()
    cases = list(_cocone_cases())
    direct = _sieve_reports(sieves), _comparisons(cases)
    monkeypatch.setattr(sigma_colim, "is_equivalence",
                        tabulated_is_equivalence)
    oracle = _sieve_reports(sieves), _comparisons(cases)
    for got, want in zip(direct, oracle):
        assert [r for r, _ in got] == [r for r, _ in want]
        assert all(a <= b for (_, a), (_, b) in zip(got, want))
    witnesses = [r[2] for r, _ in direct[0]] + [r[3] for r, _ in direct[1]]
    assert {"essential surjectivity", "fullness", "faithfulness"} \
        <= {w.get("reason") for w in witnesses}
    # a fullness witness named past the first pair of cocones
    assert any(w.get("reason") == "fullness" and len(w["morphism"]) > 3
               for w in witnesses)


def _catvalued_reports(sieves):
    """The Cat-valued stack report and steps of the representable at each
    object over each sieve, decided in full, also on a sieve that contains
    the identity, which the public op skips."""
    out = []
    for s in sieves:
        for x in sorted(s.k.objects):
            budget = Budget()
            r = is_stack_on_sieve(representable(s.k, x), s, budget)
            out.append(((r.verdict, r.details, r.witness), budget.steps))
    return out


def test_catvalued_decision_matches_the_tabulated_category(monkeypatch):
    """The Cat-valued stack condition goes through the same decision as
    the sigma comparison, over a descent category whose hom-sets are built
    as it reads them.  Over the descent category tabulated whole, it gives
    the same verdicts, details and witnesses in at least as many steps:
    on the subcanonical and stack reports of test_tabulate, and on the
    representables over each valid bisieve of the corpus and of site
    seeds 0-79 and over the empty sieve on X of chain_suspension(2), where
    the representable at Y fails at fullness: its descent category has a
    morphism, named as Enumerated names it, with no preimage."""
    k2 = chain_suspension(2)
    sieves = [s for s in _pool_sieves()
              if check_two_category(s.k).ok and check_bisieve(s).ok] \
        + [build_bisieve(k2, "X", {})]

    def run():
        return _catvalued_reports(sieves) + [
            (row[1:4], row[4]) for row in _tabulated_reports()
            if row[0] != "sigma"]

    direct = run()
    monkeypatch.setattr(descent, "is_equivalence", tabulated_is_equivalence)
    oracle = run()
    assert [r for r, _ in direct] == [r for r, _ in oracle]
    assert all(a <= b for (_, a), (_, b) in zip(direct, oracle))
    assert sum(a for _, a in direct) < sum(b for _, b in oracle)
    assert {"pass", "fail"} == {r[0] for r, _ in direct}
    assert {"essential surjectivity", "fullness", "faithfulness"} \
        <= {r[2].get("reason") for r, _ in direct}


def test_sigma_budget_limits_are_deterministic_and_inconclusive(monkeypatch):
    """Under every limit below the steps that the direct decision spends,
    it is inconclusive, stops at the first step past the limit and gives
    the same report on a rerun, and so does the tabulated category, which
    spends at least as many steps; from that limit on, it reports what it
    reports unlimited."""
    sieves = _tabulated_sieves()
    unlimited = _sieve_reports(sieves)
    rows = []
    for s, (report, steps) in zip(sieves, unlimited):
        for limit in range(steps + 2):
            got = _sieve_reports([s], limit) * 2
            rows.append((s, limit))
            if limit >= steps:
                assert got == [(report, steps)] * 2
                continue
            assert got[0] == got[1]
            (verdict, details, witness), spent = got[0]
            assert verdict == "inconclusive" and spent == limit + 1
            assert witness["steps"] == limit + 1
    assert len(rows) > 100
    monkeypatch.setattr(sigma_colim, "is_equivalence",
                        tabulated_is_equivalence)
    for s, limit in rows:
        if limit < _sieve_reports([s])[0][1]:
            assert _sieve_reports([s], limit)[0][0][0] == "inconclusive"


def test_a_sieve_that_contains_the_identity_passes_without_search(wa2):
    """The public ops decide the maximal sieve by the Yoneda lemma, so
    they pass it under a budget of no steps."""
    s = maximal_bisieve(wa2, "1")
    budget = Budget(0)
    rep = is_sigma_bicolim_bisieve(s, budget)
    assert rep.verdict == "pass" and budget.steps == 0
    assert rep.witness == {"per_object": {"0": "pass", "1": "pass"}}
    assert "Yoneda lemma" in rep.details[0]
    tau = Bitopology(wa2, {"1": [s]})
    for x in sorted(wa2.objects):
        budget = Budget(0)
        assert is_stack_catvalued(representable(wa2, x), tau, budget).ok
        assert budget.steps == 0


def _identity_sieve_cases():
    """Each valid sieve that contains its target's identity, among the
    bisieves of the pool documents and the fixed sieves of test_tabulate,
    with the Cat-valued presheaves over its base: the representables and
    the presheaf under each locally discrete trihom on a locally discrete
    base (criterion 1's); and with the trihoms over its base: the
    representables and the document's trihoms."""
    cases = [(s, [], []) for s in _tabulated_sieves()]
    for doc in _pool_docs():
        trihoms = [F for _, F in sorted(doc.trihoms.items())]
        discrete = [_discrete_cat_presheaf(F) for F in trihoms
                    if len(F.base.twocells) == len(F.base.onecells)
                    and all(len(v.onecells) == len(v.objects)
                            for v in F.ob.values())]
        cases += [(s, [F for F in discrete if F.base is s.k],
                   [F for F in trihoms if F.base is s.k])
                  for _, s in sorted(doc.bisieves.items())]
    for s, presheaves, trihoms in cases:
        if contains_identity(s) and check_two_category(s.k).ok \
                and check_bisieve(s).ok:
            objects = sorted(s.k.objects)
            yield (s, [representable(s.k, x) for x in objects] + presheaves,
                   [representable_trihom(s.k, x) for x in objects] + trihoms)


def _same_as_the_search(s, F):
    """The per-sieve direct search passes F on s, and the public op, which
    skips s, gives the same verdict and witness; whether s is literally
    closed, so that the search has a sieve trihom."""
    if not literally_closed(s):
        return False
    full = is_2stack_direct_on_sieve(F, s, Budget())
    public = is_2stack_direct(F, Bitopology(s.k, {s.target: [s]}), Budget())
    assert full.verdict == "pass", (s, F, full.details, full.witness)
    assert (public.verdict, public.witness) == (full.verdict, full.witness)
    return True


def test_identity_sieves_pass_the_full_searches():
    """The Yoneda lemma, tested: every valid sieve that contains its
    target's identity, among the bisieves of the corpus, of site seeds
    0-79 of both profiles and the fixed sieves of test_tabulate, passes the
    full sigma search, the full Cat-valued search of each presheaf over
    its base, and, where it is literally closed, the per-sieve direct
    search of each trihom over its base; so do the rows of
    test_metamorphic that item 1 does not break, whose values are not
    locally thin.  The public ops, which skip the search there, give the
    same verdicts and witnesses."""
    sieves = rows = discrete = literal = trihom_rows = 0
    for s, presheaves, trihoms in _identity_sieve_cases():
        full = verify_sigma_bicolim(*universal_cocone(s), Budget())
        public = is_sigma_bicolim_bisieve(s, Budget())
        assert full.verdict == "pass", (s, full.details, full.witness)
        assert (public.verdict, public.witness) \
            == (full.verdict, full.witness)
        tau = Bitopology(s.k, {s.target: [s]})
        for F in presheaves:
            full = is_stack_on_sieve(F, s, Budget())
            public = is_stack_catvalued(F, tau, Budget())
            assert full.verdict == "pass", (s, F, full.details, full.witness)
            assert (public.verdict, public.witness) \
                == (full.verdict, full.witness)
        for F in trihoms:
            trihom_rows += _same_as_the_search(s, F)
        sieves += 1
        rows += len(presheaves)
        discrete += len(presheaves) - len(s.k.objects)
        literal += literally_closed(s)
    assert sieves > 300 and rows > sieves and discrete > 100
    assert literal > 300 and trihom_rows > 2 * literal
    thick = [row for row in metamorphic._ROWS
             if row not in metamorphic._ITEM_1]
    assert len(thick) == 8
    for base, value, c in thick:
        F, tau = metamorphic._row(base, value, c, literal_maximal_bisieve)
        assert not any(v.locally_thin() for v in F.ob.values())
        assert _same_as_the_search(tau.sieves_on(c)[0], F)


@given(st.sampled_from(("locally-discrete-site", "tiny-2site")),
       st.integers(min_value=0, max_value=999))
@settings(max_examples=150, deadline=None)
def test_covering_sieves_of_subcanonical_sites_are_sigma_bicolimits(
        profile, seed):
    """The paper's main theorem on generated sites: every covering sieve
    of a subcanonical bitopology presents its target as the
    sigma-bicolimit of its elements, decided in full, also on a sieve that
    contains the identity."""
    tau = load_data(generate(seed, profile)).bitopologies["tau"]
    assume(is_subcanonical(tau.k, tau, Budget()).ok)
    for c in sorted(tau.k.objects):
        for s in tau.sieves_on(c):
            r = verify_sigma_bicolim(*universal_cocone(s), Budget())
            assert r.ok, (c, r.details, r.witness)
