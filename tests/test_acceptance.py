"""Acceptance gate: one test (one pass/fail line) per criterion.

The corpus used throughout is: the bundled walking-arrow document, the
first six seeded tiny 2-sites, the split-idempotent site, and the
one-object site with an order-two cell.
"""

import time
from itertools import product

import pytest

from bistack.bicat3 import (check_perturbation, check_tritransformation,
                            check_trimodification, representable_trihom,
                            yoneda_pert, yoneda_trimod, yoneda_tritrans)
from bistack.builders import strict_ps_functor
from bistack.descent import (check_descent_datum_mor,
                             check_matching_family, check_weak_descent_datum,
                             descent_datum_from_morphism, find_amalgamations,
                             find_effective_gluing_mor,
                             find_weak_effective_gluing, is_2stack,
                             is_2stack_direct, is_stack_catvalued,
                             is_subcanonical, matching_family_from_cell,
                             weak_datum_from_object)
from bistack.fincat import Functor, all_functors, discrete, walking_arrow
from bistack.generate import _random_poset_cat, generate
from bistack.report import Budget
from bistack.runner import replay, run_all, run_check, strip_timing
from bistack.sieves import (Bitopology, build_bisieve, factor_groth_morphism,
                            groth, maximal_bisieve, pullback_sieve,
                            sieve_equivalence)
from bistack.sigma_colim import is_sigma_bicolim_bisieve
from bistack.two_cat import (check_bi_iso_comma, check_two_category,
                             find_iso_comma, from_fincat, iso_comma_in_cat)
from bistack.workspace import corpus_path, load, load_data

from test_bicat3 import one_object_z2
from test_descent import (brute_force_sheaf, collapse_objects_trihom,
                          collapse_twocells_trihom, unreachable_object_trihom)
from test_two_cat import cospan_with_pullback, split_idempotent_2cat


# --- corpus -------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus_docs():
    docs = [load(corpus_path("walking_arrow.site"))]
    for seed in range(6):
        docs.append(load_data(generate(seed, "tiny-2site")))
    return docs


def _handcrafted_sieves():
    ksplit = split_idempotent_2cat()
    wa = from_fincat(walking_arrow())
    return [
        build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}}),
        build_bisieve(ksplit, "A", {"A": {"id_A", "e"}, "B": {"v"}}),
        maximal_bisieve(ksplit, "B"),
        build_bisieve(wa, "1", {"0": {"a"}}),
        maximal_bisieve(wa, "1"),
        maximal_bisieve(from_fincat(walking_arrow()), "0"),
    ]


@pytest.fixture(scope="module")
def corpus_bisieves(corpus_docs):
    out = list(_handcrafted_sieves())
    for doc in corpus_docs:
        out.extend(doc.bisieves[n] for n in sorted(doc.bisieves))
    return out


def _corpus_trihom_sites():
    ksplit = split_idempotent_2cat()
    wa = from_fincat(walking_arrow())
    return [
        (representable_trihom(ksplit, "A"),
         build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}})),
        (representable_trihom(ksplit, "A"),
         build_bisieve(ksplit, "A", {"A": {"id_A", "e"}, "B": {"v"}})),
        (representable_trihom(wa, "1"),
         build_bisieve(wa, "1", {"0": {"a"}})),
        (representable_trihom(wa, "1"), maximal_bisieve(wa, "1")),
    ]


def _discrete_cat_presheaf(trihom):
    """The Cat-valued presheaf underlying a discrete-valued homomorphism."""
    k = trihom.base
    obs = {c: discrete(tuple(trihom.ob[c].objects)) for c in k.objects}
    on1 = {}
    for f, (d, c) in k.onecells.items():
        obmap = dict(trihom.on1[f].ob)
        on1[f] = Functor(obs[c], obs[d], obmap,
                         {obs[c].id(x): obs[d].id(obmap[x]) for x in obmap})
    return strict_ps_functor(k, obs, on1)


def _sheaf_data(doc):
    """Site, covers and set-valued presheaf tables of a locally discrete
    document, for the independent brute-force sheaf oracle."""
    F = doc.trihoms["F1"]
    k = F.base
    objs = list(k.objects)
    src = {f: st[0] for f, st in k.onecells.items()}
    tgt = {f: st[1] for f, st in k.onecells.items()}
    identity = {c: k.id1(c) for c in objs}
    comp = dict(k.hcomp1)
    from bistack.fincat import FinCat
    site = FinCat(objs, src, tgt, identity, comp)
    tau = doc.bitopologies["tau"]
    covers = {c: [set(f for _, f in s.all_members())
                  for s in tau.sieves_on(c)] for c in objs}
    psh_ob = {c: list(F.ob[c].objects) for c in objs}
    psh_mor = {f: dict(F.on1[f].ob) for f in k.onecells}
    return site, covers, psh_ob, psh_mor


# --- criteria -----------------------------------------------------------------

def test_criterion_1_classical_degeneration():
    """>= 20 locally discrete sites: both stack checkers agree with the
    brute-force set-valued sheaf oracle, in under a minute."""
    t0 = time.monotonic()
    for seed in range(20):
        doc = load_data(generate(seed, "locally-discrete-site"))
        F, tau = doc.trihoms["F1"], doc.bitopologies["tau"]
        sheaf = brute_force_sheaf(*_sheaf_data(doc))
        r2 = is_2stack(F, tau, Budget())
        rc = is_stack_catvalued(_discrete_cat_presheaf(F), tau, Budget())
        want = "pass" if sheaf else "fail"
        assert r2.verdict == want, (seed, r2.verdict, want, r2.details)
        assert rc.verdict == want, (seed, rc.verdict, want, rc.details)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, elapsed
    print("\nCRITERION 1 (classical degeneration, 20 sites, %.1fs): PASS"
          % elapsed)


def test_criterion_2_characterization_cross_check():
    """>= 10 tiny 2-sites plus 3 single-condition mutants: the descent
    checker and the direct transformation-level checker agree."""
    t0 = time.monotonic()
    for seed in range(10):
        doc = load_data(generate(seed, "tiny-2site"))
        F, tau = doc.trihoms["F1"], doc.bitopologies["tau"]
        r1 = is_2stack(F, tau, Budget())
        r2 = is_2stack_direct(F, tau, Budget())
        assert r1.verdict == r2.verdict, (seed, r1.details, r2.details)
    mutants = [(collapse_objects_trihom, "M"),
               (collapse_twocells_trihom, "2C"),
               (unreachable_object_trihom, "O")]
    wa = from_fincat(walking_arrow())
    s = build_bisieve(wa, "1", {"0": {"a"}})
    tau = Bitopology(wa, {"1": [s]})
    for make, condition in mutants:
        _, F = make()
        r1 = is_2stack(F, tau, Budget())
        r2 = is_2stack_direct(F, tau, Budget())
        assert r1.verdict == r2.verdict == "fail"
        assert r1.witness["condition"] == condition, r1.witness
        assert r2.witness["condition"] == condition, r2.witness
    elapsed = time.monotonic() - t0
    assert elapsed < 600, elapsed
    print("\nCRITERION 2 (cross-check, 10 sites + 3 mutants, %.1fs): PASS"
          % elapsed)


def test_criterion_3_subcanonical_sieves_are_colimit_sieves(corpus_docs):
    """Certified subcanonical corpus sites have only colimit-presenting
    covering sieves; a handcrafted non-subcanonical one is refuted."""
    t0 = time.monotonic()
    certified = 0
    for doc in corpus_docs:
        for tau in doc.bitopologies.values():
            if not is_subcanonical(tau.k, tau, Budget()).ok:
                continue
            certified += 1
            for c in tau.k.objects:
                for s in tau.sieves_on(c):
                    assert is_sigma_bicolim_bisieve(s, Budget()).ok, \
                        (c, s.members)
    assert certified >= 1
    # handcrafted refutation: {a} covering the arrow's codomain
    wa = from_fincat(walking_arrow())
    s = build_bisieve(wa, "1", {"0": {"a"}})
    tau = Bitopology(wa, {"1": [s]})
    assert not is_subcanonical(wa, tau, Budget()).ok
    assert is_sigma_bicolim_bisieve(s, Budget()).verdict == "fail"
    elapsed = time.monotonic() - t0
    assert elapsed < 300, elapsed
    print("\nCRITERION 3 (%d certified sites + refutation, %.1fs): PASS"
          % (certified, elapsed))


def test_criterion_4_element_construction_fidelity(corpus_bisieves):
    """Every corpus sieve's 2-category of elements type-checks, has the
    right object count, and its morphisms split and recompose."""
    for s in corpus_bisieves:
        gt = groth(s)
        assert check_two_category(gt.two_cat).ok
        want = sum(len(ms) for ms in s.members.values())
        assert len(gt.two_cat.objects) == want
        for m in gt.two_cat.onecells:
            later, earlier = factor_groth_morphism(gt, m)
            assert gt.two_cat.c1(later, earlier) == m, (m, later, earlier)
    print("\nCRITERION 4 (element construction, %d sieves): PASS"
          % len(corpus_bisieves))


def test_criterion_5_pullback_matches_exhaustive_scan(corpus_bisieves):
    """pullback_sieve membership equals the all-g all-invertible-2-cells
    scan, and pulling back along an identity changes nothing."""
    for s in corpus_bisieves:
        k = s.k
        for f, (d, c) in k.onecells.items():
            if c != s.target:
                continue
            p = pullback_sieve(s, f)
            scan = {}
            for g, (e, d2) in k.onecells.items():
                if d2 != d:
                    continue
                fg = k.c1(f, g)
                if any(k.invertible_2cell(fg, m) is not None
                       for m in s.members.get(e, ())):
                    scan.setdefault(e, set()).add(g)
            got = {e: set(ms) for e, ms in p.members.items() if ms}
            assert got == scan, (f, got, scan)
        ident = pullback_sieve(s, k.id1(s.target))
        assert sieve_equivalence(ident, s).ok
    print("\nCRITERION 5 (pullback scan, %d sieves): PASS"
          % len(corpus_bisieves))


def _iso_comma_oracle(F, G):
    """Independent triple/square enumeration of the iso-comma category."""
    A, B, C = F.dom, G.dom, F.cod
    objs = [(a, b, j) for a in A.objects for b in B.objects
            for j in C.morphisms
            if C.src[j] == F.o(a) and C.tgt[j] == G.o(b) and C.is_iso(j)]
    n_mor = 0
    for (a, b, j) in objs:
        for (a2, b2, j2) in objs:
            for u in A.hom(a, a2):
                for v in B.hom(b, b2):
                    if C.compose(j2, F.m(u)) == C.compose(G.m(v), j):
                        n_mor += 1
    return len(objs), n_mor


def test_criterion_6_iso_comma_against_triple_enumeration():
    """>= 10 random functor cospans: iso_comma_in_cat agrees with direct
    triple enumeration; found 2-categorical cones pass their checker."""
    import random
    rng = random.Random("iso-comma-cospans")
    cospans = []
    while len(cospans) < 10:
        A = _random_poset_cat(rng, max_objects=3, max_morphisms=8)
        B = _random_poset_cat(rng, max_objects=3, max_morphisms=8)
        C = _random_poset_cat(rng, max_objects=4, max_morphisms=10)
        fs = all_functors(A, C, Budget())
        gs = all_functors(B, C, Budget())
        if fs and gs:
            cospans.append((fs[rng.randrange(len(fs))],
                            gs[rng.randrange(len(gs))]))
    for F, G in cospans:
        cat = iso_comma_in_cat(F, G)
        n_obj, n_mor = _iso_comma_oracle(F, G)
        assert len(cat.objects) == n_obj
        assert len(cat.morphisms) == n_mor
    # 2-categorical cones found in corpus bases pass the universal check
    checked = 0
    for k in (from_fincat(cospan_with_pullback()),
              from_fincat(walking_arrow()), split_idempotent_2cat()):
        for f, (_, cf) in k.onecells.items():
            for g, (_, cg) in k.onecells.items():
                if cf != cg:
                    continue
                cone, report = find_iso_comma(k, f, g)
                if cone is not None:
                    assert check_bi_iso_comma(k, f, g, cone).ok, (f, g)
                    checked += 1
    assert checked >= 10
    print("\nCRITERION 6 (iso-comma, 10 cospans + %d cones): PASS" % checked)


def test_criterion_7_restriction_soundness():
    """Every global 2-cell / morphism / object of every corpus value
    restricts to a valid package whose gluing search succeeds."""
    for F, s in _corpus_trihom_sites():
        target = F.ob[s.target]
        for w0 in sorted(target.twocells):
            mf = matching_family_from_cell(F, s, w0)
            assert check_matching_family(mf).ok
            assert w0 in find_amalgamations(mf)
        for a0 in sorted(target.onecells):
            dd = descent_datum_from_morphism(F, s, a0)
            assert check_descent_datum_mor(dd).ok
            assert find_effective_gluing_mor(dd) is not None
        for x0 in sorted(target.objects):
            wdd = weak_datum_from_object(F, s, x0)
            assert check_weak_descent_datum(wdd).ok
            assert find_weak_effective_gluing(wdd) is not None
    print("\nCRITERION 7 (restriction soundness, %d sites): PASS"
          % len(_corpus_trihom_sites()))


def test_criterion_8_yoneda_action_integrity():
    """Every Yoneda-induced transformation, modification and perturbation
    passes the corresponding axiom checker on the full corpus."""
    bases = [split_idempotent_2cat(), from_fincat(walking_arrow()),
             one_object_z2()]
    n = 0
    for k in bases:
        for c0 in sorted(k.objects):
            F = representable_trihom(k, c0)
            val = F.ob[c0]
            for x0 in sorted(val.objects):
                assert check_tritransformation(
                    yoneda_tritrans(F, c0, x0)).ok, (c0, x0)
                n += 1
            for a0 in sorted(val.onecells):
                assert check_trimodification(
                    yoneda_trimod(F, c0, a0)).ok, (c0, a0)
                n += 1
            for al0 in sorted(val.twocells):
                assert check_perturbation(
                    yoneda_pert(F, c0, al0)).ok, (c0, al0)
                n += 1
    print("\nCRITERION 8 (Yoneda action, %d cells): PASS" % n)


def test_criterion_9_determinism_and_replay():
    """Failing checks replay to the identical witness; reports are
    byte-stable once timing is stripped."""
    import json
    docs = [load_data(generate(seed, "mutant")) for seed in range(3)]
    docs.append(load_data(generate(6, "tiny-2site")))  # a failing 2-stack
    replayed = 0
    for doc in docs:
        for report in run_all(doc):
            again = run_check(doc, report["check"],
                              report["budget_limit"])
            a = json.dumps(strip_timing(report), sort_keys=True)
            b = json.dumps(strip_timing(again), sort_keys=True)
            assert a == b, report["check"]
            if report["verdict"] == "fail":
                same, fresh = replay(report, doc)
                assert same and fresh["witness"] == report["witness"]
                replayed += 1
    assert replayed >= 4
    print("\nCRITERION 9 (replay, %d failing checks): PASS" % replayed)
