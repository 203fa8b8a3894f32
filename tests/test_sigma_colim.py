from itertools import product

import pytest

from bistack.builders import thin_two_cat
from bistack.fincat import FinCat, discrete, walking_arrow
from bistack.sieves import (build_bisieve, groth, inclusion_transformation,
                            maximal_bisieve)
from bistack.sigma_colim import (Diagram, SigmaCocone, check_diagram,
                                 check_sigma_cocone, cocone_morphisms,
                                 conicalize, enumerate_sigma_cocones,
                                 is_sigma_bicolim_bisieve,
                                 projection_diagram, sigma_cocone_category,
                                 universal_cocone, verify_coconofstar,
                                 verify_sigma_bicolim, whisker_cocone)
from bistack.two_cat import Fin2Cat, from_fincat

from test_two_cat import split_idempotent_2cat


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


def test_marked_morphisms_filter_noninvertible_structure_cells():
    # two parallel 1-cells with a single one-way 2-cell f => g
    k = thin_two_cat(
        ["A", "B"],
        {"id_A": ("A", "A"), "id_B": ("B", "B"),
         "f": ("A", "B"), "g": ("A", "B")},
        {"A": "id_A", "B": "id_B"},
        {("id_A", "id_A"): "id_A", ("id_B", "id_B"): "id_B",
         ("f", "id_A"): "f", ("id_B", "f"): "f",
         ("g", "id_A"): "g", ("id_B", "g"): "g"},
        [("f", "g")])
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
        cert = verify_sigma_bicolim(apex, d, mu)
        assert cert.ok is expect, (apex, cert.details, cert.witness)


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
    cert = verify_sigma_bicolim("1", d, mu)
    rep = cert.report()
    assert rep.name == "verify_sigma_bicolim"
    assert rep.verdict == "pass"
    assert set(rep.witness["per_object"]) == {"0", "1"}
    assert all(v == "pass" for v in rep.witness["per_object"].values())
