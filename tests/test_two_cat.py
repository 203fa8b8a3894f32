import pytest

from bistack.builders import (strict_ps_functor, suspension_two_cat,
                              thin_two_cat)
from bistack.errors import MalformedTable
from bistack.fincat import (FinCat, Functor, check_functor, check_nat,
                            compose_functors, discrete, identity_functor,
                            walking_arrow)
from bistack.report import failed
from bistack.two_cat import (Fin2Cat, IsoCommaCone, PsNatTrans,
                             CatModification, check_bi_iso_comma, check_modification,
                             check_ps_nat, check_two_category,
                             find_iso_comma, from_fincat, iso_comma_in_cat)
from bistack.fincat import NatTrans

import typing_oracles


# --- typed oracles of the display checks --------------------------------------

def typed_check_ps_nat(t, budget=None):
    """``check_ps_nat`` after typing the components and structure cells,
    which ``descent_category``'s candidates have by construction; the
    typing spends no steps."""
    F, G = t.dom, t.cod
    k = F.base
    for c in k.objects:
        fun = t.comp.get(c)
        if fun is None or fun.dom != F.ob[c] or fun.cod != G.ob[c] \
                or typing_oracles.functor(fun) or not check_functor(fun).ok:
            return failed("check_ps_nat", ["bad component at %r" % c],
                          {"object": c})
    for f, (d, c) in k.onecells.items():
        cell = t.cells.get(f)
        if cell is None \
                or cell.dom != compose_functors(t.comp[d], F.on1[f]) \
                or cell.cod != compose_functors(G.on1[f], t.comp[c]) \
                or typing_oracles.nat_trans(cell) \
                or not check_nat(cell).ok \
                or not all(G.ob[d].is_iso(m) for m in cell.comp.values()):
            return failed("check_ps_nat", ["bad structure cell at %r" % f],
                          {"onecell": f})
    return check_ps_nat(t, budget)


def typed_check_modification(m, budget=None):
    """``check_modification`` after typing the components, which
    ``descent_category``'s candidates have by construction; the typing
    spends no steps."""
    t, s = m.dom, m.cod
    for c in t.dom.base.objects:
        nt = m.comp.get(c)
        if nt is None or nt.dom != t.comp[c] or nt.cod != s.comp[c] \
                or typing_oracles.nat_trans(nt) or not check_nat(nt).ok:
            return failed("check_modification", ["bad component at %r" % c],
                          {"object": c})
    return check_modification(m, budget)


def split_idempotent_2cat():
    """Objects A, B; u: A -> B an equivalence that is not an isomorphism:
    u.v = id_B but v.u = e with an invertible 2-cell id_A => e."""
    onecells = {"id_A": ("A", "A"), "id_B": ("B", "B"),
                "u": ("A", "B"), "v": ("B", "A"), "e": ("A", "A")}
    hcomp1 = {}
    # composition: e is idempotent, absorbed by u and v
    table = {("id_A", "id_A"): "id_A", ("id_B", "id_B"): "id_B",
             ("u", "id_A"): "u", ("id_B", "u"): "u",
             ("v", "id_B"): "v", ("id_A", "v"): "v",
             ("e", "id_A"): "e", ("id_A", "e"): "e",
             ("v", "u"): "e", ("u", "v"): "id_B",
             ("e", "e"): "e", ("u", "e"): "u", ("e", "v"): "v"}
    hcomp1.update(table)
    return thin_two_cat(["A", "B"], onecells,
                        {"A": "id_A", "B": "id_B"}, hcomp1,
                        [("id_A", "e"), ("e", "id_A")])


def test_locally_discrete_is_a_two_category():
    k = from_fincat(walking_arrow())
    assert check_two_category(k).ok


def test_split_idempotent_2cat_valid():
    assert check_two_category(split_idempotent_2cat()).ok


def test_thin_builder_rejects_unclosed_relation():
    onecells = {"id_A": ("A", "A"), "e": ("A", "A"), "f": ("A", "A")}
    hcomp1 = {("id_A", "id_A"): "id_A", ("e", "id_A"): "e",
              ("id_A", "e"): "e", ("f", "id_A"): "f", ("id_A", "f"): "f",
              ("e", "e"): "e", ("f", "f"): "f", ("e", "f"): "e",
              ("f", "e"): "e"}
    with pytest.raises(MalformedTable):
        # whiskering e => id_A with f needs a cell e.f => id_A.f, i.e.
        # e => f, which is not in the relation
        thin_two_cat(["A"], onecells, {"A": "id_A"}, hcomp1, [("e", "id_A")])


def test_check_two_category_flags_corrupt_vertical_table():
    k = split_idempotent_2cat()
    bad_v = dict(k.vcomp)
    bad_v[("c[id_A>e]", "c[e>id_A]")] = "c[e>id_A]"
    bad = Fin2Cat(k.objects, k.onecells, k.twocells, k.identity1,
                  k.identity2, bad_v, k.hcomp1, k.hcomp2)
    assert not check_two_category(bad).ok


def test_check_two_category_flags_corrupt_whiskering():
    k = split_idempotent_2cat()
    bad_h = dict(k.hcomp2)
    # u * (id_A => e) should be 2id_u; retype it to a wrong identity
    bad_h[("2id_u", "c[id_A>e]")] = "2id_e"
    bad = Fin2Cat(k.objects, k.onecells, k.twocells, k.identity1,
                  k.identity2, k.vcomp, k.hcomp1, bad_h)
    assert not check_two_category(bad).ok


def test_equivalence_data_finds_non_invertible_equivalence():
    k = split_idempotent_2cat()
    got = k.equivalence_data("u")
    assert got is not None
    g, unit, counit = got
    assert g == "v"
    assert k.invertible2(unit) and k.invertible2(counit)
    # e is equivalent to id_A but u is not an isomorphism-like 1-cell
    assert k.equivalent_objects("A", "B")


def cospan_with_pullback():
    """A commuting square P -> A, B -> C, as a 1-category."""
    objs = ["P", "A", "B", "C"]
    mors = {"p": ("P", "A"), "q": ("P", "B"), "f": ("A", "C"),
            "g": ("B", "C"), "d": ("P", "C")}
    src = {m: s for m, (s, t) in mors.items()}
    tgt = {m: t for m, (s, t) in mors.items()}
    for o in objs:
        src["id_%s" % o] = tgt["id_%s" % o] = o
    identity = {o: "id_%s" % o for o in objs}
    comp = {}
    for m in src:
        comp[(m, identity[src[m]])] = m
        comp[(identity[tgt[m]], m)] = m
    comp[("f", "p")] = "d"
    comp[("g", "q")] = "d"
    return FinCat(objs, src, tgt, identity, comp)


def test_find_iso_comma_in_locally_discrete_base_is_pullback():
    k = from_fincat(cospan_with_pullback())
    cone, report = find_iso_comma(k, "f", "g")
    assert report.ok
    assert cone.apex == "P" and cone.p == "p" and cone.q == "q"
    assert check_bi_iso_comma(k, "f", "g", cone).ok


def test_iso_comma_of_mono_cospan_is_trivial():
    # a is (vacuously) mono in the walking arrow: the iso-comma of (a, a)
    # is the domain with identity legs
    k = from_fincat(walking_arrow())
    cone, report = find_iso_comma(k, "a", "a")
    assert report.ok and cone.apex == "0"


def test_find_iso_comma_reports_absence():
    # bare cospan A -> C <- B with no object mapping to both legs
    objs = ["A", "B", "C"]
    src = {"f": "A", "g": "B"}
    tgt = {"f": "C", "g": "C"}
    for o in objs:
        src["id_%s" % o] = tgt["id_%s" % o] = o
    identity = {o: "id_%s" % o for o in objs}
    comp = {}
    for m in src:
        comp[(m, identity[src[m]])] = m
        comp[(identity[tgt[m]], m)] = m
    k = from_fincat(FinCat(objs, src, tgt, identity, comp))
    cone, report = find_iso_comma(k, "f", "g")
    assert cone is None and report.verdict == "fail"


def _thin_over_cospan(objects, cells, composites, order):
    """builders.thin_two_cat over the cospan f: A -> C <- B: g with f.p =
    g.q = r at P, plus the given 1-cells and composites, and an identity
    1-cell id_x at each object, a unit on both sides."""
    onecells = {"f": ("A", "C"), "g": ("B", "C"), "p": ("P", "A"),
                "q": ("P", "B"), "r": ("P", "C")}
    onecells.update(cells)
    onecells.update({"id_" + x: (x, x) for x in objects})
    hcomp1 = {("f", "p"): "r", ("g", "q"): "r"}
    hcomp1.update(composites)
    for f, (a, b) in onecells.items():
        hcomp1[(f, "id_" + a)] = hcomp1[("id_" + b, f)] = f
    return thin_two_cat(objects, onecells, {x: "id_" + x for x in objects},
                        hcomp1, order)


def _unfilled_cospan():
    """Two 1-cells u, u2: W -> P whose legs are related, p.u <= p.u2 and
    q.u <= q.u2, while u and u2 are not: every cone over (f, g) factors
    uniquely through P, but the compatible pair at (u, u2) has no
    filler."""
    cells, composites = {}, {}
    for u in ("u", "u2"):
        cells[u] = ("W", "P")
        for leg, (f, end) in (("p", ("f", "A")), ("q", ("g", "B")),
                              ("r", (None, "C"))):
            cells[leg + u] = ("W", end)
            composites[(leg, u)] = leg + u
            if f is not None:
                composites[(f, leg + u)] = "r" + u
    return _thin_over_cospan(["A", "B", "C", "P", "W"], cells, composites,
                             [("pu", "pu2"), ("qu", "qu2"), ("ru", "ru2")])


def test_iso_comma_fails_the_two_dimensional_property():
    k = _unfilled_cospan()
    assert check_two_category(k).ok
    cone = IsoCommaCone("P", "p", "q", "2id_r")
    r = check_bi_iso_comma(k, "f", "g", cone)
    assert (r.verdict, r.details, r.witness) == (
        "fail", ["compatible pair ('c[pu>pu2]', 'c[qu>qu2]') has 0 fillers"],
        {"pair": ["c[pu>pu2]", "c[qu>qu2]"], "fillers": []})
    cone, report = find_iso_comma(k, "f", "g")
    assert cone is None and report.verdict == "fail"
    # a cone whose theta is not an invertible filler is refused first
    r = check_bi_iso_comma(k, "f", "g", IsoCommaCone("W", "pu", "qu2",
                                                     "c[ru>ru2]"))
    assert (r.verdict, r.witness) == ("fail", {"theta": "c[ru>ru2]"})


def test_find_iso_comma_notes_an_equivalent_apex():
    """Q, an isomorphic copy of P (e: Q -> P, e2: P -> Q), is a second
    apex: the first in object order is chosen and the other noted."""
    cells = {"e": ("Q", "P"), "e2": ("P", "Q"), "pe": ("Q", "A"),
             "qe": ("Q", "B"), "re": ("Q", "C")}
    composites = {("e", "e2"): "id_P", ("e2", "e"): "id_Q",
                  ("f", "pe"): "re", ("g", "qe"): "re"}
    for leg in ("p", "q", "r"):
        composites[(leg, "e")] = leg + "e"
        composites[(leg + "e", "e2")] = leg
    k = _thin_over_cospan(["A", "B", "C", "P", "Q"], cells, composites, [])
    assert check_two_category(k).ok
    cone, report = find_iso_comma(k, "f", "g")
    assert (cone.apex, cone.p, cone.q) == ("P", "p", "q")
    assert report.details == ["selected apex 'P'",
                              "equivalent alternatives exist: ['Q']"]
    assert report.witness == {"alternatives": ["Q"]}


def test_iso_comma_skips_pairs_not_compatible_with_theta():
    """Over the identity cospan of Y in a suspension whose hom(X, Y) is a
    parallel pair al, be: x -> y, the pair (al, be) at (x, y) is not
    compatible and is skipped; (al, al) and (be, be) have one filler
    each."""
    pair = FinCat(["x", "y"], {"ix": "x", "iy": "y", "al": "x", "be": "x"},
                  {"ix": "x", "iy": "y", "al": "y", "be": "y"},
                  {"x": "ix", "y": "iy"},
                  {("ix", "ix"): "ix", ("iy", "iy"): "iy",
                   ("al", "ix"): "al", ("iy", "al"): "al",
                   ("be", "ix"): "be", ("iy", "be"): "be"})
    k = suspension_two_cat(pair)
    assert check_two_category(k).ok
    cone = IsoCommaCone("Y", "id_Y", "id_Y", "2id_id_Y")
    assert check_bi_iso_comma(k, "id_Y", "id_Y", cone).ok


def test_iso_comma_in_cat_point_against_triple_count():
    A, B = discrete(["a"]), discrete(["b"])
    # C: x ~ y via u, v
    C = FinCat(["x", "y"],
               {"id_x": "x", "id_y": "y", "u": "x", "v": "y"},
               {"id_x": "x", "id_y": "y", "u": "y", "v": "x"},
               {"x": "id_x", "y": "id_y"},
               {("id_x", "id_x"): "id_x", ("id_y", "id_y"): "id_y",
                ("u", "id_x"): "u", ("id_y", "u"): "u",
                ("v", "id_y"): "v", ("id_x", "v"): "v",
                ("v", "u"): "id_x", ("u", "v"): "id_y"})
    F = Functor(A, C, {"a": "x"}, {"id_a": "id_x"})
    G = Functor(B, C, {"b": "y"}, {"id_b": "id_y"})
    cat = iso_comma_in_cat(F, G)
    # oracle: isos x -> y are exactly {u}; one object, one (identity) morphism
    assert len(cat.objects) == 1
    assert len(cat.morphisms) == 1


def presheaf_on_walking_arrow():
    """F(1) = walking arrow, F(0) = point, restriction collapses."""
    k = from_fincat(walking_arrow())
    pt = discrete(["p"])
    wa = walking_arrow()
    coll = Functor(wa, pt, {"0": "p", "1": "p"},
                   {m: "id_p" for m in wa.morphisms})
    on1 = {"id_0": identity_functor(pt), "id_1": identity_functor(wa),
           "a": coll}
    return strict_ps_functor(k, {"0": pt, "1": wa}, on1)


def test_ps_nat_and_modification_roundtrip():
    F = presheaf_on_walking_arrow()
    # identity transformation and identity modification
    from bistack.builders import identity_nat
    comp = {c: identity_functor(F.ob[c]) for c in F.base.objects}
    from bistack.fincat import compose_functors
    cells = {f: identity_nat(compose_functors(identity_functor(F.ob[d]),
                                              F.on1[f]))
             for f, (d, c) in F.base.onecells.items()}
    t = PsNatTrans(F, F, comp, cells)
    assert typed_check_ps_nat(t).ok
    m = CatModification(t, t, {c: identity_nat(comp[c])
                               for c in F.base.objects})
    assert typed_check_modification(m).ok
    # corrupt a structure cell: swap a component for a non-commuting one
    wa = F.ob["1"]
    bad_cells = dict(cells)
    bad_cells["id_1"] = NatTrans(cells["id_1"].dom, cells["id_1"].cod,
                                 {"0": "id_0", "1": "a"})
    t2 = PsNatTrans(F, F, comp, bad_cells)
    assert not typed_check_ps_nat(t2).ok


def test_cat_level_modification_square_fails():
    """F(0) = B(Z/2), F(1) = point, and a includes the point.  The
    modification of the identity transformation with the order-two
    element g at 0 is natural componentwise, as Z/2 is commutative, but
    its square at a reads g on one side and the identity on the other."""
    k = from_fincat(walking_arrow())
    bz2 = FinCat(["*"], {"e": "*", "g": "*"}, {"e": "*", "g": "*"},
                 {"*": "e"}, {("e", "e"): "e", ("e", "g"): "g",
                              ("g", "e"): "g", ("g", "g"): "e"})
    pt = discrete(["p"])
    ident = {"0": identity_functor(bz2), "1": identity_functor(pt)}
    on1 = {"id_0": ident["0"], "id_1": ident["1"],
           "a": Functor(pt, bz2, {"p": "*"}, {"id_p": "e"})}
    F = strict_ps_functor(k, {"0": bz2, "1": pt}, on1)
    t = PsNatTrans(F, F, ident, {f: NatTrans(on1[f], on1[f], {
        X: F.ob[k.src1(f)].id(on1[f].o(X)) for X in F.ob[k.tgt1(f)].objects})
        for f in k.onecells})
    assert typed_check_ps_nat(t).ok
    m = CatModification(t, t, {"0": NatTrans(ident["0"], ident["0"],
                                             {"*": "g"}),
                               "1": NatTrans(ident["1"], ident["1"],
                                             {"p": "id_p"})})
    r = typed_check_modification(m)
    assert (r.verdict, r.details, r.witness) == (
        "fail", ["modification square fails at ('a', 'p')"],
        {"witness": ["a", "p"]})
