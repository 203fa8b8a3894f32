"""Convenience constructors for explicit-table instances.

These only assemble tables; every invariant is still decided by the
check_* procedures, so tests can corrupt the output freely.
"""

from .errors import MalformedTable
from .fincat import FinCat, NatTrans, compose_functors, identity_functor
from .two_cat import Fin2Cat, PsFunctorToCat


def thin_cell(f, g):
    return ("2id_%s" % f) if f == g else ("c[%s>%s]" % (f, g))


def thin_two_cat(objects, onecells, identity1, hcomp1, order_pairs):
    """A locally thin strict 2-category.

    order_pairs lists the pairs (f, g) of parallel 1-cells carrying the
    unique non-identity 2-cell f => g.  The relation must be transitive and
    closed under whiskering, or the tables could not be total.  The tables
    list the cells in the caller's order, so what a checker meets first
    does not depend on the hash seed.
    """
    order = dict.fromkeys(tuple(p) for p in order_pairs)
    for f, g in order:
        if onecells[f] != onecells[g]:
            raise MalformedTable("2-cell between non-parallel %r, %r" % (f, g))

    def cell(f, g):
        if f == g or (f, g) in order:
            return thin_cell(f, g)
        raise MalformedTable("thin closure fails: no cell %r => %r" % (f, g))

    twocells = {thin_cell(f, f): (f, f) for f in onecells}
    for f, g in order:
        twocells[thin_cell(f, g)] = (f, g)
    vcomp = {}
    for b, (g1, h) in twocells.items():
        for a, (f, g2) in twocells.items():
            if g1 == g2:
                vcomp[(b, a)] = cell(f, h)
    hcomp2 = {}
    for b, (g, g2) in twocells.items():
        for a, (f, f2) in twocells.items():
            if onecells[f][1] == onecells[g][0]:
                hcomp2[(b, a)] = cell(hcomp1[(g, f)], hcomp1[(g2, f2)])
    identity2 = {f: thin_cell(f, f) for f in onecells}
    return Fin2Cat(objects, onecells, twocells, identity1, identity2,
                   vcomp, hcomp1, hcomp2)


def suspension_two_cat(hom):
    """Two objects X, Y with hom(X, Y) a given category, no cells back.

    The ids of `hom` must not clash with id_X / id_Y.
    """
    onecells = {"id_X": ("X", "X"), "id_Y": ("Y", "Y")}
    onecells.update({f: ("X", "Y") for f in hom.objects})
    twocells = {"2id_id_X": ("id_X", "id_X"), "2id_id_Y": ("id_Y", "id_Y")}
    twocells.update({m: (hom.src[m], hom.tgt[m]) for m in hom.morphisms})
    identity1 = {"X": "id_X", "Y": "id_Y"}
    identity2 = {"id_X": "2id_id_X", "id_Y": "2id_id_Y"}
    identity2.update({f: hom.identity[f] for f in hom.objects})
    vcomp = {("2id_id_X", "2id_id_X"): "2id_id_X",
             ("2id_id_Y", "2id_id_Y"): "2id_id_Y"}
    vcomp.update(hom.comp)
    hcomp1 = {("id_X", "id_X"): "id_X", ("id_Y", "id_Y"): "id_Y"}
    hcomp1.update({(f, "id_X"): f for f in hom.objects})
    hcomp1.update({("id_Y", f): f for f in hom.objects})
    hcomp2 = {("2id_id_X", "2id_id_X"): "2id_id_X",
              ("2id_id_Y", "2id_id_Y"): "2id_id_Y"}
    hcomp2.update({(m, "2id_id_X"): m for m in hom.morphisms})
    hcomp2.update({("2id_id_Y", m): m for m in hom.morphisms})
    return Fin2Cat(["X", "Y"], onecells, twocells, identity1, identity2,
                   vcomp, hcomp1, hcomp2)


def chain_suspension(n):
    """suspension_two_cat of the chain poset f0 <= ... <= f(n-1), whose
    arrows fi => fj (i <= j) are named ri_j."""
    objs = ["f%d" % i for i in range(n)]
    arrows = {"r%d_%d" % (i, j): (objs[i], objs[j])
              for i in range(n) for j in range(i, n)}
    comp = {("r%d_%d" % (j, m), "r%d_%d" % (i, j)): "r%d_%d" % (i, m)
            for i in range(n) for j in range(i, n) for m in range(j, n)}
    hom = FinCat(objs, {a: s for a, (s, _) in arrows.items()},
                 {a: t for a, (_, t) in arrows.items()},
                 {o: "r%d_%d" % (i, i) for i, o in enumerate(objs)}, comp)
    return suspension_two_cat(hom)


def identity_nat(F):
    return NatTrans(F, F, {x: F.cod.id(F.o(x)) for x in F.dom.objects})


def strict_ps_functor(base, ob, on1, on2=None):
    """Assemble a PsFunctorToCat with identity compositors and unitors.

    on1 must already be strictly functorial against base composition.
    on2 defaults to identity cells only (fine for locally discrete bases).
    """
    on2 = dict(on2 or {})
    for f in base.onecells:
        x = base.id2(f)
        if x not in on2:
            on2[x] = identity_nat(on1[f])
    compositor = {}
    for f, (d, c) in base.onecells.items():
        for g in base.onecells:
            if base.tgt1(g) != d:
                continue
            gf = compose_functors(on1[g], on1[f])
            if gf != on1[base.c1(f, g)]:
                raise MalformedTable(
                    "values not strictly functorial at (%r, %r)" % (f, g))
            compositor[(f, g)] = identity_nat(gf)
    for c in base.objects:
        if on1[base.id1(c)] != identity_functor(ob[c]):
            raise MalformedTable("value at id_%r is not the identity" % c)
    unitor = {c: identity_nat(identity_functor(ob[c])) for c in base.objects}
    return PsFunctorToCat(base, ob, on1, on2, compositor, unitor)
