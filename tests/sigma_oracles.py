"""Test oracles of ``sigma_colim``, and the change of base that only the
tests reach.

An equivalence decided over the tabulated category is the oracle of
``fincat.is_equivalence`` over an ``Enumerated`` one, which builds only
the hom-sets that it reads: ``tabulated`` builds every hom-set and names
each arrow as ``Enumerated.arrow_name`` does, and
``tabulated_is_equivalence`` decides the same functor over it.  In place
of ``is_equivalence``, it is the oracle of both the sigma-bicolimit
comparison (``sigma_colim``) and the Cat-valued stack condition
(``descent.is_stack_catvalued``).  ``sigma_cocone_category`` is the
tabulated category of cocones on a test object.

``enumerate_sigma_cocones`` draws each cocone typed, and it and
``check_sigma_cocone`` test its displays alone.  ``sigma_cocone_typing``
asks what they do not: is a cocone well typed, with identities at the
identity 1-cells?  ``typed_sigma_cocones`` is the enumeration that types
every drawn cocone before ``check_sigma_cocone`` tests it.

Change of base (``verify_coconofstar``): the domain of a morphism into the
target of a sieve is the sigma-bicolimit of the iso-comma diagram over the
sieve's 2-category of elements.  ``conicalize`` turns a weighted cocone
into a sigma-cocone, and ``check_diagram`` checks a strict 2-functor.
"""

from bistack.errors import BoundaryMismatch
from bistack.fincat import Functor, check_functor, is_equivalence, tabulate
from bistack.report import Budget, choices, failed, passed
from bistack.sieves import groth
from bistack.sigma_colim import Diagram, SigmaCocone, _complete_cells, \
    check_sigma_cocone, cocone_category, enumerate_sigma_cocones, \
    projection_diagram, verify_sigma_bicolim
from bistack.two_cat import find_iso_comma

import typing_oracles


def tabulated(cat):
    """The ``Enumerated`` category cat tabulated: every hom-set built, in
    the order of the objects, the later varying fastest, and each arrow
    named by its number across them.  The FinCat and its arrow index
    {(src, tgt, value): name}."""
    arrows = {}
    for a in cat.objects:
        for b in cat.objects:
            for g in cat.hom(a, b):
                arrows["%s%d" % (cat.arrow_prefix, len(arrows))] = (a, b, g)
    return tabulate(cat.value, arrows, cat.unit, cat.composite)


def tabulated_is_equivalence(F, budget=None):
    """``fincat.is_equivalence`` over F's codomain tabulated, once F maps
    into it a functor (``typing_oracles.functor`` and ``check_functor``):
    every arrow that F names is one of the codomain's."""
    cat, index = tabulated(F.cod)
    c = F.dom
    fun = Functor(c, cat, F.ob, {f: index[(F.o(c.src[f]), F.o(c.tgt[f]), g)]
                                 for f, g in F.mor.items()})
    assert typing_oracles.functor(fun) is None and check_functor(fun).ok
    return is_equivalence(fun, budget)


def sigma_cocone_category(d, u, budget=None):
    """The category of sigma-bicocones on u and their modifications,
    tabulated, the name of each cocone, and the arrow index."""
    cat = cocone_category(d, u, budget)
    tab, index = tabulated(cat)
    return tab, {cc: a for a, cc in cat.value.items()}, index


# --- drawn cocones -----------------------------------------------------------

def sigma_cocone_typing(d, cc):
    """None when each leg of cc is a 1-cell F(s) -> apex, each structure
    cell at m: s -> t a 2-cell legs[s] => legs[t].F(m), and the cell at
    each identity 1-cell the identity on its leg; otherwise a failed report
    that names the first that is not."""
    k, sh = d.k, d.shape
    legs, cells = dict(cc.legs), dict(cc.cells)
    for s in sorted(sh.objects):
        if k.onecells.get(legs.get(s)) != (d.ob[s], cc.apex):
            return failed("sigma_cocone_typing", ["bad leg at %r" % s],
                          {"object": s})
    for m, (s, t) in sorted(sh.onecells.items()):
        want = (legs[s], k.c1(legs[t], d.on1[m]))
        if k.twocells.get(cells.get(m)) != want or (
                m == sh.id1(s) and cells[m] != k.id2(legs[s])):
            return failed("sigma_cocone_typing",
                          ["bad structure 2-cell at %r" % m], {"onecell": m})
    return None


def typed_sigma_cocones(d, u, budget=None):
    """The cocones of ``enumerate_sigma_cocones``, drawn in its order, each
    typed (``sigma_cocone_typing``) and then run through
    ``check_sigma_cocone``."""
    budget = budget or Budget()
    k, sh = d.k, d.shape
    sobs = sorted(sh.objects)

    def structure_cells(legs):
        for m in d.free:
            s, t = sh.onecells[m]
            cand = k.two_cells_between(legs[s], k.c1(legs[t], d.on1[m]))
            if m in d.marked:
                cand = tuple(c for c in cand if k.invertible2(c))
            yield m, cand

    out = []
    legs_pools = ((s, k.one_cells_between(d.ob[s], u)) for s in sobs)
    for (legs,) in choices(budget, legs_pools):
        for (cells,) in choices(budget, structure_cells(legs)):
            for s in sobs:
                cells[sh.id1(s)] = k.id2(legs[s])
            _complete_cells(d, cells)
            cc = SigmaCocone.make(u, legs, cells)
            if sigma_cocone_typing(d, cc) is None \
                    and check_sigma_cocone(d, cc, budget).ok:
                out.append(cc)
    return sorted(out, key=lambda c: (c.legs, c.cells))


# --- change of base along a morphism into the target -------------------------

def check_diagram(d, budget=None):
    budget = budget or Budget()
    sh, k = d.shape, d.k
    for s in sh.objects:
        if d.ob.get(s) not in k.objects:
            return failed("check_diagram", ["bad object image at %r" % s],
                          {"object": s})
    for m, (s, t) in sh.onecells.items():
        g = d.on1.get(m)
        if g is None or k.onecells.get(g) != (d.ob[s], d.ob[t]):
            return failed("check_diagram", ["bad 1-cell image at %r" % m],
                          {"onecell": m})
    for x, (m, m2) in sh.twocells.items():
        g = d.on2.get(x)
        if g is None or k.twocells.get(g) != (d.on1[m], d.on1[m2]):
            return failed("check_diagram", ["bad 2-cell image at %r" % x],
                          {"twocell": x})
    for s in sh.objects:
        if d.on1[sh.id1(s)] != k.id1(d.ob[s]):
            return failed("check_diagram", ["identity 1-cell not preserved "
                                            "at %r" % s], {"object": s})
    for (b, a), c in sh.hcomp1.items():
        budget.tick()
        if d.on1[c] != k.c1(d.on1[b], d.on1[a]):
            return failed("check_diagram",
                          ["composition not preserved at (%r, %r)" % (b, a)],
                          {"pair": [b, a]})
    for m in sh.onecells:
        if d.on2[sh.id2(m)] != k.id2(d.on1[m]):
            return failed("check_diagram", ["identity 2-cell not preserved "
                                            "at %r" % m], {"onecell": m})
    for (b, a), c in sh.vcomp.items():
        budget.tick()
        if d.on2[c] != k.v(d.on2[b], d.on2[a]):
            return failed("check_diagram",
                          ["vertical composition not preserved at (%r, %r)"
                           % (b, a)], {"pair": [b, a]})
    for (b, a), c in sh.hcomp2.items():
        budget.tick()
        if d.on2[c] != k.h(d.on2[b], d.on2[a]):
            return failed("check_diagram",
                          ["horizontal composition not preserved at "
                           "(%r, %r)" % (b, a)], {"pair": [b, a]})
    return passed("check_diagram")


def conicalize(s, gt, w, apex=None):
    """Turn a transformation from the sieve presheaf into a representable
    (a weighted cocone) into a sigma-cocone over the element 2-category."""
    k = s.k
    d = projection_diagram(gt)
    legs, cells = {}, {}
    for name, (dd, f) in gt.ob_of.items():
        legs[name] = w.comp[dd].o(f)
    for name, (g, alpha) in gt.one_of.items():
        src_name, tgt_name = gt.two_cat.onecells[name]
        e, h = gt.ob_of[src_name]
        dd, f = gt.ob_of[tgt_name]
        cells[name] = k.v(w.cells[g].at(f), w.comp[e].m(alpha))
    if apex is None:
        apex = k.tgt1(next(iter(legs.values())))
    return d, SigmaCocone.make(apex, legs, cells)


def _induced_1cell(k, cone, v, w, filler):
    """1-cells u into the cone apex with p.u = v, q.u = w and theta.u equal
    to the given filler (strict iso-comma factorizations)."""
    out = []
    for u in k.one_cells_between(k.src1(v), cone.apex):
        if k.c1(cone.p, u) == v and k.c1(cone.q, u) == w \
                and k.wr(cone.theta, u) == filler:
            out.append(u)
    return out


def coconofstar_diagram(s, f, budget=None):
    """The iso-comma diagram of Prop-style change of base, plus its cocone.

    Returns (diagram, cocone, report); diagram/cocone are None when some
    iso-comma or induced cell is missing or ambiguous.
    """
    budget = budget or Budget()
    k = s.k
    x, y = k.onecells[f]
    if y != s.target:
        raise BoundaryMismatch("%r does not land in %r" % (f, s.target))
    gt = groth(s)
    sh = gt.two_cat
    cones = {}
    for name, (dd, h) in gt.ob_of.items():
        cone, rep = find_iso_comma(k, f, h, budget)
        if cone is None:
            return None, None, failed(
                "verify_coconofstar",
                ["iso-comma missing for member %r" % h],
                {"member": h, "reason": "IsoCommaMissing"})
        cones[name] = cone
    ob = {name: cones[name].apex for name in sh.objects}
    on1 = {}
    for name, (g, alpha) in gt.one_of.items():
        src_name, tgt_name = sh.onecells[name]
        e, h = gt.ob_of[src_name]
        dd, l = gt.ob_of[tgt_name]
        t = s.tilde[(l, g)]
        mid_name = "(%s|%s)" % (e, t)
        ch, ct, cl = cones[src_name], cones[mid_name], cones[tgt_name]
        # first factor: induced by the 2-cell component alpha
        filler1 = k.v(k.wr(alpha, ch.q), ch.theta)
        us1 = _induced_1cell(k, ct, ch.p, ch.q, filler1)
        # second factor: induced by the restriction witness
        filler2 = k.v(k.wr(s.sigma[(l, g)], ct.q), ct.theta)
        us2 = _induced_1cell(k, cl, ct.p, k.c1(g, ct.q), filler2)
        if len(us1) != 1 or len(us2) != 1:
            return None, None, failed(
                "verify_coconofstar",
                ["induced morphism for %r missing or ambiguous (%d, %d "
                 "candidates)" % (name, len(us1), len(us2))],
                {"onecell": name, "candidates": [us1, us2]})
        on1[name] = k.c1(us2[0], us1[0])
    on2 = {}
    for name2, (m1, m2) in sh.twocells.items():
        delta = gt.two_of[name2]
        src_name, tgt_name = sh.onecells[m1]
        cl = cones[tgt_name]
        ch = cones[src_name]
        nu = k.wr(delta, ch.q)
        gammas = [
            gam for gam in k.two_cells_between(on1[m1], on1[m2])
            if k.wl(cl.p, gam) == k.id2(k.c1(cl.p, on1[m1]))
            and k.wl(cl.q, gam) == nu
        ]
        budget.tick()
        if len(gammas) != 1:
            return None, None, failed(
                "verify_coconofstar",
                ["induced 2-cell for %r missing or ambiguous (%d candidates)"
                 % (name2, len(gammas))],
                {"twocell": name2, "candidates": gammas})
        on2[name2] = gammas[0]
    marked = [name for name, (g, a) in gt.one_of.items() if k.invertible2(a)]
    d = Diagram(sh, k, ob, on1, on2, marked)
    legs = {name: cones[name].p for name in sh.objects}
    cells = {m: k.id2(legs[sh.onecells[m][0]]) for m in sh.onecells}
    mu = SigmaCocone.make(x, legs, cells)
    return d, mu, passed("coconofstar_diagram")


def verify_coconofstar(s, f, budget=None):
    """Change of base: the domain of f is the sigma-bicolimit of the
    iso-comma diagram over the sieve's 2-category of elements."""
    budget = budget or Budget()
    d, mu, rep = coconofstar_diagram(s, f, budget)
    if d is None:
        return rep
    rd = check_diagram(d, budget)
    if not rd.ok:
        rd.details.insert(0, "induced diagram is not a 2-functor")
        return rd
    return verify_sigma_bicolim(d, mu, budget)
