"""Typing oracles for the structures whose checkers test displays alone.

The enumerators of ``descent`` draw every candidate from typed pools, so
the checkers of matching families, descent data on morphisms, weak
descent data, pseudofunctors, transformations, modifications,
tritransformations, trimodifications and perturbations take a well-typed
candidate and test only its displays.  So do ``fincat.check_functor`` and
``check_nat``, as ``all_functors`` and ``all_nat_trans`` draw their
candidates typed.  Each function here answers the one question those
checkers do not ask: is this candidate well typed?  It returns None when
it is, and otherwise a failed report that names the first piece missing,
off its boundary or not invertible.
``bicat3._ps_two_functor_typing`` and ``bicat3._ps_two_nat_typing`` are
the typing that ``bicat3.check_trihom_data`` runs on loaded tables.
"""

from bistack.bicat3 import TwoModification, check_ps_two_functor, \
    check_ps_two_nat, compose_ps_two_functors, _first_mistyped, \
    _ps_two_functor_typing, _ps_two_nat_typing, _trimod_cells, \
    _tritrans_cells
from bistack.descent import _cells_into, _ddm_cells, _ddm_members, \
    _member_two_cells, _wdd_cells
from bistack.report import failed


# the witness that names each comparison cell of a descent datum by its key
_WITNESS = {
    "phi": lambda key: {"member": key[0], "onecell": key[1]},
    "eta": lambda gamma: {"twocell": gamma},
    "rho": lambda f: {"member": f},
    "beta": lambda key: {"member": key[0], "pair": list(key[1:])},
    "rho2": lambda key: {"twocell": key[0], "onecell": key[1]},
    "alpha": lambda key: {"member": key[0], "twocell": key[1]},
}


def functor(F):
    """Each object goes to an object of F.cod, each morphism to one between
    the images of its ends, and each identity to the identity on the image
    of its object."""
    for x in F.dom.objects:
        if F.ob.get(x) not in F.cod.objects:
            return failed("check_functor", ["object %r unmapped" % x],
                          {"object": x})
    for f in F.dom.morphisms:
        g = F.mor.get(f)
        if g is None or F.cod.src.get(g) != F.o(F.dom.src[f]) \
                or F.cod.tgt.get(g) != F.o(F.dom.tgt[f]):
            return failed("check_functor", ["morphism %r ill-mapped" % f],
                          {"morphism": f})
    for x in F.dom.objects:
        if F.m(F.dom.id(x)) != F.cod.id(F.o(x)):
            return failed("check_functor",
                          ["identity at %r not preserved" % x],
                          {"object": x})
    return None


def nat_trans(t):
    """Each component at x is a morphism F(x) -> G(x) of the codomain."""
    F, G = t.dom, t.cod
    d = F.cod
    for x in F.dom.objects:
        m = t.comp.get(x)
        if m is None or d.src.get(m) != F.o(x) or d.tgt.get(m) != G.o(x):
            return failed("check_nat", ["bad component at %r" % x],
                          {"object": x})
    return None


def matching_family(mf):
    """The endpoints are parallel and each member 2-cell is f*a => f*b."""
    F, s = mf.F, mf.S
    val_c = F.ob[s.target]
    if val_c.onecells.get(mf.a) is None or \
            val_c.onecells.get(mf.b) != val_c.onecells[mf.a]:
        return failed("check_matching_family",
                      ["endpoints %r, %r are not parallel" % (mf.a, mf.b)],
                      {"endpoints": [mf.a, mf.b]})
    for d, f in s.all_members():
        hf = F.on1[f]
        cell = mf.w.get(f)
        want = (hf.on1[mf.a], hf.on1[mf.b])
        if cell is None or F.ob[d].twocells.get(cell) != want:
            return failed("check_matching_family",
                          ["member 2-cell at %r missing or mistyped" % f],
                          {"member": f})
    return None


def descent_datum_mor(dd):
    """Each member 1-cell is f*X -> f*Y, and each comparison cell of
    ``_ddm_cells`` an invertible 2-cell on its boundary."""
    F, s = dd.F, dd.S
    for f, val, src, tgt in _ddm_members(F, s, dd.X, dd.Y):
        cell = dd.w.get(f)
        if cell is None or val.onecells.get(cell) != (src, tgt):
            return failed("check_descent_datum_mor",
                          ["member morphism at %r missing or mistyped" % f],
                          {"member": f})
    bad = _first_mistyped(dd, _ddm_cells(F, s, dd.X, dd.Y, dd.w))
    if bad is not None:
        table, _, key = bad
        return failed("check_descent_datum_mor",
                      ["comparison %s at %r missing, mistyped or not "
                       "invertible" % (table, key)], _WITNESS[table](key))
    return None


def weak_descent_datum(wdd):
    """Each W[f] is an object, each transition W_f -> W_f', each phi an
    equivalence, and each comparison cell
    of ``_wdd_cells`` an invertible 2-cell on its boundary."""
    F, s = wdd.F, wdd.S
    for d, f in s.all_members():
        if wdd.W.get(f) not in F.ob[d].objects:
            return failed("check_weak_descent_datum",
                          ["object at member %r missing" % f],
                          {"member": f})
    for d, f, f2, gamma in _member_two_cells(s):
        cell = wdd.eta.get(gamma)
        if cell is None or F.ob[d].onecells.get(cell) != (wdd.W[f],
                                                          wdd.W[f2]):
            return failed("check_weak_descent_datum",
                          ["transition at %r missing or mistyped" % gamma],
                          {"twocell": gamma})
    for d, f, e, g in _cells_into(s):
        t = s.tilde[(f, g)]
        val_e = F.ob[e]
        p = wdd.phi.get((f, g))
        if p is None or val_e.onecells.get(p) != (wdd.W[t],
                                                  F.on1[g].ob[wdd.W[f]]):
            return failed("check_weak_descent_datum",
                          ["phi at (%r, %r) missing or mistyped" % (f, g)],
                          {"member": f, "onecell": g})
        if val_e.equivalence_data(p) is None:
            return failed("check_weak_descent_datum",
                          ["phi at (%r, %r) is not an equivalence"
                           % (f, g)], {"member": f, "onecell": g})
    bad = _first_mistyped(wdd, _wdd_cells(F, s, wdd.W, wdd.eta, wdd.phi))
    if bad is not None:
        table, _, key = bad
        return failed("check_weak_descent_datum",
                      ["%s at %r missing, mistyped or not invertible"
                       % (table, key)], _WITNESS[table](key))
    return None


def two_modification(m):
    """Each component is a 2-cell s(x) => t(x)."""
    s, t = m.dom, m.cod
    c = s.dom.cod
    for x in s.dom.dom.objects:
        cell = m.comp.get(x)
        if cell is None or c.twocells.get(cell) != (s.comp[x], t.comp[x]):
            return failed("check_two_modification",
                          ["bad component at %r" % x], {"object": x})
    return None


def tritransformation(t):
    """Each component is a valid pseudofunctor R(C) -> F(C), each square a
    valid transformation with equivalence components between the right
    composites, and each comparison cell of ``_tritrans_cells`` an
    invertible 2-cell on its boundary."""
    R, F = t.dom, t.cod
    k = R.base
    for c in k.objects:
        h = t.comp.get(c)
        if h is None or h.dom != R.ob[c] or h.cod != F.ob[c]:
            return failed("check_tritransformation",
                          ["bad component at %r" % c], {"object": c})
        r = _ps_two_functor_typing(h) or check_ps_two_functor(h)
        if not r.ok:
            r.details.insert(0, "component at %r" % c)
            return r
    for f, (d, c) in k.onecells.items():
        sq = t.square.get(f)
        want_dom = compose_ps_two_functors(t.comp[d], R.on1[f])
        want_cod = compose_ps_two_functors(F.on1[f], t.comp[c])
        if sq is None or sq.dom != want_dom or sq.cod != want_cod:
            return failed("check_tritransformation",
                          ["bad square boundary at %r" % f], {"onecell": f})
        r = _ps_two_nat_typing(sq) or check_ps_two_nat(sq)
        if not r.ok:
            r.details.insert(0, "square at %r" % f)
            return r
        for x, comp1 in sq.comp.items():
            if F.ob[d].equivalence_data(comp1) is None:
                return failed("check_tritransformation",
                              ["square component at (%r, %r) is not an "
                               "equivalence" % (f, x)],
                              {"onecell": f, "object": x, "component": comp1})
    bad = _first_mistyped(t, _tritrans_cells(R, F, t.comp, t.square))
    if bad is None:
        return None
    table, key, x = bad
    beta = table == "beta"
    what = "composition" if beta else "unit"
    witness = {"pair": list(key)} if beta else {"object": key}
    if x is None:
        return failed("check_tritransformation",
                      ["missing %s comparison at %r" % (what, key)], witness)
    return failed("check_tritransformation",
                  ["bad %s comparison at %r" % (
                      what, (*key, x) if beta else (key, x))],
                  {**witness, "object": x} if beta else
                  {**witness, "twocell": t.gamma[key].get(x)})


def trimodification(m):
    """Each component is a valid transformation theta_C => phi_C, and each
    square comparison of ``_trimod_cells`` an invertible 2-cell on its
    boundary."""
    th, ph = m.dom, m.cod
    for c in th.dom.base.objects:
        tr = m.comp.get(c)
        if tr is None or tr.dom != th.comp[c] or tr.cod != ph.comp[c]:
            return failed("check_trimodification",
                          ["bad component at %r" % c], {"object": c})
        r = _ps_two_nat_typing(tr) or check_ps_two_nat(tr)
        if not r.ok:
            r.details.insert(0, "component at %r" % c)
            return r
    bad = _first_mistyped(m, _trimod_cells(th, ph, m.comp))
    if bad is None:
        return None
    _, g, x = bad
    if x is None:
        return failed("check_trimodification",
                      ["missing square comparison at %r" % g],
                      {"onecell": g})
    return failed("check_trimodification",
                  ["bad square comparison at (%r, %r)" % (g, x)],
                  {"onecell": g, "object": x})


def perturbation(p):
    """Each component at an object D is a table of 2-cells
    m_D(x) => n_D(x)."""
    m, n = p.dom, p.cod
    for c in m.dom.dom.base.objects:
        table = p.comp.get(c)
        if table is None:
            return failed("check_perturbation",
                          ["missing component at %r" % c], {"object": c})
        bad = two_modification(TwoModification(m.comp[c], n.comp[c], table))
        if bad is not None:
            bad.details.insert(0, "component at %r" % c)
            return bad
    return None


# each checker that an enumerator of descent calls, by its name there, and
# the oracle that types its candidates
WELL_TYPED = {
    "check_matching_family": matching_family,
    "check_descent_datum_mor": descent_datum_mor,
    "check_weak_descent_datum": weak_descent_datum,
    "check_ps_two_functor": _ps_two_functor_typing,
    "check_ps_two_nat": _ps_two_nat_typing,
    "check_tritransformation": tritransformation,
    "check_trimodification": trimodification,
    "check_perturbation": perturbation,
}
