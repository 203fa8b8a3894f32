"""The unit displays that composition implies, kept as test oracles.

``bicat3.check_ps_two_nat``, ``bicat3.check_trimodification`` and
``two_cat.check_ps_nat`` once checked a unit display after their
composition display.  On valid boundaries the composition display at a
pair of identities forces the unit display (the proofs are in the
checkers' docstrings), so the checkers dropped it.  Each function here
declares the dropped display as it was, a ``report.Display`` for
``report.first_failure``, and ``COMPOSITION`` names the kept display
that implies it.  ``implied`` evaluates both on one candidate.
"""

from bistack import bicat3, two_cat
from bistack.report import Budget, Display, first_failure


def ps_two_nat_unit(t):
    """cell[id_x] . (H.unit[x] * comp[x]) = comp[x] * G.unit[x] for a
    transformation t: G => H of pseudofunctors into a 2-category."""
    g, h = t.dom, t.cod
    c = g.cod
    return (Display("transformation unit coherence", zip(g.dom.objects),
                    lambda x: (c.v(t.cell[g.dom.id1(x)],
                                   c.wr(h.unit[x], t.comp[x])),
                               c.wl(t.comp[x], g.unit[x])),
                    "unit coherence fails at %r", "object"),)


def trimod_unit(m):
    """The unit axiom of a trimodification m: theta => phi at each object c
    of the base and x of R(c), in the value at c."""
    th, ph = m.dom, m.cod
    R, F = th.dom, th.cod
    k = R.base

    def unital(c, x):
        val_c, mc_x, id_x = F.ob[c], m.comp[c].comp[x], R.ob[c].id1(x)
        return (val_c.wl(mc_x, th.gamma[c][x]),
                val_c.v_path([
                    val_c.wr(ph.gamma[c][x], mc_x),
                    val_c.wl(ph.square[k.id1(c)].comp[x],
                             val_c.inverse2(m.comp[c].cell[id_x])),
                    val_c.wr(m.cell[k.id1(c)][x], th.comp[c].on1[id_x])]))

    return (Display("trimodification unit",
                    ((F.ob[c], (c,), zip(R.ob[c].objects))
                     for c in k.objects), unital,
                    "unit axiom fails at (%r, %r)", "object _ lhs rhs",
                    per_value=True),)


def ps_nat_unit(t):
    """cells[id_c](X) . t_c(F.unitor[c](X)) = G.unitor[c](t_c(X)) for a
    transformation t: F => G of pseudofunctors into Cat."""
    F, G = t.dom, t.cod
    k = F.base
    return (Display("Cat-valued transformation unit coherence",
                    ((c, X) for c in k.objects for X in F.ob[c].objects),
                    lambda c, X: (G.ob[c].compose(
                        t.cells[k.id1(c)].at(X),
                        t.comp[c].m(F.unitor[c].at(X))),
                        G.unitor[c].at(t.comp[c].o(X))),
                    "unit coherence fails at (%r, %r)",
                    "witness witness"),)


# each oracle by the name of the checker that dropped its display, with
# that checker's displays and the name of the one that implies it
ORACLES = {
    "check_ps_two_nat": (ps_two_nat_unit, bicat3._ps_two_nat_displays,
                         "transformation composition coherence"),
    "check_trimodification": (trimod_unit, bicat3._trimod_displays,
                              "trimodification composition"),
    "check_ps_nat": (ps_nat_unit, two_cat._ps_nat_displays,
                     "Cat-valued transformation composition coherence"),
}


def implied(name, x):
    """(dropped, kept): the failures of the display that the checker
    ``name`` dropped and of its composition display on x, each evaluated
    alone and in full, on thin values too; None where it holds."""
    oracle, displays, kept = ORACLES[name]
    composition = tuple(d for d in displays(x) if d.name == kept)
    return (first_failure(Budget(), oracle, x),
            first_failure(Budget(), lambda: composition))
