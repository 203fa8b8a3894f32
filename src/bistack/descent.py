"""Descent structures over a sieve, their effectiveness deciders, and the
stack conditions they assemble into.

Three levels of descent data are represented, mirroring the three layers of
a 2-category-valued presheaf: matching families of 2-cells, descent data on
morphisms, and weak descent data on objects.  Each comes with an exhaustive
checker for its displayed compatibility conditions and a budgeted search
for its gluings: ``find_amalgamations`` lists every amalgamation, and the
two gluing searches return the first gluing they find, as a dict of its
cells, or None.

The homomorphism data is strict, as every ``bicat3.TrihomData`` is: it
acts by strict 2-functors that compose strictly, so that its compositors
and unitors are identities (``bicat3.strict_trihom`` refuses any other
action).  So the canonical comparison 1-cells between iterated
restrictions are identities, and the only non-trivial transition
witnesses left are the sieve's restriction 2-cells, which stay explicit
throughout.

Orientation conventions for the recorded cells (X, Y objects, a, b
morphisms of the value at the sieve's target; f, f' members; g, h base
1-cells; s?Z denotes the value of the sieve witness sigma at Z):

* matching family:      w[f]: 2-cell  f*a => f*b
* morphism datum:       w[f]: 1-cell  f*X -> f*Y
                        phi[(f, g)]:  g*(w_f) . sX  =>  sY . w_tilde
                        eta[gamma]:   w_f' . gammaX  =>  gammaY . w_f
* weak (object) datum:  W[f] object;  eta[gamma]: W_f -> W_f'
                        phi[(f, g)]:  W_tilde -> g*W_f  (an equivalence)
  with comparison 2-cells rho, beta, rho2, alpha as documented on the
  class.

Each datum's cell typing is declared once: ``_ddm_members`` and
``_ddm_cells`` list the morphism datum's cells with their boundaries, and
``_wdd_cells`` the weak datum's comparison 2-cells, in the shape of the
``bicat3`` declarations, which are read the same way.  The enumerators
draw each cell from the invertible 2-cells of its boundary, and
``weak_datum_from_object`` sets each comparison cell to the identity on
its target.

Each datum declares its displays once, as ``report.Display`` records
(``_matching_displays``, ``_ddm_displays``, ``_weak_datum_displays``
under a family of connecting isos, and ``_weak_gluing_displays`` of a
gluing object), and ``report.first_failure`` evaluates them, one step
per index.  When every value of the homomorphism data is locally thin
(at most one 2-cell between two 1-cells), any two parallel 2-cells are
equal, so every display between well-typed cells holds (Johnson & Yau,
*2-Dimensional Categories*, 2021), and the evaluator skips them all with
no step (see ``report.Budget``).  The checkers still test normality and
the identity etas, and ``_gluing_mor_edges`` gives no edges.
This rests on valid values: a ``tables`` trihom's values and action data
are checked when a workspace is loaded.

Both 2-stack searches narrow their object pools by arc consistency
(``report.narrow``) before they enumerate.  ``is_2stack`` narrows the
objects W[f] of a weak datum: each base 2-cell f => f2 needs a 1-cell
W[f] -> W[f2] for its transition, and each phi needs an equivalence
W[tilde(f, g)] -> g*W[f].  ``is_2stack_direct_on_sieve`` narrows, for
each object c of the base and x of the sieve's value at c, the object
that a tritransformation's component at c sends x to: each 1-cell of
that value needs a 1-cell under the component, and each square
f: d -> c an equivalence at x.  Narrowing removes only values that are in no
solution, since each test is one that every yielded candidate passes, so
the candidates, witnesses and verdicts are those of the unnarrowed search,
in the same order.  Narrowing itself spends no step.  The same tests
are the edges of ``report.choices`` over the narrowed pools, which ticks
once for each pick of an object that an edge rejects.

The enumerators draw each piece of a candidate from a typed pool, so a
candidate can fail only its displays, and every checker here and in
``bicat3`` tests those alone on a well-typed candidate: for a matching
family the compatibility displays, for a morphism datum normality, the
identity etas, the cocycle and the phi/eta squares, and for a weak datum
the coherence displays with their connecting isos.
``find_effective_gluing_mor`` draws a gluing morphism's comparison
2-cells psi from their invertible 2-cells, and its two displays are
``report.choices`` edges (``_gluing_mor_edges``).  ``descent_category``
draws its pseudonatural transformations and modifications from
``fincat.all_functors`` and ``all_nat_trans``, and their checkers
(``two_cat.check_ps_nat``, ``check_modification``) declare displays too.
It draws the modifications between two transformations only when
``fincat.is_equivalence``, the one equivalence decision, reads them
(``fincat.Enumerated``); the Cat-valued stack condition and the
sigma-bicolimit comparison of ``sigma_colim`` both go through it.
"""

from functools import partial

from .errors import MalformedTable
from .fincat import Enumerated, Functor, NatTrans, all_functors, \
    all_nat_trans, compose_functors, is_equivalence, vcomp_key
from .two_cat import PsNatTrans, CatModification, check_ps_nat, \
    check_modification
from .sieves import contains_identity, sieve_presheaf, representable, \
    _compositor_cell, _restrict_cell, _restrict_member_cell
from .builders import identity_nat
from .bicat3 import PsTwoFunctor, PsTwoNatTrans, Tritransformation, \
    Trimodification, Perturbation, check_ps_two_functor, check_ps_two_nat, \
    check_tritransformation, check_trimodification, check_perturbation, \
    compose_ps_two_functors, induced_pert, induced_trimod, \
    induced_tritrans, literally_closed, sieve_trihom, _comparisons, \
    _identities, _ps_two_functor_cells, _ps_two_nat_cells, _trimod_cells, \
    _tritrans_cells
from .report import Budget, Display, choices, failed, first_failure, \
    inconclusive, merge, narrow, passed, reported


# --- shared helpers ---------------------------------------------------------

def _member_two_cells(s):
    """All base 2-cells between members of the sieve, as (D, f, f2, gamma)."""
    k = s.k
    for d in sorted(s.members):
        for f in s.member_list(d):
            for f2 in s.member_list(d):
                for gamma in k.two_cells_between(f, f2):
                    yield d, f, f2, gamma


def _cells_into(s):
    """Base 1-cells into each member's source: (D, f, E, g) quadruples."""
    for d, f in s.all_members():
        for g, e in s.k.one_cells_into(d):
            yield d, f, e, g


def _legs(s):
    """Base 2-cells delta: g => g2 between 1-cells into each member's
    source, as (D, f, E, g, delta, g2): members in order, delta in id
    order."""
    k = s.k
    into = {}
    for delta, (g, g2) in sorted(k.twocells.items()):
        e, d = k.onecells[g]
        into.setdefault(d, []).append((e, g, delta, g2))
    for d, f in s.all_members():
        for e, g, delta, g2 in into.get(d, ()):
            yield d, f, e, g, delta, g2


def _member_cell_pairs(s):
    """Composable base 2-cells gamma: f => f2, delta: f2 => f3 between
    members at D, as (D, delta, gamma)."""
    for d, f, f2, gamma in _member_two_cells(s):
        for f3 in s.member_list(d):
            for delta in s.k.two_cells_between(f2, f3):
                yield d, delta, gamma


# --- matching families of 2-cells ------------------------------------------

class MatchingFamily2Cells:
    """A family of 2-cells w[f]: f*a => f*b indexed by the members of a
    sieve, subject to restriction compatibility along every base 1-cell
    and conjugation compatibility along every 2-cell between members."""

    def __init__(self, F, S, a, b, w):
        self.F = F
        self.S = S
        self.a = a
        self.b = b
        self.w = dict(w)


def matching_family_from_cell(F, S, w0):
    """The family obtained by restricting a single global 2-cell."""
    val = F.ob[S.target]
    a, b = val.twocells[w0]
    w = {f: F.on1[f].on2[w0] for _, f in S.all_members()}
    return MatchingFamily2Cells(F, S, a, b, w)


def check_matching_family(mf, budget=None):
    """The restriction and conjugation compatibility displays of a
    well-typed family, as ``_all_matching_families`` draws it: parallel
    endpoints, and each member 2-cell f*a => f*b."""
    return reported("check_matching_family", first_failure(
        budget or Budget(), _matching_displays, mf, values=mf.F.ob.values()),
        ["%d members checked" % len(mf.w)])


def _matching_displays(mf):
    F, s = mf.F, mf.S
    x0, y0 = F.ob[s.target].onecells[mf.a]

    def restriction(f, g):  # along every base 1-cell into a member
        val_e, sig = F.ob[s.k.src1(g)], F.on2[s.sigma[(f, g)]]
        return (val_e.v(val_e.wl(sig.comp[y0], mf.w[s.tilde[(f, g)]]),
                        sig.cell[mf.a]),
                val_e.v(sig.cell[mf.b],
                        val_e.wr(F.on1[g].on2[mf.w[f]], sig.comp[x0])))

    def conjugation(gamma):  # along 2-cells between members
        f, f2 = s.k.twocells[gamma]
        val_d, cell = F.ob[s.k.src1(f)], F.on2[gamma]
        return (val_d.v(val_d.wl(cell.comp[y0], mf.w[f]), cell.cell[mf.a]),
                val_d.v(cell.cell[mf.b], val_d.wr(mf.w[f2], cell.comp[x0])))

    return (
        Display("matching restriction compatibility",
                ((f, g) for d, f, e, g in _cells_into(s)), restriction,
                "restriction compatibility fails at (%r, %r)",
                "member onecell lhs rhs"),
        Display("matching 2-cell compatibility",
                ((gamma,) for d, f, f2, gamma in _member_two_cells(s)),
                conjugation, "2-cell compatibility fails at %r",
                "twocell lhs rhs"))


def find_amalgamations(mf, budget=None):
    """All global 2-cells restricting literally to the family."""
    budget = budget or Budget()
    F, s = mf.F, mf.S
    val_c = F.ob[s.target]
    out = []
    for w in val_c.two_cells_between(mf.a, mf.b):
        budget.tick()
        if all(F.on1[f].on2[w] == mf.w[f] for _, f in s.all_members()):
            out.append(w)
    return out


# --- descent data on morphisms ----------------------------------------------

class DescentDatumMorphisms:
    """A family of 1-cells w[f]: f*X -> f*Y with invertible comparison
    2-cells phi[(f, g)]: g*(w_f) . sX => sY . w_tilde for every composable
    pair, and eta[gamma]: w_f' . gammaX => gammaY . w_f for every 2-cell
    between members."""

    def __init__(self, F, S, X, Y, w, phi, eta):
        self.F = F
        self.S = S
        self.X = X
        self.Y = Y
        self.w = dict(w)
        self.phi = dict(phi)
        self.eta = dict(eta)


def descent_datum_from_morphism(F, S, w0):
    """The datum obtained by restricting a global morphism, with the
    canonical comparison cells given by the structure of the values."""
    val = F.ob[S.target]
    X, Y = val.onecells[w0]
    w = {f: F.on1[f].on1[w0] for _, f in S.all_members()}
    phi = {}
    for d, f, e, g in _cells_into(S):
        phi[(f, g)] = F.on2[S.sigma[(f, g)]].cell[w0]
    eta = {}
    for d, f, f2, gamma in _member_two_cells(S):
        eta[gamma] = F.on2[gamma].cell[w0]
    return DescentDatumMorphisms(F, S, X, Y, w, phi, eta)


def _ddm_members(F, s, X, Y):
    """The member 1-cells of a morphism datum: (f, value, src, tgt) for
    every w[f]: f*X -> f*Y."""
    for d, f in s.all_members():
        yield f, F.ob[d], F.on1[f].ob[X], F.on1[f].ob[Y]


def _ddm_cells(F, s, X, Y, w):
    """The comparison 2-cells of a morphism datum over the 1-cells w, as
    families in the shape of the ``bicat3`` declarations: every phi, then
    every eta."""

    def phi():
        for d, f, e, g in _cells_into(s):
            val_e = F.ob[e]
            sig = F.on2[s.sigma[(f, g)]]
            yield (f, g), val_e, \
                partial(val_e.c1, F.on1[g].on1[w[f]], sig.comp[X]), \
                val_e.c1(sig.comp[Y], w[s.tilde[(f, g)]])

    def eta():
        for d, f, f2, gamma in _member_two_cells(s):
            val_d = F.ob[d]
            yield gamma, val_d, partial(val_d.c1, w[f2],
                                        F.on2[gamma].comp[X]), \
                val_d.c1(F.on2[gamma].comp[Y], w[f])

    yield ("phi", None), phi()
    yield ("eta", None), eta()


def check_descent_datum_mor(dd, budget=None):
    """Normality, the identity etas, the cocycle and the phi/eta squares of
    a well-typed datum, as ``_all_descent_data_mor`` draws it: each member
    1-cell and each comparison cell of ``_ddm_cells`` on its boundary."""
    F, s = dd.F, dd.S
    k = s.k
    # normality: phi over an identity leg is the identity comparison
    for d, f in s.all_members():
        val_d = F.ob[d]
        if dd.phi[(f, k.id1(d))] != val_d.id2(dd.w[f]):
            return failed("check_descent_datum_mor",
                          ["normality fails at %r" % f], {"member": f})
        if dd.eta[k.id2(f)] != val_d.id2(dd.w[f]):
            return failed("check_descent_datum_mor",
                          ["eta at the identity 2-cell of %r is not the "
                           "identity" % f], {"member": f})
    return reported("check_descent_datum_mor", first_failure(
        budget or Budget(), _ddm_displays, dd, values=F.ob.values()),
        ["%d member morphisms checked" % len(dd.w)])


def _ddm_displays(dd):
    F, s, X, Y = dd.F, dd.S, dd.X, dd.Y
    k = s.k

    def cocycle(f, g, h):
        t1, gh = s.tilde[(f, g)], k.c1(g, h)
        theta = _compositor_cell(s, f, g, h)
        val_l, hh = F.ob[k.src1(h)], F.on1[h]
        return (val_l.v(val_l.wl(hh.on1[F.on2[s.sigma[(f, g)]].comp[Y]],
                                 dd.phi[(t1, h)]),
                        val_l.wr(hh.on2[dd.phi[(f, g)]],
                                 F.on2[s.sigma[(t1, h)]].comp[X])),
                val_l.v(val_l.wl(F.on2[s.sigma[(f, gh)]].comp[Y],
                                 dd.eta[theta]),
                        val_l.wr(dd.phi[(f, gh)], F.on2[theta].comp[X])))

    def composition(delta, gamma):  # eta respects vertical composition
        val_d = F.ob[k.src1(k.src2(gamma))]
        return (dd.eta[k.v(delta, gamma)],
                val_d.v(val_d.wl(F.on2[delta].comp[Y], dd.eta[gamma]),
                        val_d.wr(dd.eta[delta], F.on2[gamma].comp[X])))

    def member_square(gamma, g):  # along a 2-cell of the member leg
        (f, f2), val_e, hg = k.twocells[gamma], F.ob[k.src1(g)], F.on1[g]
        gg = _restrict_member_cell(s, f, f2, gamma, g)
        return (val_e.v(val_e.wl(F.on2[s.sigma[(f2, g)]].comp[Y],
                                 dd.eta[gg]),
                        val_e.wr(dd.phi[(f2, g)], F.on2[gg].comp[X])),
                val_e.v(val_e.wl(hg.on1[F.on2[gamma].comp[Y]],
                                 dd.phi[(f, g)]),
                        val_e.wr(hg.on2[dd.eta[gamma]],
                                 F.on2[s.sigma[(f, g)]].comp[X])))

    def leg_square(delta, f):  # along a 2-cell of the restriction leg
        (g, g2), cell = k.twocells[delta], F.on2[delta]
        val_e = F.ob[k.src1(g)]
        df = _restrict_cell(s, f, g, delta, g2)
        return (val_e.v(val_e.wl(F.on2[s.sigma[(f, g2)]].comp[Y],
                                 dd.eta[df]),
                        val_e.wr(dd.phi[(f, g2)], F.on2[df].comp[X])),
                val_e.v(val_e.wl(cell.comp[F.on1[f].ob[Y]], dd.phi[(f, g)]),
                        val_e.wr(cell.cell[dd.w[f]],
                                 F.on2[s.sigma[(f, g)]].comp[X])))

    return (
        Display("morphism datum cocycle",
                ((f, g, h) for d, f, e, g in _cells_into(s)
                 for h, _ in k.one_cells_into(e)), cocycle,
                "cocycle fails at (%r, %r, %r)", "member pair pair lhs rhs"),
        Display("morphism datum eta composition",
                ((delta, gamma) for d, delta, gamma in _member_cell_pairs(s)),
                composition, "eta not compatible with composition at "
                "(%r, %r)", "pair pair lhs rhs"),
        Display("morphism datum member-leg square",
                ((gamma, g) for d, f, f2, gamma in _member_two_cells(s)
                 for g, _ in k.one_cells_into(d)), member_square,
                "phi/eta square fails at (%r, %r)",
                "twocell onecell lhs rhs"),
        Display("morphism datum restriction-leg square",
                ((delta, f) for d, f, e, g, delta, g2 in _legs(s)),
                leg_square, "phi square over %r fails at %r",
                "twocell member lhs rhs"))


def _gluing_mor_edges(dd, w):
    """The two effectiveness displays of a global morphism w, as edges
    between members of ``choices`` of psi[f]: f*w => w_f: a base 2-cell
    gamma: f => f2 between members relates psi[f] and psi[f2], and a
    restriction leg (f, g) relates psi[tilde(f, g)] and psi[f].  No edges
    when every value is locally thin."""
    F, s = dd.F, dd.S
    if all(val.locally_thin() for val in F.ob.values()):
        return []

    def square(val, cell, right, along=lambda b: b):
        """ok(a, b): is wl(cell at Y, a) . (cell at w) equal to
        right . wr(along(b), cell at X) in val?"""
        at_x, at_y, at_w = cell.comp[dd.X], cell.comp[dd.Y], cell.cell[w]
        return lambda a, b: val.v(val.wl(at_y, a), at_w) \
            == val.v(right, val.wr(along(b), at_x))

    edges = [(f, f2, square(F.ob[d], F.on2[gamma], dd.eta[gamma]))
             for d, f, f2, gamma in _member_two_cells(s)]
    edges += [(s.tilde[(f, g)], f,
               square(F.ob[e], F.on2[s.sigma[(f, g)]], dd.phi[(f, g)],
                      F.on1[g].on2.__getitem__))
              for d, f, e, g in _cells_into(s)]
    return edges


def find_effective_gluing_mor(dd, budget=None):
    """Search for a global morphism w with invertible comparison 2-cells
    psi[f]: f*w => w_f, one per member, that reproduce the datum: the
    first in ``choices`` order, w slowest, as {"w": w, "psi": psi}; None
    when the space is exhausted."""
    budget = budget or Budget()
    F, s = dd.F, dd.S
    members = [(f, F.ob[d]) for d, f in s.all_members()]
    ws = F.ob[s.target].one_cells_between(dd.X, dd.Y)
    for w in ws:
        pools = ((f, val.isos_between(F.on1[f].on1[w], dd.w[f]))
                 for f, val in members)
        for (psi,) in choices(budget, pools, edges=_gluing_mor_edges(dd, w)):
            return {"w": w, "psi": psi}
    return None


# --- weak descent data on objects -------------------------------------------

class WeakDescentDatum:
    """Objects W[f] of the values with transition morphisms and equivalences,
    together with the comparison 2-cells of the coherence displays.

    W[f]: object of the value at the member's source.
    eta[gamma]:  1-cell W_f -> W_f' for gamma: f => f' between members.
    phi[(f, g)]: equivalence 1-cell W_tilde -> g*W_f.
    rho[f]:      invertible  phi[(f, id)] => id1(W_f).
    beta[(f, g, h)]: invertible  h*(phi[(f,g)]) . phi[(tilde,h)]
                                 =>  phi[(f, g.h)] . eta[theta].
    rho2[(gamma, g)]: invertible  g*(eta[gamma]) . phi[(f,g)]
                                  =>  phi[(f',g)] . eta[gamma_g].
    alpha[(f, delta)]: invertible  F(delta)_{W_f} . phi[(f,g)]
                                   =>  phi[(f,g')] . eta[delta_f].
    """

    def __init__(self, F, S, W, eta, phi, rho, beta, rho2, alpha):
        self.F = F
        self.S = S
        self.W = dict(W)
        self.eta = dict(eta)
        self.phi = dict(phi)
        self.rho = dict(rho)
        self.beta = dict(beta)
        self.rho2 = dict(rho2)
        self.alpha = dict(alpha)
        # (W, eta) -> the connecting iso pools; see _connecting_isos
        self._isos = {}


def weak_datum_from_object(F, S, W0):
    """The weak datum obtained by restricting a global object; every
    comparison cell is the identity under the strict normalization."""
    W = {f: F.on1[f].ob[W0] for _, f in S.all_members()}
    eta = {}
    for d, f, f2, gamma in _member_two_cells(S):
        eta[gamma] = F.on2[gamma].comp[W0]
    phi = {}
    for d, f, e, g in _cells_into(S):
        phi[(f, g)] = F.on2[S.sigma[(f, g)]].comp[W0]
    return WeakDescentDatum(F, S, W, eta, phi,
                            **_identities(_wdd_cells(F, S, W, eta, phi)))


def _wdd_cells(F, s, W, eta, phi):
    """The comparison 2-cells of a weak datum over the objects W, the
    transitions eta and the equivalences phi, as families in the shape of
    the ``bicat3`` declarations: every rho, beta, rho2, then alpha."""
    k = s.k

    def rho():
        for d, f in s.all_members():
            val_d = F.ob[d]
            yield f, val_d, partial(phi.__getitem__, (f, k.id1(d))), \
                val_d.id1(W[f])

    def beta():
        for d, f, e, g in _cells_into(s):
            t1 = s.tilde[(f, g)]
            for h, l in k.one_cells_into(e):
                val_l = F.ob[l]
                theta = _compositor_cell(s, f, g, h)
                yield (f, g, h), val_l, \
                    partial(val_l.c1, F.on1[h].on1[phi[(f, g)]],
                            phi[(t1, h)]), \
                    val_l.c1(phi[(f, k.c1(g, h))], eta[theta])

    def rho2():
        for d, f, f2, gamma in _member_two_cells(s):
            for g, e in k.one_cells_into(d):
                val_e = F.ob[e]
                gg = _restrict_member_cell(s, f, f2, gamma, g)
                yield (gamma, g), val_e, \
                    partial(val_e.c1, F.on1[g].on1[eta[gamma]],
                            phi[(f, g)]), \
                    val_e.c1(phi[(f2, g)], eta[gg])

    def alpha():
        for d, f, e, g, delta, g2 in _legs(s):
            val_e = F.ob[e]
            df = _restrict_cell(s, f, g, delta, g2)
            yield (f, delta), val_e, \
                partial(val_e.c1, F.on2[delta].comp[W[f]], phi[(f, g)]), \
                val_e.c1(phi[(f, g2)], eta[df])

    yield ("rho", None), rho()
    yield ("beta", None), beta()
    yield ("rho2", None), rho2()
    yield ("alpha", None), alpha()


def check_weak_descent_datum(wdd, budget=None):
    """The coherence displays of a well-typed datum, quantified over the
    connecting isos, as ``_all_weak_data`` draws it: objects, transitions,
    each phi an equivalence, and each comparison cell of ``_wdd_cells`` on
    its boundary."""
    budget = budget or Budget()
    ucand, ccand = _connecting_isos(wdd)
    last = ("no connecting family admissible", {})
    for u, cc in choices(budget, sorted(ucand.items()),
                         sorted(ccand.items())):
        last = _wdd_displays(wdd, u, cc, budget)
        if last is None:
            return passed("check_weak_descent_datum",
                          ["%d member objects checked" % len(wdd.W)])
    return failed("check_weak_descent_datum",
                  ["coherence displays fail: %s" % last[0]], last[1])


def _unit_candidates(wdd):
    """Per member, the invertible 2-cells eta[id_f] => id1(W_f)."""
    F, s = wdd.F, wdd.S
    k = s.k
    out = {}
    for d, f in s.all_members():
        val_d = F.ob[d]
        out[f] = val_d.isos_between(wdd.eta[k.id2(f)],
                                    val_d.id1(wdd.W[f]))
    return out


def _comp_candidates(wdd):
    """Per composable pair of member 2-cells, the invertible 2-cells
    eta[delta . gamma] => eta[delta] . eta[gamma]."""
    F, s = wdd.F, wdd.S
    k = s.k
    out = {}
    for d, delta, gamma in _member_cell_pairs(s):
        out[(delta, gamma)] = F.ob[d].isos_between(
            wdd.eta[k.v(delta, gamma)],
            F.ob[d].c1(wdd.eta[delta], wdd.eta[gamma]))
    return out


def _connecting_isos(wdd):
    """(_unit_candidates(wdd), _comp_candidates(wdd)).  Both read W and
    eta alone, so they are kept in ``wdd._isos`` under (W, eta), which
    the data that _all_weak_data draws for one W share."""
    key = (tuple(wdd.W.items()), tuple(wdd.eta.items()))
    if key not in wdd._isos:
        wdd._isos[key] = _unit_candidates(wdd), _comp_candidates(wdd)
    return wdd._isos[key]


def _wdd_displays(wdd, u, cc, budget):
    """The first failure, as (message, witness), of the coherence
    displays (``_weak_datum_displays``) under a chosen family of
    connecting isos; None when all hold."""
    return first_failure(budget, _weak_datum_displays, wdd, u, cc,
                         values=wdd.F.ob.values())


def _weak_datum_displays(wdd, u, cc):
    """The coherence displays of a weak datum under the connecting isos
    u and cc, as named; the identity legs of the cocycle, inner and
    outer, are one display."""
    F, s = wdd.F, wdd.S
    k = s.k
    phi, eta, rho, rho2, beta = wdd.phi, wdd.eta, wdd.rho, wdd.rho2, wdd.beta

    def rho2_identity(f, g):
        val_e, p = F.ob[k.src1(g)], phi[(f, g)]
        return (rho2[(k.id2(f), g)],
                val_e.v(val_e.wl(p, val_e.inverse2(u[s.tilde[(f, g)]])),
                        val_e.wr(F.on1[g].on2[u[f]], p)))

    def rho_display(gamma):
        (f, f2), d = k.twocells[gamma], k.src1(k.src2(gamma))
        val_d = F.ob[d]
        return (val_d.v(val_d.wr(rho[f2], eta[gamma]),
                        rho2[(gamma, k.id1(d))]),
                val_d.wl(eta[gamma], rho[f]))

    def alpha_identity(f, g):
        val_e = F.ob[k.src1(g)]
        return (wdd.alpha[(f, k.id2(g))],
                val_e.wl(phi[(f, g)], val_e.inverse2(u[s.tilde[(f, g)]])))

    def rho2_composition(delta, gamma, g):
        (f, f2), f3 = k.twocells[gamma], k.tgt2(delta)
        val_e, hg = F.ob[k.src1(g)], F.on1[g]
        gg = _restrict_member_cell(s, f, f2, gamma, g)
        dg = _restrict_member_cell(s, f2, f3, delta, g)
        return (val_e.v_path([
                    val_e.wl(phi[(f3, g)], cc[(dg, gg)]),
                    rho2[(k.v(delta, gamma), g)],
                    val_e.wr(val_e.inverse2(hg.on2[cc[(delta, gamma)]]),
                             phi[(f, g)])]),
                val_e.v(val_e.wr(rho2[(delta, g)], eta[gg]),
                        val_e.wl(hg.on1[eta[delta]], rho2[(gamma, g)])))

    def alpha_composition(eps, delta, f):
        (g, g2), g3 = k.twocells[delta], k.tgt2(eps)
        val_e = F.ob[k.src1(g)]
        df = _restrict_cell(s, f, g, delta, g2)
        ef = _restrict_cell(s, f, g2, eps, g3)
        return (val_e.v(val_e.wl(phi[(f, g3)], cc[(ef, df)]),
                        wdd.alpha[(f, k.v(eps, delta))]),
                val_e.v(val_e.wr(wdd.alpha[(f, eps)], eta[df]),
                        val_e.wl(F.on2[eps].comp[wdd.W[f]],
                                 wdd.alpha[(f, delta)])))

    def beta_naturality(gamma, g, h):
        f, f2 = k.twocells[gamma]
        t1, t1b, gh = s.tilde[(f, g)], s.tilde[(f2, g)], k.c1(g, h)
        val_l, hh = F.ob[k.src1(h)], F.on1[h]
        gg = _restrict_member_cell(s, f, f2, gamma, g)
        theta = _compositor_cell(s, f, g, h)
        ggh = _restrict_member_cell(s, t1, t1b, gg, h)
        e_cell = val_l.v(
            cc[(_compositor_cell(s, f2, g, h), ggh)],
            val_l.inverse2(cc[(_restrict_member_cell(s, f, f2, gamma, gh),
                               theta)]))
        return (val_l.v_path([
                    val_l.wl(phi[(f2, gh)], e_cell),
                    val_l.wr(rho2[(gamma, gh)], eta[theta]),
                    val_l.wl(F.on1[gh].on1[eta[gamma]], beta[(f, g, h)])]),
                val_l.v_path([
                    val_l.wr(beta[(f2, g, h)], eta[ggh]),
                    val_l.wl(hh.on1[phi[(f2, g)]], rho2[(gg, h)]),
                    val_l.wr(hh.on2[rho2[(gamma, g)]], phi[(t1, h)])]))

    def four_fold(f, g, h, tt):
        t1, ht, gh = s.tilde[(f, g)], k.c1(h, tt), k.c1(g, h)
        t2, val_m = s.tilde[(t1, h)], F.ob[k.src1(tt)]
        theta_a = _compositor_cell(s, t1, h, tt)
        theta_c = _compositor_cell(s, f, g, h)
        theta_e = _restrict_member_cell(s, t2, s.tilde[(f, gh)], theta_c, tt)
        e_cell = val_m.v(
            cc[(_compositor_cell(s, f, gh, tt), theta_e)],
            val_m.inverse2(cc[(_compositor_cell(s, f, g, ht), theta_a)]))
        side1 = val_m.v(val_m.wr(beta[(f, g, ht)], eta[theta_a]),
                        val_m.wl(F.on1[ht].on1[phi[(f, g)]],
                                 beta[(t1, h, tt)]))
        return (val_m.v(val_m.wl(phi[(f, k.c1(g, ht))], e_cell), side1),
                val_m.v_path([
                    val_m.wr(beta[(f, gh, tt)], eta[theta_e]),
                    val_m.wl(F.on1[tt].on1[phi[(f, gh)]],
                             rho2[(theta_c, tt)]),
                    val_m.wr(F.on1[tt].on2[beta[(f, g, h)]],
                             phi[(t2, tt)])]))

    def identity_legs(f, g):
        (e, d), t1, p = k.onecells[g], s.tilde[(f, g)], phi[(f, g)]
        val_e = F.ob[e]
        unit = val_e.wl(p, val_e.inverse2(u[t1]))
        return ((beta[(f, g, k.id1(e))], beta[(f, k.id1(d), g)]),
                (val_e.v(unit, val_e.wl(p, rho[t1])),
                 val_e.v(unit, val_e.wr(F.on1[g].on2[rho[f]], p))))

    legs = [(f, g) for d, f, e, g in _cells_into(s)]
    out_of = {}
    for eps, (g2, g3) in sorted(k.twocells.items()):
        out_of.setdefault(g2, []).append(eps)
    return (
        Display("weak datum rho2 identity", legs, rho2_identity,
                "identity display for rho2 fails at (%r, %r)",
                "member onecell"),
        Display("weak datum rho", ((gamma,) for d, f, f2, gamma
                                   in _member_two_cells(s)), rho_display,
                "rho display fails at %r", "twocell"),
        Display("weak datum alpha identity", legs, alpha_identity,
                "identity display for alpha fails at (%r, %r)",
                "member onecell"),
        Display("weak datum rho2 composition",
                ((delta, gamma, g) for d, delta, gamma
                 in _member_cell_pairs(s) for g, _ in k.one_cells_into(d)),
                rho2_composition,
                "composition display for rho2 fails at (%r, %r, %r)",
                "pair pair onecell"),
        Display("weak datum alpha composition",
                ((eps, delta, f) for d, f, e, g, delta, g2 in _legs(s)
                 for eps in out_of.get(g2, ())), alpha_composition,
                "composition display for alpha fails at (%r, %r, %r)",
                "pair pair member"),
        Display("weak datum beta naturality",
                ((gamma, g, h) for d, f, f2, gamma in _member_two_cells(s)
                 for g, e in k.one_cells_into(d)
                 for h, _ in k.one_cells_into(e)), beta_naturality,
                "beta naturality fails at (%r, %r, %r)",
                "twocell pair pair"),
        Display("weak datum four-fold cocycle",
                ((f, g, h, tt) for d, f, e, g in _cells_into(s)
                 for h, l in k.one_cells_into(e)
                 for tt, _ in k.one_cells_into(l)), four_fold,
                "four-fold cocycle fails at (%r, %r, %r, %r)",
                "member triple triple triple"),
        Display("weak datum cocycle identity legs", legs, identity_legs,
                lambda at, lhs, rhs: "cocycle identity display (%s) fails "
                "at (%r, %r)" % (("inner" if lhs[0] != rhs[0] else "outer",)
                                 + at), "member onecell"))


def find_weak_effective_gluing(wdd, budget=None):
    """Search for a global object with equivalences psi[f]: W_f -> f*W and
    the comparison isos of the weak-effectiveness displays, for a datum
    that ``check_weak_descent_datum`` accepts."""
    budget = budget or Budget()
    F, s = wdd.F, wdd.S
    k = s.k
    val_c = F.ob[s.target]
    members = [f for _, f in s.all_members()]
    ucand, ccand = _connecting_isos(wdd)

    def equivalences(W):
        for f in members:
            val_d = F.ob[k.onecells[f][0]]
            yield f, [p for p in val_d.one_cells_between(
                wdd.W[f], F.on1[f].ob[W])
                if val_d.is_equivalence_1cell(p, budget)]

    for W in sorted(val_c.objects):
        for psi, u, cc in choices(budget, equivalences(W),
                                  sorted(ucand.items()),
                                  sorted(ccand.items())):
            cells = _weak_gluing_cells(wdd, W, psi, u, cc, budget)
            if cells is not None:
                return {"W": W, "psi": psi, **cells}
    return None


def _weak_gluing_cells(wdd, W, psi, u, cc, budget):
    """Search the iso families of the weak-effectiveness displays for a
    fixed gluing object and equivalence family; None when none fit."""
    F, s = wdd.F, wdd.S

    def epsilons():
        for d, f, e, g in _cells_into(s):
            val_e = F.ob[e]
            yield (f, g), val_e.isos_between(
                val_e.c1(F.on1[g].on1[psi[f]], wdd.phi[(f, g)]),
                val_e.c1(F.on2[s.sigma[(f, g)]].comp[W],
                         psi[s.tilde[(f, g)]]))

    def psi_cells():
        for d, f, f2, gamma in _member_two_cells(s):
            val_d = F.ob[d]
            yield gamma, val_d.isos_between(
                val_d.c1(F.on2[gamma].comp[W], psi[f]),
                val_d.c1(psi[f2], wdd.eta[gamma]))

    for eps, pc in choices(budget, epsilons(), psi_cells()):
        if first_failure(budget, _weak_gluing_displays, wdd, W, psi, eps, pc,
                         u, cc, values=F.ob.values()) is None:
            return {"epsilon": eps, "psi_cells": pc}
    return None


def _weak_gluing_displays(wdd, W, psi, eps, pc, u, cc):
    """The weak-effectiveness displays of a gluing object W, as named."""
    F, s = wdd.F, wdd.S
    k = s.k

    def composition(delta, gamma):
        val_d = F.ob[k.src1(k.src2(gamma))]
        return (val_d.v(val_d.wl(psi[k.tgt2(delta)], cc[(delta, gamma)]),
                        pc[k.v(delta, gamma)]),
                val_d.v(val_d.wr(pc[delta], wdd.eta[gamma]),
                        val_d.wl(F.on2[delta].comp[W], pc[gamma])))

    def leg_cell(delta, f):
        g, g2 = k.twocells[delta]
        val_e = F.ob[k.src1(g)]
        df = _restrict_cell(s, f, g, delta, g2)
        side1 = val_e.v(
            val_e.wl(F.on2[s.sigma[(f, g2)]].comp[W], pc[df]),
            val_e.wl(F.on2[delta].comp[F.on1[f].ob[W]], eps[(f, g)]))
        return (val_e.v(side1, val_e.wr(F.on2[delta].cell[psi[f]],
                                        wdd.phi[(f, g)])),
                val_e.v(val_e.wr(eps[(f, g2)], wdd.eta[df]),
                        val_e.wl(F.on1[g2].on1[psi[f]],
                                 wdd.alpha[(f, delta)])))

    def legs(f, g, h):
        t1, gh, theta = s.tilde[(f, g)], k.c1(g, h), \
            _compositor_cell(s, f, g, h)
        val_l, hh = F.ob[k.src1(h)], F.on1[h]
        return (val_l.v(val_l.wl(hh.on1[F.on2[s.sigma[(f, g)]].comp[W]],
                                 eps[(t1, h)]),
                        val_l.wr(hh.on2[eps[(f, g)]], wdd.phi[(t1, h)])),
                val_l.v_path([
                    val_l.wl(F.on2[s.sigma[(f, gh)]].comp[W],
                             val_l.inverse2(pc[theta])),
                    val_l.wr(eps[(f, gh)], wdd.eta[theta]),
                    val_l.wl(F.on1[gh].on1[psi[f]], wdd.beta[(f, g, h)])]))

    return (
        Display("gluing object identity transition", s.all_members(),
                lambda d, f: (pc[k.id2(f)],
                              F.ob[d].wl(psi[f], F.ob[d].inverse2(u[f]))),
                "identity transition fails at (%r, %r)", "object member"),
        Display("gluing object transition composition",
                ((delta, gamma) for d, delta, gamma in _member_cell_pairs(s)),
                composition, "transition composition fails at (%r, %r)",
                "pair pair"),
        Display("gluing object restriction 2-cell",
                ((delta, f) for d, f, e, g, delta, g2 in _legs(s)), leg_cell,
                "restriction 2-cell display fails at (%r, %r)",
                "twocell member"),
        Display("gluing object restriction legs",
                ((f, g, h) for d, f, e, g in _cells_into(s)
                 for h, _ in k.one_cells_into(e)), legs,
                "restriction leg display fails at (%r, %r, %r)",
                "member pair pair"))


# --- category-valued stack condition ----------------------------------------

def _sieve_restriction_nat(R, F, s, X):
    """The pseudonatural transformation obtained by restricting an object
    of F at the sieve's target along every member."""
    k = s.k
    comp, cells = {}, {}
    for d in k.objects:
        comp[d] = Functor(R.ob[d], F.ob[d],
                          {f: F.on1[f].o(X) for f in R.ob[d].objects},
                          {x: F.on2[x].at(X) for x in R.ob[d].morphisms})
    for g, (e, d) in k.onecells.items():
        dom = compose_functors(comp[e], R.on1[g])
        cod = compose_functors(F.on1[g], comp[d])
        cmp = {}
        for f in R.ob[d].objects:
            chi = F.chi(f, g).at(X)
            cmp[f] = F.ob[e].compose(F.ob[e].inverse(chi),
                                     F.on2[s.sigma[(f, g)]].at(X))
        cells[g] = NatTrans(dom, cod, cmp)
    return PsNatTrans(R, F, comp, cells)


def descent_category(F, s, budget=None):
    """The category of pseudonatural transformations out of the sieve,
    named ``a%d`` in drawn order, and the modifications between them,
    named ``m%d`` and built for a pair on first read
    (``fincat.Enumerated``)."""
    budget = budget or Budget()
    R = s.derived(sieve_presheaf)
    k = s.k
    obs = sorted(k.objects)

    def iso_cells(comp):
        for g, (e, d) in sorted(k.onecells.items()):
            dom = compose_functors(comp[e], R.on1[g])
            cod = compose_functors(F.on1[g], comp[d])
            yield g, [t for t in all_nat_trans(dom, cod, budget)
                      if all(F.ob[e].is_iso(m) for m in t.comp.values())]

    nats = []
    functors = ((d, all_functors(R.ob[d], F.ob[d], budget)) for d in obs)
    for (comp,) in choices(budget, functors):
        for (cells,) in choices(budget, iso_cells(comp)):
            cand = PsNatTrans(R, F, comp, cells)
            if check_ps_nat(cand, budget).ok:
                nats.append(cand)

    def between(t, t2):
        comps = ((d, all_nat_trans(t.comp[d], t2.comp[d], budget))
                 for d in obs)
        mods = (CatModification(t, t2, comp)
                for (comp,) in choices(budget, comps))
        return [m.key() for m in mods if check_modification(m, budget).ok]

    def identity(t):
        return CatModification(t, t, {d: identity_nat(t.comp[d])
                                      for d in obs}).key()

    def compose(later, earlier):
        return tuple((d, vcomp_key(F.ob[d], x, y))
                     for (d, x), (_, y) in zip(later, earlier))

    return Enumerated(nats, between, identity, compose, ("a", "m"))


def is_stack_catvalued(F, tau, budget=None):
    """For every covering sieve: restriction from the value at the target
    into the descent category must be an equivalence of categories
    (``is_stack_on_sieve``).

    A sieve on c that contains id_c is skipped: restriction along it is an
    equivalence for every F, by the Yoneda lemma.  Such a sieve holds every
    1-cell into c up to an invertible 2-cell, so it is equivalent to the
    representable at c, the descent category to the pseudonatural maps
    out of that representable, and those, by evaluation at id_c, to F(c);
    restriction followed by evaluation at id_c is isomorphic to the
    identity of F(c) through F's unitor.  ``is_stack_on_sieve`` decides
    such a sieve in full."""
    budget = budget or Budget()
    for c in sorted(F.base.objects):
        for i, s in enumerate(tau.sieves_on(c)):
            if contains_identity(s):
                continue
            r = is_stack_on_sieve(F, s, budget)
            if not r.ok:
                r.name = "is_stack_catvalued"
                r.details.insert(0, "sieve #%d on %r" % (i, c))
                r.witness.update({"object": c, "sieve": i})
                return r
    return passed("is_stack_catvalued")


def is_stack_on_sieve(F, s, budget=None):
    """Decide, by search, whether restriction from the value at the target
    of s into the descent category is an equivalence of categories
    (``fincat.is_equivalence``).

    The restriction of each object and morphism of the value lies in the
    descent category when F is a pseudofunctor on the sieve's base, that
    base passes ``check_two_category`` and the sieve passes
    ``check_bisieve``, as the ``stack`` and ``subcanonical`` ops refuse
    other input: its components are the functors f |-> F(f)(X), which
    ``all_functors`` draws, its cells are the invertible natural
    transformations chi^-1 . F(sigma(f, g)), which ``all_nat_trans`` draws,
    and it passes ``check_ps_nat`` by the coherence of F and the typing of
    sigma; a morphism of the value restricts to a modification by the
    naturality of chi and F(sigma)."""
    budget = budget or Budget()
    obs = sorted(F.base.objects)
    desc = descent_category(F, s, budget)
    names = {t.key(): a for a, t in desc.value.items()}
    R = s.derived(sieve_presheaf)
    val_c = F.ob[s.target]
    restricted, ob_map, mor_map = {}, {}, {}
    for X in val_c.objects:
        budget.tick()
        t = restricted[X] = _sieve_restriction_nat(R, F, s, X)
        ob_map[X] = names[t.key()]
    for m0 in val_c.morphisms:
        budget.tick()
        tX = restricted[val_c.src[m0]]
        tY = restricted[val_c.tgt[m0]]
        mor_map[m0] = CatModification(tX, tY, {
            d: NatTrans(tX.comp[d], tY.comp[d],
                        {f: F.on1[f].m(m0) for f in R.ob[d].objects})
            for d in obs}).key()
    return is_equivalence(Functor(val_c, desc, ob_map, mor_map), budget)


def is_subcanonical(k, tau, budget=None):
    """Every representable must satisfy the stack condition."""
    budget = budget or Budget()
    for x in sorted(k.objects):
        r = is_stack_catvalued(representable(k, x), tau, budget)
        if not r.ok:
            r.name = "is_subcanonical"
            r.details.insert(0, "representable at %r" % x)
            r.witness.update({"representable": x})
            return r
    return passed("is_subcanonical")


# --- enumeration of descent packages and the 2-stack verdict ----------------

def _all_matching_families(F, s, a, b, budget):
    k = s.k
    cells = ((f, F.ob[k.onecells[f][0]].two_cells_between(F.on1[f].on1[a],
                                                           F.on1[f].on1[b]))
             for _, f in s.all_members())
    for (w,) in choices(budget, cells):
        mf = MatchingFamily2Cells(F, s, a, b, w)
        if check_matching_family(mf, budget).ok:
            yield mf


def _all_descent_data_mor(F, s, budget):
    val_c = F.ob[s.target]
    for X in sorted(val_c.objects):
        for Y in sorted(val_c.objects):
            members = ((f, val.one_cells_between(src, tgt))
                       for f, val, src, tgt in _ddm_members(F, s, X, Y))
            for (w,) in choices(budget, members):
                for cells in _comparisons(budget, _ddm_cells(F, s, X, Y, w)):
                    dd = DescentDatumMorphisms(F, s, X, Y, w, **cells)
                    if check_descent_datum_mor(dd, budget).ok:
                        yield dd


def _equivalent_image(val, h):
    """The narrowing test that a is equivalent in val to h(b)."""
    return lambda a, b: val.equivalent_objects(a, h.ob[b])


def _all_weak_data(F, s, budget):
    k = s.k
    member_cells = tuple(_member_two_cells(s))

    def transitions(W):
        for d, f, f2, gamma in member_cells:
            yield gamma, F.ob[d].one_cells_between(W[f], W[f2])

    def equivalences(W):
        for d, f, e, g in _cells_into(s):
            val_e = F.ob[e]
            yield (f, g), [p for p in val_e.one_cells_between(
                W[s.tilde[(f, g)]], F.on1[g].ob[W[f]])
                if val_e.is_equivalence_1cell(p, budget)]

    objects = [(f, sorted(F.ob[k.onecells[f][0]].objects))
               for _, f in s.all_members()]
    # a W with no 1-cell W[f] -> W[f2] under some gamma has no transitions,
    edges = [(f, f2, F.ob[d].one_cells_between) for d, f, f2
             in dict.fromkeys((d, f, f2) for d, f, f2, _ in member_cells)]
    # and one with no equivalence W[tilde] -> g*W[f] has no phi
    edges += [(s.tilde[(f, g)], f, _equivalent_image(F.ob[e], F.on1[g]))
              for d, f, e, g in _cells_into(s)]
    for (W,) in choices(budget, narrow(objects, edges), edges=edges):
        isos = {}
        for eta, phi in choices(budget, transitions(W), equivalences(W)):
            for cells in _comparisons(budget, _wdd_cells(F, s, W, eta, phi)):
                wdd = WeakDescentDatum(F, s, W, eta, phi, **cells)
                wdd._isos = isos
                if check_weak_descent_datum(wdd, budget).ok:
                    yield wdd


def _parallel_pairs(val):
    ones = sorted(val.onecells)
    for a in ones:
        for b in ones:
            if val.onecells[a] == val.onecells[b]:
                yield a, b


def is_2stack(F, tau, budget=None):
    """Decide the three descent conditions over every covering sieve by
    exhaustive package enumeration (the characterization-side checker)."""
    budget = budget or Budget()
    k = F.base
    reports = []
    for c in sorted(k.objects):
        val_c = F.ob[c]
        for i, s in enumerate(tau.sieves_on(c)):
            tag = "sieve #%d on %r" % (i, c)
            # (2C): unique amalgamation of every matching family
            for a, b in _parallel_pairs(val_c):
                for mf in _all_matching_families(F, s, a, b, budget):
                    ams = find_amalgamations(mf, budget)
                    if len(ams) != 1:
                        return failed(
                            "is_2stack",
                            ["%s: matching family on (%r, %r) has %d "
                             "amalgamations" % (tag, a, b, len(ams))],
                            {"object": c, "sieve": i, "condition": "2C",
                             "endpoints": [a, b], "family": mf.w,
                             "amalgamations": ams})
            reports.append(passed("is_2stack", ["%s: (2C) holds" % tag]))
            # (M): effectiveness of every descent datum on morphisms
            for dd in _all_descent_data_mor(F, s, budget):
                if find_effective_gluing_mor(dd, budget) is None:
                    return failed(
                        "is_2stack",
                        ["%s: descent datum on (%r, %r) is not effective"
                         % (tag, dd.X, dd.Y)],
                        {"object": c, "sieve": i, "condition": "M",
                         "endpoints": [dd.X, dd.Y], "family": dd.w})
            reports.append(passed("is_2stack", ["%s: (M) holds" % tag]))
            # (O): weak effectiveness of every weak descent datum
            for wdd in _all_weak_data(F, s, budget):
                if find_weak_effective_gluing(wdd, budget) is None:
                    return failed(
                        "is_2stack",
                        ["%s: weak descent datum is not weakly effective"
                         % tag],
                        {"object": c, "sieve": i, "condition": "O",
                         "family": wdd.W})
            reports.append(passed("is_2stack", ["%s: (O) holds" % tag]))
    return merge("is_2stack", reports) if reports else \
        passed("is_2stack", ["no covering sieves declared"])


# --- the direct biequivalence cross-check ------------------------------------

def _all_ps_two_functors(dom, cod, pools, budget):
    """Every pseudofunctor dom -> cod whose object map takes each object x
    into pools[x]."""
    obs = sorted(dom.objects)
    # an object map with no 1-cell under some 1-cell of dom has no on1
    linked = [(x, y, cod.one_cells_between)
              for x, y in dict.fromkeys(dom.onecells.values())]
    for (ob,) in choices(budget, [(x, pools[x]) for x in obs], edges=linked):
        ones = ((f, cod.one_cells_between(ob[x], ob[y]))
                for f, (x, y) in sorted(dom.onecells.items()))
        for (on1,) in choices(budget, ones):
            twos = ((a, cod.two_cells_between(on1[f], on1[g]))
                    for a, (f, g) in sorted(dom.twocells.items()))
            families = [(slot, sorted(cells)) for slot, cells
                        in _ps_two_functor_cells(dom, cod, ob, on1)]
            for (on2,) in choices(budget, twos):
                for cells in _comparisons(budget, families):
                    cand = PsTwoFunctor(dom, cod, ob, on1, on2, **cells)
                    if check_ps_two_functor(cand, budget).ok:
                        yield cand


def _all_ps_two_nats(g, h, budget, equivalences=False):
    cod = g.cod

    def components():
        for x in sorted(g.dom.objects):
            pool = cod.one_cells_between(g.ob[x], h.ob[x])
            if equivalences:
                pool = [p for p in pool
                        if cod.is_equivalence_1cell(p, budget)]
            yield x, pool

    for (comp,) in choices(budget, components()):
        for cells in _comparisons(budget, _ps_two_nat_cells(g, h, comp)):
            cand = PsTwoNatTrans(g, h, comp, **cells)
            if check_ps_two_nat(cand, budget).ok:
                yield cand


def _all_tritransformations(R, F, budget):
    k = R.base

    def squares(comp):
        for f, (d, c) in sorted(k.onecells.items()):
            dom = compose_ps_two_functors(comp[d], R.on1[f])
            cod = compose_ps_two_functors(F.on1[f], comp[c])
            yield f, list(_all_ps_two_nats(dom, cod, budget,
                                           equivalences=True))

    obs = sorted(k.objects)
    # one variable (c, x), the object comp[c] sends x to, per object x of
    # R at c: each 1-cell of R at c needs a 1-cell under comp[c], and each
    # square f: d -> c an equivalence comp[d](f*x) -> f*comp[c](x)
    objects = [((c, x), sorted(F.ob[c].objects))
               for c in obs for x in sorted(R.ob[c].objects)]
    edges = [((c, x), (c, y), F.ob[c].one_cells_between) for c in obs
             for x, y in dict.fromkeys(R.ob[c].onecells.values())]
    edges += [((d, R.on1[f].ob[x]), (c, x),
               _equivalent_image(F.ob[d], F.on1[f]))
              for f, (d, c) in sorted(k.onecells.items())
              for x in sorted(R.ob[c].objects)]
    pools = dict(narrow(objects, edges))
    comps = ((c, list(_all_ps_two_functors(
        R.ob[c], F.ob[c], {x: pools[c, x] for x in R.ob[c].objects},
        budget))) for c in obs)
    for (comp,) in choices(budget, comps):
        for (square,) in choices(budget, squares(comp)):
            for cells in _comparisons(
                    budget, _tritrans_cells(R, F, comp, square)):
                cand = Tritransformation(R, F, comp, square, **cells)
                if check_tritransformation(cand, budget).ok:
                    yield cand


def _all_trimods(sx, sy, budget):
    comps = ((c, list(_all_ps_two_nats(sx.comp[c], sy.comp[c], budget)))
             for c in sorted(sx.dom.base.objects))
    for (comp,) in choices(budget, comps):
        for cells in _comparisons(budget, _trimod_cells(sx, sy, comp)):
            cand = Trimodification(sx, sy, comp, **cells)
            if check_trimodification(cand, budget).ok:
                yield cand


def _all_perturbations(ma, mb, budget):
    R, F = ma.dom.dom, ma.dom.cod
    obs = sorted(R.base.objects)

    def cells(d):
        for x in R.ob[d].objects:
            yield x, F.ob[d].two_cells_between(ma.comp[d].comp[x],
                                               mb.comp[d].comp[x])

    for tables in choices(budget, *map(cells, obs)):
        cand = Perturbation(ma, mb, dict(zip(obs, tables)))
        if check_perturbation(cand, budget).ok:
            yield cand


def _pointwise_invertible(q):
    """All component 2-cells of the perturbation are invertible."""
    F = q.dom.dom.cod
    return all(F.ob[d].invertible2(cell)
               for d, tab in q.comp.items() for cell in tab.values())


def _pointwise_equivalent(m, budget):
    """All component 1-cells of the modification are equivalences."""
    F = m.dom.cod
    k = m.dom.dom.base
    for d in k.objects:
        val = F.ob[d]
        for x, comp1 in m.comp[d].comp.items():
            if val.equivalence_data(comp1, budget) is None:
                return False
    return True


def is_2stack_direct(F, tau, budget=None):
    """Cross-check oracle: restriction from the value at the target of
    each covering sieve into the transformations out of the sieve must be
    a biequivalence (``is_2stack_direct_on_sieve``).

    A literally closed sieve on c that contains id_c passes with no step,
    by the tricategorical Yoneda lemma (Gurski, *Coherence in
    Three-Dimensional Category Theory*, 2013): it holds every 1-cell into
    c up to an invertible 2-cell, so it is equivalent to the representable
    at c, and the transformations out of it are equivalent to F(c) by
    evaluation at id_c, which after restriction is the identity.  The
    per-sieve search can disagree there: it omits the trimodification and
    tritransformation axioms at the base's 2-cells (ROADMAP item 1), and
    fails constant B(Z/2) over ``chain_suspension(2)`` under the maximal
    sieve on Y at (M).  ``is_2stack`` searches every sieve.
    """
    budget = budget or Budget()
    reports = []
    for c in sorted(F.base.objects):
        for i, s in enumerate(tau.sieves_on(c)):
            if contains_identity(s) and literally_closed(s):
                reports.append(passed("is_2stack_direct", [
                    "sieve #%d on %r: contains %r, so restriction is a "
                    "biequivalence by the Yoneda lemma"
                    % (i, c, s.k.id1(c))]))
                continue
            r = _on_sieve(is_2stack_direct_on_sieve(F, s, budget), c, i)
            if not r.ok:
                return r
            reports.append(r)
    return merge("is_2stack_direct", reports) if reports else \
        passed("is_2stack_direct", ["no covering sieves declared"])


def _on_sieve(r, c, i):
    """r, a per-sieve report on sieve #i on c, placed in its cover: each
    detail names the sieve and the witness starts with its object and
    index."""
    r.details = ["sieve #%d on %r: %s" % (i, c, d) for d in r.details]
    r.witness = {"object": c, "sieve": i, **r.witness}
    return r


def is_2stack_direct_on_sieve(F, s, budget=None):
    """Decide, by search, whether restriction from the value at the target
    of s into the transformations out of the sieve is a biequivalence:
    materializes those transformations and decides the three
    restriction-functor conditions (surjectivity on objects up to
    componentwise equivalence, essential surjectivity on morphisms, full
    faithfulness on 2-cells).  Inconclusive on a sieve that is not
    ``literally_closed``, which has no sieve trihom.

    Only the displayed axioms of the materialized structures are enforced
    (as in the three-level checkers); equivalence of transformations is
    decided through a modification with equivalence components.
    """
    budget = budget or Budget()
    try:
        R = sieve_trihom(s)
    except MalformedTable as exc:
        return inconclusive("is_2stack_direct", [str(exc)])
    val_c = F.ob[s.target]
    sigma = {X: induced_tritrans(F, R, X) for X in sorted(val_c.objects)}
    restricted = {w: induced_trimod(F, w, sigma[X], sigma[Y])
                  for w, (X, Y) in val_c.onecells.items()}
    # full faithfulness on 2-cells
    for X in sorted(val_c.objects):
        for Y in sorted(val_c.objects):
            for w in val_c.one_cells_between(X, Y):
                for w2 in val_c.one_cells_between(X, Y):
                    budget.tick()
                    ma, mb = restricted[w], restricted[w2]
                    perts = list(_all_perturbations(ma, mb, budget))
                    images = {al: induced_pert(F, al, ma, mb).comp
                              for al in val_c.two_cells_between(w, w2)}
                    for q in perts:
                        hits = [al for al, im in images.items()
                                if im == q.comp]
                        if len(hits) != 1:
                            return failed(
                                "is_2stack_direct",
                                ["2-cell restriction not bijective on "
                                 "(%r, %r)" % (w, w2)],
                                {"condition": "2C", "pair": [w, w2],
                                 "preimages": hits})
    # (M): each trimodification is a restriction up to an iso
    for X in sorted(val_c.objects):
        for Y in sorted(val_c.objects):
            for m in _all_trimods(sigma[X], sigma[Y], budget):
                if not any(_pointwise_invertible(q)
                           for w in val_c.one_cells_between(X, Y)
                           for q in _all_perturbations(
                               restricted[w], m, budget)):
                    return failed(
                        "is_2stack_direct",
                        ["a modification on (%r, %r) has no invertible "
                         "comparison to a restriction" % (X, Y)],
                        {"condition": "M", "endpoints": [X, Y]})
    # surjectivity on objects up to componentwise equivalence
    for alpha in _all_tritransformations(R, F, budget):
        if not any(_pointwise_equivalent(m, budget)
                   for X in sorted(val_c.objects)
                   for m in _all_trimods(alpha, sigma[X], budget)):
            return failed(
                "is_2stack_direct",
                ["a transformation out of the sieve is not equivalent to "
                 "any restriction"], {"condition": "O"})
    return passed("is_2stack_direct",
                  ["(2C) holds", "(M) holds", "(O) holds"])
