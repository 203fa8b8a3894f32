"""Sigma-bicocones and sigma-bicolimits over element 2-categories.

A sigma-bicocone is an oplax cocone whose structure 2-cell is invertible on
every marked shape morphism (those whose 2-cell component is invertible).
An object is the sigma-bicolimit of a diagram when, for every test object,
whiskering the universal cocone is an equivalence between the hom-category
out of the apex and the category of cocones.

That equivalence is decided by ``fincat.is_equivalence``, the one
decision of the toolkit, over the cocones on a test object enumerated in
sorted order, with the modifications between two of them
(``cocone_morphisms``) built only for the pairs that it reads
(``fincat.Enumerated``).

Every cocone is tested on its displays alone (``_cocone_displays``: the
conditions that ``_cocone_conditions`` declares, which
``report.first_failure`` evaluates with no thin skip, then invertibility
on the marked 1-cells).  The drawn cocones are typed by construction
(``enumerate_sigma_cocones``).  ``verify_sigma_bicolim`` takes its
cocone as a sigma-cocone and tests no display of it: its docstring proves
that the universal cocone of a sieve that passes ``check_bisieve``
(``universal_cocone``) is one.  Both assume a valid strict 2-functor into
a valid 2-category, as ``projection_diagram`` of a valid bisieve is.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import SearchBudgetExceeded
from .fincat import Enumerated, Functor, is_equivalence
from .report import Budget, Display, choices, failed, first_failure, \
    inconclusive, passed, reported
from .sieves import contains_identity, groth


class Diagram:
    """A strict 2-functor from a finite shape 2-category into K.

    marked lists the shape 1-cells on which sigma-cocones must have
    invertible structure 2-cells.
    """

    def __init__(self, shape, k, ob, on1, on2, marked=()):
        self.shape = shape
        self.k = k
        self.ob = dict(ob)
        self.on1 = dict(on1)
        self.on2 = dict(on2)
        self.marked = frozenset(marked)

    @cached_property
    def free(self):
        """The shape 1-cells that a cocone's structure cells are chosen on
        (``_free_generators``), chosen once per diagram."""
        return _free_generators(self.shape)


def projection_diagram(gt):
    """The first-component projection of the 2-category of elements."""
    k = gt.sieve.k
    ob = {name: df[0] for name, df in gt.ob_of.items()}
    on1 = {name: ga[0] for name, ga in gt.one_of.items()}
    on2 = {name: delta for name, delta in gt.two_of.items()}
    marked = [name for name, (g, a) in gt.one_of.items()
              if k.invertible2(a)]
    return Diagram(gt.two_cat, k, ob, on1, on2, marked)


@dataclass(frozen=True)
class SigmaCocone:
    """legs: shape object -> 1-cell into the apex; cells: shape 1-cell m
    with m: s -> t mapped to a 2-cell legs[s] => legs[t] . F(m)."""

    apex: str
    legs: tuple     # sorted pairs
    cells: tuple    # sorted pairs

    @staticmethod
    def make(apex, legs, cells):
        return SigmaCocone(apex, tuple(sorted(legs.items())),
                           tuple(sorted(cells.items())))

    def leg(self, s):
        return dict(self.legs)[s]

    def cell(self, m):
        return dict(self.cells)[m]


def check_sigma_cocone(d, cc, budget=None):
    """The displays (``_cocone_displays``) of a typed cocone, with identity
    cells at the identity 1-cells, over a valid strict 2-functor into a
    valid 2-category: the universal cocone (``universal_cocone`` says why it
    is typed) or a cocone that a test draws typed."""
    return _cocone_displays(d, dict(cc.legs), dict(cc.cells),
                            budget or Budget())


def _cocone_displays(d, legs, cells, budget):
    """The composition condition at every composable pair and the 2-cell
    condition (``_cocone_conditions``), then invertibility on the marked
    1-cells, of typed legs and cells over a valid strict 2-functor into a
    valid 2-category."""
    bad = first_failure(budget, _cocone_conditions, d, legs, cells)
    if bad is not None:
        return reported("check_sigma_cocone", bad)
    for m in sorted(d.marked):
        if not d.k.invertible2(cells[m]):
            return failed("check_sigma_cocone",
                          ["structure 2-cell not invertible on marked %r" % m],
                          {"onecell": m})
    return passed("check_sigma_cocone")


def _cocone_conditions(d, legs, cells):
    k, sh = d.k, d.shape

    def two_cell(x):
        m, m2 = sh.twocells[x]
        return k.v(k.wl(legs[sh.tgt1(m)], d.on2[x]), cells[m]), cells[m2]

    return (
        Display("cocone composition condition", sh.hcomp1,
                lambda b, a: (cells[sh.hcomp1[(b, a)]],
                              k.v(k.wr(cells[b], d.on1[a]), cells[a])),
                "composition condition fails at (%r, %r)", "pair pair"),
        Display("cocone 2-cell condition", zip(sh.twocells), two_cell,
                "2-cell condition fails at %r", "twocell"))


def _free_generators(sh):
    """A set of shape 1-cells from which every other 1-cell is derivable
    by composition (identities are always derivable).  Chosen greedily in
    sorted order so the choice is deterministic."""
    identities = {sh.id1(s) for s in sh.objects}
    known = set(identities)
    remaining = [m for m in sorted(sh.onecells) if m not in identities]
    factors = {}
    for pair, c in sh.hcomp1.items():
        factors.setdefault(c, []).append(pair)
    free = []
    while remaining:
        progressed = True
        while progressed:
            progressed = False
            for m in list(remaining):
                if any(b in known and a in known
                       for b, a in factors.get(m, ())):
                    known.add(m)
                    remaining.remove(m)
                    progressed = True
        if remaining:
            m = remaining.pop(0)
            free.append(m)
            known.add(m)
    return free


def enumerate_sigma_cocones(d, u, budget=None):
    """All sigma-bicocones on u of a valid strict 2-functor into a valid
    2-category.  Each is drawn typed, with identities at the identity
    1-cells: legs from the 1-cells into u, the cells on ``Diagram.free``
    from the 2-cells on their boundaries (invertible on marked 1-cells),
    and the composites derived (``_complete_cells``).  So only its
    displays are tested."""
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
            if _cocone_displays(d, legs, cells, budget).ok:
                out.append(SigmaCocone.make(u, legs, cells))
    return sorted(out, key=lambda c: (c.legs, c.cells))


def _complete_cells(d, cells):
    """Derive the composite structure cells from those of the identities
    and the free generators.  ``_free_generators`` takes a 1-cell until
    their closure under composition is every shape 1-cell, so every cell
    is derived."""
    k, sh = d.k, d.shape
    changed = True
    while changed:
        changed = False
        for (b, a), c in sh.hcomp1.items():
            if b in cells and a in cells and c not in cells:
                cells[c] = k.v(k.wr(cells[b], d.on1[a]), cells[a])
                changed = True


def cocone_morphisms(d, c1, c2, budget=None):
    """Modifications between two cocones: compatible component families."""
    budget = budget or Budget()
    cells1, cells2 = dict(c1.cells), dict(c2.cells)
    legs1, legs2 = dict(c1.legs), dict(c2.legs)
    pools = ((s, d.k.two_cells_between(legs1[s], legs2[s]))
             for s in sorted(d.shape.objects))
    return [tuple(sorted(mu.items()))
            for (mu,) in choices(budget, pools)
            if _commutes(d, cells1, cells2, mu)]


def _commutes(d, cells1, cells2, mu):
    """Do the components mu (shape object -> 2-cell) commute with the
    structure cells of two cocones at every shape 1-cell?"""
    k = d.k
    return all(k.v(cells2[m], mu[s]) == k.v(k.wr(mu[t], d.on1[m]), cells1[m])
               for m, (s, t) in d.shape.onecells.items())


def whisker_cocone(d, cc, r):
    """Postcompose a cocone with a 1-cell out of its apex."""
    k = d.k
    legs = {s: k.c1(r, leg) for s, leg in cc.legs}
    cells = {m: k.wl(r, c) for m, c in cc.cells}
    return SigmaCocone.make(k.tgt1(r), legs, cells)


def cocone_category(d, u, budget=None):
    """The sigma-cocones on u, named ``cc%d`` in sorted order, and the
    modifications between them, named ``md%d`` and built for a pair on
    first read (``fincat.Enumerated``)."""
    budget = budget or Budget()
    k = d.k
    return Enumerated(
        enumerate_sigma_cocones(d, u, budget),
        lambda c1, c2: cocone_morphisms(d, c1, c2, budget),
        lambda cc: tuple((s, k.id2(r)) for s, r in cc.legs),
        lambda later, earlier: tuple((s, k.v(x, y)) for (s, x), (_, y)
                                     in zip(later, earlier)),
        ("cc", "md"))


def _comparison(d, mu, u, budget):
    """Decide whether whiskering mu is an equivalence from Hom(apex, u)
    onto the category of sigma-cocones on u (``fincat.is_equivalence``).
    Returns (report, number of cocones).

    Whiskering is a functor into that category when mu is a sigma-cocone
    over a 2-category that passes ``check_two_category``, as
    ``verify_sigma_bicolim`` requires: by the unit and interchange laws,
    whiskering by a 1-cell keeps every condition of a cocone, so it yields
    one that ``enumerate_sigma_cocones`` draws; whiskering by a 2-cell
    yields a modification; and whiskering preserves identities and
    composites.
    The oracle ``tests/sigma_oracles.tabulated_is_equivalence`` tests all
    three."""
    k = d.k
    cocones = cocone_category(d, u, budget)
    names = {cc: a for a, cc in cocones.value.items()}
    hom = k.hom_cat(mu.apex, u)
    whiskering = Functor(
        hom, cocones,
        {r: names[whisker_cocone(d, mu, r)] for r in hom.objects},
        {gam: tuple((s, k.wr(gam, leg)) for s, leg in mu.legs)
         for gam in hom.morphisms})
    return is_equivalence(whiskering, budget), len(cocones.objects)


def verify_sigma_bicolim(d, mu, budget=None):
    """Decide whether the apex of mu is the sigma-bicolimit of d: at each
    test object u, whiskering mu is an equivalence from Hom(apex, u) onto
    the sigma-cocones on u.  The witness maps each test object decided to
    its comparison's verdict (``per_object``).

    mu must be a sigma-cocone of d over a 2-category that passes
    ``check_two_category``; none of its displays is tested.  The universal
    cocone of a sieve s that passes ``check_bisieve`` is one.  It is typed
    (``universal_cocone``), and its cell at a shape 1-cell (g, a):
    (e, h) -> (d, f) is sigma(f, g) . a, with sigma(f, g):
    tilde(f, g) => f.g invertible.  Composition condition: ``groth``
    composes a = (g1, a1): (e', h') -> (e, h) and b = (g2, a2) to
    (g2.g1, a3), with a3 = C . sigma(tilde(f, g2), g1)^-1 . wr(a2, g1) .
    sigma(h, g1) . a1, where the compositor C (``_compositor_cell``) is
    sigma(f, g2.g1)^-1 . wr(sigma(f, g2), g1) . sigma(tilde(f, g2), g1).
    So the cell sigma(f, g2.g1) . a3 cancels to wr(sigma(f, g2), g1) .
    wr(a2, g1) . sigma(h, g1) . a1, which is wr(cell at b, g1) . cell at
    a, since whiskering by g1 is a functor.  2-cell condition: ``groth``
    has a 2-cell delta: g1 => g2 from (g1, a1) to (g2, a2) exactly when
    sigma(f, g2)^-1 . wl(f, delta) . sigma(f, g1) . a1 = a2, that is, when
    wl(f, delta) . cell at (g1, a1) = cell at (g2, a2).  Marked cells:
    (g, a) is marked when a is invertible, and then so is sigma(f, g) . a.
    ``tests/test_sigma_colim.test_universal_cocones_are_typed`` runs
    ``check_sigma_cocone`` on the universal cocones of 753 sieves.

    Pseudonaturality in u needs no check on a 2-category that passes
    ``check_two_category``: for e: u1 -> u2 and r: apex -> u1, whiskering
    mu by e.r is whiskering by r, then by e, since (e.r).l = e.(r.l) on
    each leg l and wl(e.r, x) = h(h(id e, id r), x) = wl(e, wl(r, x)) on
    each cell x, by associativity and h(id e, id r) = id (e.r)."""
    budget = budget or Budget()
    per_object = {}
    details = []
    try:
        for u in sorted(d.k.objects):
            rep, count = _comparison(d, mu, u, budget)
            per_object[u] = rep.verdict
            if not rep.ok:
                details.append("comparison at %r: %s" % (u, rep.details))
                return failed("verify_sigma_bicolim", details,
                              dict(rep.witness, test_object=u,
                                   per_object=per_object))
            details.append("comparison at %r: equivalence onto %d cocones"
                           % (u, count))
    except SearchBudgetExceeded as exc:
        return inconclusive("verify_sigma_bicolim",
                            ["budget exhausted after %d steps" % exc.steps],
                            {"steps": exc.steps, "per_object": per_object})
    return passed("verify_sigma_bicolim", details, {"per_object": per_object})


def universal_cocone(s, gt=None):
    """The canonical cocone presenting the target over a sieve's elements,
    typed if s passes ``check_bisieve``: each leg is a member f: d -> c,
    which that types; each cell v(sigma(f, g), alpha) runs h => f.g, by the
    construction of ``groth``; and the cell at the identity of (d, f) is
    v(sigma(f, id_d), id2 f) = id2 f, by the normality it checks."""
    gt = gt or groth(s)
    k = s.k
    d = projection_diagram(gt)
    legs = {name: df[1] for name, df in gt.ob_of.items()}
    cells = {}
    for name, (g, alpha) in gt.one_of.items():
        src_name, tgt_name = gt.two_cat.onecells[name]
        f = gt.ob_of[tgt_name][1]
        cells[name] = k.v(s.sigma[(f, g)], alpha)
    return d, SigmaCocone.make(s.target, legs, cells)


def is_sigma_bicolim_bisieve(s, budget=None):
    """Decide whether the target c of a valid sieve s is the
    sigma-bicolimit of its elements (``verify_sigma_bicolim`` of
    ``universal_cocone``).

    A sieve that contains id_c passes at every test object, with no step
    spent and no 2-category of elements built.  This is the Yoneda lemma:
    (c, id_c) is an element, and each element (d, f) has a marked 1-cell
    into it, f with the inverse of the witness sigma[(id_c, f)], that is
    initial in its hom-category.  So a sigma-cocone on u is determined, up
    to a unique invertible modification, by its leg at (c, id_c), and
    taking that leg is an equivalence onto Hom(c, u), inverse to
    whiskering the universal cocone, whose leg there is id_c.
    ``verify_sigma_bicolim(*universal_cocone(s))`` decides such a sieve in
    full."""
    if contains_identity(s):
        return passed("verify_sigma_bicolim",
                      ["the sieve contains %r: its target is the "
                       "sigma-bicolimit by the Yoneda lemma"
                       % s.k.id1(s.target)],
                      {"per_object": {u: "pass" for u in sorted(s.k.objects)}})
    d, mu = universal_cocone(s)
    return verify_sigma_bicolim(d, mu, budget)
