"""Finite strict 2-categories as explicit tables.

One- and two-cells are opaque string ids, globally unique within one
Fin2Cat.  Vertical composition lives in the hom-categories; horizontal
composition is a pair of total tables (on 1-cells and on 2-cells) required
to be strictly associative, unital and functorial.

Also here: iso-comma objects with their bicategorical universal
property, and pseudofunctors into Cat with their transformations and
modifications.  No checker tests such a pseudofunctor: each is built by
construction (``sieves.sieve_presheaf``, ``builders.strict_ps_functor``).
``check_ps_nat`` and ``check_modification`` take typed input, and
``report.first_failure`` evaluates their declared displays.
"""

from dataclasses import dataclass
from types import MappingProxyType

from .errors import BoundaryMismatch, MalformedTable
from .fincat import FinCat, _is_cell, by_boundary, check_category, \
    tabulate
from .report import Budget, Display, Recorded, failed, first_failure, \
    passed, reported


class Fin2Cat(Recorded):
    """A finite strict 2-category given by explicit tables.

    onecells: id -> (src object, tgt object)
    twocells: id -> (src 1-cell, tgt 1-cell)
    identity1: object -> 1-cell, identity2: 1-cell -> 2-cell
    vcomp[(b, a)]: b after a (vertical); hcomp1[(g, f)] / hcomp2: g after f.

    Immutable after construction: every table is a read-only mapping, so
    a write raises TypeError.  The cells between each pair of boundaries,
    the 1-cells into each object, both in id order, and the composites of
    the composable pairs that ``c1`` and ``v`` read are indexed once here,
    so no result depends on the order of a table; to change a table,
    build a new Fin2Cat.  Memoised on first use: ``composable_triples``,
    ``locally_thin``, ``inverse2``, ``isos_between`` (which
    ``invertible_2cell`` reads), ``equivalent_objects`` and ``hom_cat``.

    ``recorded`` (``report.Recorded``) keeps, with the steps they spent,
    ``equivalence_data`` (by the 1-cell), the ``check_two_category``
    report (by its op's name, ``two_category``), and what ``sieves``
    keeps: the coverage index, which interns the sieves built on k.
    """

    def __init__(self, objects, onecells, twocells, identity1, identity2,
                 vcomp, hcomp1, hcomp2):
        self.objects = tuple(objects)
        self.onecells = _boundaries(onecells, "1-cell")
        self.twocells = _boundaries(twocells, "2-cell")
        self.identity1 = MappingProxyType(dict(identity1))
        self.identity2 = MappingProxyType(dict(identity2))
        self.vcomp = MappingProxyType(dict(vcomp))
        self.hcomp1 = MappingProxyType(dict(hcomp1))
        self.hcomp2 = MappingProxyType(dict(hcomp2))
        self._ones = by_boundary(self.onecells)
        self._twos = by_boundary(self.twocells)
        into = {}
        for f, (a, b) in sorted(self.onecells.items()):
            into.setdefault(b, []).append((f, a))
        self._into = {b: tuple(fs) for b, fs in into.items()}
        self._c1 = _composable(self.hcomp1, self.onecells)
        self._v = _composable(self.vcomp, self.twocells)
        self._triples = None
        self._thin = None
        self._inverse2 = {}
        self._isos = {}
        self._equivalent = {}
        self._homs = {}
        self._recorded = {}
        self._key = None

    # --- boundaries ---------------------------------------------------
    def src1(self, f):
        return self.onecells[f][0]

    def tgt1(self, f):
        return self.onecells[f][1]

    def src2(self, a):
        return self.twocells[a][0]

    def tgt2(self, a):
        return self.twocells[a][1]

    def one_cells_between(self, a, b):
        return self._ones.get((a, b), ())

    def two_cells_between(self, f, g):
        return self._twos.get((f, g), ())

    def one_cells_into(self, d):
        """The 1-cells into d with their sources, as (g, e), in id order."""
        return self._into.get(d, ())

    def composable_triples(self):
        """Every (e, b, a) with (b, a) in hcomp1 and e a 1-cell out of the
        target of b: hcomp1 order, then 1-cell order.  Memoised."""
        if self._triples is None:
            self._triples = tuple(
                (e, b, a) for b, a in self.hcomp1 for e in self.onecells
                if self.tgt1(b) == self.src1(e))
        return self._triples

    def locally_thin(self):
        """At most one 2-cell between any two 1-cells.  Memoised."""
        if self._thin is None:
            self._thin = all(len(xs) == 1 for xs in self._twos.values())
        return self._thin

    # --- composition --------------------------------------------------
    def id1(self, x):
        return self.identity1[x]

    def id2(self, f):
        return self.identity2[f]

    def c1(self, g, f):
        """1-cell composite, g after f."""
        try:
            return self._c1[(g, f)]
        except (KeyError, TypeError):
            pass
        if self.tgt1(f) != self.src1(g):
            raise BoundaryMismatch("1-cells %r after %r" % (g, f))
        try:
            return self.hcomp1[(g, f)]
        except KeyError:
            raise MalformedTable("missing 1-composite (%r, %r)" % (g, f))

    def v(self, b, a):
        """Vertical composite, b after a."""
        try:
            return self._v[(b, a)]
        except (KeyError, TypeError):
            pass
        if self.tgt2(a) != self.src2(b):
            raise BoundaryMismatch("2-cells %r after %r" % (b, a))
        try:
            return self.vcomp[(b, a)]
        except KeyError:
            raise MalformedTable("missing vertical composite (%r, %r)" % (b, a))

    def v_path(self, cells):
        """Vertically compose, last-listed first (tgt-to-src order)."""
        cells = list(cells)
        a = cells.pop()
        while cells:
            a = self.v(cells.pop(), a)
        return a

    def h(self, b, a):
        """Horizontal composite, b after a."""
        try:
            return self.hcomp2[(b, a)]
        except KeyError:
            raise MalformedTable("missing 2-composite (%r, %r)" % (b, a))

    def wl(self, f, a):
        """Whisker a 2-cell on the left with a later 1-cell: f * a."""
        return self.h(self.id2(f), a)

    def wr(self, a, f):
        """Whisker a 2-cell on the right with an earlier 1-cell: a * f."""
        return self.h(a, self.id2(f))

    # --- derived structure ---------------------------------------------
    def hom_cat(self, a, b):
        """The hom category K(a, b).  Memoised: a FinCat is frozen."""
        hom = self._homs.get((a, b))
        if hom is None:
            objs = self.one_cells_between(a, b)
            cells = {x for f in objs for g in objs
                     for x in self.two_cells_between(f, g)}
            hom = self._homs[(a, b)] = FinCat(
                objs,
                {x: self.src2(x) for x in cells},
                {x: self.tgt2(x) for x in cells},
                {f: self.id2(f) for f in objs},
                {k: v for k, v in self.vcomp.items()
                 if k[0] in cells and k[1] in cells},
            )
        return hom

    def invertible2(self, a):
        return self.inverse2(a) is not None

    def inverse2(self, a):
        if a not in self._inverse2:
            f, g = self.twocells[a]
            self._inverse2[a] = next(
                (b for b in self.two_cells_between(g, f)
                 if self.v(b, a) == self.id2(f)
                 and self.v(a, b) == self.id2(g)), None)
        return self._inverse2[a]

    def iso_1cells(self, f, g):
        """Is there an invertible 2-cell f => g?"""
        return self.invertible_2cell(f, g) is not None

    def isos_between(self, f, g):
        """The invertible 2-cells f => g, in id order.  Memoised."""
        isos = self._isos.get((f, g))
        if isos is None:
            isos = self._isos[(f, g)] = tuple(
                a for a in self.two_cells_between(f, g) if self.invertible2(a))
        return isos

    def invertible_2cell(self, f, g):
        """First invertible 2-cell f => g in canonical order, or None."""
        isos = self.isos_between(f, g)
        return isos[0] if isos else None

    def equivalence_data(self, f, budget=None):
        """(g, unit, counit) with invertible unit: id => g.f and
        counit: f.g => id, or None.  Recorded per 1-cell."""
        return self.recorded(("equivalence_data", f), budget or Budget(),
                             self._equivalence_search, f)

    def _equivalence_search(self, f, budget):
        a, b = self.onecells[f]
        for g in self.one_cells_between(b, a):
            budget.tick()
            unit = self.invertible_2cell(self.id1(a), self.c1(g, f))
            counit = self.invertible_2cell(self.c1(f, g), self.id1(b))
            if unit is not None and counit is not None:
                return g, unit, counit
        return None

    def is_equivalence_1cell(self, f, budget=None):
        return self.equivalence_data(f, budget) is not None

    def equivalent_objects(self, a, b):
        """Is some 1-cell a -> b an equivalence?  Memoised."""
        known = self._equivalent.get((a, b))
        if known is None:
            known = self._equivalent[(a, b)] = any(
                self.is_equivalence_1cell(f)
                for f in self.one_cells_between(a, b))
        return known

    def key(self):
        if self._key is None:
            self._key = (self.objects, tuple(sorted(self.onecells.items())),
                         tuple(sorted(self.twocells.items())),
                         tuple(sorted(self.identity1.items())),
                         tuple(sorted(self.identity2.items())),
                         tuple(sorted(self.vcomp.items())),
                         tuple(sorted(self.hcomp1.items())),
                         tuple(sorted(self.hcomp2.items())))
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, Fin2Cat)
                                 and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Fin2Cat(%d objects, %d 1-cells, %d 2-cells)" % (
            len(self.objects), len(self.onecells), len(self.twocells))


def _boundaries(table, kind):
    """A read-only copy of a cell table whose every boundary is a pair
    of ids."""
    out = {}
    for x, st in table.items():
        try:
            s, t = st
            hash((s, t))
        except (TypeError, ValueError):
            raise MalformedTable("%s %r: boundary %r is not a pair of ids"
                                 % (kind, x, st))
        out[x] = (s, t)
    return MappingProxyType(out)


def _composable(table, cells):
    """The entries (later, earlier) -> composite of a composition table
    whose cells compose: what ``c1`` and ``v`` return without a check."""
    out = {}
    for pair, x in table.items():
        b, a = pair
        if a in cells and b in cells and cells[a][1] == cells[b][0]:
            out[pair] = x  # the table's own key, not a copy
    return out


def from_fincat(c):
    """A category viewed as a locally discrete 2-category."""
    onecells = {m: (c.src[m], c.tgt[m]) for m in c.morphisms}
    id2 = {m: "2id_%s" % m for m in c.morphisms}
    twocells = {id2[m]: (m, m) for m in c.morphisms}
    vcomp = {(id2[m], id2[m]): id2[m] for m in c.morphisms}
    hcomp1 = dict(c.comp)
    hcomp2 = {(id2[g], id2[f]): id2[h] for (g, f), h in c.comp.items()}
    return Fin2Cat(c.objects, onecells, twocells,
                   dict(c.identity), id2, vcomp, hcomp1, hcomp2)


def check_two_category(k, budget=None):
    """Decide whether the tables form a strict 2-category.  Every loop
    visits the cells in id order, and a step is one composable pair,
    triple or quadruple examined."""
    budget = budget or Budget()
    ones, twos = sorted(k.onecells), sorted(k.twocells)
    for f in ones:
        s, t = k.onecells[f]
        if s not in k.objects or t not in k.objects:
            return failed("check_two_category",
                          ["1-cell %r has a dangling endpoint" % f],
                          {"onecell": f})
    for x in twos:
        f, g = k.twocells[x]
        if f not in k.onecells or g not in k.onecells \
                or k.onecells[f] != k.onecells[g]:
            return failed("check_two_category",
                          ["2-cell %r is not between parallel 1-cells" % x],
                          {"twocell": x})
    # every later law composes with identities, so they must exist first
    for x in k.objects:
        if not _is_cell(k.onecells, k.identity1.get(x), (x, x)):
            return failed("check_two_category",
                          ["no identity 1-cell %r -> %r" % (x, x)],
                          {"object": x})
    for f in ones:
        if not _is_cell(k.twocells, k.identity2.get(f), (f, f)):
            return failed("check_two_category",
                          ["no identity 2-cell %r => %r" % (f, f)],
                          {"onecell": f})
    for a in k.objects:
        for b in k.objects:
            r = check_category(k.hom_cat(a, b), budget)
            if not r.ok:
                return failed("check_two_category",
                              ["hom(%r, %r): %s" % (a, b, r.details[0])],
                              r.witness)
    # a composite that a table gives a pair that does not compose, least
    # pair first; one(x) is the 1-cell boundary that x composes along
    for n, table, cells, one in ((1, k.hcomp1, k.onecells, lambda f: f),
                                 (2, k.hcomp2, k.twocells, k.src2)):
        loose = min((key for key in table if isinstance(key, tuple)
                     and len(key) == 2 and key[0] in cells and key[1] in cells
                     and k.tgt1(one(key[1])) != k.src1(one(key[0]))),
                    default=None)
        if loose is not None:
            return failed("check_two_category",
                          ["%d-composite of non-composable (%r, %r)"
                           % (n, *loose)], {"pair": list(loose)})
    # 1-cell composition: total, typed, unital, associative
    for g in ones:
        for f, _ in k.one_cells_into(k.src1(g)):
            budget.tick()
            if not _is_cell(k.onecells, k.hcomp1.get((g, f)),
                            (k.src1(f), k.tgt1(g))):
                return failed("check_two_category",
                              ["bad 1-composite (%r, %r)" % (g, f)],
                              {"pair": [g, f]})
    for f in ones:
        if k.c1(f, k.id1(k.src1(f))) != f or k.c1(k.id1(k.tgt1(f)), f) != f:
            return failed("check_two_category",
                          ["1-cell unit law fails at %r" % f], {"onecell": f})
    for h in ones:
        for g, _ in k.one_cells_into(k.src1(h)):
            for f, _ in k.one_cells_into(k.src1(g)):
                budget.tick()
                if k.c1(k.c1(h, g), f) != k.c1(h, k.c1(g, f)):
                    return failed("check_two_category",
                                  ["1-cell associativity fails at (%r,%r,%r)"
                                   % (h, g, f)], {"triple": [h, g, f]})
    # 2-cell horizontal composition: typed, functorial, associative,
    # unital.  into[f]: the 2-cells into the 1-cell f; ending[x]: the
    # 2-cells between 1-cells into the object x, those that compose
    # before a 2-cell out of x.  Both in id order.
    into, ending = {}, {}
    for a in twos:
        into.setdefault(k.tgt2(a), []).append(a)
        ending.setdefault(k.tgt1(k.src2(a)), []).append(a)
    for b in twos:
        for a in ending.get(k.src1(k.src2(b)), ()):
            budget.tick()
            want = (k.c1(k.src2(b), k.src2(a)), k.c1(k.tgt2(b), k.tgt2(a)))
            if not _is_cell(k.twocells, k.hcomp2.get((b, a)), want):
                return failed("check_two_category",
                              ["bad 2-composite (%r, %r)" % (b, a)],
                              {"pair": [b, a]})
    for g in ones:
        for f, _ in k.one_cells_into(k.src1(g)):
            if k.h(k.id2(g), k.id2(f)) != k.id2(k.c1(g, f)):
                return failed("check_two_category",
                              ["horizontal identity fails at (%r, %r)"
                               % (g, f)], {"pair": [g, f]})
    # interchange: h(b'.b, a'.a) = h(b', a') . h(b, a)
    for b2 in twos:
        for b1 in into.get(k.src2(b2), ()):
            for a2 in ending.get(k.src1(k.src2(b2)), ()):
                for a1 in into.get(k.src2(a2), ()):
                    budget.tick()
                    lhs = k.h(k.v(b2, b1), k.v(a2, a1))
                    rhs = k.v(k.h(b2, a2), k.h(b1, a1))
                    if lhs != rhs:
                        return failed("check_two_category",
                                      ["interchange fails at (%r,%r,%r,%r)"
                                       % (b2, b1, a2, a1)],
                                      {"quad": [b2, b1, a2, a1]})
    for c in twos:
        for b in ending.get(k.src1(k.src2(c)), ()):
            for a in ending.get(k.src1(k.src2(b)), ()):
                budget.tick()
                if k.h(c, k.h(b, a)) != k.h(k.h(c, b), a):
                    return failed("check_two_category",
                                  ["2-cell associativity fails at (%r,%r,%r)"
                                   % (c, b, a)], {"triple": [c, b, a]})
    for a in twos:
        s, t = k.onecells[k.src2(a)]
        if k.h(a, k.id2(k.id1(s))) != a or k.h(k.id2(k.id1(t)), a) != a:
            return failed("check_two_category",
                          ["2-cell unit law fails at %r" % a], {"twocell": a})
    return passed("check_two_category",
                  ["%d objects, %d 1-cells, %d 2-cells" %
                   (len(k.objects), len(k.onecells), len(k.twocells))])


# --- iso-comma objects ------------------------------------------------

@dataclass(frozen=True)
class IsoCommaCone:
    """A cone (apex, p, q, theta: f.p => g.q invertible) over a cospan."""

    apex: str
    p: str
    q: str
    theta: str


def _cones(k, f, g):
    """All iso-comma cones over the cospan (f, g), canonically ordered."""
    a, c = k.onecells[f]
    b, c2 = k.onecells[g]
    if c != c2:
        raise BoundaryMismatch("not a cospan: %r, %r" % (f, g))
    out = []
    for v in k.objects:
        for p in k.one_cells_between(v, a):
            for q in k.one_cells_between(v, b):
                for th in k.two_cells_between(k.c1(f, p), k.c1(g, q)):
                    if k.invertible2(th):
                        out.append(IsoCommaCone(v, p, q, th))
    return out


def check_bi_iso_comma(k, f, g, cone, budget=None):
    """Verify the strict 1- and 2-dimensional universal property of a cone."""
    budget = budget or Budget()
    fp = k.c1(f, cone.p)
    gq = k.c1(g, cone.q)
    if k.twocells.get(cone.theta) != (fp, gq) or not k.invertible2(cone.theta):
        return failed("check_bi_iso_comma", ["theta is not an invertible "
                                             "filler"], {"theta": cone.theta})
    # 1-dimensional: every cone factors uniquely and strictly
    for other in _cones(k, f, g):
        budget.tick()
        mediators = [
            u for u in k.one_cells_between(other.apex, cone.apex)
            if k.c1(cone.p, u) == other.p and k.c1(cone.q, u) == other.q
            and k.wr(cone.theta, u) == other.theta
        ]
        if len(mediators) != 1:
            return failed(
                "check_bi_iso_comma",
                ["cone at %r has %d strict factorizations" %
                 (other.apex, len(mediators))],
                {"cone": [other.apex, other.p, other.q, other.theta],
                 "mediators": mediators})
    # 2-dimensional: pairs of 2-cells compatible with theta are whiskerings
    # of a unique 2-cell between mediators
    for w in k.objects:
        for u in k.one_cells_between(w, cone.apex):
            for u2 in k.one_cells_between(w, cone.apex):
                pu, pu2 = k.c1(cone.p, u), k.c1(cone.p, u2)
                qu, qu2 = k.c1(cone.q, u), k.c1(cone.q, u2)
                for mu in k.two_cells_between(pu, pu2):
                    for nu in k.two_cells_between(qu, qu2):
                        budget.tick()
                        lhs = k.v(k.wr(cone.theta, u2), k.wl(f, mu))
                        rhs = k.v(k.wl(g, nu), k.wr(cone.theta, u))
                        if lhs != rhs:
                            continue
                        lam = [x for x in k.two_cells_between(u, u2)
                               if k.wl(cone.p, x) == mu
                               and k.wl(cone.q, x) == nu]
                        if len(lam) != 1:
                            return failed(
                                "check_bi_iso_comma",
                                ["compatible pair (%r, %r) has %d fillers"
                                 % (mu, nu, len(lam))],
                                {"pair": [mu, nu], "fillers": lam})
    return passed("check_bi_iso_comma")


def find_iso_comma(k, f, g, budget=None):
    """First cone in canonical order satisfying the universal property.

    Returns (cone, report); cone is None when no candidate passes.  The
    report notes when several candidate apexes pass (they are then pairwise
    equivalent; the first is the canonical choice).
    """
    budget = budget or Budget()
    winners = []
    for cone in _cones(k, f, g):
        budget.tick()
        if check_bi_iso_comma(k, f, g, cone, budget).ok:
            winners.append(cone)
    if not winners:
        return None, failed("find_iso_comma",
                            ["no iso-comma object for (%r, %r)" % (f, g)],
                            {"cospan": [f, g]})
    details = ["selected apex %r" % winners[0].apex]
    apexes = sorted({w.apex for w in winners})
    if len(apexes) > 1:
        details.append("equivalent alternatives exist: %s" % (apexes[1:],))
    return winners[0], passed("find_iso_comma", details,
                              {"alternatives": apexes[1:]})


def iso_comma_in_cat(F, G):
    """The iso-comma category of functors F: A -> C <- B : G.

    Objects are triples (a, b, j) with j: F(a) -> G(b) an isomorphism of C;
    morphisms are pairs making the evident square commute.  Object and
    morphism ids encode the triples/pairs canonically.
    """
    A, B, C = F.dom, G.dom, F.cod
    objects = {"(%s|%s|%s)" % (a, b, j): (a, b, j)
               for a in sorted(A.objects) for b in sorted(B.objects)
               for j in C.hom(F.o(a), G.o(b)) if C.is_iso(j)}
    arrows = {}
    for x, (a, b, j) in objects.items():
        for y, (a2, b2, j2) in objects.items():
            for r in A.hom(a, a2):
                for s in B.hom(b, b2):
                    if C.compose(j2, F.m(r)) == C.compose(G.m(s), j):
                        arrows["(%s|%s)@%s>%s" % (r, s, x, y)] = (x, y, (r, s))
    cat, _ = tabulate(
        objects, arrows, lambda x: (A.id(x[0]), B.id(x[1])),
        lambda later, earlier: (A.compose(later[0], earlier[0]),
                                B.compose(later[1], earlier[1])))
    return cat


# --- pseudofunctors into Cat -------------------------------------------

class PsFunctorToCat:
    """A pseudofunctor from base^op (1-cells reversed) to Cat.

    ob: base object -> FinCat; on1: base 1-cell f: D -> C -> Functor
    ob[C] -> ob[D]; on2: base 2-cell -> NatTrans (same direction);
    compositor[(f, g)]: on1[g] . on1[f] => on1[f.g] for g: E -> D;
    unitor[C]: Id => on1[id_C].  Components must be invertible.
    """

    def __init__(self, base, ob, on1, on2, compositor, unitor):
        self.base = base
        self.ob = dict(ob)
        self.on1 = dict(on1)
        self.on2 = dict(on2)
        self.compositor = dict(compositor)
        self.unitor = dict(unitor)

    def chi(self, f, g):
        return self.compositor[(f, g)]


class PsNatTrans:
    """Pseudonatural transformation between pseudofunctors into Cat.

    comp: base object C -> Functor F(C) -> G(C); cells: base 1-cell
    f: D -> C -> invertible NatTrans comp_D . F(f) => G(f) . comp_C.
    """

    def __init__(self, dom, cod, comp, cells):
        self.dom = dom
        self.cod = cod
        self.comp = dict(comp)
        self.cells = dict(cells)

    def key(self):
        return (tuple(sorted((c, v.key()) for c, v in self.comp.items())),
                tuple(sorted((f, v.key()) for f, v in self.cells.items())))


def check_ps_nat(t, budget=None):
    """The displays of a pseudonatural transformation: 2-cell naturality
    and composition coherence.  Its typing is not checked: components
    functors F(C) -> G(C) and structure cells invertible natural
    transformations of the right boundaries, as ``descent.descent_category``
    draws them from ``fincat.all_functors`` and ``all_nat_trans``.

    Unit coherence, cells[id_c](X) = id where the unitors are identities,
    is implied: the pseudofunctors built here (``sieves.sieve_presheaf``,
    ``representable``, ``builders.strict_ps_functor``) have identity
    compositors, unitors and functors at identity 1-cells, so composition
    coherence at (id_c, id_c) makes the invertible cells[id_c](X)
    idempotent.
    """
    return reported("check_ps_nat", first_failure(
        budget or Budget(), _ps_nat_displays, t))


def _ps_nat_displays(t):
    F, G = t.dom, t.cod
    k = F.base

    def natural(x, X):
        f, f2 = k.twocells[x]
        d, c = k.onecells[f]
        return (G.ob[d].compose(G.on2[x].at(t.comp[c].o(X)),
                                t.cells[f].at(X)),
                G.ob[d].compose(t.cells[f2].at(X),
                                t.comp[d].m(F.on2[x].at(X))))

    def composition(f, g, X):
        c, e = k.tgt1(f), k.src1(g)
        return (G.ob[e].compose(t.cells[k.c1(f, g)].at(X),
                                t.comp[e].m(F.chi(f, g).at(X))),
                G.ob[e].compose(
                    G.chi(f, g).at(t.comp[c].o(X)),
                    G.ob[e].compose(G.on1[g].m(t.cells[f].at(X)),
                                    t.cells[g].at(F.on1[f].o(X)))))

    return (
        Display("Cat-valued transformation 2-cell naturality",
                ((x, X) for x, (f, _) in k.twocells.items()
                 for X in F.ob[k.tgt1(f)].objects), natural,
                "2-cell naturality fails at (%r, %r)", "witness witness"),
        Display("Cat-valued transformation composition coherence",
                ((f, g, X) for f, (d, c) in k.onecells.items()
                 for g in k.onecells if k.tgt1(g) == d
                 for X in F.ob[c].objects), composition,
                "composition coherence fails at (%r, %r, %r)",
                "witness witness witness"))


class CatModification:
    """Modification between pseudonatural transformations into Cat."""

    def __init__(self, dom, cod, comp):
        self.dom = dom          # source PsNatTrans
        self.cod = cod          # target PsNatTrans
        self.comp = dict(comp)  # base object -> NatTrans

    def key(self):
        return tuple(sorted((c, v.key()) for c, v in self.comp.items()))


def check_modification(m, budget=None):
    """The display of a modification: the square at each 1-cell and
    object.  Its typing is not checked: components natural transformations
    of the right boundaries, as ``descent.descent_category`` draws them
    from ``fincat.all_nat_trans``."""
    return reported("check_modification", first_failure(
        budget or Budget(), _modification_displays, m))


def _modification_displays(m):
    t, s = m.dom, m.cod
    F, G = t.dom, t.cod
    k = F.base

    def square(f, X):
        d, c = k.onecells[f]
        return (G.ob[d].compose(s.cells[f].at(X),
                                m.comp[d].at(F.on1[f].o(X))),
                G.ob[d].compose(G.on1[f].m(m.comp[c].at(X)),
                                t.cells[f].at(X)))

    return (Display("Cat-valued modification square",
                    ((f, X) for f, (d, c) in k.onecells.items()
                     for X in F.ob[c].objects), square,
                    "modification square fails at (%r, %r)",
                    "witness witness"),)
