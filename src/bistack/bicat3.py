"""Pseudofunctors between finite strict 2-categories and the three levels
of cells between 2-category-valued homomorphisms of a base 2-category:
transformations, modifications between those, and perturbations.

Values are represented as strict finite 2-categories.  Homomorphisms are
strict: they act by strict 2-functors that compose strictly, so their
compositors and unitors are identities and are not recorded
(``strict_trihom`` refuses any other action).  The tritransformation and
trimodification axioms are stated for this case (Gurski, *Coherence in
Three-Dimensional Category Theory*, 2013, ch. 4): a factor is dropped
only where it is an identity by the unit and inverse laws of a value
(``check_two_category``) or because a drawn component preserves identity
2-cells (``check_ps_two_functor``, checked first).  The terms of drawn
structures at identity 1-cells (a component's action, compositor and
unitor, a square's or a modification component's cell) are kept, as they
need not be identities.  Local composition (vertical composition of
2-cells of the base) is preserved strictly: a normalization, not an
extra axiom.

The checkers assume a valid codomain (it passes ``check_two_category``)
and valid cells at the boundary of what they check.  Each declares its
displays once, as the ``report.Display`` records of a ``_*_displays``
function, which ``report.first_failure`` evaluates, one step per index.
In a locally thin value, with at most one 2-cell between two 1-cells,
every equation between well-typed pastings holds, so the evaluator skips
a display there with no step (see ``report.Budget``): those of the
pseudofunctor, transformation and modification checkers on a thin
codomain, and the axioms of the three checkers above them value by
value, but not the squares' naturality of ``check_tritransformation``.

Each structure declares its comparison 2-cells once, with their
boundaries: ``_ps_two_functor_cells`` (chi, unit), ``_ps_two_nat_cells``
(cell), ``_tritrans_cells`` (beta, gamma) and ``_trimod_cells`` (cell).
A declaration lists families ((table, key), cells), recorded as the
whole table when key is None and as its entry at key otherwise; each
cell (x, value, src, tgt) is recorded at x and typed src() => tgt in
value, the source a thunk that only the typing and the pools compose.
Families and cells come sorted, in the enumerators' order, but the
pseudofunctor's in table order, which its enumerator sorts and its
typing need not.  The typing of loaded structures checks the recorded
cells against a declaration (``_first_mistyped``), the enumerators of
``descent`` draw each cell from the invertible 2-cells of its boundary
(``_comparisons``, one ``report.choices`` group per family), and a
structure built without its comparison cells (the identity and induced
constructors) gets the identity on each cell's target (``_identities``),
a composite pseudofunctor the composites of its factors' cells.  Each
comparison table is built on its first read (``_FirstRead``).

The enumerators of ``descent`` draw every candidate from typed pools, so
each checker takes a well-typed candidate and tests its displays alone;
the ``tables`` decoder of ``workspace`` types loaded pseudofunctors and
transformations first (``_ps_two_functor_typing``, ``_ps_two_nat_typing``,
no step).  No unit display is declared where composition at a pair of
identities implies it on valid boundaries: ``check_ps_two_nat`` and
``check_trimodification`` give the proofs.
"""

from functools import partial
from itertools import product
from types import MappingProxyType

from .errors import BoundaryMismatch, MalformedTable
from .report import Budget, Display, Recorded, choices, failed, \
    first_failure, passed, reported
from .two_cat import from_fincat


# --- declared comparison cells ----------------------------------------------

def _first_mistyped(obj, families):
    """The first declared cell that obj records missing, off its boundary
    or not invertible, as (table, key, x), with x None when the whole
    family at (table, key) is missing; None when every cell is typed."""
    for (table, key), cells in families:
        recorded = getattr(obj, table)
        if key is not None:
            recorded = recorded.get(key)
            if recorded is None:
                return table, key, None
        for x, val, src, tgt in cells:
            if recorded.get(x) not in val.isos_between(src(), tgt):
                return table, key, x
    return None


def _tables(families):
    """The keyword tables of a structure from (slot, {x: cell}) pairs: the
    table itself for a slot (table, None), else its entry at key."""
    out = {}
    for (table, key), cells in families:
        if key is None:
            out[table] = cells
        else:
            out.setdefault(table, {})[key] = cells
    return out


def _comparisons(budget, families):
    """Every choice of an invertible 2-cell for each declared cell, in
    ``choices`` order, as the keyword tables of the structure: one
    ``choices`` group per family, which reads each cell's pool, its
    ``isos_between``, in turn."""
    slots, cells = zip(*families)
    picks = choices(budget, *[map(_isos, group) for group in cells])
    return (_tables(zip(slots, tables)) for tables in picks)


def _isos(cell):
    """A declared cell's pool: (x, the invertible 2-cells src() => tgt)."""
    x, val, src, tgt = cell
    return x, val.isos_between(src(), tgt)


def _identities(families):
    """Each declared cell set to the identity 2-cell on its target, as the
    keyword tables of the structure; no source is composed."""
    return _tables((slot, {x: val.id2(tgt) for x, val, _, tgt in cells})
                   for slot, cells in families)


class _FirstRead:
    """A comparison table not given to the constructor: its first read
    fills all such tables of the structure from ``_comparison_tables()``
    (empty where no cell is declared) and keeps them.  It takes no lock,
    as ``functools.cached_property`` does before Python 3.12."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        have = obj.__dict__
        for name, table in obj._comparison_tables().items():
            have.setdefault(name, table)
        return have.setdefault(self.name, {})


# --- pseudofunctors between strict 2-categories ---------------------------

class PsTwoFunctor:
    """ob/on1/on2 tables plus compositor chi[(b, a)]: H(b).H(a) => H(b.a)
    and unitor unit[x]: id_{H(x)} => H(id_x), both invertible.

    Immutable after construction: every table is a read-only mapping, and
    key() is memoised."""

    chi, unit = _FirstRead(), _FirstRead()

    def __init__(self, dom, cod, ob, on1, on2, chi=None, unit=None):
        self.dom = dom
        self.cod = cod
        self.ob = MappingProxyType(dict(ob))
        self.on1 = MappingProxyType(dict(on1))
        self.on2 = MappingProxyType(dict(on2))
        if chi is not None:
            self.chi = MappingProxyType(dict(chi))
        if unit is not None:
            self.unit = MappingProxyType(dict(unit))
        self._key = None

    def _comparison_tables(self):
        tables = _identities(_ps_two_functor_cells(self.dom, self.cod,
                                                   self.ob, self.on1))
        return {name: MappingProxyType(t) for name, t in tables.items()}

    def key(self):
        if self._key is None:
            self._key = (tuple(sorted(self.ob.items())),
                         tuple(sorted(self.on1.items())),
                         tuple(sorted(self.on2.items())),
                         tuple(sorted(self.chi.items())),
                         tuple(sorted(self.unit.items())))
        return self._key

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PsTwoFunctor) and self.ob == other.ob
            and self.on1 == other.on1 and self.on2 == other.on2
            and self.chi == other.chi and self.unit == other.unit)


def _ps_two_functor_cells(dom, cod, ob, on1):
    """The comparison cells of a pseudofunctor H: dom -> cod with object
    map ob and 1-cell map on1: every compositor chi[(b, a)]:
    H(b).H(a) => H(b.a), then every unitor unit[x]: id_{H(x)} => H(id_x)."""
    return [(("chi", None), [(pair, cod,
                              partial(cod.c1, on1[pair[0]], on1[pair[1]]),
                              on1[ba]) for pair, ba in dom.hcomp1.items()]),
            (("unit", None), [(x, cod, partial(cod.id1, ob[x]),
                               on1[dom.id1(x)]) for x in dom.objects])]


def identity_ps_two_functor(c):
    return PsTwoFunctor(c, c, {x: x for x in c.objects},
                        {f: f for f in c.onecells},
                        {a: a for a in c.twocells})


def compose_ps_two_functors(k2, h):
    """k2 after h."""
    if h.cod is not k2.dom and h.cod != k2.dom:
        raise BoundaryMismatch("pseudofunctors not composable")
    return _Composite(k2, h)


class _Composite(PsTwoFunctor):
    """k2 after h: each compositor and unitor composes the factors'."""

    def __init__(self, k2, h):
        super().__init__(h.dom, k2.cod,
                         {x: k2.ob[h.ob[x]] for x in h.dom.objects},
                         {f: k2.on1[h.on1[f]] for f in h.dom.onecells},
                         {a: k2.on2[h.on2[a]] for a in h.dom.twocells})
        self._factors = k2, h

    def _comparison_tables(self):
        k2, h = self._factors
        v = self.cod.v
        chi = {(b, a): v(k2.on2[h.chi[(b, a)]], k2.chi[(h.on1[b], h.on1[a])])
               for b, a in h.dom.hcomp1}
        unit = {x: v(k2.on2[h.unit[x]], k2.unit[h.ob[x]])
                for x in h.dom.objects}
        return {"chi": MappingProxyType(chi), "unit": MappingProxyType(unit)}


def _ps_two_functor_typing(h):
    """Typing of every object, 1-cell and 2-cell image, then of every
    compositor and unitor cell; None on success, report on failure."""
    d, c = h.dom, h.cod
    for x in d.objects:
        if h.ob.get(x) not in c.objects:
            return failed("check_ps_two_functor", ["object %r unmapped" % x],
                          {"object": x})
    for f, (s, t) in d.onecells.items():
        g = h.on1.get(f)
        if g is None or c.onecells.get(g) != (h.ob[s], h.ob[t]):
            return failed("check_ps_two_functor",
                          ["bad 1-cell image at %r" % f], {"onecell": f})
    for a, (f, f2) in d.twocells.items():
        b = h.on2.get(a)
        if b is None or c.twocells.get(b) != (h.on1[f], h.on1[f2]):
            return failed("check_ps_two_functor",
                          ["bad 2-cell image at %r" % a], {"twocell": a})
    bad = _first_mistyped(h, _ps_two_functor_cells(d, c, h.ob, h.on1))
    if bad is None:
        return None
    table, _, x = bad
    if table == "chi":
        return failed("check_ps_two_functor",
                      ["bad compositor at (%r, %r)" % x], {"pair": list(x)})
    return failed("check_ps_two_functor", ["bad unitor at %r" % x],
                  {"object": x})


def check_ps_two_functor(h, budget=None):
    """Identity 2-cells and vertical composition preserved, then the
    compositor natural, associative and unital, for a well-typed
    pseudofunctor (``_ps_two_functor_typing``)."""
    d, c = h.dom, h.cod
    for f in d.onecells:
        if h.on2[d.id2(f)] != c.id2(h.on1[f]):
            return failed("check_ps_two_functor",
                          ["identity 2-cell not preserved at %r" % f],
                          {"onecell": f})
    return reported("check_ps_two_functor", first_failure(
        budget or Budget(), _ps_two_functor_displays, h, values=(c,)))


def _ps_two_functor_displays(h):
    d, c = h.dom, h.cod

    def natural(b2, b):  # in both arguments
        (sb2, tb2), (sb, tb) = d.twocells[b2], d.twocells[b]
        return (c.v(h.on2[d.hcomp2[(b2, b)]], h.chi[(sb2, sb)]),
                c.v(h.chi[(tb2, tb)], c.h(h.on2[b2], h.on2[b])))

    def unital(f):  # on both sides, in one display
        s, t = d.onecells[f]
        return ((c.v(h.chi[(d.id1(t), f)], c.wr(h.unit[t], h.on1[f])),
                 c.v(h.chi[(f, d.id1(s))], c.wl(h.on1[f], h.unit[s]))),
                (c.id2(h.on1[f]),) * 2)

    return (
        Display("pseudofunctor vertical composition", d.vcomp,
                lambda b, a: (h.on2[d.vcomp[(b, a)]],
                              c.v(h.on2[b], h.on2[a])),
                "vertical composition not preserved at (%r, %r)",
                "pair pair"),
        Display("compositor naturality", d.hcomp2, natural,
                "compositor not natural at (%r, %r)", "pair pair"),
        Display("compositor associativity", d.composable_triples(),
                lambda e, b, a: (
                    c.v(h.chi[(d.c1(e, b), a)], c.wr(h.chi[(e, b)],
                                                     h.on1[a])),
                    c.v(h.chi[(e, d.c1(b, a))], c.wl(h.on1[e],
                                                     h.chi[(b, a)]))),
                "compositor not associative at (%r, %r, %r)",
                "triple triple triple"),
        Display("pseudofunctor unit coherence", zip(d.onecells), unital,
                "unit coherence fails at %r", "onecell"))


# --- transformations and modifications between pseudofunctors -------------

class PsTwoNatTrans:
    """comp[x]: 1-cell G(x) -> H(x); cell[a: x -> y]: invertible 2-cell
    H(a) . comp[x] => comp[y] . G(a), by default the identity on its
    target, which is typed only where both sides coincide."""

    cell = _FirstRead()

    def __init__(self, dom, cod, comp, cell=None):
        self.dom = dom
        self.cod = cod
        self.comp = dict(comp)
        if cell is not None:
            self.cell = dict(cell)

    def _comparison_tables(self):
        return _identities(_ps_two_nat_cells(self.dom, self.cod, self.comp))

    def key(self):
        return (tuple(sorted(self.comp.items())),
                tuple(sorted(self.cell.items())))


def _ps_two_nat_cells(g, h, comp):
    """The structure cells of a transformation G => H with components
    comp: every cell[a]: H(a).comp[x] => comp[y].G(a) for a: x -> y."""
    c = g.cod
    yield ("cell", None), ((a, c, partial(c.c1, h.on1[a], comp[x]),
                            c.c1(comp[y], g.on1[a]))
                           for a, (x, y) in sorted(g.dom.onecells.items()))


def identity_ps_two_nat(h):
    return PsTwoNatTrans(h, h, {x: h.cod.id1(h.ob[x]) for x in h.dom.objects})


def _ps_two_nat_typing(t):
    """Typing of every component and structure cell; None on success,
    report on failure."""
    g, h = t.dom, t.cod
    c = g.cod
    for x in g.dom.objects:
        r = t.comp.get(x)
        if r is None or c.onecells.get(r) != (g.ob[x], h.ob[x]):
            return failed("check_ps_two_nat", ["bad component at %r" % x],
                          {"object": x})
    bad = _first_mistyped(t, _ps_two_nat_cells(g, h, t.comp))
    if bad is not None:
        return failed("check_ps_two_nat",
                      ["bad structure cell at %r" % bad[2]],
                      {"onecell": bad[2]})
    return None


def check_ps_two_nat(t, budget=None):
    """2-cell naturality and composition coherence of a well-typed
    transformation t: G => H (``_ps_two_nat_typing``).

    Unit coherence at x, n = id for n = w^-1 . cell[i] . u with i = id_x,
    u = H.unit[x] * t_x and w = t_x * G.unit[x], is implied.  As G and H
    are unital, H.chi[i, i] = (H(i) * H.unit[x])^-1 and G.chi[i, i] =
    (G.unit[x] * G(i))^-1; with n * G(i) = w.n.w^-1, H(i) * n = u.n.u^-1
    and (u^-1 * G(i)).(H(i) * w) = w.u^-1 by interchange, composition
    coherence at (i, i), less H(i) * u^-1, reads w.n.u^-1 = w.n.n.u^-1,
    so the invertible n is an identity.  The boundaries are unital:
    ``check_trihom_data`` checks every action before any on2, ``descent``
    draws components that pass ``check_ps_two_functor`` or induced ones
    with identity cells, and a ``_Composite`` k2 . h of unital factors is
    unital (by k2's compositor naturality, its unit display at f is k2's
    at h(f) after k2 of h's).
    """
    return reported("check_ps_two_nat", first_failure(
        budget or Budget(), _ps_two_nat_displays, t, values=(t.dom.cod,)))


def _ps_two_nat_displays(t):
    g, h = t.dom, t.cod
    c = g.cod

    def natural(al):
        a, a2 = g.dom.twocells[al]
        x, y = g.dom.onecells[a]
        return (c.v(t.cell[a2], c.wr(h.on2[al], t.comp[x])),
                c.v(c.wl(t.comp[y], g.on2[al]), t.cell[a]))

    def composition(b, a):
        x, z = g.dom.onecells[a][0], g.dom.onecells[b][1]
        return (c.v(t.cell[g.dom.hcomp1[(b, a)]],
                    c.wr(h.chi[(b, a)], t.comp[x])),
                c.v(c.wl(t.comp[z], g.chi[(b, a)]),
                    c.v(c.wr(t.cell[b], g.on1[a]),
                        c.wl(h.on1[b], t.cell[a]))))

    return (
        Display("transformation 2-cell naturality", zip(g.dom.twocells),
                natural, "2-cell naturality fails at %r", "twocell"),
        Display("transformation composition coherence", g.dom.hcomp1,
                composition, "composition coherence fails at (%r, %r)",
                "pair pair"))


class TwoModification:
    """comp[x]: 2-cell s(x) => t(x) between parallel transformations."""

    def __init__(self, dom, cod, comp):
        self.dom = dom
        self.cod = cod
        self.comp = dict(comp)


def check_two_modification(m, budget=None):
    """The square at each 1-cell of a modification whose components are
    2-cells s(x) => t(x)."""
    return reported("check_two_modification", first_failure(
        budget or Budget(), _two_modification_displays, m,
        values=(m.dom.dom.cod,)))


def _two_modification_displays(m):
    s, t = m.dom, m.cod
    g, h, c = s.dom, s.cod, s.dom.cod

    def square(a):
        x, y = g.dom.onecells[a]
        return (c.v(t.cell[a], c.wl(h.on1[a], m.comp[x])),
                c.v(c.wr(m.comp[y], g.on1[a]), s.cell[a]))

    return (Display("modification square", zip(g.dom.onecells), square,
                    "modification square fails at %r", "onecell"),)


# --- homomorphisms of the base into 2-categories ---------------------------

class TrihomData(Recorded):
    """Contravariant 2-category-valued homomorphism data on a base, strict
    as ``strict_trihom`` validates it.

    ob[C]: value 2-category; on1[f]: strict 2-functor ob[C] -> ob[D] for
    f: D -> C, with on1[g] . on1[f] = on1[f.g] and on1[id_C] the identity;
    on2[gamma]: PsTwoNatTrans (local composition preserved strictly).
    """

    def __init__(self, base, ob, on1, on2):
        self.base = base
        self.ob = dict(ob)
        self.on1 = dict(on1)
        self.on2 = dict(on2)
        self._recorded = {}


def _same_action(h1, h2):
    """Do two pseudofunctors act alike on objects, 1-cells and 2-cells?
    Their compositors and unitors, not read, are identities in
    ``strict_trihom``, as are those of a composite of actions that preserve
    identity 2-cells (``check_trihom_data`` checks this next)."""
    return h1.ob == h2.ob and h1.on1 == h2.on1 and h1.on2 == h2.on2


def strict_trihom(k, ob, on1, on2):
    """Assemble strict homomorphism data.

    Validates that each on1[f] is a strict 2-functor (identity compositor
    and unitor cells), that on1 is strictly functorial, that on2 preserves
    vertical composition strictly, and that whiskered 2-cells act
    componentwise."""
    for f, h in on1.items():
        if any(a != h.cod.id2(h.cod.twocells[a][0])
               for a in (*h.chi.values(), *h.unit.values())):
            raise MalformedTable(
                "value at 1-cell %r is not a strict 2-functor" % f)
    for c in k.objects:
        if not _same_action(on1[k.id1(c)], identity_ps_two_functor(ob[c])):
            raise MalformedTable("value at id_%r is not the identity" % c)
    for (f, g), comp in k.hcomp1.items():
        # f: D -> C after g: E -> D contravariantly: on1[g] after on1[f]
        if not _same_action(compose_ps_two_functors(on1[g], on1[f]),
                            on1[comp]):
            raise MalformedTable(
                "values not strictly functorial at (%r, %r)" % (f, g))
    # identity 2-cells act by identities unless on2 says otherwise
    on2 = {**{k.id2(f): identity_ps_two_nat(on1[f]) for f in k.onecells
              if k.id2(f) not in on2}, **on2}
    for (b, a), v in k.vcomp.items():
        f = k.twocells[a][0]
        c = k.onecells[f][1]
        val = ob[c]
        dom_val = on1[f].cod
        for z in val.objects:
            if on2[v].comp[z] != dom_val.c1(on2[b].comp[z], on2[a].comp[z]):
                raise MalformedTable(
                    "local composition not strict at (%r, %r)" % (b, a))
    for al, (f, f2) in k.twocells.items():
        d, c = k.onecells[f]
        for g, _ in k.one_cells_into(d):
            w = k.h(al, k.id2(g))
            for z in ob[c].objects:
                if on2[w].comp[z] != on1[g].on1[on2[al].comp[z]]:
                    raise MalformedTable(
                        "whiskering not componentwise at (%r, %r)" % (al, g))
        for g, (d2, e) in k.onecells.items():
            if d2 != c:
                continue
            w = k.h(k.id2(g), al)
            for z in ob[k.onecells[g][1]].objects:
                if on2[w].comp[z] != on2[al].comp[on1[g].ob[z]]:
                    raise MalformedTable(
                        "whiskering not componentwise at (%r, %r)" % (g, al))
    return TrihomData(k, ob, on1, on2)


def _precomposition_trihom(k, ob):
    """Homomorphism data acting by precomposition, with value at D the
    locally discrete full sub-2-category ob[D] of K(D, c) for a fixed c.
    It is strict if k passes ``check_two_category``: a base whose memo
    says so (as the loader's does) skips ``strict_trihom``'s checks."""
    on1 = {}
    for g, (e, d) in k.onecells.items():
        src_v, tgt_v = ob[d], ob[e]
        on1[g] = PsTwoFunctor(
            src_v, tgt_v,
            {f: k.c1(f, g) for f in src_v.objects},
            {x: k.wr(x, g) for x in src_v.onecells},
            {a: tgt_v.id2(k.wr(src_v.twocells[a][0], g))
             for a in src_v.twocells})
    on2 = {}
    for delta, (g, g2) in k.twocells.items():
        on2[delta] = PsTwoNatTrans(on1[g], on1[g2], {
            f: k.wl(f, delta) for f in ob[k.tgt1(g)].objects})
    checked = k.memo("two_category")
    if checked and checked.ok:
        return TrihomData(k, ob, on1, on2)
    return strict_trihom(k, ob, on1, on2)


def representable_trihom(k, c0):
    """The homomorphism represented by an object: values are hom
    2-categories (locally discrete), action by precomposition.  This is
    the trihom of the maximal sieve on c0."""
    return _precomposition_trihom(
        k, {d: from_fincat(k.hom_cat(d, c0)) for d in k.objects})


def literally_closed(s):
    """Is s literally closed under precomposition: tilde(f, g) == f.g,
    with identity witnesses?"""
    k = s.k
    return all(t == k.c1(*key) and s.sigma[key] == k.id2(t)
               for key, t in s.tilde.items())


def sieve_trihom(s):
    """The sieve as 2-category-valued homomorphism data: the full
    sub-homomorphism of the representable on its members.

    Requires the sieve to be ``literally_closed``; otherwise the values
    fail to be strictly compositional and MalformedTable is raised."""
    k = s.k
    if not literally_closed(s):
        raise MalformedTable(
            "sieve is not literally closed under precomposition")
    return _precomposition_trihom(k, {
        d: from_fincat(k.hom_cat(d, s.target).full_subcategory(
            s.member_list(d))) for d in k.objects})


def check_trihom_data(t, budget=None):
    """The value pseudofunctors, then the value transformations, checked,
    each typed already: by the ``tables`` decoder before ``strict_trihom``
    composes it, or by construction.  Local strictness holds by
    construction too: ``strict_trihom`` checks it, and precomposition over
    a base that passed ``check_two_category`` has it by interchange.  An
    on2[x] can be missing where a value is empty, as ``strict_trihom``
    reads on2 at the value's objects."""
    budget = budget or Budget()
    k = t.base
    for f in k.onecells:
        r = check_ps_two_functor(t.on1[f], budget)
        if not r.ok:
            r.details.insert(0, "value pseudofunctor at %r" % f)
            return r
    for al in k.twocells:
        tr = t.on2.get(al)
        if tr is None:
            return failed("check_trihom_data",
                          ["bad value transformation at %r" % al],
                          {"twocell": al})
        r = check_ps_two_nat(tr, budget)
        if not r.ok:
            r.details.insert(0, "value transformation at %r" % al)
            return r
    return passed(
        "check_trihom_data",
        ["value pseudofunctors, value transformations and local "
         "strictness verified"])


# --- transformations between homomorphisms ---------------------------------

class Tritransformation:
    """comp[C]: PsTwoFunctor R(C) -> F(C); square[f]: PsTwoNatTrans
    comp[D].R(f) => F(f).comp[C] with equivalence components; beta[(f, g)]
    and gamma[C]: per-object comparison 2-cells, by default the identities
    on their targets, built on first read (``_tritrans_cells``)."""

    beta, gamma = _FirstRead(), _FirstRead()

    def __init__(self, dom, cod, comp, square, beta=None, gamma=None):
        self.dom = dom
        self.cod = cod
        self.comp = dict(comp)
        self.square = dict(square)
        if beta is not None:
            self.beta = dict(beta)
        if gamma is not None:
            self.gamma = dict(gamma)

    def _comparison_tables(self):
        return _identities(_tritrans_cells(self.dom, self.cod, self.comp,
                                           self.square))


def _tritrans_cells(R, F, comp, square):
    """The comparison families of a transformation R => F with components
    comp and squares square, each with a cell per object x of R at C:
    every beta[(f, g)][x]: F(g)(square[f](x)).square[g](R(f)(x)) =>
    square[f.g](x).comp[E](id) for f: D -> C, g: E -> D, then every
    gamma[C][x]: square[id_C](x).comp[C](id) => id, where id is the
    identity 1-cell of R(f.g)(x), of x, or of comp[C](x)."""
    k = R.base

    def beta(f, g):
        c, e = k.onecells[f][1], k.onecells[g][0]
        fg = k.c1(f, g)
        val_e = F.ob[e]
        for x in R.ob[c].objects:
            yield x, val_e, \
                partial(val_e.c1, F.on1[g].on1[square[f].comp[x]],
                        square[g].comp[R.on1[f].ob[x]]), \
                val_e.c1(square[fg].comp[x],
                         comp[e].on1[R.ob[e].id1(R.on1[fg].ob[x])])

    def gamma(c):
        val_c = F.ob[c]
        for x in R.ob[c].objects:
            yield x, val_c, partial(val_c.c1, square[k.id1(c)].comp[x],
                                    comp[c].on1[R.ob[c].id1(x)]), \
                val_c.id1(comp[c].ob[x])

    for pair in sorted(k.hcomp1):
        yield ("beta", pair), beta(*pair)
    for c in sorted(k.objects):
        yield ("gamma", c), gamma(c)


def identity_tritransformation(t):
    k = t.base
    comp = {c: identity_ps_two_functor(t.ob[c]) for c in k.objects}
    square = {f: identity_ps_two_nat(t.on1[f]) for f in k.onecells}
    return Tritransformation(t, t, comp, square)


def check_tritransformation(t, budget=None):
    """The squares' naturality in base 2-cells, then the associativity and
    unit axioms, of a well-typed transformation, as the enumerator draws
    it: pseudofunctor components, squares with equivalence components, and
    each comparison cell of ``_tritrans_cells`` on its boundary."""
    budget = budget or Budget()
    # the naturality is never skipped; each axiom lives in a value of F,
    # so when all are thin no axiom is read
    return reported("check_tritransformation", first_failure(
        budget, _tritrans_naturality, t) or first_failure(
        budget, _tritrans_axioms, t, values=t.cod.ob.values()))


def _tritrans_naturality(t):
    """The squares natural in each delta: f => g at each x of R at f's
    target, componentwise (strict setting)."""
    R, F = t.dom, t.cod
    k = R.base

    def natural(delta, x):
        f, g = k.twocells[delta]
        d, c = k.onecells[f]
        val_d = F.ob[d]
        return (val_d.c1(t.square[g].comp[x],
                         t.comp[d].on1[R.on2[delta].comp[x]]),
                val_d.c1(F.on2[delta].comp[t.comp[c].ob[x]],
                         t.square[f].comp[x]))

    return (Display("tritransformation square naturality",
                    ((delta, x) for delta, (f, _) in k.twocells.items()
                     for x in R.ob[k.onecells[f][1]].objects), natural,
                    "square not natural in 2-cell %r at %r",
                    "twocell object"),)


def _tritrans_axioms(t):
    """The associativity axiom at each path f.g.h and x of R at f's
    target, in the value at h's source; the right, then the left, unit
    axiom at each f and x, in the value at f's source."""
    R, F = t.dom, t.cod
    k = R.base

    def associative(f, g, h, x):
        (l, e), gh, fg = k.onecells[h], k.c1(g, h), k.c1(f, g)
        val_l = F.ob[l]
        rf_x = R.on1[f].ob[x]
        # the identity 1-cells that R's compositors have for components,
        # at R(f.g)(x) and under the component at l at R(f.g.h)(x)
        id_e = R.ob[e].id1(R.on1[fg].ob[x])
        th_id = t.comp[l].on1[R.ob[l].id1(R.on1[k.c1(f, gh)].ob[x])]
        return (val_l.v_path([
                    val_l.wr(t.beta[(fg, h)][x], th_id),
                    val_l.wl(F.on1[h].on1[t.square[fg].comp[x]],
                             t.square[h].cell[id_e]),
                    val_l.wr(F.on1[h].on2[t.beta[(f, g)][x]],
                             t.square[h].comp[R.on1[g].ob[rf_x]])]),
                val_l.v(val_l.wr(t.beta[(f, gh)][x], th_id),
                        val_l.wl(F.on1[gh].on1[t.square[f].comp[x]],
                                 t.beta[(g, h)][rf_x])))

    def unital(f, x, side):
        d, c = k.onecells[f]
        val_d, thD = F.ob[d], t.comp[d]
        rf_x, af_x = R.on1[f].ob[x], t.square[f].comp[x]
        # thD at the identity of R(f)(x), taken back to the identity by
        # thD's own compositor and unitor, which need not be identities
        id_rf = R.ob[d].id1(rf_x)
        unitor = val_d.wl(af_x, val_d.v(val_d.inverse2(thD.unit[rf_x]),
                                        thD.chi[(id_rf, id_rf)]))
        beta = t.beta[(f, k.id1(d)) if side == "right" else (k.id1(c), f)]
        rhs = val_d.v(unitor, val_d.wr(beta[x], thD.on1[id_rf]))
        if side == "right":
            return val_d.wl(af_x, t.gamma[d][rf_x]), rhs
        return (val_d.v(val_d.wr(F.on1[f].on2[t.gamma[c][x]], af_x),
                        val_d.wl(F.on1[f].on1[t.square[k.id1(c)].comp[x]],
                                 val_d.inverse2(
                                     t.square[f].cell[R.ob[c].id1(x)]))),
                rhs)

    return (
        Display("tritransformation associativity",
                ((F.ob[l], (f, g, h), zip(R.ob[c].objects))
                 for f, (d, c) in k.onecells.items()
                 for g, e in k.one_cells_into(d)
                 for h, l in k.one_cells_into(e)), associative,
                "associativity axiom fails at (%r, %r, %r, %r)",
                "triple triple triple object lhs rhs", per_value=True),
        Display("tritransformation unit",
                ((F.ob[d], (f,), product(R.ob[c].objects, ("right", "left")))
                 for f, (d, c) in k.onecells.items()), unital,
                lambda at, lhs, rhs: "%s unit axiom fails at (%r, %r)"
                % (at[2], at[0], at[1]), "onecell object _ lhs rhs",
                per_value=True))


# --- modifications between transformations ---------------------------------

class Trimodification:
    """comp[D]: PsTwoNatTrans theta_D => phi_D; cell[g]: per-object
    comparison 2-cells for the square displays, by default the identities
    on their targets, built on first read (``_trimod_cells``)."""

    cell = _FirstRead()

    def __init__(self, dom, cod, comp, cell=None):
        self.dom = dom
        self.cod = cod
        self.comp = dict(comp)
        if cell is not None:
            self.cell = dict(cell)

    def _comparison_tables(self):
        return _identities(_trimod_cells(self.dom, self.cod, self.comp))


def _trimod_cells(th, ph, comp):
    """The square comparisons of a modification theta => phi with
    components comp, each family with a cell per object x of R at D: every
    cell[g][x]: F(g)(comp[D](x)).theta_g(x) => phi_g(x).comp[E](g*x) for
    g: E -> D."""
    R, F = th.dom, th.cod
    k = R.base

    def cell(g):
        e, d = k.onecells[g]
        val_e = F.ob[e]
        for x in R.ob[d].objects:
            yield x, val_e, \
                partial(val_e.c1, F.on1[g].on1[comp[d].comp[x]],
                        th.square[g].comp[x]), \
                val_e.c1(ph.square[g].comp[x],
                         comp[e].comp[R.on1[g].ob[x]])

    for g in sorted(k.onecells):
        yield ("cell", g), cell(g)


def identity_trimodification(t):
    comp = {c: identity_ps_two_nat(t.comp[c]) for c in t.dom.base.objects}
    return Trimodification(t, t, comp)


def check_trimodification(m, budget=None):
    """The composition axiom of a well-typed modification m: theta => phi,
    as the enumerator draws it: transformation components, and each square
    comparison of ``_trimod_cells`` on its boundary.

    The unit axiom at (c, x) is implied.  Write M = m_c(x), A and B for
    the squares of theta and phi at (id_c, x), s = cell[id_c][x]:
    M.A => B.M, u for theta_c's unitor at x, and g = gamma[c][x] . (A * u):
    A => 1, and g' likewise in phi.  With m_c's unit coherence (implied,
    see ``check_ps_two_nat``) the unit axiom says M * g = (g' * M) . s.
    theta's right unit axiom at (id_c, x) and theta_c's unit coherence give
    beta[(id_c, id_c)][x] = A * (u . g), and likewise in phi; so by
    interchange the composition axiom at (id_c, id_c, x) reads B * (M * g)
    = B * ((g' * M) . s) once s * A and B.M * u are cancelled, and B * -
    is injective as g' is invertible.  The boundaries satisfy their unit
    axioms: ``descent`` draws theta and phi that pass
    ``check_tritransformation``, or induced ones whose cells are all
    identities, and each m_c from those that pass ``check_ps_two_nat``.
    """
    # each display lives in a value of F: when all are thin, none is read
    return reported("check_trimodification", first_failure(
        budget or Budget(), _trimod_displays, m,
        values=m.dom.cod.ob.values()))


def _trimod_displays(m):
    """The composition axiom at each (f, g) and x of R at f's target, in
    the value at g's source."""
    th, ph = m.dom, m.cod
    R, F = th.dom, th.cod
    k = R.base

    def composition(f, g, x):
        e, fg = k.onecells[g][0], k.c1(f, g)
        val_e = F.ob[e]
        mc_x, rf_x = m.comp[k.onecells[f][1]].comp[x], R.on1[f].ob[x]
        # the identity 1-cell that R's compositor has for component
        id_e = R.ob[e].id1(R.on1[fg].ob[x])
        return (val_e.v(val_e.wr(m.cell[fg][x], th.comp[e].on1[id_e]),
                        val_e.wl(F.on1[fg].on1[mc_x], th.beta[(f, g)][x])),
                val_e.v_path([
                    val_e.wl(ph.square[fg].comp[x], m.comp[e].cell[id_e]),
                    val_e.wr(ph.beta[(f, g)][x],
                             m.comp[e].comp[R.on1[g].ob[rf_x]]),
                    val_e.wl(F.on1[g].on1[ph.square[f].comp[x]],
                             m.cell[g][rf_x]),
                    val_e.wr(F.on1[g].on2[m.cell[f][x]],
                             th.square[g].comp[rf_x])]))

    return (
        Display("trimodification composition",
                ((F.ob[k.onecells[g][0]], (f, g),
                  zip(R.ob[k.onecells[f][1]].objects)) for f, g in k.hcomp1),
                composition, "composition axiom fails at (%r, %r, %r)",
                "pair pair object lhs rhs", per_value=True),)


# --- perturbations ----------------------------------------------------------

class Perturbation:
    """comp[D]: per-object 2-cells m_D(x) => n_D(x)."""

    def __init__(self, dom, cod, comp):
        self.dom = dom
        self.cod = cod
        self.comp = {c: dict(v) for c, v in comp.items()}


def check_perturbation(p, budget=None):
    """Each component's modification square, then the square axiom, of a
    well-typed perturbation, as the enumerator draws it: a component
    2-cell m_D(x) => n_D(x) at each object D and x."""
    budget = budget or Budget()
    m, n = p.dom, p.cod
    R, F = m.dom.dom, m.dom.cod
    for c in R.base.objects:
        mod = TwoModification(m.comp[c], n.comp[c], p.comp[c])
        r = check_two_modification(mod, budget)
        if not r.ok:
            r.details.insert(0, "component at %r" % c)
            return r
    return reported("check_perturbation", first_failure(
        budget, _perturbation_displays, p, values=F.ob.values()))


def _perturbation_displays(p):
    """The square axiom at each g: e -> d and x in R(d), in the value at
    e."""
    m, n = p.dom, p.cod
    th, ph = m.dom, m.cod
    R, F = th.dom, th.cod

    def square(g, x):
        e, d = R.base.onecells[g]
        val_e = F.ob[e]
        return (val_e.v(n.cell[g][x], val_e.wr(F.on1[g].on2[p.comp[d][x]],
                                               th.square[g].comp[x])),
                val_e.v(val_e.wl(ph.square[g].comp[x],
                                 p.comp[e][R.on1[g].ob[x]]), m.cell[g][x]))

    return (Display("perturbation square",
                    ((F.ob[e], (g,), zip(R.ob[d].objects))
                     for g, (e, d) in R.base.onecells.items()), square,
                    "square axiom fails at (%r, %r)", "onecell object lhs rhs",
                    per_value=True),)


# --- cells induced by restriction -------------------------------------------

def induced_tritrans(F, R, X):
    """The transformation R => F induced by an object X of F(c), for R the
    trihom of a literal sieve on c: its component at D sends a member
    f: D -> c to the restriction of X along f."""
    k = F.base
    comp, square = {}, {}
    for d in k.objects:
        val_r = R.ob[d]
        ob = {f: F.on1[f].ob[X] for f in val_r.objects}
        # every 1-cell of the locally discrete value is a 2-cell of the
        # base (identity 1-cells included)
        on1 = {gm: F.on2[gm].comp[X] for gm in val_r.onecells}
        on2 = {a: F.ob[d].id2(on1[val_r.twocells[a][0]])
               for a in val_r.twocells}
        comp[d] = PsTwoFunctor(val_r, F.ob[d], ob, on1, on2)
    for g, (e, d) in k.onecells.items():
        dom = compose_ps_two_functors(comp[e], R.on1[g])
        cod = compose_ps_two_functors(F.on1[g], comp[d])
        square[g] = PsTwoNatTrans(
            dom, cod, {f: F.ob[e].id1(dom.ob[f]) for f in R.ob[d].objects})
    return Tritransformation(R, F, comp, square)


def induced_trimod(F, a0, sig_x, sig_y):
    """The modification sig_x => sig_y induced by a 1-cell a0: X -> Y of
    F(c): its component at a member f is the restriction of a0 along f."""
    R = sig_x.dom
    comp = {}
    for d in F.base.objects:
        cps = {f: F.on1[f].on1[a0] for f in R.ob[d].objects}
        cls = {gm: F.ob[d].inverse2(F.on2[gm].cell[a0])
               for gm in R.ob[d].onecells}
        comp[d] = PsTwoNatTrans(sig_x.comp[d], sig_y.comp[d], cps, cls)
    return Trimodification(sig_x, sig_y, comp)


def induced_pert(F, al0, m_a, m_b):
    """The perturbation m_a => m_b induced by a 2-cell al0: a => b of F(c):
    its component at a member f is the restriction of al0 along f."""
    R = m_a.dom.dom
    return Perturbation(m_a, m_b, {
        d: {f: F.on1[f].on2[al0] for f in R.ob[d].objects}
        for d in F.base.objects})


# --- the Yoneda actions: restriction along the maximal sieve -----------------

def yoneda_tritrans(f_hom, c0, x0):
    """The transformation induced by an object of the value at c0: its
    component at D sends a 1-cell f: D -> c0 to the restriction of x0
    along f."""
    return induced_tritrans(f_hom, representable_trihom(f_hom.base, c0), x0)


def yoneda_trimod(f_hom, c0, a0, sigma_x=None, sigma_y=None):
    """The modification induced by a 1-cell a0: X -> Y of the value at c0:
    its component at a member f is the restriction of a0 along f."""
    x0, y0 = f_hom.ob[c0].onecells[a0]
    return induced_trimod(f_hom, a0,
                          sigma_x or yoneda_tritrans(f_hom, c0, x0),
                          sigma_y or yoneda_tritrans(f_hom, c0, y0))


def yoneda_pert(f_hom, c0, al0, m_a=None, m_b=None):
    """The perturbation induced by a 2-cell al0: a => b of the value at
    c0: its component at f is the restriction of al0 along f."""
    a0, b0 = f_hom.ob[c0].twocells[al0]
    ma = m_a or yoneda_trimod(f_hom, c0, a0)
    mb = m_b or yoneda_trimod(f_hom, c0, b0,
                              sigma_x=ma.dom, sigma_y=ma.cod)
    return induced_pert(f_hom, al0, ma, mb)
