"""Sieves on a strict 2-category, their 2-category of elements, and
coverage axioms.

A sieve here is a family of 1-cells into a fixed target, closed under
precomposition up to invertible 2-cells, together with a chosen canonical
restriction: tilde(f, g) is the selected member isomorphic to f.g, and
sigma[(f, g)] the selected invertible 2-cell tilde(f, g) => f.g.  The
selection is deterministic (first in sorted order), and normalized so that
restriction along an identity is strict.

The constructions and the coverage axioms decide on member masks: each
2-category has one coverage index (``_Coverage``, kept in its memo) with
a bit per 1-cell, in id order, and per 1-cell the masks of its
iso-neighbours, and a sieve is a mask per object.  A pullback f*S is one
pass over the 1-cells into the source of f, with an AND per 1-cell;
mutual domination is an AND per member; the candidate sieves of T3 are
unions of iso-class masks.  Every loop visits ids in sorted order, so no
failure, error or budget stop depends on the order of a table or on the
hash seed, and a step is one item examined: a 1-cell of a pullback pass,
a member compared, a union of classes tried.  Building the index decides
every 2-cell in id order, and raises the first error that deciding one
raises: no coverage check runs on a 2-category whose invertible 2-cells
cannot be decided.

Every sieve built here is built once per member set (``_closed``):
its closure is checked and its restriction witnesses are chosen in one
pass, and the sieve is interned in the coverage index by its target and
its masks, in the caller's order of objects (the order of the witness
tables).  ``build_bisieve``, ``pullback_sieve``, ``candidate_sieves``
and the coverage axioms all build through it, so they share one sieve
per member set.  The index keeps its sieves on no 2-category and hands
out each bound to k (``Bisieve.on``), and refers to no 2-category
itself: a sieve refers to its 2-category, and a memo that held such a
sieve would make a cycle that only the garbage collector frees.
"""

from types import MappingProxyType

from .errors import BoundaryMismatch, MalformedTable
from .fincat import Functor, NatTrans, compose_functors, identity_functor
from .two_cat import Fin2Cat, PsFunctorToCat, PsNatTrans
from .builders import identity_nat
from .report import Budget, Recorded, failed, merge, passed


class Bisieve(Recorded):
    """A sieve on ``target`` with its chosen restriction witnesses.

    Immutable after construction: members, tilde and sigma are read-only
    mappings, so a write raises TypeError.  The sorted member lists are
    built once here, and one table keeps what is decided or built from
    them: ``memo`` the ``check_bisieve`` report with the steps it spent,
    ``derived`` the figures that spend none; to change a table, build a
    new Bisieve.  ``masks`` is set where the sieve is interned, else on
    first read.
    """

    def __init__(self, k, target, members, tilde, sigma):
        self.k = k
        self.target = target
        self.members = MappingProxyType(
            {d: frozenset(ms) for d, ms in members.items()})
        self.tilde = MappingProxyType(dict(tilde))
        self.sigma = MappingProxyType(dict(sigma))
        self._member_lists = {d: tuple(sorted(ms))
                              for d, ms in self.members.items()}
        self._all_members = tuple((d, f) for d in sorted(self.members)
                                  for f in self._member_lists[d])
        self._key = (target, tuple(sorted(self._member_lists.items())))
        self._masks = None
        self._recorded = {}

    def member_list(self, d):
        return self._member_lists.get(d, ())

    def all_members(self):
        return self._all_members

    def key(self):
        return self._key

    def on(self, k):
        """This sieve on k: a Bisieve that shares the tables, member lists
        and key, with a memo of its own.  The sieves that k's memo records
        are on no 2-category (k None), so that the memo holds no reference
        back to k, and are handed out through this."""
        s = object.__new__(Bisieve)
        tables = self.__dict__.copy()
        tables.update(k=k, _recorded={})
        s.__dict__ = tables
        return s

    def derived(self, fn):
        """fn(self), computed once and recorded under fn itself as
        spending no steps: for figures built from the sieve alone, such as
        its presheaf."""
        hit = self._recorded.get(fn)
        if hit is None:
            hit = self._recorded[fn] = fn(self), 0
        return hit[0]

    @property
    def masks(self):
        """The member sets as masks of k's coverage index, by object."""
        if self._masks is None:
            ix = _coverage(self.k)
            self._masks = {d: ix.mask(ms) for d, ms in self.members.items()}
        return self._masks

    def __eq__(self, other):
        return self is other or (isinstance(other, Bisieve)
                                 and self.key() == other.key()
                                 and self.k == other.k)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Bisieve(on %r, %d members)" % (
            self.target, sum(len(m) for m in self.members.values()))


def build_bisieve(k, target, members):
    """Assemble a sieve with canonical restriction witnesses.

    Interned (``_closed``) by the target and the member sets in the order
    of members, which the witness tables follow.  Raises MalformedTable
    when a member is not a 1-cell into target from its object, or when
    the member family is not closed under precomposition up to
    invertible 2-cells.
    """
    members = {d: frozenset(ms) for d, ms in members.items() if ms}
    for d in sorted(members):
        for f in sorted(members[d]):
            if k.onecells.get(f) != (d, target):
                raise MalformedTable("member %r is not a 1-cell %r -> %r"
                                     % (f, d, target))
    ix = _coverage(k)
    return _closed(k, ix, target, {d: ix.mask(ms)
                                   for d, ms in members.items()}).on(k)


def _maximal_members(k, target):
    members = {}
    for f, d in k.one_cells_into(target):
        members.setdefault(d, set()).add(f)
    return members


def maximal_bisieve(k, target):
    return build_bisieve(k, target, _maximal_members(k, target))


def contains_identity(s):
    """Is id_{s.target} a member of s?  A sieve is closed under
    precomposition up to invertible 2-cells, so one that contains the
    identity holds every 1-cell into its target up to one, and covers as
    the maximal sieve does (the Yoneda lemma:
    ``sigma_colim.is_sigma_bicolim_bisieve``,
    ``descent.is_stack_catvalued`` and the direct 2-stack decider
    ``descent.is_2stack_direct`` decide it without search; ``is_2stack``
    searches it)."""
    return s.k.id1(s.target) in s.members.get(s.target, ())


def literal_maximal_bisieve(k, target):
    """The maximal sieve with literal closure witnesses: tilde is base
    composition and every sigma an identity."""
    members = _maximal_members(k, target)
    tilde = {(f, g): k.c1(f, g) for d, ms in members.items()
             for f in sorted(ms) for g, _ in k.one_cells_into(d)}
    return Bisieve(k, target, members, tilde,
                   {fg: k.id2(t) for fg, t in tilde.items()})


def check_bisieve(s, budget=None):
    """Typing, closure, normality and invertibility of the witnesses."""
    budget = budget or Budget()
    k = s.k
    if s.target not in k.objects:
        return failed("check_bisieve", ["unknown target %r" % s.target], {})
    for d, f in s.all_members():
        if k.onecells.get(f) != (d, s.target):
            return failed("check_bisieve",
                          ["member %r is not %r -> %r" % (f, d, s.target)],
                          {"member": f})
    for d, f in s.all_members():
        for g, e in k.one_cells_into(d):
            budget.tick()
            t = s.tilde.get((f, g))
            cell = s.sigma.get((f, g))
            if t is None or t not in s.members.get(e, ()):
                return failed("check_bisieve",
                              ["no member restriction for (%r, %r)" % (f, g)],
                              {"pair": [f, g]})
            if k.twocells.get(cell) != (t, k.c1(f, g)) \
                    or not k.invertible2(cell):
                return failed("check_bisieve",
                              ["bad restriction witness at (%r, %r)" % (f, g)],
                              {"pair": [f, g]})
            if g == k.id1(d) and (t != f or cell != k.id2(f)):
                return failed("check_bisieve",
                              ["identity restriction not strict at %r" % f],
                              {"member": f})
    return passed("check_bisieve",
                  ["%d members over %d objects"
                   % (len(s.all_members()), len(s.members))])


def sieve_equivalence(s1, s2, budget=None):
    """Mutual domination up to invertible 2-cells."""
    budget = budget or Budget()
    if s1.k != s2.k or s1.target != s2.target:
        return failed("sieve_equivalence", ["different ambient data"], {})
    missing = _unmatched_member(_coverage(s1.k), s1, s2, budget)
    if missing is None:
        return passed("sieve_equivalence")
    f, tag = missing
    return failed("sieve_equivalence",
                  ["member %r of the %s sieve has no isomorph" % (f, tag)],
                  {"member": f, "side": tag})


def pullback_sieve(s, f, budget=None):
    """The sieve f*S: 1-cells g with f.g isomorphic to a member."""
    return _pullback(s.k, _coverage(s.k), s, f, budget or Budget()).on(s.k)


def candidate_sieves(k, c, budget=None):
    """All sieves on c that are unions of closed sets of iso-classes."""
    return [s.on(k) for s in _candidates(k, _coverage(k), c,
                                         budget or Budget())]


# --- the 2-category of elements -----------------------------------------

def _restrict_cell(s, f, g, delta, g2):
    """R(delta)_f: tilde(f, g) => tilde(f, g2) for delta: g => g2."""
    k = s.k
    return k.v_path([
        k.inverse2(s.sigma[(f, g2)]),
        k.wl(f, delta),
        s.sigma[(f, g)],
    ])


def _restrict_member_cell(s, f, f2, gamma, g):
    """Restriction of gamma: f => f2 along g, as tilde(f,g) => tilde(f2,g)."""
    k = s.k
    return k.v_path([
        k.inverse2(s.sigma[(f2, g)]),
        k.wr(gamma, g),
        s.sigma[(f, g)],
    ])


def _compositor_cell(s, f, g1, g2):
    """tilde(tilde(f, g1), g2) => tilde(f, g1.g2)."""
    k = s.k
    t1 = s.tilde[(f, g1)]
    return k.v_path([
        k.inverse2(s.sigma[(f, k.c1(g1, g2))]),
        k.wr(s.sigma[(f, g1)], g2),
        s.sigma[(t1, g2)],
    ])


class GrothTwoCat:
    """The 2-category of elements of a sieve, with decoding tables."""

    def __init__(self, sieve, two_cat, ob_of, one_of, two_of):
        self.sieve = sieve
        self.two_cat = two_cat
        self.ob_of = dict(ob_of)    # object id -> (D, f)
        self.one_of = dict(one_of)  # 1-cell id -> (g, alpha)
        self.two_of = dict(two_of)  # 2-cell id -> delta


def groth(s, budget=None):
    """Build the 2-category of elements of a sieve as explicit tables."""
    budget = budget or Budget()
    k = s.k
    ob_of, one_of, two_of = {}, {}, {}
    objects = []
    for d, f in s.all_members():
        name = "(%s|%s)" % (d, f)
        objects.append(name)
        ob_of[name] = (d, f)
    onecells = {}
    for tgt_name in objects:
        d, f = ob_of[tgt_name]
        for src_name in objects:
            e, h = ob_of[src_name]
            for g in k.one_cells_between(e, d):
                for alpha in k.two_cells_between(h, s.tilde[(f, g)]):
                    budget.tick()
                    name = "(%s|%s)>%s" % (g, alpha, tgt_name)
                    onecells[name] = (src_name, tgt_name)
                    one_of[name] = (g, alpha)
    twocells = {}
    by_pair = {}
    for n2, (src2, tgt2) in onecells.items():
        by_pair.setdefault((src2, tgt2), []).append(n2)
    for (src_name, tgt_name), cells in by_pair.items():
        d, f = ob_of[tgt_name]
        for n1 in cells:
            g1, a1 = one_of[n1]
            for n2 in cells:
                g2, a2 = one_of[n2]
                for delta in k.two_cells_between(g1, g2):
                    budget.tick()
                    if k.v(_restrict_cell(s, f, g1, delta, g2), a1) == a2:
                        name = "[%s]:%s=>%s" % (delta, n1, n2)
                        twocells[name] = (n1, n2)
                        two_of[name] = delta
    identity1, identity2 = {}, {}
    for name in objects:
        d, f = ob_of[name]
        identity1[name] = "(%s|%s)>%s" % (k.id1(d), k.id2(f), name)
    for n, (src_name, tgt_name) in onecells.items():
        g, a = one_of[n]
        identity2[n] = "[%s]:%s=>%s" % (k.id2(g), n, n)
    # the composable partners of each cell, in table order: the 1-cells
    # into each object, the 2-cells into each 1-cell, and the 2-cells
    # between the 1-cells into each object
    into1, into2, over = {}, {}, {}
    for n, (src_name, tgt_name) in onecells.items():
        into1.setdefault(tgt_name, []).append(n)
    for name, (n1, n2) in twocells.items():
        into2.setdefault(n2, []).append(name)
        over.setdefault(onecells[n1][1], []).append(name)
    # vertical composition: compose the underlying base 2-cells
    index2 = {}
    for name, (n1, n2) in twocells.items():
        index2[(n1, n2, two_of[name])] = name
    vcomp = {}
    for nb, (nb1, nb2) in twocells.items():
        for na in into2.get(nb1, ()):
            vcomp[(nb, na)] = index2[(twocells[na][0], nb2,
                                      k.v(two_of[nb], two_of[na]))]
    index1 = {}
    for n, (src_name, tgt_name) in onecells.items():
        index1[(src_name, tgt_name) + one_of[n]] = n
    hcomp1 = {}
    for nb, (eb, db) in onecells.items():        # later factor
        for na in into1.get(eb, ()):             # earlier factor
            ea = onecells[na][0]
            budget.tick()
            g2, a2 = one_of[nb]
            g1, a1 = one_of[na]
            d, f = ob_of[db]
            e, h = ob_of[eb]
            alpha = k.v_path([
                _compositor_cell(s, f, g2, g1),
                k.v_path([
                    k.inverse2(s.sigma[(s.tilde[(f, g2)], g1)]),
                    k.wr(a2, g1),
                    s.sigma[(h, g1)],
                ]),
                a1,
            ])
            hcomp1[(nb, na)] = index1[(ea, db, k.c1(g2, g1), alpha)]
    hcomp2 = {}
    for nb, (nb1, nb2) in twocells.items():
        for na in over.get(onecells[nb1][0], ()):
            na1, na2 = twocells[na]
            budget.tick()
            m1 = hcomp1[(nb1, na1)]
            m2 = hcomp1[(nb2, na2)]
            hcomp2[(nb, na)] = index2[(m1, m2,
                                       k.h(two_of[nb], two_of[na]))]
    cat = Fin2Cat(objects, onecells, twocells, identity1, identity2,
                  vcomp, hcomp1, hcomp2)
    return GrothTwoCat(s, cat, ob_of, one_of, two_of)


def factor_groth_morphism(gt, name):
    """Split (g, alpha) as (g, identity) after (identity, alpha).

    Returns (later, earlier): two 1-cell ids of the element 2-category whose
    composite is the given one.
    """
    k = gt.sieve.k
    s = gt.sieve
    src_name, tgt_name = gt.two_cat.onecells[name]
    d, f = gt.ob_of[tgt_name]
    e, h = gt.ob_of[src_name]
    g, alpha = gt.one_of[name]
    t = s.tilde[(f, g)]
    mid = "(%s|%s)" % (e, t)
    later = "(%s|%s)>%s" % (g, k.id2(t), tgt_name)
    earlier = "(%s|%s)>%s" % (k.id1(e), alpha, mid)
    if later not in gt.two_cat.onecells or earlier not in gt.two_cat.onecells:
        raise MalformedTable("factorization cells missing for %r" % name)
    return later, earlier


# --- presheaves attached to a sieve --------------------------------------

def representable(k, c):
    """The 2-functor represented by an object, as a PsFunctorToCat: the
    presheaf of the literal maximal sieve on c."""
    return sieve_presheaf(literal_maximal_bisieve(k, c))


def sieve_presheaf(s):
    """A sieve as a Cat-valued pseudofunctor via canonical restrictions."""
    k = s.k
    ob = {}
    for d in k.objects:
        full = k.hom_cat(d, s.target)
        ob[d] = full.full_subcategory(s.member_list(d))
    on1, on2, compositor = {}, {}, {}
    for g, (e, d) in k.onecells.items():
        on1[g] = Functor(
            ob[d], ob[e],
            {f: s.tilde[(f, g)] for f in ob[d].objects},
            {x: _restrict_member_cell(s, k.src2(x), k.tgt2(x), x, g)
             for x in ob[d].morphisms})
    for delta, (g, g2) in k.twocells.items():
        e, d = k.onecells[g]
        on2[delta] = NatTrans(on1[g], on1[g2],
                              {f: _restrict_cell(s, f, g, delta, g2)
                               for f in ob[d].objects})
    for f1, (d1, c1) in k.onecells.items():
        for g1, _ in k.one_cells_into(d1):
            dom = compose_functors(on1[g1], on1[f1])
            compositor[(f1, g1)] = NatTrans(
                dom, on1[k.c1(f1, g1)],
                {f: _compositor_cell(s, f, f1, g1) for f in ob[c1].objects})
    unitor = {d: identity_nat(identity_functor(ob[d])) for d in k.objects}
    return PsFunctorToCat(k, ob, on1, on2, compositor, unitor)


def inclusion_transformation(s):
    """The fully faithful inclusion of a sieve into its representable."""
    k = s.k
    R = sieve_presheaf(s)
    Y = representable(k, s.target)
    comp = {d: Functor(R.ob[d], Y.ob[d],
                       {f: f for f in R.ob[d].objects},
                       {x: x for x in R.ob[d].morphisms})
            for d in k.objects}
    cells = {}
    for g, (e, d) in k.onecells.items():
        cells[g] = NatTrans(
            compose_functors(comp[e], R.on1[g]),
            compose_functors(Y.on1[g], comp[d]),
            {f: s.sigma[(f, g)] for f in R.ob[d].objects})
    return PsNatTrans(R, Y, comp, cells)


# --- coverage axioms ------------------------------------------------------

class Bitopology:
    def __init__(self, k, covering):
        self.k = k
        self.covering = {c: tuple(sieves) for c, sieves in covering.items()}

    def sieves_on(self, c):
        return self.covering.get(c, ())


def check_T1(tau, budget=None):
    """The maximal sieve covers every object (up to sieve equivalence)."""
    budget = budget or Budget()
    k = tau.k
    ix = _coverage(k)
    for c in k.objects:
        budget.tick()
        if not _covered(k, ix, tau.sieves_on(c), _maximal(k, ix, c), budget):
            return failed("check_T1", ["maximal sieve on %r not covering" % c],
                          {"object": c})
    return passed("check_T1")


def check_T2(tau, budget=None):
    """Stability under pullback, decided via the f*S characterization."""
    budget = budget or Budget()
    for c in tau.k.objects:
        for i, s in enumerate(tau.sieves_on(c)):
            ix = _coverage(s.k)
            for f, d in tau.k.one_cells_into(c):
                budget.tick()
                p = _pullback(s.k, ix, s, f, budget)
                if not _covered(s.k, ix, tau.sieves_on(d), p, budget):
                    return failed(
                        "check_T2",
                        ["T2 via f*S: pullback of sieve #%d on %r along %r "
                         "is not covering" % (i, c, f)],
                        {"object": c, "sieve": i, "onecell": f})
    return passed("check_T2", ["T2 via f*S"])


def check_T3(tau, budget=None):
    """Local character: a sieve covered along a covering sieve must cover."""
    budget = budget or Budget()
    k = tau.k
    ix = _coverage(k)
    for c in k.objects:
        for s in _candidates(k, ix, c, budget):
            locally_covering = any(
                all(_covered(k, ix, tau.sieves_on(d),
                             _pullback(k, ix, s, f, budget), budget)
                    for d, f in t.all_members())
                for t in tau.sieves_on(c))
            if locally_covering \
                    and not _covered(k, ix, tau.sieves_on(c), s, budget):
                return failed(
                    "check_T3",
                    ["sieve on %r is locally covering but not covering" % c],
                    {"object": c,
                     "members": {d: list(s.member_list(d))
                                 for d in s.masks}})
    return passed("check_T3")


def check_bitopology(tau, budget=None):
    """T1-T3 together, plus validity of every declared sieve.

    Also reports (informationally, never failing) when the covering family
    is not literally closed under sieve equivalence.
    """
    budget = budget or Budget()
    k = tau.k
    for c in k.objects:
        for i, s in enumerate(tau.sieves_on(c)):
            r = check_bisieve(s, budget)
            if not r.ok:
                r.details.insert(0, "sieve #%d on %r" % (i, c))
                return r
    out = merge("check_bitopology",
                [check_T1(tau, budget), check_T2(tau, budget),
                 check_T3(tau, budget)])
    ix = _coverage(k)
    for c in k.objects:
        for s in _candidates(k, ix, c, budget):
            if _covered(k, ix, tau.sieves_on(c), s, budget) \
                    and not any(s.key() == t.key() and k == t.k
                                for t in tau.sieves_on(c)):
                out.details.append(
                    "note: covering-equivalent sieve on %r not literally "
                    "listed (family not closed under equivalence)" % c)
                break
    return out


# --- the coverage index and the mask routine ---------------------------------

def _coverage(k):
    """k's coverage index, built on first use and kept in k's memo."""
    return k.memo("coverage") or k.memo("coverage", _Coverage)


class _Coverage(Recorded):
    """The coverage index of a 2-category: a bit per 1-cell, in id order,
    so that a set of 1-cells is a mask and its least member its lowest
    bit; and the masks of the iso-neighbours of each 1-cell,
    ``iso_from[f]`` (the g with an invertible 2-cell f => g) and
    ``iso_into[g]``, decided once per 2-cell in id order.  Building it
    raises the first error that deciding a 2-cell raises (a corrupted
    table), so that no coverage check runs on a 2-category whose
    invertible 2-cells cannot be decided.  Also kept: the sieves whose
    closure passed (``_closed``), on no 2-category, and the candidate
    sieves of each object with their steps."""

    def __init__(self, k, budget):
        self.ids = sorted(k.onecells)
        self.bit = bit = {f: 1 << i for i, f in enumerate(self.ids)}
        self.iso_from, self.iso_into = {}, {}
        for a in sorted(k.twocells):
            f, g = k.twocells[a]
            if k.invertible2(a):
                self.iso_from[f] = self.iso_from.get(f, 0) | bit[g]
                self.iso_into[g] = self.iso_into.get(g, 0) | bit[f]
        self.sieves = {}
        self._recorded = {}

    def mask(self, cells):
        """The mask of the 1-cells among cells."""
        m = 0
        for f in cells:
            m |= self.bit.get(f, 0)
        return m

    def members(self, mask):
        """The 1-cells of a mask, in id order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.ids[low.bit_length() - 1])
            mask ^= low
        return tuple(out)


def _first_iso(ix, masks, e, g):
    """The least member of masks on e with an invertible 2-cell to g, or
    None: one AND of two masks."""
    low = masks.get(e, 0) & ix.iso_into.get(g, 0)
    return ix.ids[(low & -low).bit_length() - 1] if low else None


def _restrictions(k, ix, masks):
    """(f, g, m, cell) for each member f of masks, by their order of
    objects and then by id, and each 1-cell g into the object of f, by id:
    m is the least member isomorphic to the composite fg and cell the
    first invertible 2-cell m => fg, or f and its identity 2-cell where g
    is an identity.  Raises MalformedTable at the first (f, g) with no
    such member: the family is not closed."""
    for d, mask in masks.items():
        for f in ix.members(mask):
            for g, e in k.one_cells_into(d):
                if g == k.id1(d):
                    yield f, g, f, k.id2(f)
                    continue
                fg = k.c1(f, g)
                m = _first_iso(ix, masks, e, fg)
                if m is None:
                    raise MalformedTable(
                        "not closed: no member isomorphic to %r . %r" % (f, g))
                yield f, g, m, k.invertible_2cell(m, fg)


def _closed(k, ix, target, masks):
    """The sieve on target with the members of masks, on no 2-category,
    with the witnesses that _restrictions chooses in the order of masks:
    built once per member set and interned in ix, or raising where its
    closure fails."""
    key = target, tuple(masks.items())
    s = ix.sieves.get(key)
    if s is None:
        tilde, sigma = {}, {}
        for f, g, m, cell in _restrictions(k, ix, masks):
            tilde[f, g] = m
            sigma[f, g] = cell
        s = Bisieve(None, target, {d: ix.members(mask)
                                   for d, mask in masks.items()},
                    tilde, sigma)
        s._masks = masks
        ix.sieves[key] = s
    return s


def _maximal(k, ix, target):
    return _closed(k, ix, target, {
        d: ix.mask(ms) for d, ms in _maximal_members(k, target).items()})


def _pullback(k, ix, s, f, budget):
    """f*S, interned: one pass over the 1-cells g into the source of f, by
    id, with one step and one AND each."""
    d, c = k.onecells[f]
    if c != s.target:
        raise BoundaryMismatch("%r does not land in %r" % (f, s.target))
    s_masks, masks = s.masks, {}
    for g, e in k.one_cells_into(d):
        budget.tick()
        if _first_iso(ix, s_masks, e, k.c1(f, g)) is not None:
            masks[e] = masks.get(e, 0) | ix.bit[g]
    return _closed(k, ix, d, masks)


def _unmatched_member(ix, x, y, budget):
    """The first member of x with no isomorph among the members of y on
    its object, as (member, "first"), else the first such of y in x, as
    (member, "second"); or None.  One step and one AND per member."""
    for a, b, side in ((x, y, "first"), (y, x, "second")):
        masks = b.masks
        for d, f in a.all_members():
            budget.tick()
            if not ix.iso_from.get(f, 0) & masks.get(d, 0):
                return f, side
    return None


def _covered(k, ix, sieves, x, budget):
    """Is x equivalent to one of the sieves (mutual domination up to
    invertible 2-cells)?  A sieve on another 2-category or target is
    not."""
    return any((t.k is k or k == t.k) and x.target == t.target
               and _unmatched_member(ix, x, t, budget) is None
               for t in sieves)


def _candidates(k, ix, c, budget):
    """The interned sieves on c that are unions of iso-classes of the
    1-cells into c, one step per subset of classes; kept with its steps
    per object."""
    return ix.recorded(("candidates", c), budget, _closed_unions, k, ix, c)


def _closed_unions(k, ix, c, budget):
    classes = []
    rest = [f for f, _ in k.one_cells_into(c)]
    while rest:
        f = rest.pop(0)
        cls = [f] + [g for g in rest
                     if k.onecells[f] == k.onecells[g]
                     and ix.iso_from.get(f, 0) & ix.bit[g]]
        rest = [g for g in rest if g not in cls]
        classes.append(cls)
    idx = {f: i for i, cls in enumerate(classes) for f in cls}
    # the classes that precomposing each class reaches, as a mask of
    # class indices
    succ = []
    for cls in classes:
        reached = 0
        for g, _ in k.one_cells_into(k.src1(cls[0])):
            reached |= 1 << idx[k.c1(cls[0], g)]
        succ.append(reached)
    n = len(classes)
    out = []
    for chosen in range(1 << n):
        budget.tick()
        picked = {i for i in range(n) if chosen >> i & 1}
        if any(succ[i] & ~chosen for i in picked):
            continue
        masks = {}
        # objects in the order that the set of picked classes iterates in
        for i in picked:
            d = k.src1(classes[i][0])
            masks[d] = masks.get(d, 0) | ix.mask(classes[i])
        out.append(_closed(k, ix, c, masks))
    return tuple(out)
