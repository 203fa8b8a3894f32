"""Finite categories as explicit tables, with exact decision procedures.

Objects and morphisms are opaque string ids.  Composition is a total table
on composable pairs; comp[(g, f)] is "g after f".  Nothing is generated or
quotiented: what is in the tables is the whole category.  ``all_functors``
and ``all_nat_trans`` draw typed candidates, which ``check_functor`` and
``check_nat`` test for composition and naturality alone.
"""

from types import MappingProxyType

from .errors import BoundaryMismatch, MalformedTable
from .report import Budget, choices, failed, passed


class FinCat:
    """A finite category given by explicit tables.

    Immutable after construction: every table is a read-only mapping, so
    a write raises TypeError.  The sorted morphisms and the hom-sets are
    indexed once here; to change a table, build a new FinCat.
    """

    def __init__(self, objects, src, tgt, identity, comp):
        self.objects = tuple(objects)
        self.src = MappingProxyType(dict(src))
        self.tgt = MappingProxyType(dict(tgt))
        self.identity = MappingProxyType(dict(identity))
        self.comp = MappingProxyType(dict(comp))
        self.morphisms = tuple(sorted(self.src))
        self._hom = by_boundary({m: (self.src[m], self.tgt.get(m))
                                 for m in self.morphisms})
        self._inverse = {}
        self._key = None

    def hom(self, a, b):
        return self._hom.get((a, b), ())

    def id(self, x):
        try:
            return self.identity[x]
        except KeyError:
            raise MalformedTable("no identity for object %r" % (x,))

    def compose(self, g, f):
        """g after f."""
        if self.tgt.get(f) != self.src.get(g):
            raise BoundaryMismatch("cannot compose %r after %r" % (g, f))
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise MalformedTable("missing composite (%r, %r)" % (g, f))

    def is_identity(self, m):
        return self.identity.get(self.src.get(m)) == m

    def inverse(self, m):
        if m not in self._inverse:
            a, b = self.src[m], self.tgt[m]
            self._inverse[m] = next(
                (n for n in self.hom(b, a)
                 if self.compose(n, m) == self.id(a)
                 and self.compose(m, n) == self.id(b)), None)
        return self._inverse[m]

    def is_iso(self, m):
        return self.inverse(m) is not None

    def isomorphic_objects(self, a, b):
        return any(self.is_iso(m) for m in self.hom(a, b))

    def arrow_name(self, a, b, g):
        """The name of the arrow g: a -> b, which is g."""
        return g

    def full_subcategory(self, objs):
        objs = [o for o in self.objects if o in set(objs)]
        keep = {
            m for m in self.morphisms
            if self.src[m] in objs and self.tgt[m] in objs
        }
        return FinCat(
            objs,
            {m: self.src[m] for m in keep},
            {m: self.tgt[m] for m in keep},
            {o: self.identity[o] for o in objs},
            {k: v for k, v in self.comp.items() if k[0] in keep and k[1] in keep},
        )

    def key(self):
        if self._key is None:
            self._key = (
                self.objects,
                tuple(sorted(self.src.items())),
                tuple(sorted(self.tgt.items())),
                tuple(sorted(self.identity.items())),
                tuple(sorted(self.comp.items())),
            )
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, FinCat)
                                 and self.key() == other.key())

    def __repr__(self):
        return "FinCat(%d objects, %d morphisms)" % (
            len(self.objects), len(self.morphisms))


def by_boundary(boundary):
    """Index cell ids by boundary: {(src, tgt): ids in sorted order}."""
    index = {}
    for x in sorted(boundary):
        index.setdefault(boundary[x], []).append(x)
    return {b: tuple(xs) for b, xs in index.items()}


def _is_cell(cells, x, boundary):
    """Is x the id of a cell with this boundary?  False for a non-id."""
    try:
        return cells.get(x) == boundary
    except TypeError:
        return False


def discrete(objects):
    objects = list(objects)
    ids = {o: "id_%s" % o for o in objects}
    return FinCat(
        objects,
        {ids[o]: o for o in objects},
        {ids[o]: o for o in objects},
        ids,
        {(ids[o], ids[o]): ids[o] for o in objects},
    )


def walking_arrow():
    """Two objects and one non-identity arrow between them."""
    c = discrete(["0", "1"])
    src = dict(c.src, a="0")
    tgt = dict(c.tgt, a="1")
    comp = dict(c.comp)
    comp[("a", "id_0")] = "a"
    comp[("id_1", "a")] = "a"
    return FinCat(c.objects, src, tgt, c.identity, comp)


def check_category(c, budget=None):
    """Decide whether the tables form a category; witness the first failure."""
    budget = budget or Budget()
    for m in c.morphisms:
        if c.src[m] not in c.objects or c.tgt.get(m) not in c.objects:
            return failed("check_category",
                          ["morphism %r has a dangling endpoint" % m],
                          {"morphism": m})
    for o in c.objects:
        i = c.identity.get(o)
        if i is None or c.src.get(i) != o or c.tgt.get(i) != o:
            return failed("check_category",
                          ["bad identity for object %r" % o], {"object": o})
    mors = c.morphisms
    for g in mors:
        for f in mors:
            budget.tick()
            if c.tgt[f] == c.src[g]:
                h = c.comp.get((g, f))
                if h is None:
                    return failed("check_category",
                                  ["missing composite (%r, %r)" % (g, f)],
                                  {"pair": [g, f]})
                if not (_is_cell(c.src, h, c.src[f])
                        and _is_cell(c.tgt, h, c.tgt[g])):
                    return failed("check_category",
                                  ["ill-typed composite (%r, %r)" % (g, f)],
                                  {"pair": [g, f], "composite": h})
            elif (g, f) in c.comp:
                return failed("check_category",
                              ["composite of non-composable pair (%r, %r)" % (g, f)],
                              {"pair": [g, f]})
    for f in mors:
        if c.comp.get((f, c.identity[c.src[f]])) != f:
            return failed("check_category", ["right unit fails at %r" % f],
                          {"morphism": f})
        if c.comp.get((c.identity[c.tgt[f]], f)) != f:
            return failed("check_category", ["left unit fails at %r" % f],
                          {"morphism": f})
    for h in mors:
        for g in mors:
            if c.tgt[g] != c.src[h]:
                continue
            for f in mors:
                if c.tgt[f] != c.src[g]:
                    continue
                budget.tick()
                if c.comp[(c.comp[(h, g)], f)] != c.comp[(h, c.comp[(g, f)])]:
                    return failed("check_category",
                                  ["associativity fails at (%r, %r, %r)" % (h, g, f)],
                                  {"triple": [h, g, f]})
    return passed("check_category",
                  ["%d objects, %d morphisms" % (len(c.objects), len(mors))])


class Functor:
    """Immutable after construction: ob and mor are read-only mappings,
    and key() is memoised."""

    def __init__(self, dom, cod, ob, mor):
        self.dom = dom
        self.cod = cod
        self.ob = MappingProxyType(dict(ob))
        self.mor = MappingProxyType(dict(mor))
        self._key = None

    def o(self, x):
        return self.ob[x]

    def m(self, f):
        return self.mor[f]

    def key(self):
        if self._key is None:
            self._key = (tuple(sorted(self.ob.items())),
                         tuple(sorted(self.mor.items())))
        return self._key

    def __eq__(self, other):
        return isinstance(other, Functor) and self.key() == other.key() \
            and self.dom == other.dom and self.cod == other.cod

    def __repr__(self):
        return "Functor(%s)" % (sorted(self.ob.items()),)


def identity_functor(c):
    return Functor(c, c, {o: o for o in c.objects},
                   {m: m for m in c.morphisms})


def compose_functors(g, f):
    """g after f."""
    if f.cod != g.dom:
        raise BoundaryMismatch("functors not composable")
    return Functor(f.dom, g.cod,
                   {x: g.o(f.o(x)) for x in f.dom.objects},
                   {m: g.m(f.m(m)) for m in f.dom.morphisms})


def check_functor(F):
    """Composition preserved at each composable pair of a functor taken as
    typed, as ``all_functors`` draws it: objects to objects, morphisms to
    morphisms between the images of their ends, identities to identities."""
    for g in F.dom.morphisms:
        for f in F.dom.morphisms:
            if F.dom.tgt[f] == F.dom.src[g]:
                if F.m(F.dom.comp[(g, f)]) != F.cod.compose(F.m(g), F.m(f)):
                    return failed("check_functor",
                                  ["composition not preserved at (%r, %r)" % (g, f)],
                                  {"pair": [g, f]})
    return passed("check_functor")


class NatTrans:
    """Immutable after construction: comp is a read-only mapping, and
    key() is memoised."""

    def __init__(self, dom, cod, comp):
        self.dom = dom          # source functor
        self.cod = cod          # target functor
        # object -> morphism of the target category
        self.comp = MappingProxyType(dict(comp))
        self._key = None

    def at(self, x):
        return self.comp[x]

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(self.comp.items()))
        return self._key

    def __repr__(self):
        return "NatTrans(%s)" % (sorted(self.comp.items()),)


def check_nat(t):
    """Naturality of a transformation taken as typed, as ``all_nat_trans``
    draws it: its component at x is a morphism F(x) -> G(x)."""
    F, G = t.dom, t.cod
    d = F.cod
    for f in F.dom.morphisms:
        a, b = F.dom.src[f], F.dom.tgt[f]
        if d.compose(t.at(b), F.m(f)) != d.compose(G.m(f), t.at(a)):
            return failed("check_nat", ["naturality fails at %r" % f],
                          {"morphism": f})
    return passed("check_nat")


def is_equivalence(F, budget=None):
    """Decide fully-faithful + essentially-surjective, with witnesses.

    F.cod is a FinCat or an ``Enumerated`` category, whose hom-sets are
    built as this reads them: an object of the image is reached by its
    identity, so only an object outside it is tested against the images,
    and a fullness failure names its least missing arrow
    (``arrow_name``).  One step per object of F.cod and per pair of
    objects of F.dom."""
    budget = budget or Budget()
    c, d = F.dom, F.cod
    images = dict.fromkeys(F.o(x) for x in c.objects)
    for y in d.objects:
        budget.tick()
        if y not in images and not any(d.isomorphic_objects(x, y)
                                       for x in images):
            return failed("is_equivalence",
                          ["object %r not in the essential image" % y],
                          {"object": y, "reason": "essential surjectivity"})
    for a in c.objects:
        for b in c.objects:
            budget.tick()
            fs = c.hom(a, b)
            image = [F.m(f) for f in fs]
            x, y = F.o(a), F.o(b)
            missing = [g for g in d.hom(x, y) if g not in image]
            if missing:
                g = min(d.arrow_name(x, y, g) for g in missing)
                return failed("is_equivalence",
                              ["%r has no preimage in hom(%r, %r)" % (g, a, b)],
                              {"pair": [a, b], "morphism": g,
                               "reason": "fullness"})
            seen = {}
            for f, g in zip(fs, image):
                if g in seen:
                    return failed("is_equivalence",
                                  ["%r and %r collapse" % (seen[g], f)],
                                  {"pair": [seen[g], f],
                                   "reason": "faithfulness"})
                seen[g] = f
    return passed("is_equivalence")


class Enumerated:
    """A category given by its objects in drawn order and its hom-sets
    built on first read, for ``is_equivalence`` to decide over.

    The objects are named ``<prefix>%d`` in the order given, and
    value[name] is the object behind a name.  Arrows are values:
    between(x, y) lists those from x to y, unit(x) is the identity on x
    and composite(later, earlier) composes two; a composite made in an
    isomorphism test spends no step.  ``arrow_name`` names an arrow as
    ``tabulate`` names it in the category with every hom-set built, in
    the order of the objects, the later object varying fastest.
    """

    def __init__(self, objects, between, unit, composite, prefixes):
        prefix, self.arrow_prefix = prefixes
        self.objects = tuple("%s%d" % (prefix, i)
                             for i in range(len(objects)))
        self.value = dict(zip(self.objects, objects))
        self._between, self.unit, self.composite = between, unit, composite
        self._hom = {}

    def hom(self, a, b):
        if (a, b) not in self._hom:
            self._hom[a, b] = tuple(self._between(self.value[a],
                                                  self.value[b]))
        return self._hom[a, b]

    def isomorphic_objects(self, a, b):
        ids = self.unit(self.value[a]), self.unit(self.value[b])
        return any(self.composite(g, f) == ids[0]
                   and self.composite(f, g) == ids[1]
                   for f in self.hom(a, b) for g in self.hom(b, a))

    def arrow_name(self, a, b, g):
        """``<arrow prefix>%d``, numbered across the hom-sets before
        hom(a, b), each of which this builds."""
        index = {x: i for i, x in enumerate(self.objects)}
        pair = index[a], index[b]
        first = sum(len(self.hom(x, y)) for x in self.objects
                    for y in self.objects if (index[x], index[y]) < pair)
        return "%s%d" % (self.arrow_prefix, first + self.hom(a, b).index(g))


def all_functors(c, d, budget=None):
    """Enumerate every functor c -> d, in a deterministic order."""
    budget = budget or Budget()
    out = []
    dobs = sorted(d.objects)
    nonid = [m for m in c.morphisms if not c.is_identity(m)]
    for (ob,) in choices(budget, ((x, dobs) for x in sorted(c.objects))):
        homs = ((f, d.hom(ob[c.src[f]], ob[c.tgt[f]])) for f in nonid)
        for (mor,) in choices(budget, homs):
            for o in c.objects:
                mor[c.id(o)] = d.id(ob[o])
            F = Functor(c, d, ob, mor)
            if check_functor(F).ok:
                out.append(F)
    return out


def all_nat_trans(F, G, budget=None):
    budget = budget or Budget()
    c, d = F.dom, F.cod
    out = []
    homs = ((x, d.hom(F.o(x), G.o(x))) for x in sorted(c.objects))
    for (comp,) in choices(budget, homs):
        t = NatTrans(F, G, comp)
        if check_nat(t).ok:
            out.append(t)
    return out


def vcomp_key(d, later, earlier):
    """The key of later . earlier, for natural transformations into d
    given by their keys."""
    return tuple((x, d.compose(g, f))
                 for (x, g), (_, f) in zip(later, earlier))


def tabulate(objects, arrows, identity, compose):
    """The category on named objects ({name: value}) and named arrows
    ({name: (src, tgt, value)}), with its arrow index
    {(src, tgt, value): name}.

    identity(value) and compose(later, earlier) return arrow values, each
    of which must name an arrow with that boundary.  Composites are formed
    in arrows order, the later factor varying slowest.
    """
    index = {arrow: name for name, arrow in arrows.items()}
    into = {}
    for m, (s, t, v) in arrows.items():
        into.setdefault(t, []).append((m, s, v))
    ids = {x: index[(x, x, identity(v))] for x, v in objects.items()}
    comp = {(m2, m1): index[(s1, t2, compose(v2, v1))]
            for m2, (s2, t2, v2) in arrows.items()
            for m1, s1, v1 in into.get(s2, ())}
    return FinCat(objects, {m: s for m, (s, _, _) in arrows.items()},
                  {m: t for m, (_, t, _) in arrows.items()}, ids, comp), index

