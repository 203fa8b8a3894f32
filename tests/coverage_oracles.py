"""Test-only oracles: nested-loop scans of what ``check_category``,
``check_two_category``, the sieve constructions, the coverage axioms T1-T3
and ``check_bitopology`` decide with indexes and member masks.

Each oracle tests every pair (or triple, or quadruple) of cells for
composability, and every candidate member for an invertible 2-cell one
at a time, visiting ids in sorted order, as the indexed versions do.  A
step is one ordered pair of morphisms of a category, or of 2-cells of a
hom-category, composable or not; one composable triple of them; one
composable pair, triple or quadruple of the 2-category's horizontal
laws; one 1-cell of a pullback, one member compared or one union of
classes tried.  Where an indexed version builds its coverage index, the
oracle first decides every 2-cell in id order (``_decided``), so that it
raises the same first error.  They read only the raw tables of a Fin2Cat
and its per-cell and per-pair lookups (``c1``, ``v``, ``h``,
``invertible2``, ``iso_1cells``, ``invertible_2cell``), never its
per-1-cell or per-object indexes.
"""

from bistack.errors import BoundaryMismatch, MalformedTable
from bistack.fincat import FinCat, _is_cell
from bistack.report import Budget, failed, merge, passed
from bistack.sieves import Bisieve


def hom_cat(k, a, b):
    """The hom-category, filtering the whole vcomp table."""
    objs = k.one_cells_between(a, b)
    cells = {x for f in objs for g in objs
             for x in k.two_cells_between(f, g)}
    return FinCat(
        objs,
        {x: k.src2(x) for x in cells},
        {x: k.tgt2(x) for x in cells},
        {f: k.id2(f) for f in objs},
        {key: v for key, v in k.vcomp.items()
         if key[0] in cells and key[1] in cells},
    )


def check_category(c, budget=None):
    budget = budget or Budget()
    for i, o in enumerate(c.objects):
        for x in c.objects[:i]:
            if o == x:
                return failed("check_category",
                              ["object %r is listed twice" % (o,)],
                              {"object": o})
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
    mors, composed = c.morphisms, 0
    for g in mors:
        for f in mors:
            budget.tick()
            if c.tgt[f] == c.src[g]:
                composed += 1
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
                              ["composite of non-composable pair (%r, %r)"
                               % (g, f)], {"pair": [g, f]})
    # any other key of identity or comp names nothing; no law reads it
    if len(c.identity) > len(set(c.objects)):
        o = min(c.identity.keys() - set(c.objects), key=repr)
        return failed("check_category",
                      ["bad identity for object %r" % o], {"object": o})
    if len(c.comp) > composed:
        gf = min((gf for gf in c.comp if not {*gf} <= c.src.keys()),
                 key=repr)
        return failed("check_category", ["composite of non-composable pair "
                                         "(%r, %r)" % gf], {"pair": list(gf)})
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
                if c.comp[(c.comp[(h, g)], f)] \
                        != c.comp[(h, c.comp[(g, f)])]:
                    return failed("check_category",
                                  ["associativity fails at (%r, %r, %r)"
                                   % (h, g, f)], {"triple": [h, g, f]})
    return passed("check_category",
                  ["%d objects, %d morphisms" % (len(c.objects), len(mors))])


def _decided(k):
    """Decide whether each 2-cell is invertible, in id order: what
    building the coverage index raises on a corrupted table."""
    for a in sorted(k.twocells):
        k.invertible2(a)


def check_two_category(k, budget=None):
    budget = budget or Budget()
    ones, twos = sorted(k.onecells), sorted(k.twocells)
    for i, x in enumerate(k.objects):
        for y in k.objects[:i]:
            if x == y:
                return failed("check_two_category",
                              ["object %r is listed twice" % (x,)],
                              {"object": x})
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
            r = check_category(hom_cat(k, a, b), budget)
            if not r.ok:
                return failed("check_two_category",
                              ["hom(%r, %r): %s" % (a, b, r.details[0])],
                              r.witness)
    for g in ones:
        for f in ones:
            if k.tgt1(f) != k.src1(g) and (g, f) in k.hcomp1:
                return failed("check_two_category",
                              ["1-composite of non-composable (%r, %r)"
                               % (g, f)], {"pair": [g, f]})
    for b in twos:
        for a in twos:
            if k.tgt1(k.src2(a)) != k.src1(k.src2(b)) and (b, a) in k.hcomp2:
                return failed("check_two_category",
                              ["2-composite of non-composable (%r, %r)"
                               % (b, a)], {"pair": [b, a]})
    # the homs refused each pair of one hom that does not compose
    for b in twos:
        for a in twos:
            if k.tgt2(a) != k.src2(b) and (b, a) in k.vcomp:
                return failed("check_two_category",
                              ["vertical composite of non-composable (%r, %r)"
                               % (b, a)], {"pair": [b, a]})
    for g in ones:
        for f in ones:
            if k.tgt1(f) == k.src1(g):
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
        for g in ones:
            if k.tgt1(g) != k.src1(h):
                continue
            for f in ones:
                if k.tgt1(f) != k.src1(g):
                    continue
                budget.tick()
                if k.c1(k.c1(h, g), f) != k.c1(h, k.c1(g, f)):
                    return failed("check_two_category",
                                  ["1-cell associativity fails at (%r,%r,%r)"
                                   % (h, g, f)], {"triple": [h, g, f]})
    for b in twos:
        for a in twos:
            if k.tgt1(k.src2(a)) != k.src1(k.src2(b)):
                continue
            budget.tick()
            want = (k.c1(k.src2(b), k.src2(a)), k.c1(k.tgt2(b), k.tgt2(a)))
            if not _is_cell(k.twocells, k.hcomp2.get((b, a)), want):
                return failed("check_two_category",
                              ["bad 2-composite (%r, %r)" % (b, a)],
                              {"pair": [b, a]})
    for g in ones:
        for f in ones:
            if k.tgt1(f) == k.src1(g):
                if k.h(k.id2(g), k.id2(f)) != k.id2(k.c1(g, f)):
                    return failed("check_two_category",
                                  ["horizontal identity fails at (%r, %r)"
                                   % (g, f)], {"pair": [g, f]})
    for b2 in twos:
        for b1 in twos:
            if k.tgt2(b1) != k.src2(b2):
                continue
            for a2 in twos:
                if k.tgt1(k.src2(a2)) != k.src1(k.src2(b2)):
                    continue
                for a1 in twos:
                    if k.tgt2(a1) != k.src2(a2):
                        continue
                    budget.tick()
                    lhs = k.h(k.v(b2, b1), k.v(a2, a1))
                    rhs = k.v(k.h(b2, a2), k.h(b1, a1))
                    if lhs != rhs:
                        return failed("check_two_category",
                                      ["interchange fails at (%r,%r,%r,%r)"
                                       % (b2, b1, a2, a1)],
                                      {"quad": [b2, b1, a2, a1]})
    for c in twos:
        for b in twos:
            if k.tgt1(k.src2(b)) != k.src1(k.src2(c)):
                continue
            for a in twos:
                if k.tgt1(k.src2(a)) != k.src1(k.src2(b)):
                    continue
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


def build_bisieve(k, target, members):
    members = {d: frozenset(ms) for d, ms in members.items() if ms}
    for d in sorted(members):
        for f in sorted(members[d]):
            if k.onecells.get(f) != (d, target):
                raise MalformedTable("member %r is not a 1-cell %r -> %r"
                                     % (f, d, target))
    _decided(k)
    tilde, sigma = {}, {}
    for d, ms in members.items():
        for f in sorted(ms):
            for g, (e, d2) in sorted(k.onecells.items()):
                if d2 != d:
                    continue
                if g == k.id1(d):
                    tilde[(f, g)] = f
                    sigma[(f, g)] = k.id2(f)
                    continue
                fg = k.c1(f, g)
                found = None
                for m in sorted(members.get(e, ())):
                    cell = k.invertible_2cell(m, fg)
                    if cell is not None:
                        found = (m, cell)
                        break
                if found is None:
                    raise MalformedTable(
                        "not closed: no member isomorphic to %r . %r" % (f, g))
                tilde[(f, g)], sigma[(f, g)] = found
    return Bisieve(k, target, members, tilde, sigma)


def maximal_bisieve(k, target):
    members = {}
    for f, (d, c) in sorted(k.onecells.items()):
        if c == target:
            members.setdefault(d, set()).add(f)
    return build_bisieve(k, target, members)


def check_bisieve(s, budget=None):
    budget = budget or Budget()
    k = s.k
    if s.target not in k.objects:
        return failed("check_bisieve", ["unknown target %r" % s.target], {})
    for d in sorted(s.members):
        for f in sorted(s.members[d]):
            if k.onecells.get(f) != (d, s.target):
                return failed("check_bisieve",
                              ["member %r is not %r -> %r"
                               % (f, d, s.target)], {"member": f})
    for d, f in s.all_members():
        for g, (e, d2) in sorted(k.onecells.items()):
            if d2 != d:
                continue
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
    budget = budget or Budget()
    if s1.k != s2.k or s1.target != s2.target:
        return failed("sieve_equivalence", ["different ambient data"], {})
    k = s1.k
    _decided(k)
    for a, b, tag in ((s1, s2, "first"), (s2, s1, "second")):
        for d, f in a.all_members():
            budget.tick()
            if not any(k.iso_1cells(f, m) for m in b.member_list(d)):
                return failed(
                    "sieve_equivalence",
                    ["member %r of the %s sieve has no isomorph" % (f, tag)],
                    {"member": f, "side": tag})
    return passed("sieve_equivalence")


def pullback_sieve(s, f, budget=None):
    budget = budget or Budget()
    k = s.k
    _decided(k)
    d, c = k.onecells[f]
    if c != s.target:
        raise BoundaryMismatch("%r does not land in %r" % (f, s.target))
    members = {}
    for g, (e, d2) in sorted(k.onecells.items()):
        if d2 != d:
            continue
        budget.tick()
        fg = k.c1(f, g)
        if any(k.invertible_2cell(m, fg) is not None
               for m in s.member_list(e)):
            members.setdefault(e, set()).add(g)
    return build_bisieve(k, d, members)


def candidate_sieves(k, c, budget=None):
    budget = budget or Budget()
    _decided(k)
    into = sorted(f for f, (d, t) in k.onecells.items() if t == c)
    classes = []
    rest = list(into)
    while rest:
        f = rest.pop(0)
        cls = [f] + [g for g in rest
                     if k.onecells[f] == k.onecells[g] and k.iso_1cells(f, g)]
        rest = [g for g in rest if g not in cls]
        classes.append(tuple(cls))
    idx = {f: i for i, cls in enumerate(classes) for f in cls}
    succ = {}
    for i, cls in enumerate(classes):
        f = cls[0]
        need = set()
        for g, (e, d) in sorted(k.onecells.items()):
            if d == k.onecells[f][0]:
                need.add(idx[k.c1(f, g)])
        succ[i] = need
    out = []
    n = len(classes)
    for mask in range(0, 1 << n):
        budget.tick()
        chosen = {i for i in range(n) if mask & (1 << i)}
        if all(succ[i] <= chosen for i in chosen):
            members = {}
            for i in chosen:
                for f in classes[i]:
                    members.setdefault(k.onecells[f][0], set()).add(f)
            out.append(build_bisieve(k, c, members))
    return out


def _covers(sieves, s, budget):
    return any(sieve_equivalence(s, t, budget).ok for t in sieves)


def check_T1(tau, budget=None):
    budget = budget or Budget()
    _decided(tau.k)
    for c in tau.k.objects:
        budget.tick()
        if not _covers(tau.sieves_on(c), maximal_bisieve(tau.k, c), budget):
            return failed("check_T1", ["maximal sieve on %r not covering" % c],
                          {"object": c})
    return passed("check_T1")


def check_T2(tau, budget=None):
    budget = budget or Budget()
    for c in tau.k.objects:
        for i, s in enumerate(tau.sieves_on(c)):
            _decided(s.k)
            for f, (d, c2) in sorted(tau.k.onecells.items()):
                if c2 != c:
                    continue
                budget.tick()
                if not _covers(tau.sieves_on(d),
                               pullback_sieve(s, f, budget), budget):
                    return failed(
                        "check_T2",
                        ["T2 via f*S: pullback of sieve #%d on %r along %r "
                         "is not covering" % (i, c, f)],
                        {"object": c, "sieve": i, "onecell": f})
    return passed("check_T2", ["T2 via f*S"])


def check_T3(tau, budget=None):
    budget = budget or Budget()
    k = tau.k
    _decided(k)
    for c in k.objects:
        for s in candidate_sieves(k, c, budget):
            locally_covering = False
            for t in tau.sieves_on(c):
                if all(_covers(tau.sieves_on(d),
                               pullback_sieve(s, f, budget), budget)
                       for d, f in t.all_members()):
                    locally_covering = True
                    break
            if locally_covering and not _covers(tau.sieves_on(c), s, budget):
                return failed(
                    "check_T3",
                    ["sieve on %r is locally covering but not covering" % c],
                    {"object": c,
                     "members": {d: list(s.member_list(d))
                                 for d in s.members}})
    return passed("check_T3")


def check_bitopology(tau, budget=None):
    budget = budget or Budget()
    for c in tau.k.objects:
        for i, s in enumerate(tau.sieves_on(c)):
            r = check_bisieve(s, budget)
            if not r.ok:
                r.details.insert(0, "sieve #%d on %r" % (i, c))
                return r
    out = merge("check_bitopology",
                [check_T1(tau, budget), check_T2(tau, budget),
                 check_T3(tau, budget)])
    for c in tau.k.objects:
        for s in candidate_sieves(tau.k, c, budget):
            if _covers(tau.sieves_on(c), s, budget) \
                    and not any(s == t for t in tau.sieves_on(c)):
                out.details.append(
                    "note: covering-equivalent sieve on %r not literally "
                    "listed (family not closed under equivalence)" % c)
                break
    return out
