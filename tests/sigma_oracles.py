"""The sigma-bicolimit comparison through the tabulated category of
cocones: the test oracle of ``sigma_colim._comparison``, which decides the
same equivalence without building that category.

``sigma_cocone_category`` builds every cocone and every modification
between two of them and tabulates them; ``comparison_functor`` names the
whiskered cocones and 2-cells through its arrow index, and
``fincat.is_equivalence`` decides the functor over it.
"""

from bistack.fincat import Functor, check_functor, is_equivalence, tabulate
from bistack.report import Budget, failed, passed
from bistack.sigma_colim import _cocone_name, _modification_name, \
    cocone_morphisms, enumerate_sigma_cocones, whisker_cocone


def sigma_cocone_category(d, u, budget=None):
    """The category of sigma-bicocones on u and their modifications, the
    name of each cocone, and the arrow index."""
    budget = budget or Budget()
    k = d.k
    cocones = {_cocone_name(i): cc
               for i, cc in enumerate(enumerate_sigma_cocones(d, u, budget))}
    arrows = {}
    for a, ca in cocones.items():
        for b, cb in cocones.items():
            first = len(arrows)
            for i, mu in enumerate(cocone_morphisms(d, ca, cb, budget)):
                arrows[_modification_name(first, i)] = (a, b, mu)

    def identity(cc):
        return tuple(sorted((s, k.id2(r)) for s, r in cc.legs))

    def compose(later, earlier):
        return tuple((s, k.v(x, y)) for (s, x), (_, y) in zip(later, earlier))

    cat, index = tabulate(cocones, arrows, identity, compose)
    return cat, {cc: a for a, cc in cocones.items()}, index


def comparison_functor(d, mu, u, budget=None):
    """Whiskering Hom(apex, u) into the cocone category on u."""
    budget = budget or Budget()
    k = d.k
    cc_cat, names, index = sigma_cocone_category(d, u, budget)
    hom = k.hom_cat(mu.apex, u)
    ob, mor = {}, {}
    for r in hom.objects:
        img = whisker_cocone(d, mu, r)
        if img not in names:
            return None, cc_cat, failed(
                "comparison_functor",
                ["whiskering %r does not yield a valid cocone" % r],
                {"onecell": r})
        ob[r] = names[img]
    for gam in hom.morphisms:
        r1, r2 = hom.src[gam], hom.tgt[gam]
        comps = tuple(sorted((s, k.wr(gam, leg)) for s, leg in mu.legs))
        key = (ob[r1], ob[r2], comps)
        if key not in index:
            return None, cc_cat, failed(
                "comparison_functor",
                ["whiskered 2-cell %r is not a modification" % gam],
                {"twocell": gam})
        mor[gam] = index[key]
    fun = Functor(hom, cc_cat, ob, mor)
    r = check_functor(fun)
    if not r.ok:
        return None, cc_cat, r
    return fun, cc_cat, passed("comparison_functor")


def materialised_comparison(d, mu, u, budget):
    """``sigma_colim._comparison`` through the tabulated category."""
    fun, cc_cat, rep = comparison_functor(d, mu, u, budget)
    if fun is None:
        return rep, None
    return is_equivalence(fun, budget), len(cc_cat.objects)
