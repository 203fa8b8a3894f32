"""Brute-force set-valued sheaf oracle for locally discrete site documents.

On a locally discrete base with discrete values, a 2-category-valued
homomorphism is a 2-stack exactly when its presheaf of elements is a
sheaf: over every covering sieve, every matching family has exactly one
amalgamation.  This module decides that by enumeration, straight from a
document's JSON tables, without using the toolkit.
"""

from itertools import product


def sheaf_verdict(raw, trihom="F1", bitopology="tau"):
    """``"pass"`` if the trihom's presheaf of elements is a sheaf for the
    bitopology, else ``"fail"``."""
    tau = raw["bitopologies"][bitopology]
    base = raw["two_cats"][tau["two_cat"]]
    data = raw["trihoms"][trihom]
    onecells = {f: tuple(st) for f, st in base["onecells"].items()}
    comp = {(g, f): gf for g, f, gf in base["hcomp1"]}
    elems = {c: sorted(v["objects"]) for c, v in data["values"].items()}
    # restrict[f][x]: the restriction along f: d -> c of an element x at c
    restrict = {f: tab["ob"] for f, tab in data["on1"].items()}
    for c, names in tau["covering"].items():
        for name in names:
            members = sorted(f for fs in raw["bisieves"][name]["members"]
                             .values() for f in fs)
            if not _sheaf_over(c, members, onecells, comp, elems, restrict):
                return "fail"
    return "pass"


def _sheaf_over(c, members, onecells, comp, elems, restrict):
    into = {d: [g for g, (_, t) in onecells.items() if t == d]
            for d in elems}
    for choice in product(*(elems[onecells[f][0]] for f in members)):
        family = dict(zip(members, choice))
        matching = all(restrict[g][family[f]] == family[comp[(f, g)]]
                       for f in members
                       for g in into[onecells[f][0]])
        if not matching:
            continue
        gluings = [x for x in elems[c]
                   if all(restrict[f][x] == family[f] for f in members)]
        if len(gluings) != 1:
            return False
    return True
