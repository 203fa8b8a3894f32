"""Workload documents for the bistack benchmark, with their known answers.

Every document is handed to the toolkit as workspace JSON text (schema
``bistack-workspace/1``).  The ladder rungs and the malformed-input
repros are written here table by table; the site and mutant documents
come from the toolkit's public seeded generator, ``generate.generate``.
"""

import json
from dataclasses import dataclass, field

from oracle import sheaf_verdict

SCHEMA = "bistack-workspace/1"
LADDER_RUNGS = (3, 4, 5, 6)
DECIDERS = ("2stack", "2stack_direct")

# Seeded documents are drawn from a fixed pool of generator seeds per
# profile, so that the committed reference covers every run seed.  A run
# takes a window of consecutive pool seeds that starts at
# POOL_STRIDE * seed.
SITE_POOL, SITES_PER_PROFILE = 80, 75
MUTANT_POOL, MUTANTS = 120, 110
POOL_STRIDE = 37


@dataclass
class Doc:
    """One workload document and what the benchmark knows about it.

    ``known`` maps a check name to its known verdict, or to a
    ``(verdict, condition)`` pair when the witness must also name the
    failing descent condition.  ``input_error`` names where the toolkit
    must reject the document as malformed: ``"load"`` or a check name.
    """

    name: str
    text: str
    known: dict = field(default_factory=dict)
    input_error: str = None
    site_profile: str = None
    # top_rung_s is the time of both deciders summed over the anchors
    anchor: bool = False
    # (2stack check, 2stack_direct check) pairs that must agree
    pairs: list = field(default_factory=list)
    # subcanonical check -> sigma_bicolim checks it implies pass
    implies: dict = field(default_factory=dict)


def _dumps(raw):
    return json.dumps(raw, sort_keys=True)


# --- the ladder: suspension of a chain poset ------------------------------

def chain_suspension(n):
    """Tables of ``builders.suspension_two_cat`` applied to the chain
    poset f0 <= ... <= f(n-1): objects X and Y, the 1-cells X -> Y are
    the chain's objects and the 2-cells between them its morphisms."""
    ones = ["f%d" % i for i in range(n)]

    def cell(i, j):
        return "r%d_%d" % (i, j)

    onecells = {"id_X": ["X", "X"], "id_Y": ["Y", "Y"]}
    onecells.update({f: ["X", "Y"] for f in ones})
    twocells = {"2id_id_X": ["id_X", "id_X"], "2id_id_Y": ["id_Y", "id_Y"]}
    identity2 = {"id_X": "2id_id_X", "id_Y": "2id_id_Y"}
    vcomp = [["2id_id_X"] * 3, ["2id_id_Y"] * 3]
    hcomp1 = [["id_X"] * 3, ["id_Y"] * 3]
    hcomp2 = [["2id_id_X"] * 3, ["2id_id_Y"] * 3]
    for i in range(n):
        identity2[ones[i]] = cell(i, i)
        hcomp1 += [[ones[i], "id_X", ones[i]], ["id_Y", ones[i], ones[i]]]
        for j in range(i, n):
            twocells[cell(i, j)] = [ones[i], ones[j]]
            hcomp2 += [[cell(i, j), "2id_id_X", cell(i, j)],
                       ["2id_id_Y", cell(i, j), cell(i, j)]]
            for m in range(j, n):
                vcomp.append([cell(j, m), cell(i, j), cell(i, m)])
    return {"objects": ["X", "Y"], "onecells": onecells,
            "twocells": twocells, "identity1": {"X": "id_X", "Y": "id_Y"},
            "identity2": identity2, "vcomp": vcomp, "hcomp1": hcomp1,
            "hcomp2": hcomp2}


def maximal_sieve(k, target):
    """The maximal sieve on ``target`` with literal closure witnesses:
    each restriction is the base composite and each witness its
    identity 2-cell."""
    comp = {(g, f): gf for g, f, gf in k["hcomp1"]}
    members = {}
    for f, (d, c) in sorted(k["onecells"].items()):
        if c == target:
            members.setdefault(d, []).append(f)
    tilde, sigma = [], []
    for d, fs in sorted(members.items()):
        for f in fs:
            for g, (e, d2) in sorted(k["onecells"].items()):
                if d2 == d:
                    t = comp[(f, g)]
                    tilde.append([f, g, t])
                    sigma.append([f, g, k["identity2"][t]])
    return {"two_cat": "K", "target": target, "members": members,
            "tilde": tilde, "sigma": sigma}


def ladder_raw(n, empty_cover=False):
    """Rung n: both deciders over the maximal topology, on the trihom
    represented by Y.  With ``empty_cover`` X is also covered by the
    empty sieve, so both deciders must fail at condition M."""
    k = chain_suspension(n)
    bisieves = {"max_X": maximal_sieve(k, "X"),
                "max_Y": maximal_sieve(k, "Y")}
    covering = {"X": ["max_X"], "Y": ["max_Y"]}
    if empty_cover:
        bisieves["empty_X"] = {"two_cat": "K", "target": "X",
                               "members": {}, "tilde": [], "sigma": []}
        covering["X"].append("empty_X")
    return {
        "schema": SCHEMA,
        "two_cats": {"K": k},
        "bisieves": bisieves,
        "bitopologies": {"tau": {"two_cat": "K", "covering": covering}},
        "trihoms": {"F": {"kind": "representable", "two_cat": "K",
                          "at": "Y"}},
        "checks": {"%s:F" % op: {"op": op, "trihom": "F",
                                 "bitopology": "tau"}
                   for op in DECIDERS},
    }


def ladder_docs():
    """The ladder does not depend on the run seed: every run times the
    same rungs, so its figures compare across seeds."""
    docs = []
    for n in LADDER_RUNGS:
        docs.append(Doc("rung/N%d" % n, _dumps(ladder_raw(n)),
                        known={"%s:F" % op: "pass" for op in DECIDERS},
                        anchor=n == LADDER_RUNGS[-1]))
    return docs


# --- seeded generator documents --------------------------------------------

def _window(seed, count, pool):
    start = seed * POOL_STRIDE
    return [(start + i) % pool for i in range(count)]


def site_seeds(seed):
    """The generator seeds of the run seed's site documents."""
    return _window(seed, SITES_PER_PROFILE, SITE_POOL)


def mutant_seeds(seed):
    """The generator seeds of the run seed's mutant documents."""
    return _window(seed, MUTANTS, MUTANT_POOL)


def _with_extra_checks(raw):
    """Add the checks the sites workload runs beyond the declared ones:
    ``sigma_bicolim`` for each bisieve, ``subcanonical`` for each
    bitopology, and ``2stack_direct`` beside each ``2stack``."""
    checks = raw.setdefault("checks", {})
    have_sigma = {b.get("bisieve") for b in checks.values()
                  if b.get("op") == "sigma_bicolim"}
    for name in sorted(raw.get("bisieves", {})):
        if name not in have_sigma:
            checks["sigma:%s" % name] = {"op": "sigma_bicolim",
                                         "bisieve": name}
    have_sub = {b.get("bitopology") for b in checks.values()
                if b.get("op") == "subcanonical"}
    for name in sorted(raw.get("bitopologies", {})):
        if name not in have_sub:
            checks["subcanonical:%s" % name] = {"op": "subcanonical",
                                                "bitopology": name}
    for name, body in sorted(checks.items()):
        if body.get("op") == "2stack":
            direct = dict(body, op="2stack_direct")
            checks["2stack_direct:%s" % body["trihom"]] = direct
    return raw


def site_docs(gen_seeds, generate, corpus_text):
    """Both site profiles at each generator seed, and the bundled
    walking-arrow document."""
    docs = []
    for profile, tag in (("locally-discrete-site", "ld"),
                         ("tiny-2site", "t2")):
        for s in gen_seeds:
            raw = _with_extra_checks(generate(s, profile))
            docs.append(Doc("%s/%d" % (tag, s), _dumps(raw),
                            site_profile=profile, anchor=True))
    raw = _with_extra_checks(json.loads(corpus_text))
    docs.append(Doc("corpus/walking_arrow", _dumps(raw), anchor=True))
    return docs


# --- refutations ------------------------------------------------------------

def repro_docs():
    """The three malformed inputs of ROADMAP item 4.  Each must be
    rejected as an input error; the seed commit crashes on all three
    with a raw KeyError."""
    no_cat = {"schema": SCHEMA,
              "checks": {"category": {"op": "category"}}}
    stray = ladder_raw(3)
    stray["two_cats"]["K"]["onecells"]["stray"] = ["X", "Z"]
    corrupt = ladder_raw(3)
    row = next(r for r in corrupt["two_cats"]["K"]["vcomp"]
               if r[0] != r[1])
    row[-1] = "2id_id_X"
    return [Doc("repro/no-cat-field", _dumps(no_cat), input_error="category"),
            Doc("repro/unknown-boundary", _dumps(stray), input_error="load"),
            Doc("repro/vcomp-corrupt", _dumps(corrupt), input_error="load")]


def refute_docs(gen_seeds, generate):
    """A mutant at each generator seed, the empty-cover rungs and the
    malformed-input repros."""
    docs = []
    for s in gen_seeds:
        raw = generate(s, "mutant")
        label = raw["mutation"]["check"]
        known = {name: "fail" if name == label else "pass"
                 for name in raw["checks"]}
        docs.append(Doc("mutant/%d" % s, _dumps(raw), known=known))
    for n in LADDER_RUNGS:
        docs.append(Doc("empty/N%d" % n, _dumps(ladder_raw(n, True)),
                        known={"%s:F" % op: ("fail", "M")
                               for op in DECIDERS},
                        anchor=True))
    return docs + repro_docs()


def add_cross_checks(doc):
    """Fill in the answers that need the document's tables: the decider
    pairs that must agree, the sigma checks on covering sieves that a
    passing subcanonical check implies, and on locally discrete sites
    the sheaf oracle's verdict for both deciders."""
    raw = json.loads(doc.text)
    checks = raw.get("checks", {})
    for name, body in sorted(checks.items()):
        if body.get("op") == "2stack":
            twin = dict(body, op="2stack_direct")
            for other, obody in sorted(checks.items()):
                if obody == twin:
                    doc.pairs.append((name, other))
                    if doc.site_profile == "locally-discrete-site":
                        verdict = sheaf_verdict(raw, body["trihom"],
                                                body["bitopology"])
                        doc.known[name] = doc.known[other] = verdict
        if body.get("op") == "subcanonical":
            covering = raw["bitopologies"][body["bitopology"]]["covering"]
            sieves = {s for names in covering.values() for s in names}
            doc.implies[name] = sorted(
                other for other, obody in checks.items()
                if obody.get("op") == "sigma_bicolim"
                and obody.get("bisieve") in sieves)
