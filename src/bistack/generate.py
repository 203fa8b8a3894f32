"""Deterministic seeded instance generators.

Three profiles:

* ``locally-discrete-site``: a random finite poset category embedded as a
  locally discrete 2-category, with a saturated covering family and a
  random discrete-valued homomorphism.
* ``tiny-2site``: a genuinely 2-categorical base picked from a small family
  of shapes, with a saturated covering family and a representable value.
* ``mutant``: a valid document with exactly one labeled table corruption:
  the first candidate corruption whose labeled check is its only failing
  check, built and checked one candidate at a time.  A candidate runs its
  cheapest checks first: its ``bisieve`` checks, each on one sieve decoded
  alone, before the whole document is loaded, then the others in name
  order, and its labeled check last.  Any check that does not pass rules
  the candidate out, and under an unlimited budget no verdict depends on
  the order the checks run in, so the order decides only how soon a
  candidate is rejected, never which candidate is kept.

All profiles self-validate before returning, so a generated document is a
usable fixture by construction.
"""

import random
from itertools import product

from .errors import ToolkitError
from .fincat import FinCat, discrete
from .two_cat import Fin2Cat, from_fincat
from .sieves import _coverage, _covered, _pullback, candidate_sieves, \
    check_bisieve, check_bitopology, literal_maximal_bisieve
from .builders import thin_two_cat
from .report import Budget
from .runner import run_check
from .workspace import SCHEMA, load_data, located, _decode_bisieve, \
    _decode_two_cat, _encode_bisieve, _encode_two_cat

PROFILES = ("locally-discrete-site", "tiny-2site", "mutant")


# --- random sites ------------------------------------------------------------

def _random_poset_cat(rng, max_objects=4, max_morphisms=12):
    """A finite poset as a category: at most one morphism per ordered pair."""
    while True:
        n = rng.randint(2, max_objects)
        objs = ["O%d" % i for i in range(n)]
        rel = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    rel.add((i, j))
        changed = True
        while changed:
            changed = False
            for (i, j) in list(rel):
                for (j2, k) in list(rel):
                    if j2 == j and (i, k) not in rel:
                        rel.add((i, k))
                        changed = True
        if n + len(rel) > max_morphisms:
            continue
        src, tgt, identity = {}, {}, {}
        for i, o in enumerate(objs):
            m = "id_%s" % o
            src[m], tgt[m], identity[o] = o, o, m
        for (i, j) in sorted(rel):
            m = "m_%d_%d" % (i, j)
            src[m], tgt[m] = objs[i], objs[j]
        def name(i, j):
            return identity[objs[i]] if i == j else "m_%d_%d" % (i, j)
        comp = {}
        idx = {m: (objs.index(src[m]), objs.index(tgt[m])) for m in src}
        for g in src:
            for f in src:
                if tgt[f] == src[g]:
                    comp[(g, f)] = name(idx[f][0], idx[g][1])
        return FinCat(objs, src, tgt, identity, comp)


def _literal_candidates(k, c, budget):
    """Candidate sieves whose closure witnesses are literal composites
    (tilde agrees with base composition), one per member set.  These are
    the sieves the direct descent checker can restrict along."""
    return [s for s in candidate_sieves(k, c, budget)
            if all(k.c1(f, g) == t for (f, g), t in s.tilde.items())]


def _saturate_topology(k, chosen, budget):
    """Close a covering family under pullback (T2) and local character
    (T3), starting from the maximal sieves.  Decided on the member masks
    of k's coverage index; a pullback, interned there, is bound to k only
    where it is added."""
    ix = _coverage(k)
    cands = {c: _literal_candidates(k, c, budget) for c in k.objects}

    def covered(sieves, s):
        return _covered(k, ix, sieves, s, budget)

    def canonical(c, p):
        for t in cands[c]:
            if covered((t,), p):
                return t
        return p.on(k)

    cov = {c: [literal_maximal_bisieve(k, c)] for c in k.objects}
    for c, extra in chosen.items():
        for s in extra:
            if not covered(cov[c], s):
                cov[c].append(s)
    changed = True
    while changed:
        changed = False
        for c in k.objects:
            for s in list(cov[c]):
                for f, d in k.one_cells_into(c):
                    p = _pullback(k, ix, s, f, budget)
                    if not covered(cov[d], p):
                        cov[d].append(canonical(d, p))
                        changed = True
        for c in k.objects:
            for s in cands[c]:
                if covered(cov[c], s):
                    continue
                for r in cov[c]:
                    if all(covered(cov[k.src1(f)],
                                   _pullback(k, ix, s, f, budget))
                           for _, f in r.all_members()):
                        cov[c].append(s)
                        changed = True
                        break
    return cov


def _random_covering(k, rng, budget):
    chosen = {}
    for c in sorted(k.objects):
        pool = _literal_candidates(k, c, budget)
        picks = [s for s in pool if rng.random() < 0.4]
        chosen[c] = picks[:2]
    return _saturate_topology(k, chosen, budget)


# --- random discrete-valued homomorphism over a poset site --------------------

def _random_discrete_presheaf(cat, rng, max_elems=2):
    """Element sets and contravariant restriction maps, strictly
    functorial (found by backtracking with a seeded candidate order)."""
    elems = {c: ["%s_e%d" % (c, i) for i in range(rng.randint(1, max_elems))]
             for c in cat.objects}
    morphs = [m for m in sorted(cat.morphisms) if not cat.is_identity(m)]
    maps = {cat.id(c): {x: x for x in elems[c]} for c in cat.objects}

    def consistent(assigned):
        for g in assigned:
            for f in assigned:
                if cat.tgt[f] != cat.src[g]:
                    continue
                h = cat.compose(g, f)
                if h in assigned or cat.is_identity(h):
                    table = maps if cat.is_identity(h) else assigned
                    want = table[h] if not cat.is_identity(h) else maps[h]
                    for x in elems[cat.tgt[g]]:
                        if assigned[f][assigned[g][x]] != want[x]:
                            return False
        return True

    def extend(i, assigned):
        if i == len(morphs):
            return dict(assigned)
        m = morphs[i]
        dom = elems[cat.tgt[m]]
        cod = elems[cat.src[m]]
        cands = list(product(cod, repeat=len(dom)))
        rng.shuffle(cands)
        for choice in cands:
            assigned[m] = dict(zip(dom, choice))
            if consistent(assigned):
                out = extend(i + 1, assigned)
                if out is not None:
                    return out
            del assigned[m]
        return None

    solution = extend(0, {})
    maps.update(solution)
    return elems, maps


def _encode_discrete_trihom(two_cat_name, k, elems, maps):
    values = {}
    for c in k.objects:
        values[c] = _encode_two_cat(from_fincat(discrete(elems[c])))
    on1 = {}
    for f in k.onecells:
        e, d = k.onecells[f]
        ob = dict(maps[f])
        one = {"id_%s" % x: "id_%s" % ob[x] for x in elems[d]}
        two = {"2id_id_%s" % x: "2id_id_%s" % ob[x] for x in elems[d]}
        on1[f] = {"ob": ob, "on1": one, "on2": two}
    return {"kind": "tables", "two_cat": two_cat_name,
            "values": values, "on1": on1, "on2": {}}


# --- 2-categorical base shapes -------------------------------------------------

def _split_idempotent_base():
    onecells = {"id_A": ("A", "A"), "id_B": ("B", "B"),
                "u": ("A", "B"), "v": ("B", "A"), "e": ("A", "A")}
    table = {("id_A", "id_A"): "id_A", ("id_B", "id_B"): "id_B",
             ("u", "id_A"): "u", ("id_B", "u"): "u",
             ("v", "id_B"): "v", ("id_A", "v"): "v",
             ("e", "id_A"): "e", ("id_A", "e"): "e",
             ("v", "u"): "e", ("u", "v"): "id_B",
             ("e", "e"): "e", ("u", "e"): "u", ("e", "v"): "v"}
    return thin_two_cat(["A", "B"], onecells, {"A": "id_A", "B": "id_B"},
                        table, [("id_A", "e"), ("e", "id_A")])


def _parallel_iso_base():
    """Two parallel 1-cells joined by an invertible 2-cell."""
    onecells = {"id_A": ("A", "A"), "id_B": ("B", "B"),
                "u": ("A", "B"), "w": ("A", "B")}
    table = {("id_A", "id_A"): "id_A", ("id_B", "id_B"): "id_B",
             ("u", "id_A"): "u", ("id_B", "u"): "u",
             ("w", "id_A"): "w", ("id_B", "w"): "w"}
    return thin_two_cat(["A", "B"], onecells, {"A": "id_A", "B": "id_B"},
                        table, [("u", "w"), ("w", "u")])


def _z2_base():
    """One object with an order-two 2-cell on the identity."""
    z2 = {("2id_id_P", "2id_id_P"): "2id_id_P", ("2id_id_P", "t"): "t",
          ("t", "2id_id_P"): "t", ("t", "t"): "2id_id_P"}
    return Fin2Cat(["P"], {"id_P": ("P", "P")},
                   {"2id_id_P": ("id_P", "id_P"), "t": ("id_P", "id_P")},
                   {"P": "id_P"}, {"id_P": "2id_id_P"},
                   z2, {("id_P", "id_P"): "id_P"}, dict(z2))


_TINY_BASES = (_split_idempotent_base, _parallel_iso_base, _z2_base)


# --- document assembly ---------------------------------------------------------

def _site_document(k, cov, trihom=None):
    sieve_names = {}
    bisieves = {}
    for c in sorted(cov):
        for i, s in enumerate(cov[c]):
            name = "S_%s_%d" % (c, i)
            sieve_names[(c, i)] = name
            bisieves[name] = _encode_bisieve("K", s)
    raw = {
        "schema": SCHEMA,
        "two_cats": {"K": _encode_two_cat(k)},
        "bisieves": bisieves,
        "bitopologies": {"tau": {
            "two_cat": "K",
            "covering": {c: [sieve_names[(c, i)]
                             for i in range(len(cov[c]))]
                         for c in sorted(cov)}}},
        "checks": {
            "two_cat:K": {"op": "two_category", "two_cat": "K"},
            "T1": {"op": "T1", "bitopology": "tau"},
            "T2": {"op": "T2", "bitopology": "tau"},
            "T3": {"op": "T3", "bitopology": "tau"},
        },
    }
    for name in sorted(bisieves):
        raw["checks"]["bisieve:%s" % name] = {"op": "bisieve",
                                              "bisieve": name}
    if trihom is not None:
        raw["trihoms"] = {"F1": trihom}
        raw["checks"]["2stack:F1"] = {"op": "2stack", "trihom": "F1",
                                      "bitopology": "tau"}
    return raw


def _generate_locally_discrete(rng):
    budget = Budget()
    cat = _random_poset_cat(rng)
    k = from_fincat(cat)
    cov = _random_covering(k, rng, budget)
    elems, maps = _random_discrete_presheaf(cat, rng)
    return _site_document(k, cov, _encode_discrete_trihom("K", k,
                                                          elems, maps))


def _generate_tiny_2site(rng):
    budget = Budget()
    k = _TINY_BASES[rng.randrange(len(_TINY_BASES))]()
    cov = _random_covering(k, rng, budget)
    at = sorted(k.objects)[rng.randrange(len(k.objects))]
    return _site_document(k, cov, {"kind": "representable", "two_cat": "K",
                                   "at": at})


# --- mutants -------------------------------------------------------------------

def _with(raw, path, value):
    """raw with value at path, copying only the containers along path."""
    if not path:
        return value
    out = raw.copy()
    out[path[0]] = _with(raw[path[0]], path[1:], value)
    return out


def _mutations(raw):
    """Candidate mutated documents, labeled by their ``mutation`` key,
    yielded lazily in a deterministic order.  A candidate copies only the
    path to its corrupted cell and shares its unchanged sections with raw,
    so a caller must copy a candidate before editing it in place."""
    for kname in sorted(raw.get("two_cats", {})):
        body = raw["two_cats"][kname]
        twos = sorted(body["twocells"])
        for i, row in enumerate(body["vcomp"]):
            for wrong in twos:
                if wrong != row[-1]:
                    yield dict(_with(raw, ("two_cats", kname, "vcomp", i, -1),
                                     wrong),
                               mutation={"label": "vcomp-corrupt",
                                         "check": "two_cat:%s" % kname})
    for sname in sorted(raw.get("bisieves", {})):
        body = raw["bisieves"][sname]
        for i, row in enumerate(body["sigma"]):
            k = raw["two_cats"][body["two_cat"]]
            for wrong in sorted(k["twocells"]):
                if wrong != row[-1]:
                    yield dict(_with(raw, ("bisieves", sname, "sigma", i, -1),
                                     wrong),
                               mutation={"label": "sigma-corrupt",
                                         "check": "bisieve:%s" % sname})
    for tname in sorted(raw.get("bitopologies", {})):
        covering = raw["bitopologies"][tname]["covering"]
        for c in sorted(covering):
            yield dict(_with(raw, ("bitopologies", tname, "covering"),
                             {d: v for d, v in covering.items() if d != c}),
                       mutation={"label": "T1-missing", "check": "T1"})


def _sieve_checks_passed(raw, label):
    """The ``bisieve`` checks of raw other than label that pass, each run
    in name order on its sieve and that sieve's 2-category decoded alone
    (each 2-category once), with the decoders and the located check that
    loading and ``run_check`` use; None at the first that does not pass
    or raises a ToolkitError.  A check whose sieve or 2-category this
    cannot find in the raw shape is left out, for the full load to run."""
    sections = [raw.get(s, {}) for s in ("checks", "bisieves", "two_cats")]
    if not all(isinstance(x, dict) for x in sections):
        return set()
    checks, sieves, two_cats = sections
    passed, decoded = set(), {}
    for name in sorted(checks):
        body = checks[name]
        if name == label or not isinstance(body, dict) \
                or body.get("op") != "bisieve":
            continue
        sname = body.get("bisieve")
        sbody = sieves.get(sname) if isinstance(sname, str) else None
        kname = sbody.get("two_cat") if isinstance(sbody, dict) else None
        if not isinstance(kname, str) or kname not in two_cats:
            continue
        try:
            if kname not in decoded:
                decoded[kname] = _decode_two_cat(two_cats[kname],
                                                 "two_cats." + kname)
            s = _decode_bisieve(sbody, decoded, "bisieves." + sname)
            r = located("checks." + name, "an input of op 'bisieve'",
                        check_bisieve, s, Budget())
        except ToolkitError:
            return None
        if r.verdict != "pass":
            return None
        passed.add(name)
    return passed


def _fails_exactly_its_label(mutated):
    """Whether the labeled check is the only check of mutated that does
    not pass.  A corruption is mostly ruled out by a sieve it breaks, so
    the ``bisieve`` checks first run on their sieves alone
    (``_sieve_checks_passed``), and only a candidate they pass is loaded
    whole; its other checks then run in name order, with T1-T3 over every
    sieve among them, and the labeled check last.  Both stages run the
    loader's decoders over the same JSON bodies, a sieve's verdict reads
    only that sieve and its 2-category, and under an unlimited budget no
    verdict depends on the order the checks run in, so the answer is the
    one a full load that runs every check would give."""
    label = mutated["mutation"]["check"]
    passed = _sieve_checks_passed(mutated, label)
    if passed is None:
        return False
    try:
        doc = load_data(mutated)
        return all(run_check(doc, name)["verdict"] == "pass"
                   for name in sorted(doc.checks)
                   if name != label and name not in passed) \
            and run_check(doc, label)["verdict"] != "pass"
    except ToolkitError:
        return False


def _mutant_base(rng):
    """The valid site document a mutant corrupts, without trihoms: a
    profile's base and covering, drawn as that profile draws them."""
    if rng.random() < 0.5:
        k = _TINY_BASES[rng.randrange(len(_TINY_BASES))]()
    else:
        k = from_fincat(_random_poset_cat(rng))
    return _site_document(k, _random_covering(k, rng, Budget()))


def _generate_mutant(rng):
    for mutated in _mutations(_mutant_base(rng)):
        if _fails_exactly_its_label(mutated):
            return mutated
    raise AssertionError("no single-failure mutation found")


def generate(seed, profile):
    """A deterministic raw workspace document for the given profile."""
    if profile not in PROFILES:
        raise ValueError("unknown profile %r (choose from %s)"
                         % (profile, ", ".join(PROFILES)))
    rng = random.Random(("bistack", profile, seed).__repr__())
    if profile == "locally-discrete-site":
        raw = _generate_locally_discrete(rng)
    elif profile == "tiny-2site":
        raw = _generate_tiny_2site(rng)
    else:
        return _generate_mutant(rng)
    # self-validation: the declared topology must be well-formed; load_data
    # has already checked the one 2-category, the base of the one trihom
    doc = load_data(raw)
    for name, tau in doc.bitopologies.items():
        r = check_bitopology(tau)
        if not r.ok:
            raise AssertionError("generated bitopology %r: %s"
                                 % (name, r.details[0]))
    return raw
