"""The indexed 2-category check, sieve constructions and coverage axioms
against their nested-loop oracles and against pinned digests."""

import functools
import hashlib
import json
import random

from hypothesis import given, settings, strategies as st

from bistack import fincat, sieves as sieves_module, two_cat
from bistack.builders import chain_suspension
from bistack.errors import ToolkitError
from bistack.generate import _mutant_base, _mutations, generate
from bistack.report import Budget
from bistack.sieves import Bisieve, Bitopology, _coverage, \
    build_bisieve, check_T1, check_T2, check_T3, check_bisieve, \
    check_bitopology
from bistack.two_cat import Fin2Cat, check_two_category
from bistack.workspace import corpus_path, load, load_data

import coverage_oracles
from test_bicat3 import one_object_z2, one_object_z3
from test_two_cat import split_idempotent_2cat


def _outcome(check, x, budget):
    """(verdict, details, witness, steps) of a check, or the type and
    message of what it raised, with the steps spent until then."""
    try:
        r = check(x, budget)
    except ToolkitError as exc:
        return [type(exc).__name__, str(exc), budget.steps]
    return [r.verdict, r.details, r.witness, budget.steps]


def _document_outcomes(raw):
    """Every 2-category, bisieve and coverage check of a document, run
    unlimited, in name order; or the error that loading it raises."""
    try:
        doc = load_data(raw)
    except ToolkitError as exc:
        return [type(exc).__name__, str(exc)]
    out = [_outcome(check_two_category, doc.two_cats[n], Budget())
           for n in sorted(doc.two_cats)]
    out += [_outcome(check_bisieve, doc.bisieves[n], Budget())
            for n in sorted(doc.bisieves)]
    for n in sorted(doc.bitopologies):
        out += [_outcome(check, doc.bitopologies[n], Budget())
                for check in (check_T1, check_T2, check_T3,
                              check_bitopology)]
    return out


def _pool_documents():
    """Site seeds 0-79 of both profiles, mutant seeds 0-119, and every
    mutation candidate of the mutant bases at seeds 0-39."""
    for profile in ("locally-discrete-site", "tiny-2site"):
        for seed in range(80):
            yield generate(seed, profile)
    for seed in range(120):
        yield generate(seed, "mutant")
    for seed in range(40):
        rng = random.Random(repr(("bistack", "mutant", seed)))
        yield from _mutations(_mutant_base(rng))


def _steps_free(outcomes):
    """The outcomes of a loaded document without the steps each spent."""
    if outcomes and isinstance(outcomes[0], list):
        return [o[:-1] for o in outcomes]
    return outcomes


# (documents, sha256 of their outcomes in order, sha256 of the same
# without steps).  The outcomes were first recorded with nested-loop
# scans that ticked once per pair of 1-cells, composable or not; they
# were re-recorded when check_two_category came to spend one step per
# composable pair.  The steps-free digest was recorded before that change
# and holds across it.
_OUTCOMES_PINNED = (
    3181, "34afbec19b87bfe11ce37cd3ab4df4d9a8cd12f14f21e5e419c4071e8805bbc6",
    "29645bcec7a7e9b8da2f588392f2ced81ad82c29fc8b1310d10438de415dca3c")


def test_coverage_and_two_category_outcomes_are_pinned():
    digest, steps_free = hashlib.sha256(), hashlib.sha256()
    count = 0
    for raw in _pool_documents():
        count += 1
        outcomes = _document_outcomes(raw)
        digest.update(json.dumps(outcomes, sort_keys=True).encode())
        steps_free.update(json.dumps(_steps_free(outcomes),
                                     sort_keys=True).encode())
    assert (count, digest.hexdigest(), steps_free.hexdigest()) \
        == _OUTCOMES_PINNED


# --- the indexed versions against the nested-loop oracles -------------------

_PROFILES = ("locally-discrete-site", "tiny-2site")
_TABLES = ("onecells", "twocells", "identity1", "identity2", "vcomp",
           "hcomp1", "hcomp2")


@functools.lru_cache(maxsize=None)
def _site(profile, seed):
    """The tables of a generated site: its 2-category's, each bisieve's
    (target, members, tilde, sigma), and the covering by sieve names."""
    return _tables(load_data(generate(seed, profile)))


# larger and non-thin 2-categories than the generated sites have: at N = 6
# hom(X, Y) of the chain suspension has 21 2-cells
_BUILT = {"chain_suspension(%d)" % n: functools.partial(chain_suspension, n)
          for n in range(2, 7)}
_BUILT.update(one_object_z2=one_object_z2, one_object_z3=one_object_z3,
              split_idempotent_2cat=split_idempotent_2cat)


@functools.lru_cache(maxsize=None)
def _built(name):
    """The tables of the corpus site, as ``_site`` gives them, or of a
    2-category of ``_BUILT`` with no sieves."""
    if name == "corpus":
        return _tables(load(corpus_path("walking_arrow.site")))
    k = _BUILT[name]()
    return k.objects, {n: dict(getattr(k, n)) for n in _TABLES}, {}, {}


def _tables(doc):
    k = doc.two_cats["K"]
    tables = {name: dict(getattr(k, name)) for name in _TABLES}
    sieves = {n: (s.target, {d: set(ms) for d, ms in s.members.items()},
                  dict(s.tilde), dict(s.sigma))
              for n, s in sorted(doc.bisieves.items())}
    names = {id(s): n for n, s in doc.bisieves.items()}
    covering = {c: [names[id(s)] for s in ss]
                for c, ss in doc.bitopologies["tau"].covering.items()}
    return k.objects, tables, sieves, covering


def _shuffled(data, tables):
    """The tables, each with its entries in a drawn order."""
    return {name: dict(data.draw(st.permutations(sorted(t.items()))))
            for name, t in tables.items()}


def _corrupted(data, objects, tables):
    """The objects and the tables with their order shuffled, and at most
    one corruption: an object listed twice; a value replaced by another id
    (of the right kind or not) or deleted; or a 2-cell given another
    boundary.  A replaced or deleted value of vcomp, hcomp1 or hcomp2 may
    come with a composite of a pair that may not compose."""
    tables = _shuffled(data, tables)
    name = data.draw(st.sampled_from((None, "objects") + _TABLES))
    if name == "objects":
        objects = list(objects)
        objects.insert(data.draw(st.integers(0, len(objects))),
                       data.draw(st.sampled_from(objects)))
        return tuple(objects), tables
    if name is None or not tables[name]:
        return objects, tables
    table = tables[name]
    key = data.draw(st.sampled_from(sorted(table)))
    ones, twos = sorted(tables["onecells"]), sorted(tables["twocells"])
    if name == "twocells":
        table[key] = (data.draw(st.sampled_from(ones)),
                      data.draw(st.sampled_from(ones)))
    elif name == "onecells":
        table[key] = (data.draw(st.sampled_from(objects)),
                      data.draw(st.sampled_from(objects)))
    else:
        pool = ones if name in ("identity1", "hcomp1") else twos
        value = data.draw(st.sampled_from(pool + ["foreign", None]))
        if value is None:
            del table[key]
        else:
            table[key] = value
    if name in ("vcomp", "hcomp1", "hcomp2") and data.draw(st.booleans()):
        # a composite of a pair that may not compose; in vcomp, half the
        # time of two 2-cells of one hom, which the check of the hom
        # refuses before vcomp's other stray pairs
        cells = ones if name == "hcomp1" else twos
        later = data.draw(st.sampled_from(cells))
        hom = tables["onecells"][tables["twocells"][later][0]] \
            if name == "vcomp" and data.draw(st.booleans()) else None
        table[(later, data.draw(st.sampled_from([
            x for x in cells if hom is None
            or tables["onecells"][tables["twocells"][x][0]] == hom])))] \
            = cells[0]
    return objects, tables


def _site_outcomes(objects, tables, sieves, covering):
    """The outcomes of check_two_category, of check_bisieve on each sieve
    and of T1-T3 and check_bitopology, on a fresh 2-category."""
    k = Fin2Cat(objects, **tables)
    built = {n: Bisieve(k, *s) for n, s in sieves.items()}
    tau = Bitopology(k, {c: [built[n] for n in ns]
                         for c, ns in covering.items()})
    out = [_outcome(check_two_category, k, Budget())]
    out += [_outcome(check_bisieve, built[n], Budget()) for n in sorted(built)]
    return out + [_outcome(check, tau, Budget())
                  for check in (check_T1, check_T2, check_T3,
                                check_bitopology)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_outcomes_do_not_depend_on_the_order_of_the_tables(data):
    """Every check visits ids in sorted order: on a generated site or
    mutant with its seven tables shuffled, each outcome, steps included,
    is the one on the tables in their stored order."""
    objects, tables, sieves, covering = _site(
        data.draw(st.sampled_from(_PROFILES + ("mutant",))),
        data.draw(st.integers(0, 79)))
    assert _site_outcomes(objects, _shuffled(data, tables), sieves,
                          covering) \
        == _site_outcomes(objects, tables, sieves, covering)


def _draw_spoiling(data, objects, sieve):
    """How to spoil a sieve: keep it, drop a member, give it another
    target, empty its tilde or its sigma, or move it to a foreign
    2-category; with the member or target it needs."""
    members = sieve[1]
    how = data.draw(st.sampled_from(("as is", "drop member", "wrong target",
                                     "no tilde", "no sigma", "foreign")))
    if how == "drop member":
        pairs = sorted((d, f) for d, ms in members.items() for f in ms)
        return how, data.draw(st.sampled_from(pairs)) if pairs else None
    if how == "wrong target":
        return how, data.draw(st.sampled_from(list(objects) + ["foreign"]))
    return how, None


def _spoiled(k, foreign, sieve, how, detail):
    target, members, tilde, sigma = sieve
    members = {d: set(ms) for d, ms in members.items()}
    if how == "drop member" and detail is not None:
        members[detail[0]].discard(detail[1])
    elif how == "wrong target":
        target = detail
    elif how == "no tilde":
        tilde = {}
    elif how == "no sigma":
        sigma = {}
    elif how == "foreign":
        k = foreign
    return Bisieve(k, target, members, tilde, sigma)


def _cases(objects, onecells, sieves):
    """(name, args): each indexed function with its arguments, read from
    an instance (k, the spoiled sieves by name, the topology)."""
    names = sorted(sieves)
    yield "check_two_category", lambda k, b, tau: (k,)
    for n in names:
        yield "check_bisieve", lambda k, b, tau, n=n: (b[n],)
        yield "build_bisieve", lambda k, b, tau, n=n: (
            k, b[n].target, {d: set(ms) for d, ms in b[n].members.items()})
        for n2 in names:
            yield "sieve_equivalence", lambda k, b, tau, n=n, n2=n2: (
                b[n], b[n2])
        for f, (_, c) in sorted(onecells.items()):
            if c == sieves[n][0]:
                yield "pullback_sieve", lambda k, b, tau, n=n, f=f: (b[n], f)
    for c in objects:
        yield "candidate_sieves", lambda k, b, tau, c=c: (k, c)
    for check in ("check_T1", "check_T2", "check_T3", "check_bitopology"):
        yield check, lambda k, b, tau: (tau,)


def _result(x):
    """A comparable form of what a check or construction returned."""
    if isinstance(x, Bisieve):
        return ("bisieve", x.target,
                [(d, x.member_list(d)) for d in sorted(x.members)],
                list(x.tilde.items()), list(x.sigma.items()))
    if isinstance(x, list):
        return [_result(y) for y in x]
    return (x.verdict, x.details, x.witness)


def _run(fn, args, limit):
    budget = Budget(limit)
    try:
        # build_bisieve spends no steps and takes no budget
        out = _result(fn(*args) if fn.__name__ == "build_bisieve"
                      else fn(*args, budget))
    except Exception as exc:  # compared by type and message
        return (type(exc).__name__, str(exc), budget.steps)
    return (out, budget.steps)


def _hom(hom_cat, k, a, b):
    """hom_cat(k, a, b), or the type and message of what it raised."""
    try:
        return hom_cat(k, a, b)
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_indexed_checks_match_the_nested_loop_oracles(data):
    """The same verdict, details, witness and steps, or the same exception
    type and message, on generated sites and on the larger or non-thin
    2-categories of ``_BUILT`` and the corpus site, with tables as
    ``_corrupted`` draws them, spoiled sieves and budget limits.  Each
    case runs twice on one instance, so that the second call reads what
    the 2-category's memo recorded in the first; and once more on a third
    instance after an unlimited run, under a smaller limit than that run
    spent, where a recorded figure must stop at the oracle's step.  Each
    hom-category is the one that the oracle filters from vcomp, and
    check_category decides it as its oracle does."""
    # three examples in four, about 150 of the 200, on a generated site
    objects, tables, sieves, covering = _site(
        data.draw(st.sampled_from(_PROFILES)), data.draw(st.integers(0, 79))) \
        if data.draw(st.integers(0, 3)) else _built(
            data.draw(st.sampled_from(sorted(_BUILT) + ["corpus"])))
    objects, tables = _corrupted(data, objects, tables)
    other = _site(data.draw(st.sampled_from(_PROFILES)),
                  data.draw(st.integers(0, 79)))
    spoil = {n: _draw_spoiling(data, objects, s) for n, s in sieves.items()}
    limit = data.draw(st.one_of(st.none(), st.integers(0, 50),
                                st.integers(0, 2000)))
    # the smaller limit, as a share of the steps of the unlimited run
    share = data.draw(st.sampled_from((0.0, 0.3, 0.7, 0.99)))

    def instance():
        """Built afresh for each side, so that no memo is shared."""
        k = Fin2Cat(objects, **tables)
        foreign = Fin2Cat(other[0], **other[1])
        built = {n: _spoiled(k, foreign, s, *spoil[n])
                 for n, s in sieves.items()}
        return k, built, Bitopology(k, {c: [built[n] for n in ns]
                                        for c, ns in covering.items()})

    oracle, indexed, warmed = instance(), instance(), instance()
    for name, args in _cases(objects, tables["onecells"], sieves):
        fn = getattr(sieves_module if hasattr(sieves_module, name)
                     else two_cat, name)
        check = getattr(coverage_oracles, name)
        want = _run(check, args(*oracle), limit)
        assert _run(fn, args(*indexed), limit) == want, name
        assert _run(fn, args(*indexed), limit) == want, (name, "repeat")
        smaller = int(_run(fn, args(*warmed), None)[-1] * share)
        assert _run(fn, args(*warmed), smaller) \
            == _run(check, args(*oracle), smaller), (name, smaller)
    for x in objects:
        for y in objects:
            hom = _hom(Fin2Cat.hom_cat, indexed[0], x, y)
            assert hom == _hom(coverage_oracles.hom_cat, oracle[0], x, y)
            if isinstance(hom, fincat.FinCat):
                assert _run(fincat.check_category, (hom,), limit) \
                    == _run(coverage_oracles.check_category, (hom,), limit)


def test_check_bitopology_notes_a_covering_sieve_left_unlisted():
    """Site 1's topology with id_O2 dropped from the member list of
    S_O2_0: a covering-equivalent sieve on O2 is not literally listed, and
    check_bitopology notes it as its oracle does.  The drawn cases above
    reach this note only on some draws."""
    objects, tables, sieves, covering = _site("locally-discrete-site", 1)

    def run(check):
        k = Fin2Cat(objects, **tables)
        built = {n: _spoiled(k, None, s, *(
            ("drop member", ("O2", "id_O2")) if n == "S_O2_0"
            else ("as is", None))) for n, s in sieves.items()}
        return _run(check, (Bitopology(k, {c: [built[n] for n in ns] for
                                           c, ns in covering.items()}),),
                    None)

    want = run(coverage_oracles.check_bitopology)
    assert run(check_bitopology) == want
    assert "note: covering-equivalent sieve on 'O2' not literally listed " \
        "(family not closed under equivalence)" in want[0][1]


@functools.lru_cache(maxsize=None)
def _categories():
    """The walking arrow, a discrete category and the hom-categories of
    the 2-categories of ``_BUILT``."""
    ks = [build() for build in _BUILT.values()]
    return [fincat.walking_arrow(), fincat.discrete("012")] + [
        k.hom_cat(a, b) for k in ks for a in k.objects for b in k.objects
        if k.one_cells_between(a, b)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_check_category_matches_its_nested_loop_oracle(data):
    """check_category, which counts the pairs of morphisms that do not
    compose, gives its nested-loop oracle's verdict, details, witness and
    steps, under budget limits, on ``_categories`` with at most two
    corruptions: an object listed twice; an end, identity or composite
    replaced (by another morphism or by a name of nothing) or deleted; a
    composite of a pair that may not compose; a key of identity or comp
    that names nothing."""
    c = data.draw(st.sampled_from(_categories()))
    objects, ends = list(c.objects), [dict(c.src), dict(c.tgt)]
    identity, comp = dict(c.identity), dict(c.comp)
    mors = sorted(ends[0])
    pick = data.draw
    for _ in range(pick(st.integers(0, 2))):
        how = pick(st.sampled_from(("object", "end", "identity", "comp",
                                    "stray", "nameless")))
        value = pick(st.sampled_from(mors + ["zzz", None]))
        if how == "object":
            objects.insert(pick(st.integers(0, len(objects))),
                           pick(st.sampled_from(objects)))
        elif how == "end":
            pick(st.sampled_from(ends))[pick(st.sampled_from(mors))] = \
                pick(st.sampled_from(objects + ["zzz"]))
        elif how in ("identity", "comp"):
            table = identity if how == "identity" else comp
            key = pick(st.sampled_from(sorted(table) or ["zzz"]))
            table[key] = value
            if value is None:
                del table[key]
        elif how == "stray":
            comp[pick(st.sampled_from(mors)), pick(st.sampled_from(mors))] \
                = pick(st.sampled_from(mors))
        elif pick(st.booleans()):
            identity["zzz"] = mors[0]
        else:
            comp["zzz", pick(st.sampled_from(mors))] = mors[0]
    limit = pick(st.one_of(st.none(), st.integers(0, 60)))

    def run(check):
        return _run(check, (fincat.FinCat(objects, *ends, identity, comp),),
                    limit)

    assert run(fincat.check_category) == run(coverage_oracles.check_category)


def test_interned_sieves_carry_the_witnesses_that_build_bisieve_chooses():
    """Every sieve that the coverage index interns while T1-T3 run on the
    site documents passes check_bisieve, and its tilde and sigma, in
    order, are those that build_bisieve and its nested-loop oracle choose
    for its member sets on a fresh copy of the 2-category."""
    count = 0
    for profile in _PROFILES:
        for seed in range(80):
            doc = load_data(generate(seed, profile))
            tau = doc.bitopologies["tau"]
            for check in (check_T1, check_T2, check_T3):
                check(tau, Budget())
            k = tau.k
            fresh = Fin2Cat(k.objects, **{n: getattr(k, n) for n in _TABLES})
            for s in _coverage(k).sieves.values():
                count += 1
                assert check_bisieve(s.on(k)).ok
                want = list(s.tilde.items()), list(s.sigma.items())
                for build in (build_bisieve, coverage_oracles.build_bisieve):
                    b = build(fresh, s.target, s.members)
                    assert (list(b.tilde.items()), list(b.sigma.items())) \
                        == want, (profile, seed, s)
    assert count > 900
