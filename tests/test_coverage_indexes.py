"""The indexed 2-category check, sieve constructions and coverage axioms
against their nested-loop oracles and against pinned digests."""

import functools
import hashlib
import json
import random

from hypothesis import given, settings, strategies as st

from bistack import sieves as sieves_module, two_cat
from bistack.errors import ToolkitError
from bistack.generate import _mutant_base, _mutations, generate
from bistack.report import Budget
from bistack.sieves import Bisieve, Bitopology, _coverage, \
    build_bisieve, check_T1, check_T2, check_T3, check_bisieve, \
    check_bitopology
from bistack.two_cat import Fin2Cat, check_two_category
from bistack.workspace import load_data

import coverage_oracles


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
    doc = load_data(generate(seed, profile))
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
    """The tables with their order shuffled and at most one cell
    corrupted: a value replaced by another id (of the right kind or not)
    or deleted, or a 2-cell given another boundary."""
    tables = _shuffled(data, tables)
    name = data.draw(st.sampled_from((None,) + _TABLES))
    if name is None or not tables[name]:
        return tables
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
    if name in ("hcomp1", "hcomp2") and data.draw(st.booleans()):
        # a composite of a pair that may not compose
        cells = ones if name == "hcomp1" else twos
        table[(data.draw(st.sampled_from(cells)),
               data.draw(st.sampled_from(cells)))] = cells[0]
    return tables


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


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_indexed_checks_match_the_nested_loop_oracles(data):
    """The same verdict, details, witness and steps, or the same exception
    type and message, on generated sites with shuffled tables, at most one
    corrupted cell, spoiled sieves and budget limits.  Each case runs twice
    on one instance, so that the second call reads what the 2-category's
    memo recorded in the first; and once more on a third instance after an
    unlimited run, under a smaller limit than that run spent, where a
    recorded figure must stop at the oracle's step."""
    site = _site(data.draw(st.sampled_from(_PROFILES)),
                 data.draw(st.integers(0, 79)))
    objects, tables, sieves, covering = site
    tables = _corrupted(data, objects, tables)
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
