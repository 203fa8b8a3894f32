import hashlib

import pytest

from bistack.bicat3 import check_trihom_data, representable_trihom, \
    sieve_trihom, strict_trihom
from bistack.builders import chain_suspension
from bistack.errors import MalformedTable
from bistack.fincat import walking_arrow
from bistack.generate import generate
from bistack.report import Budget
from bistack.sieves import (Bisieve, Bitopology, build_bisieve,
                            candidate_sieves, check_bisieve, check_bitopology,
                            check_T1, check_T2, check_T3,
                            factor_groth_morphism, groth,
                            inclusion_transformation, maximal_bisieve,
                            pullback_sieve, representable, sieve_equivalence,
                            sieve_presheaf)
from bistack.two_cat import check_two_category, from_fincat
from bistack.workspace import corpus_names, corpus_path, load, load_data

from test_two_cat import cospan_with_pullback, split_idempotent_2cat, \
    typed_check_ps_nat


@pytest.fixture
def wa2():
    return from_fincat(walking_arrow())


@pytest.fixture
def ksplit():
    return split_idempotent_2cat()


def test_the_first_mistyped_member_is_the_least_id():
    """Of several mistyped members on one object, check_bisieve and
    build_bisieve name the least id, whatever order the member set
    iterates in under the hash seed."""
    k = chain_suspension(3)
    members = {"X": {"f2", "f0", "f1"}}
    r = check_bisieve(Bisieve(k, "X", members, {}, {}))
    assert (r.verdict, r.details, r.witness) == (
        "fail", ["member 'f0' is not 'X' -> 'X'"], {"member": "f0"})
    with pytest.raises(MalformedTable) as exc:
        build_bisieve(k, "X", members)
    assert str(exc.value) == "member 'f0' is not a 1-cell 'X' -> 'X'"


def test_build_and_check_bisieve(wa2):
    s = build_bisieve(wa2, "1", {"0": {"a"}})
    assert check_bisieve(s).ok
    assert s.tilde[("a", "id_0")] == "a"
    m = maximal_bisieve(wa2, "1")
    assert m.member_list("1") == ("id_1",)
    assert check_bisieve(m).ok


def test_build_rejects_unclosed_members(ksplit):
    # u alone on B is not closed: u.v = id_B has no isomorphic member at B
    with pytest.raises(MalformedTable):
        build_bisieve(ksplit, "B", {"A": {"u"}})


def test_sieve_with_nonidentity_witnesses(ksplit):
    # members {id_A, v}: restricting id_A along e selects id_A with the
    # invertible 2-cell id_A => e as witness
    s = build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}})
    assert check_bisieve(s).ok
    assert s.tilde[("id_A", "e")] == "id_A"
    assert s.sigma[("id_A", "e")] == "c[id_A>e]"


def test_sieve_equivalence_up_to_iso(ksplit):
    s1 = build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}})
    s2 = build_bisieve(ksplit, "A", {"A": {"e"}, "B": {"v"}})
    assert sieve_equivalence(s1, s2).ok
    assert sieve_equivalence(s1, maximal_bisieve(ksplit, "A")).ok
    t = build_bisieve(ksplit, "A", {})
    assert not sieve_equivalence(s1, t).ok


def test_groth_of_maximal_sieve_on_walking_arrow(wa2):
    gt = groth(maximal_bisieve(wa2, "1"))
    # objects are (0|a) and (1|id_1): sum over D of member counts
    assert len(gt.two_cat.objects) == 2
    assert check_two_category(gt.two_cat).ok


def test_groth_with_nonidentity_witnesses_is_a_two_category(ksplit):
    s = build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}})
    gt = groth(s)
    assert len(gt.two_cat.objects) == 2
    assert check_two_category(gt.two_cat).ok


def test_groth_of_maximal_on_split_base(ksplit):
    s = maximal_bisieve(ksplit, "A")
    gt = groth(s)
    assert len(gt.two_cat.objects) == sum(
        len(s.members[d]) for d in s.members)
    assert check_two_category(gt.two_cat).ok


def test_factor_groth_morphism_recomposes(ksplit):
    s = build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}})
    gt = groth(s)
    k2 = gt.two_cat
    for name in k2.onecells:
        later, earlier = factor_groth_morphism(gt, name)
        assert k2.c1(later, earlier) == name


def test_pullback_sieve_along_identity_is_equivalent(ksplit):
    s = build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}})
    p = pullback_sieve(s, "id_A")
    assert check_bisieve(p).ok
    assert sieve_equivalence(p, s).ok


def test_pullback_sieve_matches_exhaustive_scan(ksplit):
    s = build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}})
    p = pullback_sieve(s, "v")
    k = ksplit
    # oracle: direct scan over all 1-cells into B
    for g, (e, d) in k.onecells.items():
        if d != "B":
            continue
        vg = k.c1("v", g)
        expected = any(k.iso_1cells(m, vg) for m in s.member_list(e))
        assert (g in p.members.get(e, ())) == expected


def _assert_same_tables(P, T):
    """The pseudofunctor into Cat P has the tables of the trihom T: the
    objects and morphisms of each value, each restriction map and each
    2-cell component; and every compositor and unitor of P is an
    identity.  Then T is strict homomorphism data."""
    k = P.base
    for d in k.objects:
        val = P.ob[d]
        assert val.objects == T.ob[d].objects
        assert {m: (val.src[m], val.tgt[m]) for m in val.morphisms} \
            == dict(T.ob[d].onecells)
    for g in k.onecells:
        assert P.on1[g].ob == T.on1[g].ob and P.on1[g].mor == T.on1[g].on1
    for delta in k.twocells:
        assert P.on2[delta].comp == T.on2[delta].comp
    for (_, g), chi in P.compositor.items():
        assert all(map(P.ob[k.src1(g)].is_identity, chi.comp.values()))
    for c, u in P.unitor.items():
        assert all(map(P.ob[c].is_identity, u.comp.values()))
    assert check_trihom_data(strict_trihom(k, T.ob, T.on1, T.on2)).ok


def test_representable_and_sieve_presheaf_are_the_trihoms(ksplit):
    """No checker tests a pseudofunctor into Cat: each one that an op
    builds is a representable or a sieve presheaf, whose tables are those
    of the representable and sieve trihoms, which the trihom checks
    accept.  Over the split idempotent, chain_suspension(3) and the bases
    of site seeds 0-5, and on every sieve of site seeds 0-9, each literal
    (``sieve_trihom`` refuses any other)."""
    docs = {(profile, seed): load_data(generate(seed, profile))
            for profile in ("locally-discrete-site", "tiny-2site")
            for seed in range(10)}
    bases = [ksplit, chain_suspension(3)] + [
        k for (_, seed), doc in docs.items() if seed < 6
        for k in doc.two_cats.values()]
    reps = 0
    for k in bases:
        for c in k.objects:
            _assert_same_tables(representable(k, c),
                                representable_trihom(k, c))
            reps += 1
    sieves = [s for doc in docs.values() for s in doc.bisieves.values()]
    for s in sieves:
        _assert_same_tables(sieve_presheaf(s), sieve_trihom(s))
    assert (reps, len(sieves)) == (32, 80)


def test_inclusion_transformation_is_pseudonatural(ksplit):
    s = build_bisieve(ksplit, "A", {"A": {"id_A"}, "B": {"v"}})
    assert typed_check_ps_nat(inclusion_transformation(s)).ok


def test_candidate_sieves_on_walking_arrow(wa2):
    cands = candidate_sieves(wa2, "1")
    keys = sorted(tuple(sorted((d, tuple(s.member_list(d)))
                               for d in s.members)) for s in cands)
    # oracle: the closed families on the terminal object of the walking
    # arrow are {}, {a}, {a, id_1}
    assert len(cands) == 3


def test_bitopology_axioms_on_walking_arrow(wa2):
    max0 = maximal_bisieve(wa2, "0")
    max1 = maximal_bisieve(wa2, "1")
    gen_a = build_bisieve(wa2, "1", {"0": {"a"}})
    tau = Bitopology(wa2, {"0": [max0], "1": [max1, gen_a]})
    assert check_T1(tau).ok
    r2 = check_T2(tau)
    assert r2.ok and "T2 via f*S" in r2.details
    assert check_T3(tau).ok
    assert check_bitopology(tau).ok


def test_T1_and_T2_violations():
    k = from_fincat(cospan_with_pullback())
    maxes = {c: maximal_bisieve(k, c) for c in k.objects}
    gen_f = build_bisieve(k, "C", {"A": {"f"}, "P": {"d"}})
    # T1 violation: object B has no covering sieve at all
    tau = Bitopology(k, {c: [maxes[c]] for c in k.objects if c != "B"})
    assert not check_T1(tau).ok
    # T2 violation: pullback of the f-generated sieve along g is the sieve
    # of 1-cells h into B with g.h isomorphic to a member; only q: P -> B
    # qualifies (g.q = d), and the sieve generated by q is not covering
    tau2 = Bitopology(k, {c: [maxes[c]] for c in k.objects})
    tau2.covering = dict(tau2.covering, C=(maxes["C"], gen_f))
    r = check_T2(tau2)
    assert not r.ok
    assert r.witness["onecell"] in ("g", "q") or r.witness["object"] == "C"


def test_T3_violation():
    # covering family containing the a-generated sieve forces the maximal
    # sieve to be locally covering; omit maximal from tau(1) and T1/T3 break
    wa2 = from_fincat(walking_arrow())
    max0 = maximal_bisieve(wa2, "0")
    gen_a = build_bisieve(wa2, "1", {"0": {"a"}})
    tau = Bitopology(wa2, {"0": [max0], "1": [gen_a]})
    assert not check_T3(tau).ok


# --- the 2-category of elements over the pool sieves ---------------------------

_GROTH_TABLES = ("onecells", "twocells", "identity1", "identity2", "vcomp",
                 "hcomp1", "hcomp2")


def _pool_docs():
    """The bundled corpus and site seeds 0-79 of both generator profiles."""
    docs = [load(corpus_path(name)) for name in corpus_names()]
    return docs + [load_data(generate(seed, profile))
                   for profile in ("locally-discrete-site", "tiny-2site")
                   for seed in range(80)]


def _pool_sieves():
    """Every bisieve of the pool documents, in name order."""
    return [doc.bisieves[n] for doc in _pool_docs()
            for n in sorted(doc.bisieves)]


def _groth_rows():
    """Each pool sieve's 2-category of elements, every table in insertion
    order, its decoding tables and the steps of building it."""
    rows = []
    for s in _pool_sieves():
        budget = Budget()
        gt = groth(s, budget)
        cat = gt.two_cat
        rows.append((cat.objects,
                     [list(getattr(cat, t).items()) for t in _GROTH_TABLES],
                     list(gt.ob_of.items()), list(gt.one_of.items()),
                     list(gt.two_of.items()), budget.steps))
    return rows


# (sieves, sha256 of their rows), recorded with the all-pairs scans, before
# the composition tables were built from per-target indexes
_GROTH_PINNED = (
    748, "b6b0500a9a81af9142d232767e64533163d9338a137a984f7f30a0e8bc4c6afd")


def test_groth_tables_and_steps_over_the_pool_sieves_are_pinned():
    rows = _groth_rows()
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert (len(rows), digest) == _GROTH_PINNED
