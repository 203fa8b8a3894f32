import pytest
from hypothesis import given, settings, strategies as st

from bistack.builders import chain_suspension
from bistack.fincat import (
    FinCat, Functor, NatTrans, all_functors, all_nat_trans, check_category,
    check_functor, check_nat, discrete, identity_functor, is_equivalence, walking_arrow,
)

import typing_oracles
from test_sieves import _pool_docs
from test_two_cat import split_idempotent_2cat


def walking_iso():
    """Two objects, one isomorphism in each direction."""
    c = discrete(["x", "y"])
    src = dict(c.src, u="x", v="y")
    tgt = dict(c.tgt, u="y", v="x")
    comp = dict(c.comp)
    comp[("u", "id_x")] = comp[("id_y", "u")] = "u"
    comp[("v", "id_y")] = comp[("id_x", "v")] = "v"
    comp[("v", "u")] = "id_x"
    comp[("u", "v")] = "id_y"
    return FinCat(c.objects, src, tgt, c.identity, comp)


def test_check_category_passes_on_walking_arrow():
    assert check_category(walking_arrow()).ok


def test_check_category_catches_broken_associativity():
    # one-object table with unit e but (a.a).a != a.(a.a)
    ms = ["e", "a", "b"]
    comp = {("e", m): m for m in ms}
    comp.update({(m, "e"): m for m in ms})
    comp.update({("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b",
                 ("b", "b"): "b"})
    bad = FinCat(["*"], {m: "*" for m in ms}, {m: "*" for m in ms},
                 {"*": "e"}, comp)
    r = check_category(bad)
    assert not r.ok
    assert "triple" in r.witness


def test_check_category_catches_missing_composite():
    c = walking_arrow()
    comp = dict(c.comp)
    del comp[("id_1", "a")]
    r = check_category(FinCat(c.objects, c.src, c.tgt, c.identity, comp))
    assert not r.ok
    assert "missing" in r.details[0]


def test_inverse_and_iso_classes():
    c = walking_iso()
    assert c.inverse("u") == "v"
    assert c.isomorphic_objects("x", "y")
    assert not walking_arrow().isomorphic_objects("0", "1")


def test_identity_functor_is_equivalence():
    c = walking_arrow()
    assert is_equivalence(identity_functor(c)).ok


def test_equivalence_detects_skeletal_collapse():
    # walking_iso is equivalent to the point, via the constant functor.
    c = walking_iso()
    pt = discrete(["p"])
    F = Functor(c, pt, {"x": "p", "y": "p"},
                {m: "id_p" for m in c.morphisms})
    assert check_functor(F).ok
    assert is_equivalence(F).ok


def test_is_equivalence_witnesses_failure_modes():
    pt = discrete(["p"])
    two = discrete(["p", "q"])
    F = Functor(pt, two, {"p": "p"}, {"id_p": "id_p"})
    r = is_equivalence(F)
    assert not r.ok and r.witness["reason"] == "essential surjectivity"
    # parallel pair collapsed onto the walking arrow: full but not faithful
    wa = walking_arrow()
    pp = FinCat(["0", "1"],
                {"id_0": "0", "id_1": "1", "a": "0", "b": "0"},
                {"id_0": "0", "id_1": "1", "a": "1", "b": "1"},
                {"0": "id_0", "1": "id_1"},
                {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
                 ("a", "id_0"): "a", ("id_1", "a"): "a",
                 ("b", "id_0"): "b", ("id_1", "b"): "b"})
    assert check_category(pp).ok
    G = Functor(pp, wa, {"0": "0", "1": "1"},
                {"id_0": "id_0", "id_1": "id_1", "a": "a", "b": "a"})
    r = is_equivalence(G)
    assert not r.ok and r.witness["reason"] == "faithfulness"
    H = Functor(pt, walking_arrow(), {"p": "0"}, {"id_p": "id_0"})
    r = is_equivalence(H)
    assert not r.ok and r.witness["reason"] in ("fullness",
                                                "essential surjectivity")


# Oracle: functors walking_arrow -> walking_arrow are order-preserving maps
# of the poset 0 < 1 into itself: 00, 01, 11.  Frozen expected value: 3.
def test_functor_count_walking_arrow_frozen():
    fs = all_functors(walking_arrow(), walking_arrow())
    assert len(fs) == 3


def test_nat_trans_enumeration_matches_naturality_filter():
    c, d = walking_arrow(), walking_arrow()
    fs = all_functors(c, d)
    # brute-force oracle: count all component choices that commute
    total = 0
    for F in fs:
        for G in fs:
            for t in all_nat_trans(F, G):
                assert check_nat(t).ok
                total += 1
    assert total == 6


def test_enumerated_functors_and_transformations_are_typed():
    """check_functor and check_nat take their candidates as typed:
    between any two hom categories of the split idempotent, of
    chain_suspension(2..4) and of the pool bases, every functor that
    all_functors yields, and every transformation between two of them that
    all_nat_trans yields, passes its typing oracle."""
    bases = [split_idempotent_2cat()] + [chain_suspension(n)
                                         for n in (2, 3, 4)]
    bases += [k for doc in _pool_docs() for k in doc.two_cats.values()]
    pairs = {}
    for k in bases:
        homs = [k.hom_cat(a, b) for a in k.objects for b in k.objects]
        pairs.update(((c.key(), d.key()), (c, d)) for c in homs for d in homs)
    functors = transformations = 0
    for c, d in pairs.values():
        fs = all_functors(c, d)
        assert all(typing_oracles.functor(F) is None for F in fs)
        for F in fs:
            for G in fs:
                ts = all_nat_trans(F, G)
                assert all(typing_oracles.nat_trans(t) is None for t in ts)
                transformations += len(ts)
        functors += len(fs)
    assert (len(pairs), functors, transformations) == (196, 244, 798)


def test_typing_oracles_name_the_first_ill_typed_piece():
    """The functor and transformation oracles type what check_functor and
    check_nat take as typed: each names the first object, morphism,
    identity or component off its boundary."""
    wa, z2 = walking_arrow(), _z2_monoid()
    ident = identity_functor(wa)
    cases = [
        (typing_oracles.functor, Functor(wa, wa, {"0": "0"}, ident.mor),
         "object '1' unmapped", {"object": "1"}),
        (typing_oracles.functor,
         Functor(wa, wa, {"0": "1", "1": "0"}, ident.mor),
         "morphism 'a' ill-mapped", {"morphism": "a"}),
        (typing_oracles.functor,
         Functor(wa, z2, {"0": "*", "1": "*"},
                 {"id_0": "t", "id_1": "id", "a": "id"}),
         "identity at '0' not preserved", {"object": "0"}),
        (typing_oracles.nat_trans,
         NatTrans(ident, ident, {"0": "a", "1": "id_1"}),
         "bad component at '0'", {"object": "0"}),
    ]
    for oracle, x, message, witness in cases:
        r = oracle(x)
        assert (r.details, r.witness) == ([message], witness)
    assert typing_oracles.functor(ident) is None
    assert typing_oracles.nat_trans(NatTrans(ident, ident,
                                             wa.identity)) is None


def _z2_monoid():
    """One object, with an arrow t of order two."""
    return FinCat(["*"], {"id": "*", "t": "*"}, {"id": "*", "t": "*"},
                  {"*": "id"}, {("id", "id"): "id", ("id", "t"): "t",
                                ("t", "id"): "t", ("t", "t"): "id"})


def test_functor_and_naturality_failures_into_z2():
    """Well-typed candidates into Z/2 that break composition and
    naturality: the checkers name where, and the enumerators leave them
    out."""
    chain, z2 = chain_suspension(3).hom_cat("X", "Y"), _z2_monoid()
    F = Functor(chain, z2, {x: "*" for x in chain.objects},
                {m: "id" if chain.is_identity(m) else "t"
                 for m in chain.morphisms})
    r = check_functor(F)
    assert (r.verdict, r.details, r.witness) == (
        "fail", ["composition not preserved at ('r1_2', 'r0_1')"],
        {"pair": ["r1_2", "r0_1"]})
    assert F not in all_functors(chain, z2)
    wa = walking_arrow()
    G, H = (Functor(wa, z2, {"0": "*", "1": "*"},
                    {"id_0": "id", "id_1": "id", "a": x}) for x in ("t", "id"))
    t = NatTrans(G, H, {"0": "id", "1": "id"})
    r = check_nat(t)
    assert (r.verdict, r.details, r.witness) == (
        "fail", ["naturality fails at 'a'"], {"morphism": "a"})
    assert t.key() not in {u.key() for u in all_nat_trans(G, H)}


@st.composite
def small_monoids(draw):
    """Random associative unital tables of order <= 3, built by closure."""
    n = draw(st.integers(1, 3))
    elems = ["m%d" % i for i in range(n)]
    table = {}
    for a in elems:
        for b in elems:
            if a == "m0":
                table[(a, b)] = b
            elif b == "m0":
                table[(a, b)] = a
            else:
                table[(a, b)] = draw(st.sampled_from(elems))
    return elems, table


@given(small_monoids())
@settings(max_examples=60, deadline=None)
def test_check_category_equals_direct_associativity_oracle(mt):
    elems, table = mt
    c = FinCat(["*"], {e: "*" for e in elems}, {e: "*" for e in elems},
               {"*": "m0"}, table)
    oracle = all(
        table[(table[(h, g)], f)] == table[(h, table[(g, f)])]
        for h in elems for g in elems for f in elems
    )
    assert check_category(c).ok == oracle
