"""The frozen, boundary-indexed tables of FinCat, Fin2Cat and Bisieve.

Every indexed lookup is compared with a brute-force scan of the raw
tables, on the corpus, on generated sites and on ladder rungs.
"""

import json

import pytest

from bistack import cli
from bistack.bicat3 import compose_ps_two_functors, representable_trihom
from bistack.builders import chain_suspension, thin_two_cat
from bistack.errors import BoundaryMismatch, MalformedTable, \
    SearchBudgetExceeded
from bistack.fincat import all_functors, all_nat_trans, walking_arrow
from bistack.generate import _parallel_iso_base, _split_idempotent_base, \
    generate
from bistack.report import Budget
from bistack.sieves import maximal_bisieve
from bistack.two_cat import Fin2Cat
from bistack.workspace import SCHEMA, _encode_two_cat, corpus_names, \
    corpus_path, load, load_data

from test_bicat3 import TWISTED, one_object_z2, twisted_identity
from test_two_cat import split_idempotent_2cat


def _docs():
    for name in corpus_names():
        yield load(corpus_path(name))
    for profile in ("locally-discrete-site", "tiny-2site"):
        for seed in range(10):
            yield load_data(generate(seed, profile))


def _reversed(k):
    """k with every table in reverse insertion order, so that an index
    must sort rather than inherit the order of its input."""
    def rev(table):
        return dict(reversed(list(table.items())))
    return Fin2Cat(k.objects[::-1], rev(k.onecells), rev(k.twocells),
                   rev(k.identity1), rev(k.identity2), rev(k.vcomp),
                   rev(k.hcomp1), rev(k.hcomp2))


def _one_way_2cat():
    """Two parallel 1-cells f, g with a single 2-cell f => g."""
    return thin_two_cat(
        ["A", "B"], {"id_A": ("A", "A"), "id_B": ("B", "B"),
                     "f": ("A", "B"), "g": ("A", "B")},
        {"A": "id_A", "B": "id_B"},
        {("id_A", "id_A"): "id_A", ("id_B", "id_B"): "id_B",
         ("f", "id_A"): "f", ("id_B", "f"): "f",
         ("g", "id_A"): "g", ("id_B", "g"): "g"},
        [("f", "g")])


def _thin_builds():
    """What thin_two_cat builds for the generator and the tests."""
    return [_split_idempotent_base(), _parallel_iso_base(),
            split_idempotent_2cat(), _one_way_2cat()]


def _malformed(k):
    """k with the first row of hcomp1 and of vcomp dropped, and a row
    added to each for a pair that does not compose."""
    def corrupt(table, cells):
        ids = sorted(cells)
        later, earlier = next((b, a) for b in ids for a in ids
                              if cells[a][1] != cells[b][0])
        return dict(list(table.items())[1:] + [((later, earlier), later)])
    return Fin2Cat(k.objects, k.onecells, k.twocells, k.identity1,
                   k.identity2, corrupt(k.vcomp, k.twocells),
                   corrupt(k.hcomp1, k.onecells), k.hcomp2)


def _structures():
    """(two-categories, categories, bisieves) from every instance."""
    ks, cats, sieves = [], [], []
    for doc in _docs():
        ks += doc.two_cats.values()
        cats += doc.cats.values()
        sieves += doc.bisieves.values()
        for F in doc.trihoms.values():
            ks += F.ob.values()
    for n in (3, 4, 5):
        k = chain_suspension(n)
        ks += [k, _reversed(k)]
        ks += representable_trihom(k, "Y").ob.values()
        sieves += [maximal_bisieve(k, c) for c in k.objects]
    ks += _thin_builds() + [one_object_z2()]
    cats += [k.hom_cat(a, b) for k in ks for a in k.objects
             for b in k.objects]
    return ks, cats, sieves


@pytest.fixture(scope="module")
def structures():
    return _structures()


def _scan(table, s, t):
    return tuple(sorted(x for x, st in table.items() if st == (s, t)))


def _raw_compose(cells, table, later, earlier):
    """c1 or v read off the raw tables: KeyError for an unknown id, then
    BoundaryMismatch, then MalformedTable for a missing composite."""
    if cells[earlier][1] != cells[later][0]:
        raise BoundaryMismatch
    if (later, earlier) not in table:
        raise MalformedTable
    return table[(later, earlier)]


def _result(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the type is what is compared
        return "raises", type(exc)


def _raw_isos(k, f, g):
    return tuple(a for a in _scan(k.twocells, f, g)
                 if any(k.vcomp.get((b, a)) == k.identity2[f]
                        and k.vcomp.get((a, b)) == k.identity2[g]
                        for b in _scan(k.twocells, g, f)))


def _fresh(k):
    return Fin2Cat(k.objects, k.onecells, k.twocells, k.identity1,
                   k.identity2, k.vcomp, k.hcomp1, k.hcomp2)


def _equivalence(k, f, limit):
    """(result or the exception type, steps) of equivalence_data."""
    budget = Budget(limit)
    return _result(k.equivalence_data, f, budget), budget.steps


def test_fin2cat_lookups_match_brute_force(structures):
    ks, _, _ = structures
    strays = ("no-such-cell", ["not an id"])
    seen = set()
    for k in ks + [_malformed(chain_suspension(3))]:
        ones = list(k.onecells) + list(strays)
        for g in ones:
            for f in ones:
                assert _result(k.c1, g, f) \
                    == _result(_raw_compose, k.onecells, k.hcomp1, g, f)
                seen.add(_result(k.c1, g, f)[-1])
        twos = list(k.twocells) + list(strays)
        for b in twos:
            for a in twos:
                assert _result(k.v, b, a) \
                    == _result(_raw_compose, k.twocells, k.vcomp, b, a)
                seen.add(_result(k.v, b, a)[-1])
    assert {BoundaryMismatch, MalformedTable, KeyError, TypeError} <= seen
    for k in ks:
        for g in k.onecells:
            for f in k.onecells:
                assert k.isos_between(g, f) == _raw_isos(k, g, f)
                assert k.invertible_2cell(g, f) \
                    == (k.isos_between(g, f) or (None,))[0]
        for f in k.onecells:
            k.equivalence_data(f)  # memoise, spending no limit
            full = _equivalence(_fresh(k), f, None)
            for limit in range(full[1] + 2):
                got = _equivalence(k, f, limit)
                assert got == _equivalence(_fresh(k), f, limit)
                seen.add(got[0][-1])
            assert _equivalence(k, f, None) == full
    assert SearchBudgetExceeded in seen
    for k in ks:
        objs = k.objects + ("no-such-object",)
        for a in objs:
            for b in objs:
                assert k.one_cells_between(a, b) == _scan(k.onecells, a, b)
            assert k.one_cells_into(a) == tuple(
                (g, e) for g, (e, d) in sorted(k.onecells.items()) if d == a)
        assert k.composable_triples() == tuple(
            (e, b, a) for b, a in k.hcomp1 for e in k.onecells
            if k.onecells[b][1] == k.onecells[e][0])
        for f in k.onecells:
            for g in k.onecells:
                assert k.two_cells_between(f, g) \
                    == _scan(k.twocells, f, g)
        for a, (f, g) in k.twocells.items():
            want = next((b for b in _scan(k.twocells, g, f)
                         if k.vcomp.get((b, a)) == k.identity2[f]
                         and k.vcomp.get((a, b)) == k.identity2[g]), None)
            assert k.inverse2(a) == want
            assert k.inverse2(a) == want  # a second, memoised lookup
        assert k.key() == (
            k.objects, tuple(sorted(k.onecells.items())),
            tuple(sorted(k.twocells.items())),
            tuple(sorted(k.identity1.items())),
            tuple(sorted(k.identity2.items())),
            tuple(sorted(k.vcomp.items())), tuple(sorted(k.hcomp1.items())),
            tuple(sorted(k.hcomp2.items())))
        # at most one 2-cell between two 1-cells: no boundary repeats
        boundaries = list(k.twocells.values())
        assert k.locally_thin() == (len(set(boundaries)) == len(boundaries))
    assert all(k.locally_thin() for k in _thin_builds())
    assert not one_object_z2().locally_thin()
    assert not all(k.locally_thin() for k in ks)


def test_fincat_lookups_match_brute_force(structures):
    _, cats, _ = structures
    assert cats
    for c in cats:
        assert c.morphisms == tuple(sorted(c.src))
        for a in c.objects:
            for b in c.objects:
                assert c.hom(a, b) == tuple(
                    m for m in sorted(c.src)
                    if c.src[m] == a and c.tgt[m] == b)
        for m in c.morphisms:
            s, t = c.src[m], c.tgt[m]
            want = next((n for n in sorted(c.src)
                         if c.src[n] == t and c.tgt[n] == s
                         and c.comp.get((n, m)) == c.identity[s]
                         and c.comp.get((m, n)) == c.identity[t]), None)
            assert c.inverse(m) == want
            assert c.inverse(m) == want
        assert c.key() == (c.objects, tuple(sorted(c.src.items())),
                           tuple(sorted(c.tgt.items())),
                           tuple(sorted(c.identity.items())),
                           tuple(sorted(c.comp.items())))


def test_bisieve_lookups_match_brute_force(structures):
    _, _, sieves = structures
    for s in sieves:
        for d in s.k.objects + ("no-such-object",):
            assert s.member_list(d) == tuple(sorted(s.members.get(d, ())))
        assert s.all_members() == tuple(
            (d, f) for d in sorted(s.members)
            for f in sorted(s.members[d]))
        assert s.key() == (s.target, tuple(sorted(
            (d, tuple(sorted(ms))) for d, ms in s.members.items())))


def test_equal_tables_are_equal_structures():
    k, k2 = chain_suspension(3), chain_suspension(3)
    assert k is not k2 and k == k2 and hash(k) == hash(k2)
    assert k != chain_suspension(4)
    s, s2 = maximal_bisieve(k, "Y"), maximal_bisieve(k2, "Y")
    assert s == s2 and hash(s) == hash(s2)
    assert k.hom_cat("X", "Y") == k2.hom_cat("X", "Y")


def test_writing_into_a_table_raises():
    k = chain_suspension(3)
    c = k.hom_cat("X", "Y")
    s = maximal_bisieve(k, "Y")
    tables = [k.onecells, k.twocells, k.identity1, k.identity2, k.vcomp,
              k.hcomp1, k.hcomp2, c.src, c.tgt, c.identity, c.comp,
              s.members, s.tilde, s.sigma]
    for table in tables:
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = table[key]
        with pytest.raises(TypeError):
            table["new"] = table[key]
        with pytest.raises(TypeError):
            del table[key]
        assert not hasattr(table, "update")
    with pytest.raises(AttributeError):
        c.morphisms.append("x")


def _functor_like():
    """(structure, its tables, a brute-force key) for functors, natural
    transformations and pseudofunctors."""
    wa = walking_arrow()
    for c in (wa, chain_suspension(3).hom_cat("X", "Y")):
        functors = all_functors(wa, c)
        for F in functors:
            yield F, (F.ob, F.mor), (tuple(sorted(F.ob.items())),
                                     tuple(sorted(F.mor.items())))
        for F in functors:
            for G in functors:
                for t in all_nat_trans(F, G):
                    yield t, (t.comp,), tuple(sorted(t.comp.items()))
    trihoms = [F for doc in _docs() for F in doc.trihoms.values()]
    trihoms += [representable_trihom(chain_suspension(n), "Y")
                for n in (3, 4)]
    functors = [h for F in trihoms for h in F.on1.values()]
    # composites, whose compositor and unitor are built on first read
    functors += [compose_ps_two_functors(F.on1[g], F.on1[f])
                 for F in trihoms for f, g in F.base.hcomp1]
    for val, chi, unit in TWISTED:
        pool = [twisted_identity(val(), chi, unit)]
        pool += [compose_ps_two_functors(pool[0], pool[0])]
        functors += [compose_ps_two_functors(k2, h)
                     for k2 in pool for h in pool]
    for h in functors:
        tables = (h.ob, h.on1, h.on2, h.chi, h.unit)
        yield h, tables, tuple(tuple(sorted(t.items())) for t in tables)


def test_functor_tables_are_read_only_and_keys_memoised():
    seen = 0
    for x, tables, key in _functor_like():
        seen += 1
        for table in tables:
            k = next(iter(table))
            with pytest.raises(TypeError):
                table[k] = table[k]
            with pytest.raises(TypeError):
                table["new"] = table[k]
        assert x.key() == key
        assert x.key() is x.key()
    assert seen > 100


def test_tables_are_copied_at_construction():
    k = chain_suspension(3)
    onecells = dict(k.onecells)
    k2 = Fin2Cat(k.objects, onecells, k.twocells, k.identity1,
                 k.identity2, k.vcomp, k.hcomp1, k.hcomp2)
    onecells["stray"] = ("X", "Y")
    assert "stray" not in k2.onecells
    assert k2.one_cells_between("X", "Y") == k.one_cells_between("X", "Y")


@pytest.mark.parametrize("boundary", [["X"], ["X", "Y", "Y"], ["X", ["Y"]]])
def test_non_pair_boundary_is_malformed(boundary):
    k = chain_suspension(3)
    with pytest.raises(MalformedTable):
        Fin2Cat(k.objects, dict(k.onecells, f0=tuple(boundary)),
                k.twocells, k.identity1, k.identity2, k.vcomp, k.hcomp1,
                k.hcomp2)


@pytest.mark.parametrize("cells", ["onecells", "twocells"])
@pytest.mark.parametrize("boundary", [["X"], ["X", "Y", "Y"], ["X", ["Y"]]])
def test_cli_non_pair_boundary_exits_3(tmp_path, capsys, cells, boundary):
    body = _encode_two_cat(chain_suspension(3))
    name = sorted(body[cells])[-1]
    body[cells][name] = boundary
    path = tmp_path / "bad.site"
    path.write_text(json.dumps({
        "schema": SCHEMA, "two_cats": {"K": body},
        "checks": {"k": {"op": "two_category", "two_cat": "K"}}}))
    capsys.readouterr()
    assert cli.main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "two_cats.K" in err and repr(name) in err
