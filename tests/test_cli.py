"""Workspace documents, the check runner, generators, and the CLI."""

import copy
import hashlib
import json
import random
from collections import Counter
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bistack import cli, runner
from bistack.bicat3 import identity_ps_two_functor
from bistack.builders import chain_suspension
from bistack.errors import DanglingReference, ParseError, UnknownCheck
from bistack import generate as generate_module
from bistack.fincat import walking_arrow
from bistack.generate import PROFILES, _fails_exactly_its_label, \
    _mutant_base, _mutations, _parallel_iso_base, _sieve_checks_passed, \
    generate
from bistack.runner import replay, run_all, run_check, strip_timing
from bistack.sieves import check_bitopology, literal_maximal_bisieve
from bistack.two_cat import Fin2Cat, check_two_category, from_fincat
from bistack.workspace import FIELDS, SCHEMA, SECTIONS, _encode_bisieve, \
    _encode_two_cat, corpus_names, corpus_path, load, load_data, normalize, \
    save
from mutant_oracles import fails_exactly_its_label_by_name
from test_bicat3 import _w_to_w, collapse_functor, e_transformation, \
    one_object_z3
from test_two_cat import split_idempotent_2cat


@pytest.fixture(scope="module")
def corpus_doc():
    return load(corpus_path("walking_arrow.site"))


# --- loading and saving -------------------------------------------------------


def test_corpus_file_loads_with_expected_counts(corpus_doc):
    assert len(corpus_doc.two_cats) == 1
    assert len(corpus_doc.bisieves) == 2
    assert "2stack:F1" in corpus_doc.checks


def test_load_save_identity_on_normalized_documents(corpus_doc, tmp_path):
    p = tmp_path / "copy.site"
    save(corpus_doc, p)
    original = open(corpus_path("walking_arrow.site"), "rb").read()
    assert p.read_bytes() == original
    assert normalize(corpus_doc.raw).encode() == original


def test_empty_workspace_is_valid():
    doc = load_data({"schema": SCHEMA})
    assert doc.checks == {}


def test_unknown_schema_rejected():
    with pytest.raises(ParseError):
        load_data({"schema": "something-else/9"})


def test_parse_error_carries_line_and_column(tmp_path):
    p = tmp_path / "broken.site"
    p.write_text('{\n  "schema": "%s",\n  oops\n}' % SCHEMA)
    with pytest.raises(ParseError) as exc:
        load(str(p))
    assert "line 3" in str(exc.value)


def test_dangling_check_reference_rejected(corpus_doc):
    raw = copy.deepcopy(corpus_doc.raw)
    raw["checks"]["bad"] = {"op": "bisieve", "bisieve": "no_such_sieve"}
    with pytest.raises(DanglingReference):
        load_data(raw)


# --- running checks -------------------------------------------------------------


def test_corpus_t1_passes(corpus_doc):
    assert run_check(corpus_doc, "T1")["verdict"] == "pass"


def test_corpus_2stack_reports_all_three_conditions(corpus_doc):
    r = run_check(corpus_doc, "2stack:F1")
    assert r["verdict"] == "pass"
    blob = " ".join(r["details"])
    for cond in ("(2C)", "(M)", "(O)"):
        assert cond in blob


def test_zero_budget_makes_nontrivial_search_inconclusive(corpus_doc):
    r = run_check(corpus_doc, "2stack:F1", limit=0)
    assert r["verdict"] == "inconclusive"


def test_unknown_check_name_raises(corpus_doc):
    with pytest.raises(UnknownCheck):
        run_check(corpus_doc, "nonexistent")


def test_reports_are_deterministic_modulo_timing(corpus_doc):
    a = run_check(corpus_doc, "2stack:F1")
    b = run_check(corpus_doc, "2stack:F1")
    assert strip_timing(a) == strip_timing(b)


def test_run_all_is_sorted_and_deterministic(corpus_doc):
    first = run_all(corpus_doc)
    assert [r["check"] for r in first] == sorted(corpus_doc.checks)
    again = run_all(corpus_doc)
    assert [strip_timing(r) for r in first] == \
        [strip_timing(r) for r in again]


def test_replay_reproduces_every_corpus_report(corpus_doc):
    for report in run_all(corpus_doc):
        same, _ = replay(report, corpus_doc)
        assert same, report["check"]


def test_a_kept_sieve_report_is_reused_under_a_wrapped_check(monkeypatch):
    """The bisieve op reuses the report that the 2-stack check kept for
    each covering sieve, also when check_bisieve is wrapped in a function
    of another name, as a tracer wraps it: one run per sieve, with the
    same reports and steps."""
    real = runner.check_bisieve
    for seed in range(3):
        raw = generate(seed, "locally-discrete-site")
        want = [strip_timing(r) for r in run_all(load_data(raw))]
        runs = Counter()

        def timed(s, budget=None):
            runs[id(s)] += 1
            return real(s, budget)

        monkeypatch.setattr(runner, "check_bisieve", timed)
        doc = load_data(raw)
        assert [strip_timing(r) for r in run_all(doc)] == want
        monkeypatch.undo()
        assert len(runs) == len(doc.bisieves)
        assert set(runs.values()) == {1}


def test_every_bundled_corpus_document_loads():
    for name in corpus_names():
        doc = load(corpus_path(name))
        assert doc.two_cats


# --- generators ------------------------------------------------------------------


def test_generate_is_deterministic():
    for profile in PROFILES:
        assert normalize(generate(3, profile)) \
            == normalize(generate(3, profile))


def test_generate_rejects_unknown_profile():
    with pytest.raises(ValueError):
        generate(0, "no-such-profile")


@pytest.mark.parametrize("profile", ["locally-discrete-site", "tiny-2site"])
def test_generated_sites_self_validate(profile):
    for seed in range(3):
        doc = load_data(generate(seed, profile))
        for k in doc.two_cats.values():
            assert check_two_category(k).ok
        for tau in doc.bitopologies.values():
            assert check_bitopology(tau).ok
        assert "F1" in doc.trihoms


def test_mutant_fails_exactly_the_labeled_check():
    for seed in range(20):
        raw = generate(seed, "mutant")
        label = raw["mutation"]
        doc = load_data(raw)
        failing = [r["check"] for r in run_all(doc)
                   if r["verdict"] != "pass"]
        assert failing == [label["check"]], (seed, label, failing)


# sha256 of normalize(generate(s, profile)) for s = 0 .. count - 1, in
# seed order: every pool seed of the benchmark.  Recorded before mutant
# generation became lazy, which must leave every document byte-identical.
_GENERATED_PINNED = {
    ("mutant", 120):
        "5250d720f7a2e0bed6379eaf4dfc9b86c11ee23273b262a37cf5e27f627c161c",
    ("locally-discrete-site", 80):
        "b06733045dfdfe25c3337164ce3a8dbe8de2029f6be71ee0900b0361ef607ffb",
    ("tiny-2site", 80):
        "2a3664872f2fcc34e2042d46aea4fd52cd630ed688ef511355f107d6479d7c47",
}


@pytest.mark.parametrize("profile,count", sorted(_GENERATED_PINNED))
def test_generated_pool_documents_are_pinned(profile, count):
    digest = hashlib.sha256()
    for seed in range(count):
        digest.update(normalize(generate(seed, profile)).encode())
    assert digest.hexdigest() == _GENERATED_PINNED[profile, count]


# seed -> (candidates, sha256 of the first candidate's normalized form,
# sha256 of every candidate's in order), for the mutant base at that seed:
# the eager candidate list as it was before it became a generator.
_MUTATIONS_PINNED = {
    0: (146,
        "4138de03b82db3c594bcbf3b13abffaa5bcc6fc078a57a6b769190198d3ff58d",
        "ace2aac38af515adbc0c392693271fb205c3aab5db8d71869dd5deef5438635f"),
    3: (30,
        "844936fecef9224e7622a42cf028db73b1f16e342400bbe8912de77aebacae4a",
        "4ebc144df4f4790be874b77597a9c31560579504c4571ca5d85353151564975d"),
    4: (6,
        "fae17220697f33e7be02b985e0c73f5e1205031ca698833828a750678bc5d250",
        "95fc33f3d4657c17c7a02baeebb4aac0fdf446aa19226b4cc8966f0d2156f3da"),
}


def _differences(a, b, path=()):
    """The paths at which two JSON values differ; a key missing on one
    side is a difference at that key."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for key in sorted(a.keys() | b.keys())
                for p in (_differences(a[key], b[key], path + (key,))
                          if key in a and key in b else [path + (key,)])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in _differences(x, y, path + (i,))]
    return [] if a == b else [path]


@pytest.mark.parametrize("seed", sorted(_MUTATIONS_PINNED))
def test_mutations_are_lazy_and_never_edit_the_base(seed):
    count, first_pin, all_pin = _MUTATIONS_PINNED[seed]
    base = _mutant_base(random.Random(repr(("bistack", "mutant", seed))))
    before = copy.deepcopy(base)
    candidates = _mutations(base)
    first = next(candidates)
    assert hashlib.sha256(normalize(first).encode()).hexdigest() == first_pin
    candidates = [first] + list(candidates)
    assert base == before
    digest = hashlib.sha256()
    for mutated in candidates:
        digest.update(normalize(mutated).encode())
    assert (len(candidates), digest.hexdigest()) == (count, all_pin)
    cells = {"vcomp-corrupt": ("two_cats", "vcomp", "two_cat:%s"),
             "sigma-corrupt": ("bisieves", "sigma", "bisieve:%s")}
    for mutated in candidates:
        label = mutated["mutation"]
        edits = _differences(base, mutated)
        assert len(edits) == 2 and ("mutation",) in edits, (label, edits)
        cell = next(p for p in edits if p != ("mutation",))
        if label["label"] == "T1-missing":
            assert label["check"] == "T1" and len(cell) == 4
            assert cell[0] == "bitopologies" and cell[2] == "covering"
            assert cell[3] not in mutated[cell[0]][cell[1]]["covering"]
        else:
            section, table, check = cells[label["label"]]
            assert label["check"] == check % cell[1]
            assert (cell[0], cell[2], len(cell)) == (section, table, 5)
            assert cell[4] == len(base[section][cell[1]][table][cell[3]]) - 1


def test_a_mutant_fails_its_labeled_check_and_no_other():
    raw = generate(0, "mutant")
    assert raw["mutation"]["check"] == "two_cat:K"
    assert _fails_exactly_its_label(raw)
    base = _mutant_base(random.Random(repr(("bistack", "mutant", 0))))
    assert not _fails_exactly_its_label(dict(base, mutation=raw["mutation"]))
    twice = copy.deepcopy(raw)
    twice["bitopologies"]["tau"]["covering"].popitem()
    assert not _fails_exactly_its_label(twice)
    assert not _fails_exactly_its_label(dict(raw, schema=None))


def test_cheapest_first_checks_answer_as_the_name_order_does():
    """Every candidate of the mutant bases at seeds 120-139, outside the
    benchmark's pool, is accepted or rejected as the name-order oracle
    does."""
    answers = set()
    for seed in range(120, 140):
        base = _mutant_base(random.Random(repr(("bistack", "mutant", seed))))
        for mutated in _mutations(base):
            answer = _fails_exactly_its_label(mutated)
            assert answer == fails_exactly_its_label_by_name(mutated), \
                (seed, mutated["mutation"])
            answers.add(answer)
    assert answers == {True, False}


def _hostile(raw):
    """Copies of raw, each with one edit that the sieve-alone stage cannot
    read as a sieve check, or that breaks a table it decodes."""
    for sname in sorted(raw["bisieves"]):
        for edit in ("unknown two-cat", "list"):
            out = copy.deepcopy(raw)
            if edit == "list":
                out["bisieves"][sname] = [out["bisieves"][sname]]
            else:
                out["bisieves"][sname]["two_cat"] = "no-such-two-cat"
            yield out
    for name in sorted(raw["checks"]):
        if raw["checks"][name]["op"] == "bisieve":
            for edit in ("no op", "no sieve", "missing sieve"):
                out = copy.deepcopy(raw)
                body = out["checks"][name]
                if edit == "missing sieve":
                    body["bisieve"] = "no-such-sieve"
                else:
                    del body["op" if edit == "no op" else "bisieve"]
                yield out
    out = copy.deepcopy(raw)
    out["two_cats"]["K"]["vcomp"][0] = "not-a-row"
    yield out
    out = copy.deepcopy(raw)
    out["checks"] = sorted(out["checks"])
    yield out


def test_the_sieve_stage_answers_hostile_mutants_as_the_oracle_does():
    """A sieve-alone stage that rejects or defers never disagrees with the
    name-order oracle, and never raises, on candidates whose sections,
    sieves, check bodies or tables are broken."""
    rejected = deferred = 0
    for seed in (0, 3):
        base = _mutant_base(random.Random(repr(("bistack", "mutant", seed))))
        firsts = {}
        for mutated in _mutations(base):
            firsts.setdefault(mutated["mutation"]["label"], mutated)
        for mutated in firsts.values():
            for raw in _hostile(mutated):
                oracle = fails_exactly_its_label_by_name(raw)
                passed = _sieve_checks_passed(raw, raw["mutation"]["check"])
                if passed is None:
                    rejected += 1
                    assert not oracle, (seed, raw["mutation"])
                else:
                    deferred += 1
                assert _fails_exactly_its_label(raw) == oracle, \
                    (seed, raw["mutation"])
    assert rejected and deferred


def test_only_mutants_that_pass_every_sieve_check_are_loaded(
        monkeypatch):
    base = _mutant_base(random.Random(repr(("bistack", "mutant", 0))))
    candidates = list(_mutations(base))
    expected = []
    for i, mutated in enumerate(candidates):
        label = mutated["mutation"]["check"]
        doc = load_data(mutated)
        if all(run_check(doc, name)["verdict"] == "pass"
               for name, body in doc.checks.items()
               if body["op"] == "bisieve" and name != label):
            expected.append(i)
    loaded = []

    def spy(raw):
        loaded.append(next(i for i, c in enumerate(candidates) if c is raw))
        return load_data(raw)

    monkeypatch.setattr(generate_module, "load_data", spy)
    for mutated in candidates:
        _fails_exactly_its_label(mutated)
    assert loaded == expected
    assert 0 < len(loaded) < len(candidates)


# --- command line ------------------------------------------------------------------


def _site(tmp_path, seed=1, profile="tiny-2site"):
    p = tmp_path / "w.site"
    assert cli.main(["generate", "--seed", str(seed),
                     "--profile", profile, "-o", str(p)]) == 0
    return str(p)


def test_cli_validate_and_run_exit_zero_on_pass(tmp_path, capsys):
    path = _site(tmp_path)
    assert cli.main(["validate", path]) == 0
    assert cli.main(["run", path, "--check", "T1"]) == 0
    out = capsys.readouterr().out
    assert "T1: pass" in out


def test_cli_json_format_is_machine_readable(tmp_path, capsys):
    path = _site(tmp_path)
    capsys.readouterr()
    assert cli.main(["run", path, "--check", "T1",
                     "--format", "json"]) == 0
    r = json.loads(capsys.readouterr().out)
    assert r["check"] == "T1" and r["verdict"] == "pass"


def test_cli_exit_codes_fail_inconclusive_input_error(tmp_path, capsys):
    mutant = tmp_path / "m.site"
    assert cli.main(["generate", "--seed", "0", "--profile", "mutant",
                     "-o", str(mutant)]) == 0
    assert cli.main(["run", str(mutant)]) == 1
    good = _site(tmp_path)
    assert cli.main(["run", good, "--check", "2stack:F1",
                     "--budget", "0"]) == 2
    assert cli.main(["run", good, "--check", "missing"]) == 3
    assert cli.main(["run", str(tmp_path / "absent.site")]) == 3


def test_cli_internal_error_exits_four_with_its_traceback(
        tmp_path, capsys, monkeypatch):
    """An exception that is not an input error leaves the command as exit
    4, not 1, which means fail, with its traceback on stderr."""
    path = _site(tmp_path)
    capsys.readouterr()

    def broken(*args, **kwargs):
        raise RuntimeError("decider defect")

    monkeypatch.setattr(runner, "is_2stack", broken)
    assert cli.main(["run", path, "--check", "2stack:F1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback") \
        and "RuntimeError: decider defect" in err


# files that the JSON decoder cannot read, with the message that names them
_UNDECODABLE = {"not-utf8": (b"\xff\xfe{}", "not UTF-8 text"),
                "deep": (b"[" * 100000, "nested too deeply to decode")}


@pytest.mark.parametrize("content", sorted(_UNDECODABLE))
@pytest.mark.parametrize("command", ["validate", "run", "groth", "replay"])
def test_cli_an_undecodable_file_is_a_located_input_error(
        tmp_path, capsys, command, content):
    """A document, or a report given to replay, that is not UTF-8 text or
    nests deeper than the JSON decoder recurses exits 3 with a message
    that names the file, not 4 with a traceback."""
    data, message = _UNDECODABLE[content]
    bad = tmp_path / "bad.site"
    bad.write_bytes(data)
    argv = {"groth": ["--sieve", "S", "-o", str(tmp_path / "g.site")],
            "replay": [_site(tmp_path)]}.get(command, [])
    capsys.readouterr()
    assert cli.main([command, str(bad)] + argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: %s: %s" % (bad, message))


@pytest.mark.parametrize("argv", [
    ["nope"], ["run"], ["run", "SITE", "--budget", "abc"],
    ["run", "SITE", "--budget", "-1"], ["run", "SITE", "--format", "xml"],
    ["generate", "--seed", "0", "--profile", "nope", "-o", "SITE"]])
def test_cli_malformed_command_lines_are_input_errors(tmp_path, capsys,
                                                      argv):
    """A malformed command line exits 3, input error, with argparse's
    message, since 2 means inconclusive; --help still exits 0."""
    site = _site(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([site if a == "SITE" else a for a in argv])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: dkit") and "error: " in err
    command = [] if argv[0] == "nope" else argv[:1]
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--help"])
    assert exc.value.code == 0


def test_cli_check_without_reference_field_is_an_input_error(tmp_path,
                                                            capsys):
    path = tmp_path / "nocat.site"
    path.write_text(json.dumps({"schema": SCHEMA,
                                "checks": {"c": {"op": "category"}}}))
    capsys.readouterr()
    assert cli.main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "'c'" in err and "'cat'" in err


def _rung_doc(n=3):
    """Ladder rung n: the chain suspension under its maximal sieves, with
    the trihom represented at Y and a 2stack check."""
    k = chain_suspension(n)
    return {"schema": SCHEMA,
            "two_cats": {"K": _encode_two_cat(k)},
            "bisieves": {"max_%s" % c: _encode_bisieve(
                "K", literal_maximal_bisieve(k, c)) for c in k.objects},
            "bitopologies": {"tau": {"two_cat": "K", "covering": {
                c: ["max_%s" % c] for c in k.objects}}},
            "trihoms": {"F": {"kind": "representable", "two_cat": "K",
                              "at": "Y"}},
            "checks": {"2stack:F": {"op": "2stack", "trihom": "F",
                                    "bitopology": "tau"}}}


def _run_raw(tmp_path, raw):
    path = tmp_path / "doc.site"
    path.write_text(json.dumps(raw))
    return cli.main(["run", str(path)])


def test_cli_rung_document_passes(tmp_path, capsys):
    assert _run_raw(tmp_path, _rung_doc()) == 0


def _stray_onecell(k):
    k["onecells"]["stray"] = ["X", "Z"]


def _corrupt_vcomp(k):
    row = next(r for r in k["vcomp"] if r[0] != r[1])
    row[-1] = "2id_id_X"


def _no_identity(k):
    del k["identity1"]["X"]


@pytest.mark.parametrize("corrupt, message", [
    (_stray_onecell, "'stray' has a dangling endpoint"),
    (_corrupt_vcomp, "ill-typed composite"),
    (_no_identity, "fails: no identity 1-cell 'X' -> 'X'"),
], ids=["unknown-boundary", "vcomp-corrupt", "no-identity"])
def test_cli_trihom_over_a_bad_base_is_an_input_error(tmp_path, capsys,
                                                      corrupt, message):
    raw = _rung_doc()
    corrupt(raw["two_cats"]["K"])
    capsys.readouterr()
    assert _run_raw(tmp_path, raw) == 3
    err = capsys.readouterr().err
    assert "trihoms.F: base two-category" in err and message in err


def _site_doc():
    """Generated site 0, whose trihom F1 has tables, with a 2stack_direct
    check beside its 2stack check."""
    raw = generate(0, "locally-discrete-site")
    raw["checks"]["2stack_direct:F1"] = {"op": "2stack_direct",
                                         "trihom": "F1", "bitopology": "tau"}
    return raw


def _drop_first_row(table):
    def corrupt(F):
        del F["values"]["O2"][table][0]
    return corrupt


def _mistyped_structure_cell(F):
    # the action of the identity 2-cell on id_O2, whose structure cell at
    # id_O2_e0 must be an invertible 2-cell id_O2_e0 => id_O2_e0
    F["on2"]["2id_id_O2"] = {
        "comp": {"O2_e0": "id_O2_e0", "O2_e1": "id_O2_e1"},
        "cell": {"id_O2_e0": "2id_id_O2_e1", "id_O2_e1": "2id_id_O2_e1"}}


def _no_value(F):
    del F["values"]["O0"]


def _unknown_action(F):
    F["on1"]["nope"] = F["on1"]["id_O0"]


def _no_action(F):
    del F["on1"]["m_1_2"]


def _unknown_two_cell_action(F):
    F["on2"]["nope"] = {"comp": {}}


def _swapped_identity_action(F):
    """id_O2 swaps the two objects of its value: a strict 2-functor, but
    not the identity."""
    swap = {"O2_e0": "O2_e1", "O2_e1": "O2_e0"}
    F["on1"]["id_O2"] = {
        "ob": swap,
        "on1": {"id_" + x: "id_" + y for x, y in swap.items()},
        "on2": {"2id_id_" + x: "2id_id_" + y for x, y in swap.items()}}


@pytest.mark.parametrize("corrupt, message", [
    (_no_value, "trihoms.F1: no value at object 'O0'"),
    (_unknown_action, "trihoms.F1.on1: unknown 1-cell 'nope'"),
    (_no_action, "trihoms.F1: no action at 1-cell 'm_1_2'"),
    (_unknown_two_cell_action, "trihoms.F1.on2: unknown 2-cell 'nope'"),
    (_swapped_identity_action,
     "trihoms.F1: value at id_'O2' is not the identity"),
    (_drop_first_row("hcomp1"),
     "trihoms.F1.values[O2]: value fails: bad 1-composite "
     "('id_O2_e0', 'id_O2_e0')"),
    (_drop_first_row("hcomp2"),
     "trihoms.F1.values[O2]: value fails: bad 2-composite "
     "('2id_id_O2_e0', '2id_id_O2_e0')"),
    (_mistyped_structure_cell,
     "trihoms.F1: trihom data fails: value transformation at '2id_id_O2': "
     "bad structure cell at 'id_O2_e0'"),
], ids=["no-value", "unknown-action", "no-action", "unknown-2-cell-action",
        "identity-action-swaps", "value-no-hcomp1-row",
        "value-no-hcomp2-row", "mistyped-action"])
def test_cli_malformed_trihom_tables_are_located_input_errors(
        tmp_path, capsys, corrupt, message):
    raw = _site_doc()
    assert _run_raw(tmp_path, raw) == 1  # loads; F1 is not a 2-stack
    corrupt(raw["trihoms"]["F1"])
    capsys.readouterr()
    assert _run_raw(tmp_path, raw) == 3
    err = capsys.readouterr().err
    assert message in err and "base two-category" not in err


def _listed(*path):
    def corrupt(raw):
        table = raw
        for key in path[:-1]:
            table = table[key]
        table[path[-1]] = []
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_listed("trihoms", "F1", "values"),
     "trihoms.F1.values: expected an object, got list"),
    (_listed("two_cats", "K", "onecells"),
     "two_cats.K.onecells: expected an object, got list"),
    (_listed("bitopologies", "tau", "covering"),
     "bitopologies.tau.covering: expected an object, got list"),
    (_listed("checks"), "checks: expected an object, got list"),
    (_listed("checks", "2stack_direct:F1", "trihom"),
     "checks.2stack_direct:F1.trihom: unknown trihom []"),
], ids=["trihom-values", "onecells", "covering", "checks", "check-ref"])
def test_cli_list_in_place_of_an_object_is_a_located_input_error(
        tmp_path, capsys, corrupt, message):
    raw = _site_doc()
    corrupt(raw)
    capsys.readouterr()
    assert _run_raw(tmp_path, raw) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _set(field, value):
    def corrupt(s):
        s[field] = value
    return corrupt


def _unknown_member(s):
    s["members"]["O0"].append("nope")


def _mistyped_member(s):
    s["members"]["O0"].append("id_O1")


@pytest.mark.parametrize("corrupt, message", [
    (_set("tilde", []), "bisieves.S_O0_0: bisieve fails: no member "
                        "restriction for ('id_O0', 'id_O0')"),
    (_set("sigma", []), "bisieves.S_O0_0: bisieve fails: bad restriction "
                        "witness at ('id_O0', 'id_O0')"),
    (_set("target", ["O0"]), "bisieves.S_O0_0.target: unknown object "
                             "['O0']"),
    (_unknown_member, "bisieves.S_O0_0.members: unknown 1-cell 'nope'"),
    (_mistyped_member, "bisieves.S_O0_0.members[O0]: 'id_O1' is not a "
                       "1-cell 'O0' -> 'O0'"),
], ids=["tilde-empty", "sigma-empty", "target-list", "unknown-member",
        "mistyped-member"])
def test_cli_malformed_covering_bisieve_is_a_located_input_error(
        tmp_path, capsys, corrupt, message):
    raw = _site_doc()
    corrupt(raw["bisieves"]["S_O0_0"])
    capsys.readouterr()
    assert _run_raw(tmp_path, raw) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _foreign_covering_sieve(raw):
    """A sieve on O1 listed as covering O0."""
    raw["bitopologies"]["tau"]["covering"]["O0"].append("S_O1_0")


def _null_reference(raw):
    raw["checks"]["bisieve:null"] = {"op": "bisieve", "bisieve": None}


def _listed_witness(raw):
    raw["bisieves"]["S_O0_0"]["sigma"][0][2] = ["x"]


@pytest.mark.parametrize("corrupt, check, message", [
    (_foreign_covering_sieve, "2stack:F1",
     "bitopologies.tau.covering[O0]: bisieve 'S_O1_0' is not a sieve on "
     "'O0' in 'K'"),
    (_null_reference, "bisieve:null", "checks.bisieve:null.bisieve: "
                                      "unknown bisieve None"),
    (_listed_witness, "bisieve:S_O0_0",
     "bisieves.S_O0_0.sigma: unknown 2-cell ['x']"),
], ids=["covering-other-target", "null-reference", "listed-witness"])
def test_cli_ill_fitting_references_are_located_input_errors(
        tmp_path, capsys, corrupt, check, message):
    raw = _site_doc()
    corrupt(raw)
    path = tmp_path / "doc.site"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["run", str(path), "--check", check]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["run", "--check", "bisieve:S_O1_0"], ["run", "--check", "T1"],
    ["validate"]], ids=["bisieve", "T1", "validate"])
@pytest.mark.parametrize("field, message", [
    ("tilde", "bisieves.S_O1_0.tilde: unknown 1-cell 'zzz'"),
    ("sigma", "bisieves.S_O1_0.sigma: unknown 2-cell 'zzz'"),
], ids=["tilde", "sigma"])
def test_cli_a_dangling_bisieve_witness_is_an_input_error(
        tmp_path, capsys, command, field, message):
    """A tilde entry that names no 1-cell, or a sigma entry that names no
    2-cell, of the bisieve's 2-category is refused when the document is
    loaded, so no check gives a verdict over it."""
    raw = generate(5, "locally-discrete-site")
    raw["bisieves"]["S_O1_0"][field][0][-1] = "zzz"
    path = tmp_path / "doc.site"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main([command[0], str(path), *command[1:]]) == 3
    assert capsys.readouterr().err == "error: %s\n" % message


def _stray_covering_key(raw):
    raw["bitopologies"]["tau"]["covering"]["zzz"] = []


def _stray_value_key(raw):
    values = raw["trihoms"]["F1"]["values"]
    values["zzz"] = copy.deepcopy(values[sorted(values)[0]])


def _stray_member_key(raw):
    raw["bisieves"]["S_max_0"]["members"]["zzz"] = []


def _walking_arrow():
    return load(corpus_path("walking_arrow.site")).raw


# the key: (document, corruption, error, the commands run on it)
_STRAY_KEYS = {
    "covering": (_walking_arrow, _stray_covering_key,
                 "bitopologies.tau.covering: unknown object 'zzz'",
                 ("validate", "T1", "2stack")),
    "values": (lambda: generate(0, "locally-discrete-site"),
               _stray_value_key, "trihoms.F1.values: unknown object 'zzz'",
               ("validate", "T1", "2stack")),
    "members": (_walking_arrow, _stray_member_key,
                "bisieves.S_max_0.members: unknown object 'zzz'",
                ("validate", "T1", "bisieve")),
}

_COMMANDS = {"validate": ["validate"], "T1": ["run", "--check", "T1"],
             "2stack": ["run", "--check", "2stack:F1"],
             "bisieve": ["run", "--check", "bisieve:S_max_0"]}


@pytest.mark.parametrize("key, command", [
    pytest.param(key, command, id="%s-%s" % (key, command))
    for key, (*_, commands) in _STRAY_KEYS.items() for command in commands])
def test_cli_a_key_that_names_no_object_is_a_dangling_reference(
        tmp_path, capsys, key, command):
    """A covering or values key that names no object of the base, or a
    members key that names no object of the sieve's 2-category, is
    refused when the document is loaded, so no check gives a verdict over
    a document that names what it never declared."""
    make, corrupt, message, _ = _STRAY_KEYS[key]
    raw = copy.deepcopy(make())
    corrupt(raw)
    path = tmp_path / "doc.site"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    command = _COMMANDS[command]
    assert cli.main([command[0], str(path), *command[1:]]) == 3
    assert capsys.readouterr().err == "error: %s\n" % message


# --- the declared fields, mutant by mutant ---------------------------------

def _body_kind(raw, path):
    """The kind of body at path in the document raw, or None: an entry of
    a section (a trihom of the kind that its kind field names), or an
    entry of a field whose values FIELDS declares bodies."""
    if len(path) == 2 and path[0] in SECTIONS:
        kind = SECTIONS[path[0]]
        if kind == "trihom":
            body = raw[path[0]][path[1]]
            kind = "%s trihom" % body.get("kind") \
                if isinstance(body, dict) else None
        return kind if kind in FIELDS else None
    what = FIELDS.get(_body_kind(raw, path[:2]), {}).get(path[2]) \
        if len(path) == 4 else None
    return what[1] if isinstance(what, tuple) and what[1] in FIELDS else None


def _named_at(raw, path, key=False):
    """What FIELDS declares that the key (key) or the value at path in the
    document raw names, or None: a scalar field's value, a key of an
    object field, an id of a table row, or a name in the list at a key."""
    what = FIELDS.get(_body_kind(raw, path[:2]), {}).get(path[2]) \
        if len(path) > 2 else None
    if not isinstance(what, tuple):
        named = what if len(path) == 3 and not key else None
    elif len(path) == 4 and isinstance(path[3], str):
        named = what[0] if key else None
    elif len(path) == 5 and not key:
        named = what[path[4] > 1] if isinstance(path[3], int) else what[1]
    else:
        named = None
    return None if named in FIELDS else named


# every (kind of body, field, part) where FIELDS declares that a key or a
# value names something
_DECLARED_NAMES = sorted(
    (kind, field, part) for kind, fields in FIELDS.items()
    for field, what in fields.items()
    for part, named in (zip(("key", "value"), what)
                        if isinstance(what, tuple) else [("value", what)])
    if named is not None and named not in FIELDS)


def _declared_docs():
    """The corpus, generated site 0 with an action at a 2-cell, and a
    category with a check on it: every declared field of every kind of
    body is filled in one of them."""
    site = generate(0, "locally-discrete-site")
    site["trihoms"]["F1"]["on2"]["2id_id_O2"] = {
        "comp": {"O2_e0": "id_O2_e0", "O2_e1": "id_O2_e1"},
        "cell": {"id_O2_e0": "2id_id_O2_e0", "id_O2_e1": "2id_id_O2_e1"}}
    return [_corpus_raw(), site,
            {"schema": SCHEMA, "cats": {"C": copy.deepcopy(_ARROW_CAT)},
             "checks": {"C": {"op": "category", "cat": "C"}}}]


def _first_body(kind, field=None):
    """(document, where, body): the first body of kind among
    _declared_docs() that fills field, when given."""
    for raw in _declared_docs():
        for section, entries in raw.items():
            for n, body in entries.items() if section in SECTIONS else ():
                paths = [[section, n]] + [
                    [section, n, f, x] for f, value in body.items()
                    if isinstance(value, dict) for x in value]
                for path in paths:
                    found = body if len(path) == 2 \
                        else body[path[2]][path[3]]
                    if _body_kind(raw, path) == kind and (
                            field is None or found.get(field)):
                        where = "%s.%s" % tuple(path[:2]) + (
                            "" if len(path) == 2 else "." + "%s[%s]"
                            % tuple(path[2:]))
                        return raw, where, found
    raise AssertionError("no %s body fills %r" % (kind, field))


def _named_zzz(body, field, part):
    """Make the first name at the key or value part of body's field zzz."""
    value = body[field]
    if isinstance(value, list):
        value[0][0 if part == "key" else -1] = "zzz"
    elif not isinstance(value, dict):
        body[field] = "zzz"
    elif part == "key":
        value["zzz"] = value.pop(next(iter(value)))
    else:
        next(names for names in value.values() if names)[0] = "zzz"


def _refused(tmp_path, capsys, raw, error):
    path = tmp_path / "doc.site"
    path.write_text(json.dumps(raw))
    for command in ("validate", "run"):
        capsys.readouterr()
        assert cli.main([command, str(path)]) == 3
        assert capsys.readouterr().err == "error: %s\n" % error


@pytest.mark.parametrize("kind, field, part", _DECLARED_NAMES, ids=[
    "%s.%s-%s" % row for row in _DECLARED_NAMES])
def test_cli_each_declared_name_that_names_nothing_is_refused(
        tmp_path, capsys, kind, field, part):
    """A key or a value that FIELDS declares a name, made to name zzz:
    validate and run refuse the document, naming the body and the
    field."""
    raw, where, body = _first_body(kind, field)
    _named_zzz(body, field, part)
    what = FIELDS[kind][field]
    what = what[part == "value"] if isinstance(what, tuple) else what
    _refused(tmp_path, capsys, raw, "%s.%s: unknown %s 'zzz'"
             % (where, field, SECTIONS.get(what, what)))


def _added(path, key, value):
    def edit(raw):
        node = raw
        for step in path:
            node = node[step]
        if isinstance(node, list):
            node.append(value)
        else:
            node[key] = value
    return edit


@pytest.mark.parametrize("edit, error", [
    (_added(("bisieves", "S_O0_0", "tilde"), None, ["zzz", "yyy", "id_O0"]),
     "bisieves.S_O0_0.tilde: unknown 1-cell 'zzz'"),
    (_added(("bisieves", "S_O0_0", "sigma"), None,
            ["zzz", "yyy", "2id_id_O0"]),
     "bisieves.S_O0_0.sigma: unknown 1-cell 'zzz'"),
    (_added(("trihoms", "F1"), "tidle", {}),
     "trihoms.F1: unknown field 'tidle'"),
    (_added(("bisieves", "S_O0_0"), "extra", 0),
     "bisieves.S_O0_0: unknown field 'extra'"),
    (_added(("checks", "2stack:F1"), "extra", 0),
     "checks.2stack:F1: unknown field 'extra'"),
], ids=["tilde-row", "sigma-row", "trihom-field", "bisieve-field",
        "check-field"])
def test_cli_a_row_or_field_that_site_0_never_declared_is_refused(
        tmp_path, capsys, edit, error):
    """Generated site 0 with a restriction row at ids that are no 1-cells,
    or with a field that its body does not declare: validate and run
    refuse it (both loaded it before the fields were declared)."""
    raw = generate(0, "locally-discrete-site")
    edit(raw)
    _refused(tmp_path, capsys, raw, error)


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_cli_each_kind_of_body_refuses_an_undeclared_field(
        tmp_path, capsys, kind):
    raw, where, body = _first_body(kind)
    body["zzz"] = body[next(iter(body))]
    _refused(tmp_path, capsys, raw, "%s: unknown field 'zzz'" % where)


# (kind, field, other): each field that a kind of trihom does not declare
# and another kind, other, does
_OTHER_TRIHOM_FIELDS = sorted(
    (kind, field, other) for kind in FIELDS for other in FIELDS
    if kind.endswith(" trihom") and other.endswith(" trihom")
    for field in FIELDS[other] if field not in FIELDS[kind])


@pytest.mark.parametrize("kind, field, other", _OTHER_TRIHOM_FIELDS,
                         ids=["%s.%s" % row[:2] for row in
                              _OTHER_TRIHOM_FIELDS])
def test_cli_a_trihom_refuses_the_fields_of_another_kind(
        tmp_path, capsys, kind, field, other):
    """A trihom body with a field that only another kind of trihom
    declares, filled as a body of that kind fills it: validate and run
    refuse the document, naming the field."""
    raw, where, body = _first_body(kind)
    body[field] = _first_body(other, field)[2][field]
    _refused(tmp_path, capsys, raw, "%s: unknown field %r" % (where, field))


@pytest.mark.parametrize("check", ["2stack:F1", "2stack_direct:F1"])
def test_cli_2stack_ops_refuse_a_bitopology_off_the_trihom_base(
        tmp_path, capsys, check):
    """tau and its sieves moved onto K2, the base of site 3: the trihom F1
    stays on K, whose ids the deciders would look up in K2's sieves."""
    raw, other = _site_doc(), generate(3, "locally-discrete-site")
    raw["two_cats"]["K2"] = other["two_cats"]["K"]
    raw["bisieves"] = other["bisieves"]
    raw["bitopologies"] = other["bitopologies"]
    raw["checks"] = {check: raw["checks"][check]}
    for body in (*raw["bisieves"].values(), raw["bitopologies"]["tau"]):
        body["two_cat"] = "K2"
    path = tmp_path / "doc.site"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["run", str(path), "--check", check]) == 3
    err = capsys.readouterr().err
    assert "checks.%s: the bitopology is not on the trihom's base " \
        "2-category" % check in err and "Traceback" not in err


def test_cli_sigma_bicolim_on_a_malformed_bisieve_is_a_located_input_error(
        tmp_path, capsys):
    raw = generate(3, "mutant")
    raw["checks"]["sigma:S_O0_0"] = {"op": "sigma_bicolim",
                                     "bisieve": "S_O0_0"}
    capsys.readouterr()
    assert _run_raw(tmp_path, raw) == 3
    err = capsys.readouterr().err
    assert "bisieves.S_O0_0: bisieve fails: " in err
    assert "Traceback" not in err


def test_cli_sigma_bicolim_over_an_invalid_two_category_is_an_input_error(
        tmp_path, capsys):
    """The sigma decision indexes its 2-category's tables without typing
    them, so a 2-category that fails check_two_category is refused with a
    located message, not decided."""
    raw = generate(11, "tiny-2site")
    del raw["trihoms"]
    raw["two_cats"]["K"]["vcomp"][7][-1] = "2id_u"
    raw["checks"] = {"sigma:S_A_0": {"op": "sigma_bicolim",
                                     "bisieve": "S_A_0"}}
    capsys.readouterr()
    assert _run_raw(tmp_path, raw) == 3
    err = capsys.readouterr().err
    assert err == ("error: two_cats.K: two-category fails: hom('A', 'B'): "
                   "ill-typed composite ('c[u>w]', 'c[w>u]')\n")


def _stack_doc(seed, op, presheaf_base="K"):
    """Generated tiny-2site seed with one Cat-valued check of op over tau
    and nothing else to run: a stack check reads the representable at the
    first object of presheaf_base (the walking arrow L beside K)."""
    raw = generate(seed, "tiny-2site")
    del raw["trihoms"]
    raw["two_cats"]["L"] = _encode_two_cat(_arrow2())
    at = "0" if presheaf_base == "L" else raw["two_cats"]["K"]["objects"][0]
    raw["presheaves"] = {"Y": {"kind": "representable",
                               "two_cat": presheaf_base, "at": at}}
    raw["checks"] = {op: {"op": op, "bitopology": "tau"}}
    if op == "stack":
        raw["checks"][op]["presheaf"] = "Y"
    return raw


def _with_sigma(raw, sieve, pair, cell):
    """raw, with the named sieve's restriction witness at pair set to cell."""
    row = next(r for r in raw["bisieves"][sieve]["sigma"] if r[:2] == pair)
    row[2] = cell
    return raw


def _with_vcomp(raw, row, cell):
    raw["two_cats"]["K"]["vcomp"][row][-1] = cell
    return raw


@pytest.mark.parametrize("build, message", [
    (lambda: _with_sigma(_stack_doc(6, "stack"), "S_P_0",
                         ["id_P", "id_P"], "t"),
     "bisieves.S_P_0: bisieve fails: "),
    (lambda: _with_sigma(_stack_doc(6, "subcanonical"), "S_P_0",
                         ["id_P", "id_P"], "t"),
     "bisieves.S_P_0: bisieve fails: "),
    (lambda: _with_vcomp(_stack_doc(11, "subcanonical"), 7, "2id_u"),
     "two_cats.K: two-category fails: hom('A', 'B'): ill-typed composite "
     "('c[u>w]', 'c[w>u]')"),
    (lambda: _stack_doc(6, "stack", presheaf_base="L"),
     "checks.stack: the bitopology is not on the presheaf's base "
     "2-category"),
], ids=["stack-sigma-corrupt", "subcanonical-sigma-corrupt",
        "subcanonical-vcomp-corrupt", "stack-off-base"])
def test_cli_catvalued_checks_refuse_invalid_input(tmp_path, capsys, build,
                                                   message):
    """The stack and subcanonical checks decide over covering sieves whose
    tables they index without typing them, as the 2-stack checks do: an
    invalid 2-category or sieve, or a bitopology off the presheaf's base,
    is an input error located where it lies, not a verdict."""
    capsys.readouterr()
    assert _run_raw(tmp_path, build()) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and "Traceback" not in err


@pytest.mark.parametrize("op", ["T1", "T2", "T3", "bitopology"])
def test_cli_coverage_checks_refuse_an_undecidable_two_category(
        tmp_path, capsys, op):
    """The corpus without the vertical composite of id_0's identity 2-cell
    with itself, and with no covering sieve on 0: no coverage question
    reads that 2-cell, but whether it is invertible cannot be decided, so
    the coverage index refuses the 2-category before any check runs."""
    raw = _corpus_raw()
    for section in ("trihoms", "presheaves"):
        del raw[section]
    k = raw["two_cats"]["K"]
    k["vcomp"] = [row for row in k["vcomp"] if row[0] != "2id_id_0"]
    del raw["bitopologies"]["tau"]["covering"]["0"]
    raw["checks"] = {op: {"op": op, "bitopology": "tau"}}
    capsys.readouterr()
    assert _run_raw(tmp_path, raw) == 3
    assert capsys.readouterr().err == (
        "error: checks.%s: an input of op %r is malformed (MalformedTable: "
        "missing vertical composite ('2id_id_0', '2id_id_0'))\n" % (op, op))


def _mutant_without_identity2(k):
    del k["identity2"]["id_B"]


def _mutant_with_int_composite(k):
    k["hcomp1"][4][2] = 0


@pytest.mark.parametrize("corrupt, command, code, message", [
    (_mutant_without_identity2, "run", 3,
     "checks.T1: an input of op 'T1' is malformed (KeyError: 'id_B')"),
    (_mutant_without_identity2, "validate", 3,
     "bisieves.S_B_0: bisieve is malformed (KeyError: 'id_B')"),
    (_mutant_with_int_composite, "run", 3,
     "checks.T3: an input of op 'T3' is malformed (KeyError: 0)"),
    # the composite is ill-typed, which check_two_category reports
    (_mutant_with_int_composite, "validate", 1, ""),
], ids=["no-identity2-run", "no-identity2-validate", "int-composite-run",
        "int-composite-validate"])
def test_cli_check_on_a_malformed_two_category_never_crashes(
        tmp_path, capsys, corrupt, command, code, message):
    """Checks that index a 2-category's tables without typing them:
    what they raise on a malformed one is a located input error, never a
    crash that exits 1."""
    raw = generate(1, "mutant")
    corrupt(raw["two_cats"]["K"])
    path = tmp_path / "doc.site"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main([command, str(path)]) == code
    err = capsys.readouterr().err
    assert err == ("error: %s\n" % message if message else "")


def _no_identity2(k):
    del k["identity2"]["id_X"]


def _listed_identity(k):
    k["identity1"]["X"] = ["id_X"]


def _listed_composite(table):
    def corrupt(k):
        k[table][0][-1] = ["x"]
    return corrupt


@pytest.mark.parametrize("corrupt, witness", [
    (_no_identity, {"object": "X"}),
    (_no_identity2, {"onecell": "id_X"}),
    (_listed_identity, {"object": "X"}),
    (_listed_composite("vcomp"),
     {"pair": ["2id_id_X", "2id_id_X"], "composite": ["x"]}),
    (_listed_composite("hcomp1"), {"pair": ["f0", "id_X"]}),
    (_listed_composite("hcomp2"), {"pair": ["2id_id_X", "2id_id_X"]}),
], ids=["no-identity", "no-identity2", "unhashable-identity",
        "unhashable-vcomp", "unhashable-hcomp1", "unhashable-hcomp2"])
def test_cli_two_category_without_identities_fails(tmp_path, capsys,
                                                   corrupt, witness):
    k = _encode_two_cat(chain_suspension(3))
    corrupt(k)
    raw = {"schema": SCHEMA, "two_cats": {"K": k},
           "checks": {"two_cat:K": {"op": "two_category", "two_cat": "K"}}}
    path = tmp_path / "doc.site"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["run", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail" and report["witness"] == witness


def _tables_doc(k, values, on1, on2=None):
    """A document with the trihom F over k as tables: values by object,
    on1 the PsTwoFunctors by 1-cell and on2 the PsTwoNatTrans by 2-cell."""
    return {"schema": SCHEMA, "two_cats": {"K": _encode_two_cat(k)},
            "trihoms": {"F": {
                "kind": "tables", "two_cat": "K",
                "values": {c: _encode_two_cat(v) for c, v in values.items()},
                "on1": {f: {"ob": dict(h.ob), "on1": dict(h.on1),
                            "on2": dict(h.on2)} for f, h in on1.items()},
                "on2": {x: {"comp": t.comp, "cell": t.cell}
                        for x, t in (on2 or {}).items()}}}}


def _over_ksplit(k, on1=None, on2=None):
    """ksplit at every object of k, acted on by the identity, except where
    on1 and on2 say otherwise."""
    ks = split_idempotent_2cat()
    ident = {f: identity_ps_two_functor(ks) for f in k.onecells}
    return _tables_doc(k, {c: ks for c in k.objects},
                       dict(ident, **(on1 or {})), on2)


def _empty_values_missing_two_cell_action():
    """Empty values, so that strict_trihom reads no action on a 2-cell."""
    k, empty = _parallel_iso_base(), Fin2Cat([], {}, {}, {}, {}, {}, {}, {})
    return _tables_doc(k, {c: empty for c in k.objects},
                       {f: identity_ps_two_functor(empty)
                        for f in k.onecells})


def _arrow2():
    return from_fincat(walking_arrow())


def _over_z3(action):
    """B(Z/3) at both objects of the walking arrow, acted on at a by
    action."""
    z3 = one_object_z3()
    ident = identity_ps_two_functor(z3)
    return _tables_doc(_arrow2(), {"0": z3, "1": z3},
                       {"id_0": ident, "id_1": ident, "a": action})


def _ksplit_action(ob=None, on1=None):
    """The identity action on ksplit, with the object and 1-cell images
    that ob and on1 name in its place, as untyped tables."""
    ks = split_idempotent_2cat()
    return SimpleNamespace(ob=dict({x: x for x in ks.objects}, **(ob or {})),
                           on1=dict({f: f for f in ks.onecells},
                                    **(on1 or {})),
                           on2={x: x for x in ks.twocells})


def _ksplit_transformation(comp):
    """The identity on the identity action on ksplit, with the components
    that comp names in its place, as untyped tables."""
    ks = split_idempotent_2cat()
    return SimpleNamespace(comp=dict({x: ks.id1(x) for x in ks.objects},
                                     **comp),
                           cell={f: ks.id2(f) for f in ks.onecells})


def _z3_transformation_with_a_twisted_cell():
    """B(Z/3) at both objects of the walking arrow, acted on by the
    identity, with the identity 2-cell on a acting by a transformation
    whose structure cell at id_P is w, typed but not the identity."""
    z3 = one_object_z3()
    ident = identity_ps_two_functor(z3)
    return _tables_doc(_arrow2(), {"0": z3, "1": z3},
                       {"id_0": ident, "id_1": ident, "a": ident},
                       {"2id_a": SimpleNamespace(comp={"P": "id_P"},
                                                 cell={"id_P": "w"})})


def _chain3():
    """The poset f0 < f1 < f2, locally discrete."""
    return from_fincat(chain_suspension(3).hom_cat("X", "Y"))


@pytest.mark.parametrize("build, message", [
    (lambda: _over_ksplit(_chain3(), on1={
        "r0_2": collapse_functor(split_idempotent_2cat())}),
     "trihoms.F: values not strictly functorial at ('r1_2', 'r0_1')"),
    (lambda: _over_ksplit(_arrow2(), on2={
        "2id_id_1": e_transformation(split_idempotent_2cat())}),
     "trihoms.F: whiskering not componentwise at ('2id_id_1', 'a')"),
    (lambda: _over_ksplit(_arrow2(), on2={
        "2id_a": e_transformation(split_idempotent_2cat())}),
     "trihoms.F: whiskering not componentwise at ('a', '2id_id_0')"),
    (_empty_values_missing_two_cell_action,
     "trihoms.F: trihom data fails: bad value transformation at 'c[u>w]'"),
    (lambda: _over_z3(_w_to_w()),
     "trihoms.F: trihom data fails: value pseudofunctor at 'a': vertical "
     "composition not preserved at ('w', 'w')"),
    # each action is typed before strict_trihom composes it
    (lambda: _over_ksplit(_arrow2(), on1={"a": _ksplit_action(
        on1={"u": "v"})}),
     "trihoms.F: trihom data fails: value pseudofunctor at 'a': bad "
     "1-cell image at 'u'"),
    (lambda: _over_ksplit(_arrow2(), on1={"a": _ksplit_action(
        ob={"A": "B", "B": "A"})}),
     "trihoms.F: trihom data fails: value pseudofunctor at 'a': bad "
     "1-cell image at 'e'"),
    (lambda: _over_ksplit(_arrow2(), on1={"a": _ksplit_action(
        ob={"A": "Z"})}),
     "trihoms.F: trihom data fails: value pseudofunctor at 'a': object "
     "'A' unmapped"),
    (lambda: _over_ksplit(_arrow2(), on2={"2id_a": _ksplit_transformation(
        {"A": "u"})}),
     "trihoms.F: trihom data fails: value transformation at '2id_a': bad "
     "component at 'A'"),
    (_z3_transformation_with_a_twisted_cell,
     "trihoms.F: trihom data fails: value transformation at '2id_a': "
     "composition coherence fails at ('id_P', 'id_P')"),
    # strict_trihom compares the actions' tables alone, so the composite
    # with a non-identity compositor passes there and the check after it
    # names the cause
    (lambda: _over_z3(SimpleNamespace(
        ob={"P": "P"}, on1={"id_P": "id_P"},
        on2={"2id_id_P": "w", "w": "w", "w2": "w2"})),
     "trihoms.F: trihom data fails: value pseudofunctor at 'a': identity "
     "2-cell not preserved at 'id_P'"),
], ids=["not-functorial", "whiskering-left",
        "whiskering-right", "no-two-cell-action", "value-not-a-2-functor",
        "mistyped-one-cell-image", "swapped-objects", "unmapped-object",
        "mistyped-component", "value-transformation-not-coherent",
        "identity-two-cell-not-preserved"])
def test_cli_ill_formed_trihom_tables_are_input_errors(
        tmp_path, capsys, build, message):
    capsys.readouterr()
    assert _run_raw(tmp_path, build()) == 3
    assert capsys.readouterr().err == "error: %s\n" % message


def _z3_with_hcomp2(h):
    """B(Z/3) (cells 0, w, w2 by exponent) with the 2-composite h(b, a)."""
    k = _encode_two_cat(one_object_z3())
    cells = ["2id_id_P", "w", "w2"]
    k["hcomp2"] = [[b, a, cells[h(i, j) % 3]] for i, b in enumerate(cells)
                   for j, a in enumerate(cells)]
    return k


def _composite(k, g, f, gf):
    row = next(r for r in k["hcomp1"] if r[:2] == [g, f])
    row[2] = gf
    return k


def _stray(k, table, row):
    k[table].append(row)
    return k


def _twocell(k, x, boundary):
    k["twocells"][x] = boundary
    return k


@pytest.mark.parametrize("build, message", [
    (lambda: _twocell(_encode_two_cat(_arrow2()), "x", ["id_0", "a"]),
     "2-cell 'x' is not between parallel 1-cells"),
    (lambda: _composite(_encode_two_cat(chain_suspension(2)),
                        "f1", "id_X", "f0"),
     "1-cell unit law fails at 'f1'"),
    (lambda: _composite(_encode_two_cat(split_idempotent_2cat()),
                        "e", "e", "id_A"),
     "1-cell associativity fails at ('e','v','u')"),
    (lambda: _stray(_encode_two_cat(chain_suspension(2)), "hcomp1",
                    ["f0", "f1", "f0"]),
     "1-composite of non-composable ('f0', 'f1')"),
    (lambda: _stray(_encode_two_cat(_arrow2()), "hcomp2",
                    ["2id_id_0", "2id_id_1", "2id_id_0"]),
     "2-composite of non-composable ('2id_id_0', '2id_id_1')"),
    (lambda: _z3_with_hcomp2(lambda b, a: 1 if b == a == 0 else b + a),
     "horizontal identity fails at ('id_P', 'id_P')"),
    (lambda: _z3_with_hcomp2(lambda b, a: b + 2 * a),
     "2-cell associativity fails at ('2id_id_P','2id_id_P','w')"),
    (lambda: _z3_with_hcomp2(lambda b, a: b),
     "2-cell unit law fails at 'w'"),
], ids=["2-cell-not-parallel", "1-cell-unit", "1-cell-associativity",
        "1-cell-stray", "2-cell-stray",
        "horizontal-identity", "2-cell-associativity", "2-cell-unit"])
def test_cli_two_category_check_on_a_failing_table_exits_one(
        tmp_path, capsys, build, message):
    """Well-formed tables that break one law of a 2-category: the
    two_category check fails, and validate fails with it."""
    raw = {"schema": SCHEMA, "two_cats": {"K": build()},
           "checks": {"two_cat:K": {"op": "two_category", "two_cat": "K"}}}
    capsys.readouterr()
    assert _run_raw(tmp_path, raw) == 1
    assert message in capsys.readouterr().out
    assert cli.main(["validate", str(tmp_path / "doc.site")]) == 1


_ARROW_CAT = {"objects": ["0", "1"],
              "morphisms": {"id_0": ["0", "0"], "id_1": ["1", "1"],
                            "a": ["0", "1"]},
              "identity": {"0": "id_0", "1": "id_1"},
              "comp": [["id_0", "id_0", "id_0"], ["id_1", "id_1", "id_1"],
                       ["a", "id_0", "a"], ["id_1", "a", "a"]]}


@pytest.mark.parametrize("edit, code, message", [
    ({}, 0, "C: pass"),
    ({"morphisms": dict(_ARROW_CAT["morphisms"], b=["0", "2"])}, 1,
     "morphism 'b' has a dangling endpoint"),
    ({"identity": {"0": "a", "1": "id_1"}}, 1,
     "bad identity for object '0'"),
    ({"comp": _ARROW_CAT["comp"] + [["a", "a", "a"]]}, 1,
     "composite of non-composable pair ('a', 'a')"),
    ({"morphisms": {"a": ["0"]}}, 3, ""),
], ids=["valid", "dangling-endpoint", "bad-identity", "stray-composite",
        "malformed"])
def test_cli_category_check_on_a_cats_section(tmp_path, capsys, edit, code,
                                              message):
    raw = {"schema": SCHEMA, "cats": {"C": dict(_ARROW_CAT, **edit)},
           "checks": {"C": {"op": "category", "cat": "C"}}}
    capsys.readouterr()
    assert _run_raw(tmp_path, raw) == code
    out, err = capsys.readouterr()
    assert message in out
    if code == 3:
        assert err.startswith("error: cats.C: ") and "Traceback" not in err


def _names_nothing(table):
    """An entry of a 2-category's or category's own table at ids that name
    no cell, with the value of the table's first entry."""
    def edit(k):
        if isinstance(k[table], dict):
            k[table]["zzz"] = next(iter(k[table].values()))
        else:
            k[table].append(["zzz", "yyy", k[table][0][-1]])
    return edit


_TABLES_NAMING_NOTHING = {
    "identity1": "no identity 1-cell 'zzz' -> 'zzz'",
    "identity2": "no identity 2-cell 'zzz' => 'zzz'",
    "vcomp": "vertical composite of non-composable ('zzz', 'yyy')",
    "hcomp1": "1-composite of non-composable ('zzz', 'yyy')",
    "hcomp2": "2-composite of non-composable ('zzz', 'yyy')",
}


@pytest.mark.parametrize("table", sorted(_TABLES_NAMING_NOTHING))
@pytest.mark.parametrize("place", ["two_cats.K", "base", "value"])
def test_cli_a_two_category_table_entry_that_names_no_cell_fails(
        tmp_path, capsys, place, table):
    """An identity key or a composite row of a 2-category's own tables at
    ids that name no cell: the two_category check and validate fail on
    it (exit 1), and the loader refuses it as a trihom's base or value
    (exit 3)."""
    message = _TABLES_NAMING_NOTHING[table]
    path = tmp_path / "doc.site"
    if place == "two_cats.K":
        raw = {"schema": SCHEMA,
               "two_cats": {"K": _encode_two_cat(chain_suspension(2))},
               "checks": {"two_cat:K": {"op": "two_category",
                                        "two_cat": "K"}}}
        _names_nothing(table)(raw["two_cats"]["K"])
        capsys.readouterr()
        assert _run_raw(tmp_path, raw) == 1
        assert message in capsys.readouterr().out
        assert cli.main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().out
        return
    raw = _site_doc()
    if place == "base":
        _names_nothing(table)(raw["two_cats"]["K"])
        where = "trihoms.F1: base two-category fails: "
    else:
        _names_nothing(table)(raw["trihoms"]["F1"]["values"]["O0"])
        where = "trihoms.F1.values[O0]: value fails: "
    path.write_text(json.dumps(raw))
    for command in ("validate", "run"):
        capsys.readouterr()
        assert cli.main([command, str(path)]) == 3
        assert capsys.readouterr().err == "error: %s%s\n" % (where, message)


@pytest.mark.parametrize("edit, message", [
    ({"identity": dict(_ARROW_CAT["identity"], zzz="id_0")},
     "bad identity for object 'zzz'"),
    ({"comp": _ARROW_CAT["comp"] + [["zzz", "yyy", "a"]]},
     "composite of non-composable pair ('zzz', 'yyy')"),
], ids=["identity", "comp"])
def test_cli_a_category_table_entry_that_names_no_cell_fails(
        tmp_path, capsys, edit, message):
    raw = {"schema": SCHEMA, "cats": {"C": dict(_ARROW_CAT, **edit)},
           "checks": {"C": {"op": "category", "cat": "C"}}}
    capsys.readouterr()
    assert _run_raw(tmp_path, raw) == 1
    assert message in capsys.readouterr().out
    assert cli.main(["validate", str(tmp_path / "doc.site")]) == 1
    assert message in capsys.readouterr().out


def test_cli_bitopology_op_checks_the_corpus_topology(tmp_path, capsys):
    raw = _corpus_raw()
    raw["checks"] = {"tau": {"op": "bitopology", "bitopology": "tau"}}
    capsys.readouterr()
    assert _run_raw(tmp_path, raw) == 0
    assert capsys.readouterr().out.startswith("tau: pass")


def test_cli_validate_on_a_document_with_no_structures(tmp_path, capsys):
    path = tmp_path / "empty.site"
    path.write_text(json.dumps({"schema": SCHEMA}))
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == \
        "no declared structures; document is well-formed\n"


def test_cli_groth_of_an_unknown_sieve_is_an_input_error(tmp_path, capsys):
    path = _site(tmp_path)
    capsys.readouterr()
    assert cli.main(["groth", path, "--sieve", "nope",
                     "-o", str(tmp_path / "g.site")]) == 3
    assert capsys.readouterr().err == "error: no bisieve named 'nope'\n"


def _corpus_raw():
    with open(corpus_path("walking_arrow.site"), encoding="utf-8") as fh:
        return json.load(fh)


def _presheaf(body):
    def corrupt(raw):
        raw["presheaves"]["P1"] = dict(raw["presheaves"]["P1"], **body)
    return corrupt


def _trihom_kind(raw):
    raw["trihoms"]["F1"]["kind"] = "nope"


def _covering_not_a_list(raw):
    raw["bitopologies"]["tau"]["covering"]["0"] = "S_max_0"


def _members_at_0(value):
    def corrupt(raw):
        raw["bisieves"]["S_max_1"]["members"]["0"] = value
    return corrupt


def _objects_not_a_list(raw):
    raw["two_cats"]["K"]["objects"] = "01"


def _value_objects_not_a_list(raw):
    """A tables trihom whose value at 0 declares its objects as a
    string."""
    k = raw["two_cats"]["K"]
    raw["trihoms"]["F1"] = {
        "kind": "tables", "two_cat": "K", "on1": {}, "on2": {},
        "values": {"0": dict(k, objects="01"), "1": k}}


def _cat_objects_not_a_list(raw):
    raw["cats"] = {"C": {"objects": "xy", "morphisms": {}, "identity": {},
                         "comp": []}}


@pytest.mark.parametrize("corrupt, message", [
    (lambda raw: [raw], "workspace root must be an object"),
    (lambda raw: dict(raw, extra={}), "unknown section 'extra'"),
    (_presheaf({"kind": "tables"}),
     "presheaves.P1: unknown presheaf kind 'tables'"),
    (_presheaf({"at": "2"}), "presheaves.P1.at: unknown object '2'"),
    (_trihom_kind, "trihoms.F1: unknown trihom kind 'nope'"),
    (_covering_not_a_list,
     "bitopologies.tau.covering[0]: expected a list, got str"),
    (_members_at_0("a"),
     "bisieves.S_max_1.members[0]: expected a list, got str"),
    (_members_at_0({"a": 1}),
     "bisieves.S_max_1.members[0]: expected a list, got dict"),
    (_objects_not_a_list, "two_cats.K.objects: expected a list, got str"),
    (_value_objects_not_a_list,
     "trihoms.F1.values[0].objects: expected a list, got str"),
    (_cat_objects_not_a_list, "cats.C.objects: expected a list, got str"),
], ids=["root-list", "unknown-section", "presheaf-kind", "presheaf-object",
        "trihom-kind",
        "covering-not-a-list", "members-a-string", "members-an-object",
        "objects-a-string", "value-objects-a-string",
        "cat-objects-a-string"])
def test_cli_malformed_document_sections_are_input_errors(tmp_path, capsys,
                                                          corrupt, message):
    raw = _corpus_raw()
    capsys.readouterr()
    assert _run_raw(tmp_path, corrupt(raw) or raw) == 3
    assert capsys.readouterr().err == "error: %s\n" % message


def test_cli_2stack_ops_pass_a_topology_with_no_covering_sieves(tmp_path,
                                                                capsys):
    raw = _rung_doc()
    raw["bitopologies"]["tau"]["covering"] = {}
    raw["checks"]["2stack_direct:F"] = dict(raw["checks"]["2stack:F"],
                                            op="2stack_direct")
    path = tmp_path / "doc.site"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["run", str(path), "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [(r["verdict"], r["details"]) for r in reports] == [
        ("pass", ["no covering sieves declared"])] * 2


def test_cli_replay_roundtrip(tmp_path, capsys):
    path = _site(tmp_path)
    capsys.readouterr()
    assert cli.main(["run", path, "--check", "2stack:F1",
                     "--format", "json"]) == 0
    rep = tmp_path / "report.json"
    rep.write_text(capsys.readouterr().out)
    assert cli.main(["replay", str(rep), path]) == 0
    data = json.loads(rep.read_text())
    data["verdict"] = "fail"
    rep.write_text(json.dumps(data))
    assert cli.main(["replay", str(rep), path]) == 1


def _schema_1(report):
    return {**report, "schema": "bistack-report/1"}


def _schema_2(report):
    """A report recorded before a decider step counted work done."""
    return {**report, "schema": "bistack-report/2"}


def _schema_3(report):
    """A report recorded before the descent category was built on first
    read, when each composite that it tabulated spent a step."""
    return {**report, "schema": "bistack-report/3"}


def _schema_4(report):
    """A report recorded before a sieve that contains its target's
    identity passed the sigma, stack and subcanonical checks with no
    step."""
    return {**report, "schema": "bistack-report/4"}


def _schema_5(report):
    """A report recorded before a sieve that contains its target's
    identity passed the 2stack_direct check with no step."""
    return {**report, "schema": "bistack-report/5"}


def _no_limit(report):
    return {**report, "budget_limit": "many"}


def _negative_limit(report):
    """A limit that run --budget refuses, and that would exhaust the
    budget before the check's first step."""
    return {**report, "budget_limit": -5}


@pytest.mark.parametrize("corrupt, message", [
    (lambda r: {}, "bistack-report/6"),
    (lambda r: [1], "must be an object"),
    (lambda r: [r], "must be an object"),
    (lambda r: {k: v for k, v in r.items() if k != "check"},
     "no check name"),
    (_schema_1, "'bistack-report/1' is not 'bistack-report/6'"),
    (_schema_2, "'bistack-report/2' is not 'bistack-report/6'"),
    (_schema_3, "'bistack-report/3' is not 'bistack-report/6'"),
    (_schema_4, "'bistack-report/4' is not 'bistack-report/6'"),
    (_schema_5, "'bistack-report/5' is not 'bistack-report/6'"),
    (_no_limit, "budget_limit 'many'"),
    (_negative_limit, "budget_limit -5 is not a non-negative integer"),
], ids=["empty", "list", "report-list", "no-check", "schema-1", "schema-2",
        "schema-3", "schema-4", "schema-5", "text-limit",
        "negative-limit"])
def test_cli_replay_of_a_malformed_report_is_a_located_input_error(
        tmp_path, capsys, corrupt, message):
    path = _site(tmp_path)
    capsys.readouterr()
    assert cli.main(["run", path, "--check", "2stack:F1",
                     "--format", "json"]) == 0
    rep = tmp_path / "report.json"
    rep.write_text(json.dumps(corrupt(json.loads(capsys.readouterr().out))))
    assert cli.main(["replay", str(rep), path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % rep) and message in err


def _groth_empty_tilde():
    raw = generate(0, "locally-discrete-site")
    raw["bisieves"]["S_O0_0"]["tilde"] = []
    return raw, "S_O0_0", ("bisieves.S_O0_0: bisieve fails: no member "
                           "restriction for ('id_O0', 'id_O0')")


def _groth_invalid_two_category():
    raw = generate(11, "tiny-2site")
    del raw["trihoms"]
    raw["two_cats"]["K"]["vcomp"][7][-1] = "2id_u"
    return raw, "S_A_0", ("two_cats.K: two-category fails: hom('A', 'B'): "
                          "ill-typed composite ('c[u>w]', 'c[w>u]')")


@pytest.mark.parametrize("corrupt", [_groth_empty_tilde,
                                     _groth_invalid_two_category])
def test_cli_groth_refuses_an_invalid_sieve_or_two_category(
        tmp_path, capsys, corrupt):
    """groth indexes the sieve's and its 2-category's tables without
    typing them, so it refuses either when invalid, with the located
    message of the sigma_bicolim op, and writes nothing."""
    raw, sieve, message = corrupt()
    raw["checks"] = {"sigma": {"op": "sigma_bicolim", "bisieve": sieve}}
    path, out = tmp_path / "doc.site", tmp_path / "g.site"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["groth", str(path), "--sieve", sieve,
                     "-o", str(out)]) == 3
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()
    assert cli.main(["run", str(path)]) == 3
    assert capsys.readouterr().err == "error: %s\n" % message


def test_cli_groth_exports_a_valid_two_category(tmp_path, capsys):
    path = _site(tmp_path)
    doc = load(path)
    sieve = sorted(doc.bisieves)[0]
    out = tmp_path / "g.site"
    assert cli.main(["groth", path, "--sieve", sieve,
                     "-o", str(out)]) == 0
    gd = load(str(out))
    (k,) = gd.two_cats.values()
    assert check_two_category(k).ok


# --- the exit-code contract on edited documents ------------------------------

_JUNK = [None, 0, -1, 1.5, True, "", "junk", [], {}, [[]], ["x"], {"x": 1}]


@pytest.fixture(scope="module")
def fuzz_bases():
    """The first mutation candidates of three mutant bases, and generated
    site documents of both profiles."""
    out = []
    for seed in range(3):
        base = _mutant_base(random.Random(repr(("bistack", "mutant", seed))))
        out += islice(_mutations(base), 5)
    return out + [generate(seed, profile) for seed in range(4)
                  for profile in ("locally-discrete-site", "tiny-2site")]


def _names(x):
    """Every key and string value in a JSON value."""
    if isinstance(x, dict):
        return set(x).union(*map(_names, x.values()))
    if isinstance(x, list):
        return set().union(*map(_names, x))
    return {x} if isinstance(x, str) else set()


@st.composite
def _edited(draw, bases):
    """A deep copy of a base with one edit at a random place in it: a key
    or an item deleted, its value set to junk or to another name from the
    document, or, in an object, a sibling's value added under the fresh
    key zzz or the key renamed zzz.  With it, whether FIELDS says the
    edit leaves a key or a value that it declares a name naming nothing,
    or adds an undeclared field or section: then loading must refuse
    it."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    names = _names(doc)
    assert "zzz" not in names
    node, path = doc, []
    while True:
        key = draw(st.sampled_from(list(node if isinstance(node, dict)
                                        else range(len(node)))))
        value = node[key]
        if not isinstance(value, (dict, list)) or not value \
                or draw(st.integers(0, 3)) == 0:
            break
        node, path = value, path + [key]
    edit = draw(st.sampled_from(["delete", "junk", "name"] + (
        ["add key", "rename key"] if isinstance(node, dict) else [])))
    if edit == "delete":
        del node[key]
        return doc, False
    if edit in ("add key", "rename key"):
        node["zzz"] = copy.deepcopy(value) if edit == "add key" \
            else node.pop(key)
        return doc, not path or _body_kind(doc, path) is not None \
            or _named_at(doc, path + ["zzz"], key=True) is not None
    node[key] = draw(st.sampled_from(_JUNK if edit == "junk"
                                     else sorted(names)))
    return doc, _named_at(doc, path + [key]) is not None \
        and not (isinstance(node[key], str) and node[key] in names)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.site"


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_exit_codes_hold_on_edited_documents(fuzz_bases, fuzz_path,
                                                 data):
    """0 pass, 1 fail, 2 inconclusive, 3 input error, and nothing raised,
    whatever one edit does to a valid or mutant document; 3 on both
    commands where the edit leaves a declared name naming nothing or adds
    an undeclared field."""
    doc, refused = data.draw(_edited(fuzz_bases))
    fuzz_path.write_text(json.dumps(doc))
    codes = [cli.main(["run", str(fuzz_path), "--budget", "20000"]),
             cli.main(["validate", str(fuzz_path)])]
    assert all(code in (0, 1, 2, 3) for code in codes)
    if refused:
        assert codes == [3, 3]
