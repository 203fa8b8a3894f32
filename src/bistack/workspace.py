"""Versioned JSON workspace documents.

A workspace declares finite categories, strict 2-categories, bisieves,
bitopologies, category-valued presheaves, 2-category-valued homomorphism
data, and named check requests.  Composition tables are explicit arrays of
``[argument ids..., result id]``; 2-cells carry explicit boundary fields.
Loading validates cross-references (DanglingReference), JSON shape, the
typing of each bisieve's target, members and witnesses and of each
covering sieve, and each trihom's base 2-category, and for a ``tables``
trihom its values and its action data (ParseError); other structural
validity is checked by the named validators when a check runs.
"""

import json
from importlib import resources

from .errors import BoundaryMismatch, DanglingReference, MalformedTable, \
    ParseError
from .fincat import FinCat, _is_cell
from .two_cat import Fin2Cat, check_two_category
from .sieves import Bisieve, Bitopology, representable
from .bicat3 import PsTwoFunctor, PsTwoNatTrans, check_trihom_data, \
    representable_trihom, strict_trihom, _ps_two_functor_typing, \
    _ps_two_nat_typing

SCHEMA = "bistack-workspace/1"

_SECTIONS = ("cats", "two_cats", "bisieves", "bitopologies",
             "presheaves", "trihoms", "checks")


class WorkspaceDoc:
    """Parsed workspace: named structures plus the raw normalized document."""

    def __init__(self, raw, cats, two_cats, bisieves, bitopologies,
                 presheaves, trihoms, checks):
        self.raw = raw
        self.cats = cats
        self.two_cats = two_cats
        self.bisieves = bisieves
        self.bitopologies = bitopologies
        self.presheaves = presheaves
        self.trihoms = trihoms
        self.checks = checks


def _object(x, where):
    """x, refused unless it is a JSON object."""
    if not isinstance(x, dict):
        raise ParseError("%s: expected an object, got %s"
                         % (where, type(x).__name__))
    return x


def _list(x, where):
    """x, refused unless it is a JSON array."""
    if not isinstance(x, list):
        raise ParseError("%s: expected a list, got %s"
                         % (where, type(x).__name__))
    return x


def _field(body, name, where):
    """The object body[name]; a missing field is a KeyError."""
    return _object(body[name], "%s.%s" % (where, name))


def _pairs_to_dict(rows, arity, where):
    out = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != arity + 1:
            raise ParseError("%s: expected [%d ids..., result], got %r"
                             % (where, arity, row))
        out[tuple(row[:-1]) if arity > 1 else row[0]] = row[-1]
    return out


def _dict_to_pairs(table):
    rows = []
    for key in sorted(table):
        args = list(key) if isinstance(key, tuple) else [key]
        rows.append(args + [table[key]])
    return rows


def _decode_cat(body, where):
    _object(body, where)
    try:
        morphisms = _field(body, "morphisms", where)
        return FinCat(_list(body["objects"], where + ".objects"),
                      {m: st[0] for m, st in morphisms.items()},
                      {m: st[1] for m, st in morphisms.items()},
                      _field(body, "identity", where),
                      _pairs_to_dict(body["comp"], 2, where + ".comp"))
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError("%s: %s" % (where, exc))


def _decode_two_cat(body, where):
    _object(body, where)
    try:
        ones = _field(body, "onecells", where)
        twos = _field(body, "twocells", where)
        return Fin2Cat(_list(body["objects"], where + ".objects"),
                       {f: tuple(st) for f, st in ones.items()},
                       {a: tuple(st) for a, st in twos.items()},
                       _field(body, "identity1", where),
                       _field(body, "identity2", where),
                       _pairs_to_dict(body["vcomp"], 2, where + ".vcomp"),
                       _pairs_to_dict(body["hcomp1"], 2, where + ".hcomp1"),
                       _pairs_to_dict(body["hcomp2"], 2, where + ".hcomp2"))
    except (KeyError, TypeError, IndexError, MalformedTable) as exc:
        raise ParseError("%s: %s" % (where, exc))


def _encode_two_cat(k):
    return {"objects": sorted(k.objects),
            "onecells": {f: list(st) for f, st in sorted(k.onecells.items())},
            "twocells": {a: list(st) for a, st in sorted(k.twocells.items())},
            "identity1": dict(sorted(k.identity1.items())),
            "identity2": dict(sorted(k.identity2.items())),
            "vcomp": _dict_to_pairs(k.vcomp),
            "hcomp1": _dict_to_pairs(k.hcomp1),
            "hcomp2": _dict_to_pairs(k.hcomp2)}


def _ref(pool, name, kind, where):
    if not isinstance(name, str) or name not in pool:
        raise DanglingReference("%s: unknown %s %r" % (where, kind, name))
    return pool[name]


def _decode_bisieve(body, two_cats, where):
    k = _ref(two_cats, _object(body, where).get("two_cat"), "two-category",
             where)
    target = body.get("target")
    if target not in k.objects:
        raise DanglingReference("%s: unknown target object %r"
                                % (where, target))
    try:
        members = {d: set(_list(fs, "%s.members[%s]" % (where, d)))
                   for d, fs in _field(body, "members", where).items()}
        for d, fs in members.items():
            if d not in k.objects:
                raise DanglingReference("%s.members: unknown object %r"
                                        % (where, d))
            for f in sorted(fs):
                if not _is_cell(k.onecells, f, (d, target)):
                    raise ParseError("%s.members[%s]: %r is not a 1-cell "
                                     "%r -> %r" % (where, d, f, d, target))
        tilde, sigma = (_pairs_to_dict(body[t], 2, "%s.%s" % (where, t))
                        for t in ("tilde", "sigma"))
        for t, table, cells, kind in (("tilde", tilde, k.onecells, "1-cell"),
                                      ("sigma", sigma, k.twocells, "2-cell")):
            for x in table.values():
                if isinstance(x, (list, dict)):
                    raise ParseError("%s: witness %r is not an id"
                                     % (where, x))
                if x not in cells:
                    raise DanglingReference("%s.%s: unknown %s %r"
                                            % (where, t, kind, x))
        return Bisieve(k, target, members, tilde, sigma)
    except (KeyError, TypeError) as exc:
        raise ParseError("%s: %s" % (where, exc))


def _encode_bisieve(name_of_two_cat, s):
    return {"two_cat": name_of_two_cat,
            "target": s.target,
            "members": {d: sorted(ms) for d, ms in sorted(s.members.items())},
            "tilde": _dict_to_pairs(s.tilde),
            "sigma": _dict_to_pairs(s.sigma)}


# what a check or a constructor raises on a table that it indexes without
# typing it, when the table is malformed
_MALFORMED = (KeyError, TypeError, MalformedTable, BoundaryMismatch)


def located(where, what, fn, *args):
    """fn(*args), with what it raises on a malformed table turned into a
    ParseError that names where and what."""
    try:
        return fn(*args)
    except _MALFORMED as exc:
        raise ParseError("%s: %s is malformed (%s: %s)"
                         % (where, what, type(exc).__name__, exc))


def _checked(key, check, x, what, where):
    """x, refused unless check passes on it, once: x.memo keeps the report
    under key, the name of the op that runs check (``trihom_data`` for the
    trihom check, which no op runs).
    A trihom is built by composing in its base and its values, and the
    bicat3 checkers that decide over it assume valid values and data."""
    r = located(where, what, x.memo, key, check)
    if not r.ok:
        raise ParseError("%s: %s fails: %s"
                         % (where, what, ": ".join(r.details)))
    return x


def _typed(r, what, where):
    """Refuse a loaded action or transformation whose typing r failed."""
    if r is not None:
        raise ParseError("%s: trihom data fails: %s: %s"
                         % (where, what, ": ".join(r.details)))


def _decode_trihom(body, two_cats, where):
    kind = _object(body, where).get("kind")
    k = _checked("two_category", check_two_category,
                 _ref(two_cats, body.get("two_cat"), "two-category", where),
                 "base two-category", where)
    if kind == "representable":
        if body.get("at") not in k.objects:
            raise DanglingReference("%s: unknown object %r"
                                    % (where, body.get("at")))
        return representable_trihom(k, body["at"])
    if kind != "tables":
        raise ParseError("%s: unknown trihom kind %r" % (where, kind))
    try:
        values = {}
        for c, v in _field(body, "values", where).items():
            if c not in k.objects:
                raise DanglingReference("%s.values: unknown object %r"
                                        % (where, c))
            at = "%s.values[%s]" % (where, c)
            values[c] = _checked("two_category", check_two_category,
                                 _decode_two_cat(v, at), "value", at)
        for c in k.objects:
            if c not in values:
                raise DanglingReference("%s: no value at object %r"
                                        % (where, c))
        on1 = {}
        for f, tab in _field(body, "on1", where).items():
            if f not in k.onecells:
                raise DanglingReference("%s: unknown 1-cell %r" % (where, f))
            e, d = k.onecells[f]
            at = "%s.on1[%s]" % (where, f)
            _object(tab, at)
            on1[f] = PsTwoFunctor(values[d], values[e],
                                  _field(tab, "ob", at),
                                  _field(tab, "on1", at),
                                  _field(tab, "on2", at))
        for f in k.onecells:
            if f not in on1:
                raise DanglingReference("%s: no action at 1-cell %r"
                                        % (where, f))
        on2 = {}
        for x, tab in _object(body.get("on2", {}), where + ".on2").items():
            if x not in k.twocells:
                raise DanglingReference("%s: unknown 2-cell %r" % (where, x))
            g, g2 = k.twocells[x]
            at = "%s.on2[%s]" % (where, x)
            cell = _object(tab, at).get("cell")
            if cell is not None:
                _object(cell, at + ".cell")
            on2[x] = PsTwoNatTrans(on1[g], on1[g2], _field(tab, "comp", at),
                                   cell)
        # typed before strict_trihom composes them
        for f in k.onecells:
            _typed(_ps_two_functor_typing(on1[f]),
                   "value pseudofunctor at %r" % f, where)
        for x in k.twocells:
            if x in on2:
                _typed(_ps_two_nat_typing(on2[x]),
                       "value transformation at %r" % x, where)
        t = strict_trihom(k, values, on1, on2)
    except _MALFORMED as exc:
        raise ParseError("%s: %s" % (where, exc))
    return _checked("trihom_data", check_trihom_data, t, "trihom data", where)


def load_data(raw):
    """Build a WorkspaceDoc from already-parsed JSON data."""
    if not isinstance(raw, dict):
        raise ParseError("workspace root must be an object")
    if raw.get("schema") != SCHEMA:
        raise ParseError("unsupported schema %r (expected %r)"
                         % (raw.get("schema"), SCHEMA))
    for section in raw:
        if section not in _SECTIONS and section not in ("schema",
                                                        "mutation"):
            raise ParseError("unknown section %r" % section)
    sections = {name: _object(raw.get(name, {}), name)
                for name in _SECTIONS}
    cats = {n: _decode_cat(b, "cats.%s" % n)
            for n, b in sections["cats"].items()}
    two_cats = {n: _decode_two_cat(b, "two_cats.%s" % n)
                for n, b in sections["two_cats"].items()}
    bisieves = {n: _decode_bisieve(b, two_cats, "bisieves.%s" % n)
                for n, b in sections["bisieves"].items()}
    bitopologies = {}
    for n, b in sections["bitopologies"].items():
        where = "bitopologies.%s" % n
        k = _ref(two_cats, _object(b, where).get("two_cat"), "two-category",
                 where)
        covering = {}
        for c, names in _object(b.get("covering", {}),
                                where + ".covering").items():
            if c not in k.objects:
                raise DanglingReference("%s.covering: unknown object %r"
                                        % (where, c))
            covering[c] = [_ref(bisieves, sn, "bisieve", where)
                           for sn in _list(names, "%s.covering[%s]"
                                           % (where, c))]
            for sn, s in zip(names, covering[c]):
                if s.k != k or s.target != c:
                    raise ParseError("%s.covering[%s]: bisieve %r is not a "
                                     "sieve on %r in %r"
                                     % (where, c, sn, c, b["two_cat"]))
        bitopologies[n] = Bitopology(k, covering)
    presheaves = {}
    for n, b in sections["presheaves"].items():
        where = "presheaves.%s" % n
        if _object(b, where).get("kind") != "representable":
            raise ParseError("%s: unknown presheaf kind %r"
                             % (where, b.get("kind")))
        k = _ref(two_cats, b.get("two_cat"), "two-category", where)
        if b.get("at") not in k.objects:
            raise DanglingReference("%s: unknown object %r"
                                    % (where, b.get("at")))
        presheaves[n] = representable(k, b["at"])
    trihoms = {n: _decode_trihom(b, two_cats, "trihoms.%s" % n)
               for n, b in sections["trihoms"].items()}
    checks = {}
    for n, b in sections["checks"].items():
        if not isinstance(b, dict) or "op" not in b:
            raise ParseError("checks.%s: missing op" % n)
        checks[n] = dict(b)
    doc = WorkspaceDoc(raw, cats, two_cats, bisieves, bitopologies,
                       presheaves, trihoms, checks)
    _validate_check_refs(doc)
    return doc


# reference field of a check body -> the WorkspaceDoc section it names
CHECK_REFS = {"two_cat": "two_cats", "cat": "cats", "bisieve": "bisieves",
              "bitopology": "bitopologies", "presheaf": "presheaves",
              "trihom": "trihoms"}


def _validate_check_refs(doc):
    for name, body in doc.checks.items():
        for field, section in CHECK_REFS.items():
            if field in body:
                _ref(getattr(doc, section), body[field], field,
                     "checks.%s" % name)


def read_json(path):
    """The JSON value in the file at path.  A file that is not UTF-8 text,
    is not JSON or nests too deeply to decode is a ParseError naming
    path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError("%s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    except UnicodeDecodeError as exc:
        raise ParseError("%s: not UTF-8 text: %s at byte %d"
                         % (path, exc.reason, exc.start))
    except RecursionError:
        raise ParseError("%s: nested too deeply to decode" % path)


def load(path):
    return load_data(read_json(path))


def save(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc.raw, fh, indent=2, sort_keys=True)
        fh.write("\n")


def normalize(raw):
    """The canonical byte form used for round-trip comparisons."""
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def corpus_path(name):
    """Filesystem path of a bundled corpus document."""
    return str(resources.files("bistack") / "corpus" / name)


def corpus_names():
    folder = resources.files("bistack") / "corpus"
    return sorted(p.name for p in folder.iterdir()
                  if p.name.endswith(".site"))
