"""Versioned JSON workspace documents.

A workspace declares categories, 2-categories, bisieves, bitopologies,
presheaves, trihoms and checks; ``FIELDS`` declares each kind of body's
fields and what each key and value names.  Loading refuses a name that
names nothing (DanglingReference), and an undeclared field or section,
bad JSON shape, mistyped bisieve members or covering sieves, and a
trihom whose base, values or action data fail their checks (ParseError).
The checks type the rest, such as the names in a 2-category's tables.
"""

import json
from importlib import resources
from types import SimpleNamespace

from .errors import BoundaryMismatch, DanglingReference, MalformedTable, \
    ParseError
from .fincat import FinCat
from .two_cat import Fin2Cat, check_two_category
from .sieves import Bisieve, Bitopology, representable
from .bicat3 import PsTwoFunctor, PsTwoNatTrans, check_trihom_data, \
    representable_trihom, strict_trihom, _ps_two_functor_typing, \
    _ps_two_nat_typing

SCHEMA = "bistack-workspace/1"

# section -> the kind of its bodies, which is also the word for one of them
SECTIONS = {"cats": "category", "two_cats": "two-category",
            "bisieves": "bisieve", "bitopologies": "bitopology",
            "presheaves": "presheaf", "trihoms": "trihom", "checks": "check"}

# kind of body -> field -> what its value names, or, for an object or a
# table of rows [id, id, value], what its keys or ids and its values name:
# a section, an "object", "1-cell" or "2-cell" of the body's 2-category, a
# kind of body, or None (no name, or one that the checks type).  A trihom
# body is of the kind that its kind field names.
FIELDS = {
    "category": dict.fromkeys(("objects", "morphisms", "identity", "comp")),
    "two-category": dict.fromkeys(("objects", "onecells", "twocells",
                                   "identity1", "identity2", "vcomp",
                                   "hcomp1", "hcomp2")),
    "bisieve": {"two_cat": "two_cats", "target": "object",
                "members": ("object", "1-cell"),
                "tilde": ("1-cell", "1-cell"), "sigma": ("1-cell", "2-cell")},
    "bitopology": {"two_cat": "two_cats", "covering": ("object", "bisieves")},
    "presheaf": {"kind": None, "two_cat": "two_cats", "at": "object"},
    "representable trihom": {"kind": None, "two_cat": "two_cats",
                             "at": "object"},
    "tables trihom": {"kind": None, "two_cat": "two_cats",
                      "values": ("object", "two-category"),
                      "on1": ("1-cell", "action"),
                      "on2": ("2-cell", "transformation")},
    "action": dict.fromkeys(("ob", "on1", "on2")),
    "transformation": dict.fromkeys(("comp", "cell")),
    "check": {"op": None, "cat": "cats", "two_cat": "two_cats",
              "bisieve": "bisieves", "bitopology": "bitopologies",
              "presheaf": "presheaves", "trihom": "trihoms"},
}


class WorkspaceDoc(SimpleNamespace):
    """Parsed workspace: ``raw`` and, as attributes, the decoded sections."""


def _shaped(shape, x, where, kind=None):
    """x, refused unless it is a JSON object (shape dict) or array (list)
    with, for a body of kind, only the fields that FIELDS declares."""
    if not isinstance(x, shape):
        raise ParseError("%s: expected %s, got %s" % (
            where, "an object" if shape is dict else "a list",
            type(x).__name__))
    if kind and not x.keys() <= FIELDS[kind].keys():
        raise ParseError("%s: unknown field %r" % (where, next(
            name for name in x if name not in FIELDS[kind])))
    return x


def _field(body, name, where):
    """The object body[name]; a missing field is a KeyError."""
    return _shaped(dict, body[name], "%s.%s" % (where, name))


def _named(pools, kind, where, body, *fields):
    """body, of kind at where, once each name in fields (a scalar, even
    missing; an object's keys, then its lists' items; a table's ids and
    value) is in pools[what], what FIELDS declares it names; from two_cat
    on, a cell is one of the 2-category that it names."""
    declared = FIELDS[kind]
    for field in fields:
        what, value, bad = declared[field], body.get(field), None
        if isinstance(what, str):
            if not isinstance(value, str) or value not in pools[what]:
                bad = what, value
            elif field == "two_cat":
                k = pools[what][value]
                pools = {**pools, "object": k.objects, "1-cell": k.onecells,
                         "2-cell": k.twocells}
        elif not (what and value):
            continue
        elif isinstance(value, dict):
            keys, names = pools[what[0]], pools.get(what[1])
            bad = next(((what[0], x) for x in value if x not in keys), None) \
                or names is not None and next((
                    (what[1], x) for xs in value.values() for x in xs
                    if not isinstance(x, str) or x not in names), None)
        else:
            ids, names = pools[what[0]], pools[what[1]]
            for f, g, x in value:
                if f not in ids or g not in ids or not isinstance(x, str) \
                        or x not in names:
                    bad = (what[0], f) if f not in ids else (what[0], g) \
                        if g not in ids else (what[1], x)
                    break
        if bad:
            raise DanglingReference("%s.%s: unknown %s %r" % (
                where, field, SECTIONS.get(bad[0], bad[0]), bad[1]))
    return body


def _pairs_to_dict(rows, where):
    out = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != 3:
            raise ParseError("%s: expected [2 ids..., result], got %r"
                             % (where, row))
        out[row[0], row[1]] = row[2]
    return out


def _dict_to_pairs(table):
    return [[*key, table[key]] for key in sorted(table)]


def _decode_cat(body, where, pools=None):
    morphisms = _field(_shaped(dict, body, where, "category"), "morphisms",
                       where)
    return FinCat(_shaped(list, body["objects"], where + ".objects"),
                  {m: st[0] for m, st in morphisms.items()},
                  {m: st[1] for m, st in morphisms.items()},
                  _field(body, "identity", where),
                  _pairs_to_dict(body["comp"], where + ".comp"))


def _decode_two_cat(body, where, pools=None):
    _shaped(dict, body, where, "two-category")
    return Fin2Cat(_shaped(list, body["objects"], where + ".objects"),
                   _field(body, "onecells", where),
                   _field(body, "twocells", where),
                   _field(body, "identity1", where),
                   _field(body, "identity2", where),
                   _pairs_to_dict(body["vcomp"], where + ".vcomp"),
                   _pairs_to_dict(body["hcomp1"], where + ".hcomp1"),
                   _pairs_to_dict(body["hcomp2"], where + ".hcomp2"))


def _encode_two_cat(k):
    return {"objects": sorted(k.objects),
            "onecells": {f: list(st) for f, st in sorted(k.onecells.items())},
            "twocells": {a: list(st) for a, st in sorted(k.twocells.items())},
            "identity1": dict(sorted(k.identity1.items())),
            "identity2": dict(sorted(k.identity2.items())),
            "vcomp": _dict_to_pairs(k.vcomp),
            "hcomp1": _dict_to_pairs(k.hcomp1),
            "hcomp2": _dict_to_pairs(k.hcomp2)}


def _decode_bisieve(body, where, pools):
    members = {d: _shaped(list, fs, "%s.members[%s]" % (where, d))
               for d, fs in _field(_shaped(dict, body, where, "bisieve"),
                                   "members", where).items()}
    tilde, sigma = (_pairs_to_dict(body[t], "%s.%s" % (where, t))
                    for t in ("tilde", "sigma"))
    _named(pools, "bisieve", where, body, "two_cat", "target", "members",
           "tilde", "sigma")
    k, target = pools["two_cats"][body["two_cat"]], body["target"]
    for d, fs in members.items():
        for f in sorted(fs):
            if k.onecells[f] != (d, target):
                raise ParseError("%s.members[%s]: %r is not a 1-cell %r -> "
                                 "%r" % (where, d, f, d, target))
    return Bisieve(k, target, members, tilde, sigma)


def _encode_bisieve(name_of_two_cat, s):
    return {"two_cat": name_of_two_cat,
            "target": s.target,
            "members": {d: sorted(ms) for d, ms in sorted(s.members.items())},
            "tilde": _dict_to_pairs(s.tilde),
            "sigma": _dict_to_pairs(s.sigma)}


def _decode_bitopology(body, where, pools):
    covering = _shaped(dict, _shaped(dict, body, where, "bitopology").get(
        "covering", {}), where + ".covering")
    for c, names in covering.items():
        _shaped(list, names, "%s.covering[%s]" % (where, c))
    k = pools["two_cats"][_named(pools, "bitopology", where, body, "two_cat",
                                 "covering")["two_cat"]]
    for c, names in covering.items():
        for sn in names:
            if pools["bisieves"][sn].k != k \
                    or pools["bisieves"][sn].target != c:
                raise ParseError("%s.covering[%s]: bisieve %r is not a sieve "
                                 "on %r in %r"
                                 % (where, c, sn, c, body["two_cat"]))
    return Bitopology(k, {c: [pools["bisieves"][sn] for sn in names]
                          for c, names in covering.items()})


def _decode_presheaf(body, where, pools):
    if _shaped(dict, body, where, "presheaf").get("kind") != "representable":
        raise ParseError("%s: unknown presheaf kind %r"
                         % (where, body.get("kind")))
    _named(pools, "presheaf", where, body, "two_cat", "at")
    return representable(pools["two_cats"][body["two_cat"]], body["at"])


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
    under key, the op that runs check (no op runs ``trihom_data``).  A
    trihom composes in its base and values, which bicat3 assumes valid."""
    r = located(where, what, x.memo, key, check)
    if not r.ok:
        raise ParseError("%s: %s fails: %s"
                         % (where, what, ": ".join(r.details)))
    return x


def _typed(r, what, where):
    """Refuse an action or transformation whose typing r failed."""
    if r is not None:
        raise ParseError("%s: trihom data fails: %s: %s"
                         % (where, what, ": ".join(r.details)))


def _decode_trihom(body, where, pools):
    kind = _shaped(dict, body, where).get("kind")
    if kind not in ("representable", "tables"):
        raise ParseError("%s: unknown trihom kind %r" % (where, kind))
    kind += " trihom"
    k = _checked("two_category", check_two_category, pools["two_cats"][
        _named(pools, kind, where, _shaped(dict, body, where, kind),
               "two_cat")["two_cat"]], "base two-category", where)
    if kind == "representable trihom":
        return representable_trihom(k, _named(
            pools, kind, where, body, "two_cat", "at")["at"])
    tables = [_field(body, t, where) for t in ("values", "on1")] + [
        _shaped(dict, body.get("on2", {}), where + ".on2")]
    _named(pools, kind, where, body, "two_cat", "values", "on1", "on2")
    values = {}
    for c, v in tables[0].items():
        at = "%s.values[%s]" % (where, c)
        values[c] = _checked("two_category", check_two_category,
                             _decode("two-category", v, at), "value", at)
    for c in k.objects:
        if c not in values:
            raise ParseError("%s: no value at object %r" % (where, c))
    on1 = {}
    for f, tab in tables[1].items():
        e, d = k.onecells[f]
        at = "%s.on1[%s]" % (where, f)
        on1[f] = PsTwoFunctor(values[d], values[e], *(
            _field(_shaped(dict, tab, at, "action"), t, at)
            for t in ("ob", "on1", "on2")))
        _typed(_ps_two_functor_typing(on1[f]),
               "value pseudofunctor at %r" % f, where)
    for f in k.onecells:
        if f not in on1:
            raise ParseError("%s: no action at 1-cell %r" % (where, f))
    on2 = {}
    for x, tab in tables[2].items():
        g, g2 = k.twocells[x]
        at = "%s.on2[%s]" % (where, x)
        cell = _shaped(dict, tab, at, "transformation").get("cell")
        on2[x] = PsTwoNatTrans(
            on1[g], on1[g2], _field(tab, "comp", at),
            cell if cell is None else _shaped(dict, cell, at + ".cell"))
        _typed(_ps_two_nat_typing(on2[x]),
               "value transformation at %r" % x, where)
    # typed above, before strict_trihom composes them
    t = strict_trihom(k, values, on1, on2)
    return _checked("trihom_data", check_trihom_data, t, "trihom data", where)


def _decode_check(body, where, pools):
    if "op" not in _shaped(dict, body, where, "check"):
        raise ParseError("%s: missing op" % where)
    return dict(_named(pools, "check", where, body, *body))


_DECODE = {"category": _decode_cat, "two-category": _decode_two_cat,
           "bisieve": _decode_bisieve, "bitopology": _decode_bitopology,
           "presheaf": _decode_presheaf, "trihom": _decode_trihom,
           "check": _decode_check}


def _decode(kind, body, where, pools=None):
    """The structure that the body of kind at where declares, given pools;
    what a malformed table makes a decoder raise is a located ParseError."""
    try:
        return _DECODE[kind](body, where, pools)
    except (IndexError,) + _MALFORMED as exc:
        raise ParseError("%s: %s" % (where, exc))


def load_data(raw):
    """Build a WorkspaceDoc from already-parsed JSON data.  Each section
    is decoded in the order of SECTIONS, and names only those before it."""
    if not isinstance(raw, dict):
        raise ParseError("workspace root must be an object")
    if raw.get("schema") != SCHEMA:
        raise ParseError("unsupported schema %r (expected %r)"
                         % (raw.get("schema"), SCHEMA))
    for section in raw:
        if section not in SECTIONS and section not in ("schema", "mutation"):
            raise ParseError("unknown section %r" % section)
    pools = {}
    for section, kind in SECTIONS.items():
        pools[section] = {
            n: _decode(kind, b, "%s.%s" % (section, n), pools)
            for n, b in _shaped(dict, raw.get(section, {}), section).items()}
    return WorkspaceDoc(raw=raw, **pools)


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
        fh.write(normalize(doc.raw))


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
