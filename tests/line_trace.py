"""List the executable lines of ``src/bistack/`` that tier-1 never runs.

Run it from the root of the repository with the tier-1 command line::

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

The arguments default to ``-q --continue-on-collection-errors``. The script
runs pytest in this process under ``sys.settrace`` and traces only frames
whose code lies in ``src/bistack/``. Some tests draw their inputs at random
or iterate in hash order, so it runs under ``PYTHONHASHSEED=0`` (restarting
itself with it) and with ``--hypothesis-seed=0``, and it finds the same
unrun lines on every run. A module's executable lines are the line numbers
that ``co_lines()`` gives for its compiled code objects (line 0, the module
prologue, skipped). It prints every unrun line with its module, function
and text, then the lines that are on no entry of ``ALLOWED``.

It exits 0 when every unrun line is on ``ALLOWED``, every entry of
``ALLOWED`` matches an unrun line, and pytest passed, and 1 otherwise. An
entry of ``ALLOWED`` is keyed by module, function and stripped line text, so
that edits elsewhere in a module do not shift it; it allows one unrun line,
so two unrun lines with the same key need two entries. An entry that matches
no unrun line is reported as stale and fails the run, so that deleting code
prunes its entries.

It hashes every module of ``src/bistack/`` before pytest starts and again
after it ends. If a module changed in between, the lines that ran belong to
two versions of the code, so it names the changed modules and exits 1
without a report.

pytest does not collect this file (its name does not match ``test_*.py``).
Subprocesses that a test starts are not traced.
"""

import hashlib
import os
import sys
import threading
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bistack"

# reason -> (module, function, stripped line text) of each unrun line it covers
ALLOWED = {
    ("__repr__, a debugging aid: no report, message or witness formats it"): [
        ("fincat.py", "FinCat.__repr__",
         'return "FinCat(%d objects, %d morphisms)" % ('),
        ("fincat.py", "FinCat.__repr__",
         "len(self.objects), len(self.morphisms))"),
        ("fincat.py", "Functor.__repr__",
         'return "Functor(%s)" % (sorted(self.ob.items()),)'),
        ("fincat.py", "NatTrans.__repr__",
         'return "NatTrans(%s)" % (sorted(self.comp.items()),)'),
        ("sieves.py", "Bisieve.__repr__",
         'return "Bisieve(on %r, %d members)" % ('),
        ("sieves.py", "Bisieve.__repr__",
         "self.target, sum(len(m) for m in self.members.values()))"),
        ("two_cat.py", "Fin2Cat.__repr__",
         'return "Fin2Cat(%d objects, %d 1-cells, %d 2-cells)" % ('),
        ("two_cat.py", "Fin2Cat.__repr__",
         "len(self.objects), len(self.onecells), len(self.twocells))"),
    ],
    ("a raise on a malformed table, which the caller's input rules out: the "
     "bases, values and sieves that reach it have passed check_two_category, "
     "check_bisieve or strict_trihom"): [
        ("bicat3.py", "compose_ps_two_functors",
         'raise BoundaryMismatch("pseudofunctors not composable")'),
        ("fincat.py", "FinCat.id", "except KeyError:"),
        ("fincat.py", "FinCat.id",
         'raise MalformedTable("no identity for object %r" % (x,))'),
        ("fincat.py", "FinCat.compose",
         'raise BoundaryMismatch("cannot compose %r after %r" % (g, f))'),
        ("fincat.py", "FinCat.compose", "except KeyError:"),
        ("fincat.py", "FinCat.compose",
         'raise MalformedTable("missing composite (%r, %r)" % (g, f))'),
        ("fincat.py", "compose_functors",
         'raise BoundaryMismatch("functors not composable")'),
        ("sieves.py", "factor_groth_morphism",
         'raise MalformedTable("factorization cells missing for %r" % name)'),
        ("two_cat.py", "Fin2Cat.h", "except KeyError:"),
        ("two_cat.py", "Fin2Cat.h",
         'raise MalformedTable("missing 2-composite (%r, %r)" % (b, a))'),
        ("two_cat.py", "_cones",
         'raise BoundaryMismatch("not a cospan: %r, %r" % (f, g))'),
    ],
    ("a builder's check of the tables it is given; every caller passes valid "
     "ones"): [
        ("builders.py", "thin_two_cat",
         'raise MalformedTable("2-cell between non-parallel %r, %r" % '
         "(f, g))"),
        ("builders.py", "strict_ps_functor", "raise MalformedTable("),
        ("builders.py", "strict_ps_functor",
         '"values not strictly functorial at (%r, %r)" % (f, g))'),
        ("builders.py", "strict_ps_functor",
         'raise MalformedTable("value at id_%r is not the identity" % c)'),
    ],
    ("a keyed family missing whole; only the typing oracles of the tests "
     "declare keyed families, and no test deletes one"): [
        ("bicat3.py", "_first_mistyped", "return table, key, None"),
    ],
    ("the entry point, which CI runs as `python -m bistack.cli`, in a "
     "subprocess that the tracer does not trace"): [
        ("cli.py", "<module>", "sys.exit(main())"),
    ],
    ("a random draw that no generated profile and seed of the tests takes"): [
        ("generate.py", "_random_poset_cat", "continue"),
        ("generate.py", "_saturate_topology.canonical", "return p.on(k)"),
    ],
    ("the generator's checks of its own output, which hold on every profile "
     "and seed"): [
        ("generate.py", "_generate_mutant",
         'raise AssertionError("no single-failure mutation found")'),
        ("generate.py", "generate",
         'raise AssertionError("generated bitopology %r: %s"'),
        ("generate.py", "generate", "% (name, r.details[0]))"),
    ],
}


def _code_lines(code):
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path):
    """Map each executable line of ``path`` to its innermost named scope."""
    owner = {}

    def walk(code, scope):
        if not code.co_name.startswith("<"):
            scope = code.co_name if scope == "<module>" \
                else scope + "." + code.co_name
        for line in _code_lines(code):
            owner[line] = scope
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, scope)

    walk(compile(path.read_text(), str(path), "exec"), "<module>")
    return owner


def trace(pytest_args):
    """Run pytest under the tracer: its exit code and the lines that ran."""
    import pytest

    prefix = str(SRC) + "/"
    hit = set()
    pending = {}

    def tracer(frame, event, arg):
        """Record the frame's line; stop tracing a code object once all
        its lines have run."""
        code = frame.f_code
        lines = pending.get(code)
        if lines is None:
            if not code.co_filename.startswith(prefix):
                return None
            lines = pending[code] = _code_lines(code)
        lines.discard(frame.f_lineno)
        hit.add((code.co_filename, frame.f_lineno))
        return tracer if lines else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hit


def unrun_lines(hit):
    """(module, line number, function, stripped text) of each unrun line."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for line, scope in sorted(executable_lines(path).items()):
            if (str(path), line) not in hit:
                yield path.name, line, scope, text[line - 1].strip()


def digests():
    """The sha256 of each module of ``src/bistack/``, by file name."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(SRC.glob("*.py"))}


def main(argv):
    before = digests()
    seeded = ["--hypothesis-seed=0"]
    status, hit = trace(seeded + (argv or ["-q",
                                           "--continue-on-collection-errors"]))
    after = digests()
    changed = sorted(name for name in {**before, **after}
                     if before.get(name) != after.get(name))
    if changed:
        print("changed during the run, no report: " + ", ".join(changed))
        return 1
    allowed = Counter(key for keys in ALLOWED.values() for key in keys)
    unrun = list(unrun_lines(hit))
    unlisted = []
    for module, line, scope, text in unrun:
        entry = "%s:%d [%s] %s" % (module, line, scope, text)
        print("unrun " + entry)
        key = (module, scope, text)
        if allowed[key]:
            allowed[key] -= 1
        else:
            unlisted.append(entry)
    stale = sorted(allowed.elements())
    for module, scope, text in stale:
        print("stale allowlist entry: %s [%s] %s" % (module, scope, text))
    for entry in unlisted:
        print("not on the allowlist: " + entry)
    print("%d unrun lines, %d not on the allowlist, %d stale entries"
          % (len(unrun), len(unlisted), len(stale)))
    return 1 if status or unlisted or stale else 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main(sys.argv[1:]))
