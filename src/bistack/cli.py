"""Command-line entry point.

Exit codes: 0 every verdict passed, 1 some verdict failed, 2 some verdict
inconclusive (and none failed), 3 input error (malformed command line,
unreadable file, a file that is not UTF-8 JSON or nests too deeply to
decode, malformed document, dangling reference, unknown check),
4 internal error (any other exception, with its traceback on stderr), so
that a crash never reads as a verdict.
``groth`` validates the sieve and its 2-category as the ``sigma_bicolim``
op does before it builds the 2-category of elements.
"""

import argparse
import json
import sys
import traceback

from .errors import ToolkitError
from .fincat import check_category
from .generate import PROFILES, generate
from .runner import checked_bisieve, report_text, replay, run_all, \
    run_check
from .sieves import check_bisieve, check_bitopology, groth
from .two_cat import check_two_category
from .workspace import SCHEMA, load, located
from . import runner as _runner
from . import workspace as _workspace

_EXIT = {"pass": 0, "fail": 1, "inconclusive": 2}


def _worst_exit(verdicts):
    return max((_EXIT[v] for v in verdicts), default=0)


def _emit(reports, fmt):
    if fmt == "json":
        print(json.dumps(reports if len(reports) != 1 else reports[0],
                         indent=2, sort_keys=True))
    else:
        for r in reports:
            print(report_text(r))


_VALIDATED = (("category", "cats", check_category),
              ("two_category", "two_cats", check_two_category),
              ("bisieve", "bisieves", check_bisieve),
              ("bitopology", "bitopologies", check_bitopology))


def _cmd_validate(args):
    doc = load(args.file)
    reports = []
    for label, section, check in _VALIDATED:
        for n, x in sorted(getattr(doc, section).items()):
            r = located("%s.%s" % (section, n), label, check, x)
            reports.append(("%s:%s" % (label, n), r))
    for label, r in reports:
        print("%s: %s" % (label, r.verdict))
        for d in r.details:
            print("  %s" % d)
    if not reports:
        print("no declared structures; document is well-formed")
    return _worst_exit(r.verdict for _, r in reports)


def _cmd_run(args):
    doc = load(args.file)
    if args.check is not None:
        reports = [run_check(doc, args.check, args.budget)]
    else:
        reports = run_all(doc, args.budget)
    _emit(reports, args.format)
    return _worst_exit(r["verdict"] for r in reports)


def _cmd_generate(args):
    raw = generate(args.seed, args.profile)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(_workspace.normalize(raw))
    print("wrote %s (profile %s, seed %d)"
          % (args.output, args.profile, args.seed))
    return 0


def _cmd_replay(args):
    recorded = _workspace.read_json(args.report)
    doc = load(args.file)
    same, fresh = replay(recorded, doc, args.report)
    if same:
        print("replay: reproduced (%s: %s)"
              % (fresh["check"], fresh["verdict"]))
        return 0
    print("replay: MISMATCH")
    print("recorded: %s" % json.dumps(_runner.strip_timing(recorded),
                                      sort_keys=True))
    print("fresh:    %s" % json.dumps(_runner.strip_timing(fresh),
                                      sort_keys=True))
    return 1


def _cmd_groth(args):
    doc = load(args.file)
    if args.sieve not in doc.bisieves:
        raise ToolkitError("no bisieve named %r" % args.sieve)
    g = groth(checked_bisieve(doc, args.sieve))
    raw = {"schema": SCHEMA,
           "two_cats": {"groth_of_%s" % args.sieve:
                        _workspace._encode_two_cat(g.two_cat)}}
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(_workspace.normalize(raw))
    print("wrote %s (%d objects, %d one-cells)"
          % (args.output, len(g.two_cat.objects), len(g.two_cat.onecells)))
    return 0


def _budget(text):
    """A --budget value: a non-negative integer."""
    try:
        steps = int(text)
    except ValueError:
        steps = -1
    if steps < 0:
        raise argparse.ArgumentTypeError(
            "%r is not a non-negative integer" % text)
    return steps


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dkit",
        description="Finite-instance checks for 2-categorical sites, "
                    "covering families, and descent.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural validity of every "
                                        "declared table")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="run declared checks")
    p.add_argument("file")
    p.add_argument("--check", default=None,
                   help="run only this named check (default: all)")
    p.add_argument("--budget", type=_budget, default=None,
                   help="search-step budget (exceeding it yields an "
                        "inconclusive verdict)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("generate", help="emit a seeded instance document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", choices=PROFILES, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("replay", help="re-run a recorded report and compare")
    p.add_argument("report")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("groth", help="export the 2-category of elements "
                                     "of a sieve")
    p.add_argument("file")
    p.add_argument("--sieve", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_groth)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a malformed command line, which is an input
        # error here, since 2 means inconclusive; --help exits 0
        raise SystemExit(3 if exc.code else 0)
    try:
        return args.fn(args)
    except (ToolkitError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
