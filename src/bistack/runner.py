"""Execute the named checks declared in a workspace document.

Every check is a dict with an ``op`` field plus references into the
document's declared structures.  Reports are plain dicts, deterministic
except for the ``elapsed_s`` timing field.
"""

import copy
import json
import time

from .descent import is_2stack, is_2stack_direct, is_stack_catvalued, \
    is_subcanonical
from .errors import ParseError, UnknownCheck
from .fincat import check_category
from .report import Budget, CheckReport, guarded
from .sieves import check_bisieve, check_bitopology, check_T1, check_T2, \
    check_T3
from .sigma_colim import is_sigma_bicolim_bisieve
from .two_cat import check_two_category
from .workspace import FIELDS, _checked, located

REPORT_SCHEMA = "bistack-report/6"

_TIMING_FIELDS = ("elapsed_s",)


def _covering(doc, name, tau, F=None, what=None):
    """tau, once it lies on the base of F (the check's what, when given),
    its 2-category passes check_two_category and each covering sieve
    passes check_bisieve (a ParseError names the first that does not):
    the deciders index the base's and a sieve's tables without typing
    them."""
    if F is not None and tau.k != F.base:
        raise ParseError("checks.%s: the bitopology is not on the %s's "
                         "base 2-category" % (name, what))
    _checked("two_category", check_two_category, tau.k, "two-category",
             "two_cats.%s" % next(n for n, k in sorted(doc.two_cats.items())
                                  if k is tau.k))
    for n, s in sorted(doc.bisieves.items()):
        if any(s is t for ts in tau.covering.values() for t in ts):
            _checked("bisieve", check_bisieve, s, "bisieve", "bisieves." + n)
    return tau


def checked_bisieve(doc, name):
    """The bisieve called name, once its 2-category and then the sieve
    pass their checks, each once (a ParseError names the first that does
    not): the sigma decision and the 2-category of elements index their
    tables without typing them."""
    s = doc.bisieves[name]
    _checked("two_category", check_two_category, s.k, "two-category",
             "two_cats.%s" % doc.raw["bisieves"][name]["two_cat"])
    return _checked("bisieve", check_bisieve, s, "bisieve",
                    "bisieves.%s" % name)


def _kept(x, op, check, budget):
    """check(x, budget), or the report that x.memo kept under the op's
    name, with its steps spent again; a copy, since the kept report is
    shared."""
    r = x.recorded(op, budget, check, x)
    return CheckReport(r.name, r.verdict, list(r.details),
                       copy.deepcopy(r.witness))


def _dispatch(doc, name, body, budget):
    op = body["op"]

    def ref(field):
        if field not in body:
            raise ParseError("check %r (op %r) has no %r field"
                             % (name, op, field))
        return getattr(doc, FIELDS["check"][field])[body[field]]

    if op == "category":
        return check_category(ref("cat"), budget)
    if op == "two_category":
        # the report that the loader kept if it checked this 2-category
        return _kept(ref("two_cat"), op, check_two_category, budget)
    if op == "bisieve":
        # the report that _covering or checked_bisieve kept if they
        # checked this sieve
        return _kept(ref("bisieve"), op, check_bisieve, budget)
    if op == "bitopology":
        return check_bitopology(ref("bitopology"), budget)
    if op in ("T1", "T2", "T3"):
        fn = {"T1": check_T1, "T2": check_T2, "T3": check_T3}[op]
        return fn(ref("bitopology"), budget)
    if op == "sigma_bicolim":
        ref("bisieve")  # refuses a check without the field
        return is_sigma_bicolim_bisieve(checked_bisieve(doc, body["bisieve"]),
                                        budget)
    if op == "subcanonical":
        tau = _covering(doc, name, ref("bitopology"))
        return is_subcanonical(tau.k, tau, budget)
    if op == "stack":
        F = ref("presheaf")
        return is_stack_catvalued(
            F, _covering(doc, name, ref("bitopology"), F, "presheaf"), budget)
    if op in ("2stack", "2stack_direct"):
        decide = is_2stack if op == "2stack" else is_2stack_direct
        F = ref("trihom")
        return decide(F, _covering(doc, name, ref("bitopology"), F, "trihom"),
                      budget)
    raise UnknownCheck("unknown check op %r" % op)


def run_check(doc, name, limit=None):
    """Run one named check; a report dict.  A check that meets a malformed
    table is a ParseError located at the check."""
    if name not in doc.checks:
        raise UnknownCheck("no check named %r (have: %s)"
                           % (name, ", ".join(sorted(doc.checks)) or "none"))
    body = doc.checks[name]
    budget = Budget(limit)
    start = time.monotonic()
    report = located("checks." + name, "an input of op %r" % body["op"],
                     guarded, name, budget, _dispatch, doc, name, body, budget)
    elapsed = time.monotonic() - start
    return {
        "schema": REPORT_SCHEMA,
        "check": name,
        "op": body["op"],
        "budget_limit": limit,
        "verdict": report.verdict,
        "details": list(report.details),
        "witness": report.witness,
        "steps": budget.steps,
        "elapsed_s": round(elapsed, 6),
    }


def run_all(doc, limit=None):
    """Run every declared check in turn; reports sorted by check name."""
    return [run_check(doc, n, limit) for n in sorted(doc.checks)]


def strip_timing(report):
    return {k: v for k, v in report.items() if k not in _TIMING_FIELDS}


def _recorded(report, where):
    """report, refused with a ParseError located at where unless it is one
    report of this schema, with a check name and a non-negative integer or
    null budget limit."""
    if not isinstance(report, dict):
        raise ParseError("%s: a report must be an object (one check's "
                         "report), not %s" % (where, type(report).__name__))
    if report.get("schema") != REPORT_SCHEMA:
        raise ParseError("%s: report schema %r is not %r: steps are not "
                         "comparable across schemas"
                         % (where, report.get("schema"), REPORT_SCHEMA))
    if not isinstance(report.get("check"), str):
        raise ParseError("%s: report has no check name" % where)
    limit = report.get("budget_limit")
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ParseError("%s: budget_limit %r is not a non-negative integer "
                         "or null" % (where, limit))
    return report


def replay(report, doc, where="report"):
    """Re-run the check recorded in a report against a document.

    Returns (reproduced, fresh_report); reproduced is True when the fresh
    report equals the recorded one in every field except timing.  A report
    that is not one report of this schema is a ParseError located at
    where.
    """
    report = _recorded(report, where)
    fresh = run_check(doc, report["check"], report.get("budget_limit"))
    same = strip_timing(fresh) == strip_timing(report)
    return same, fresh


def report_text(report):
    lines = ["%s: %s" % (report["check"], report["verdict"])]
    for d in report["details"]:
        lines.append("  %s" % d)
    if report["witness"]:
        lines.append("  witness: %s" % json.dumps(report["witness"],
                                                  sort_keys=True))
    return "\n".join(lines)
