"""Where the traced run wraps the toolkit, and the per-layer metrics it
derives from the wrappers and from the runner's reports.

Each boundary wraps a function as the calling module sees it, so a
checker is timed where ``descent`` calls it and not where ``bicat3``
calls it internally.
"""

from spans import COUNT, LEAF, SPAN

# the ops the workloads run; op.<op>.s and op.<op>.steps come from the
# runner reports' elapsed_s and steps
OPS = ("two_category", "bisieve", "T1", "T2", "T3", "sigma_bicolim",
       "subcanonical", "stack", "2stack", "2stack_direct")

BICAT3_CHECKERS = ("check_ps_two_functor", "check_ps_two_nat",
                   "check_tritransformation", "check_trimodification",
                   "check_perturbation")

# descent condition -> (datum checker, gluing search)
CONDITIONS = {"2C": ("check_matching_family", "find_amalgamations"),
              "M": ("check_descent_datum_mor", "find_effective_gluing_mor"),
              "O": ("check_weak_descent_datum",
                    "find_weak_effective_gluing")}

# (module, class or None, attribute, span name, kind) for the run passes
RUN_BOUNDARIES = [
    ("workspace", None, "load_data", "workspace.load", SPAN),
    ("runner", None, "run_check", "runner.run_check", SPAN),
    # every target of the runner's dispatch, so that runner self time
    # excludes all op work
    ("runner", None, "check_category", "fincat.check", SPAN),
    ("runner", None, "check_two_category", "two_cat.check", SPAN),
    ("runner", None, "check_bisieve", "sieves.bisieve", SPAN),
    ("runner", None, "check_bitopology", "sieves.bitopology", SPAN),
    ("runner", None, "check_T1", "sieves.T1", SPAN),
    ("runner", None, "check_T2", "sieves.T2", SPAN),
    ("runner", None, "check_T3", "sieves.T3", SPAN),
    ("runner", None, "is_sigma_bicolim_bisieve", "sigma_colim.bisieve",
     SPAN),
    ("runner", None, "is_subcanonical", "descent.subcanonical", SPAN),
    ("runner", None, "is_stack_catvalued", "descent.stack", SPAN),
    ("runner", None, "is_2stack", "descent.2stack", SPAN),
    ("runner", None, "is_2stack_direct", "descent.2stack_direct", SPAN),
    ("descent", None, "check_ps_nat", "two_cat.check", SPAN),
    ("descent", None, "check_modification", "two_cat.check", SPAN),
    ("two_cat", "Fin2Cat", "one_cells_between", "two_cat.between", LEAF),
    ("two_cat", "Fin2Cat", "two_cells_between", "two_cat.between", LEAF),
    ("two_cat", "Fin2Cat", "inverse2", "two_cat.between", LEAF),
    ("fincat", "FinCat", "hom", "fincat.hom", COUNT),
    ("sieves", None, "candidate_sieves", "sieves.candidate", COUNT),
    ("sieves", None, "pullback_sieve", "sieves.pullback", COUNT),
    ("sieves", None, "sieve_equivalence", "sieves.equivalence", COUNT),
]
RUN_BOUNDARIES += [("descent", None, c, "bicat3.%s" % c, SPAN)
                   for c in BICAT3_CHECKERS]
for _cond, (_check, _glue) in CONDITIONS.items():
    RUN_BOUNDARIES += [
        ("descent", None, _check, "descent.%s.check" % _cond, SPAN),
        ("descent", None, _glue, "descent.%s.glue" % _cond, SPAN)]

SETUP_BOUNDARIES = [("generate", None, "generate", "generate", SPAN)]


def install(tracer, toolkit, boundaries):
    for module, cls, attr, name, kind in boundaries:
        owner = getattr(toolkit, module)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.install(owner, attr, name, kind)


def _metric_units():
    units = {}
    for op in OPS:
        units["op.%s.s" % op] = "s"
        units["op.%s.steps" % op] = "count"
    units.update({
        "workspace.load_s": "s", "workspace.load_calls": "count",
        "runner.self_s": "s", "generate.s": "s",
        "two_cat.check_s": "s", "two_cat.between_calls": "count",
        "two_cat.between_s": "s", "fincat.hom_calls": "count",
        "sieves.bisieve_s": "s", "sieves.T1_s": "s", "sieves.T2_s": "s",
        "sieves.T3_s": "s", "sieves.candidate_calls": "count",
        "sieves.pullback_calls": "count",
        "sieves.equivalence_calls": "count",
        "sigma_colim.s": "s", "sigma_colim.steps": "count",
    })
    for c in BICAT3_CHECKERS:
        units["bicat3.%s.calls" % c] = "count"
        units["bicat3.%s.accepted" % c] = "count"
        units["bicat3.%s.s" % c] = "s"
    for cond in CONDITIONS:
        units["descent.%s.checked" % cond] = "count"
        units["descent.%s.accepted" % cond] = "count"
        units["descent.%s.accept_ratio" % cond] = "ratio"
        units["descent.%s.check_s" % cond] = "s"
        units["descent.%s.glue_s" % cond] = "s"
    units["descent.enum_s"] = "s"
    units.update({"doc_p90_s": "s",
                  "trace.run_s": "s", "trace.overhead": "ratio",
                  "fail_share": "ratio", "verdict_drift": "count"})
    return units


UNITS = _metric_units()


def pass_metrics(tracer, reports):
    """Per-layer values of one traced pass.  ``reports`` are the runner
    reports of the pass."""
    calls, acc = tracer.calls, tracer.accepted
    total, own = tracer.total_s, tracer.self_s
    m = {}
    for op in OPS:
        m["op.%s.s" % op] = sum(r["elapsed_s"] for r in reports
                                if r["op"] == op)
        m["op.%s.steps" % op] = sum(r["steps"] for r in reports
                                    if r["op"] == op)
    m.update({
        "workspace.load_s": total["workspace.load"],
        "workspace.load_calls": calls["workspace.load"],
        "runner.self_s": own["runner.run_check"],
        "two_cat.check_s": total["two_cat.check"],
        "two_cat.between_calls": calls["two_cat.between"],
        # inverse2 calls two_cells_between: summing self times counts
        # the nested lookup once
        "two_cat.between_s": own["two_cat.between"],
        "fincat.hom_calls": calls["fincat.hom"],
        "sieves.bisieve_s": total["sieves.bisieve"],
        "sieves.T1_s": total["sieves.T1"],
        "sieves.T2_s": total["sieves.T2"],
        "sieves.T3_s": total["sieves.T3"],
        "sieves.candidate_calls": calls["sieves.candidate"],
        "sieves.pullback_calls": calls["sieves.pullback"],
        "sieves.equivalence_calls": calls["sieves.equivalence"],
        "sigma_colim.s": total["sigma_colim.bisieve"],
        "sigma_colim.steps": m["op.sigma_bicolim.steps"],
        "descent.enum_s": own["descent.2stack"]
        + own["descent.2stack_direct"],
    })
    for c in BICAT3_CHECKERS:
        name = "bicat3.%s" % c
        m[name + ".calls"] = calls[name]
        m[name + ".accepted"] = acc[name]
        m[name + ".s"] = total[name]
    for cond in CONDITIONS:
        check = "descent.%s.check" % cond
        m["descent.%s.checked" % cond] = calls[check]
        m["descent.%s.accepted" % cond] = acc[check]
        m["descent.%s.accept_ratio" % cond] = \
            acc[check] / calls[check] if calls[check] else 0.0
        m["descent.%s.check_s" % cond] = total[check]
        m["descent.%s.glue_s" % cond] = total["descent.%s.glue" % cond]
    return m
