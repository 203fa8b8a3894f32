"""Run one workload of the bistack benchmark and print its metrics.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout: the toolkit is imported from
``./src`` and nowhere else.  The load is a closed loop with one caller:
this process loads each workload document from its JSON text with
``workspace.load_data`` and runs every declared check with
``runner.run_check``, one after another, pass after pass, for
``--seconds``.  Every answer is checked (see ``judge``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, timed with tracing
off; with ``--trace 1`` they are the per-layer ones of a separate traced
run, whose spans are written under ``.perfbench_trace/``.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import types
from time import perf_counter

import docs
import layers
from spans import Tracer
from speed import Speedometer

WORKLOADS = ("ladder", "sites", "refute")
TOOLKIT_MODULES = ("descent", "errors", "fincat", "generate", "runner",
                   "sieves", "two_cat", "workspace")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
TRACE_DIR = ".perfbench_trace"

# set-up is repeated at least SETUP_MIN times and until SETUP_BUDGET_S
# seconds are spent on it, at most SETUP_MAX times; setup_s is the median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 200, 1.0
MIN_PASSES = 3
LOADED = {"loaded": True}


def load_toolkit():
    """Import the toolkit from ./src; exit with an error if it is not
    there."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "bistack", "__init__.py")):
        sys.exit("perfbench: no toolkit at ./src/bistack; run from the "
                 "root of a checkout")
    sys.path.insert(0, src)
    import bistack
    if os.path.dirname(os.path.abspath(bistack.__file__)) != \
            os.path.join(src, "bistack"):
        sys.exit("perfbench: bistack was imported from %s, not ./src"
                 % bistack.__file__)
    return types.SimpleNamespace(**{
        m: importlib.import_module("bistack." + m) for m in TOOLKIT_MODULES})


def build_docs(tk, workload, seed):
    """The workload's documents.  The generator is looked up on each call,
    so that a traced set-up sees the wrapped one."""
    if workload == "ladder":
        return docs.ladder_docs()
    if workload == "sites":
        path = tk.workspace.corpus_path("walking_arrow.site")
        with open(path, encoding="utf-8") as fh:
            corpus_text = fh.read()
        return docs.site_docs(docs.site_seeds(seed), tk.generate.generate,
                              corpus_text)
    return docs.refute_docs(docs.mutant_seeds(seed), tk.generate.generate)


def timed_setup(tk, workload, seed, clock):
    times = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S
                                     and len(times) < SETUP_MAX):
        start = clock()
        built = build_docs(tk, workload, seed)
        times.append(clock() - start)
    return built, times


# --- one pass -----------------------------------------------------------------

def _error(tk, exc):
    kind = "input-error" if isinstance(exc, tk.errors.ToolkitError) \
        else "crash"
    return {"error": kind, "type": type(exc).__name__}


def run_doc(tk, doc, clock=perf_counter):
    """Load one document from its JSON text and run every declared check
    in name order.  Returns the seconds taken, the outcome of each
    operation (``"load"`` and each check) and the seconds of each
    check."""
    outcomes, check_s = {}, {}
    start = clock()
    try:
        wdoc = tk.workspace.load_data(json.loads(doc.text))
    except Exception as exc:  # an input error or a crash; judged later
        outcomes["load"] = _error(tk, exc)
        wdoc = None
    load_s = clock() - start
    if wdoc is not None:
        outcomes["load"] = LOADED
        for name in sorted(wdoc.checks):
            t0 = clock()
            try:
                outcomes[name] = tk.runner.run_check(wdoc, name)
            except Exception as exc:  # judged later
                outcomes[name] = _error(tk, exc)
            check_s[name] = clock() - t0
    return load_s + sum(check_s.values()), outcomes, check_s


def run_pass(tk, workload_docs, tracer=None, clock=perf_counter):
    """Every document once.  Returns run_s, per-document seconds, the
    decider seconds of the anchor documents and every outcome."""
    doc_s, outcomes, top = {}, {}, 0.0
    for doc in workload_docs:
        if tracer is not None:
            tracer.doc = doc.name
        doc_s[doc.name], outcomes[doc.name], check_s = run_doc(tk, doc,
                                                               clock)
        if doc.anchor:
            top += sum(s for name, s in check_s.items()
                       if name.startswith(docs.DECIDERS))
    return {"run_s": sum(doc_s.values()), "doc_s": doc_s,
            "top_rung_s": top, "outcomes": outcomes}


def run_passes(tk, workload_docs, seconds, min_passes, verdicts,
               tracer=None, on_pass=None, clock=perf_counter):
    """Passes until ``seconds`` are spent, at least ``min_passes``.  Each
    pass is judged as it ends and its outcomes are then dropped, so that
    memory does not grow with the number of passes."""
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < min_passes or perf_counter() < deadline:
        if tracer is not None:
            tracer.reset_counters()
        p = run_pass(tk, workload_docs, tracer, clock)
        verdicts.add(p["outcomes"])
        if on_pass is not None:
            on_pass(p)
        del p["outcomes"]
        passes.append(p)
    return passes


# --- answers ---------------------------------------------------------------------

def _canon(x):
    """Plain, order-independent data for hashing a witness."""
    if isinstance(x, dict):
        return sorted(([_canon(k), _canon(v)] for k, v in x.items()),
                      key=repr)
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((_canon(v) for v in x), key=repr)
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return repr(x)


def digest(name, outcome):
    """Eight hex digits for a check's (name, verdict, witness)."""
    if "verdict" not in outcome:
        return outcome["error"]
    body = json.dumps([name, outcome["verdict"], _canon(outcome["witness"])])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:8]


def digest_line(doc, outcomes):
    """The digests of a document's checks in name order, space-separated.
    A check whose known answer is an input error is left out: it is
    judged by that answer alone."""
    return " ".join(digest(name, out) for name, out in sorted(outcomes.items())
                    if name not in ("load", doc.input_error))


def signature(outcome):
    """What must repeat exactly from pass to pass, traced or not."""
    if "verdict" not in outcome:
        return (outcome.get("error"), outcome.get("type"))
    return (outcome["verdict"], json.dumps(_canon(outcome["witness"])),
            outcome["steps"])


def _matches(outcome, known):
    verdict, condition = known if isinstance(known, tuple) else (known, None)
    return outcome.get("verdict") == verdict and (
        condition is None or outcome["witness"].get("condition") == condition)


def judge(doc, outcomes):
    """The operations of one document that failed: a crash, an answer that
    differs from the known one, two deciders that disagree, or a sigma
    check that fails although subcanonicity holds."""
    failed = []
    load = outcomes["load"]
    if doc.input_error == "load":
        if load.get("error") != "input-error":
            failed.append("load")
    elif load is not LOADED:
        failed.append("load")
    verdict = {n: o["verdict"] for n, o in outcomes.items() if "verdict" in o}
    for name, out in outcomes.items():
        if name == "load":
            continue
        if name == doc.input_error:
            if out.get("error") != "input-error":
                failed.append(name)
        elif "error" in out or (name in doc.known
                                and not _matches(out, doc.known[name])):
            failed.append(name)
    if load is LOADED:
        failed += [n for n in doc.known if n not in outcomes]
    for first, second in doc.pairs:
        if verdict.get(first) != verdict.get(second):
            failed.append(second)
    for sub, sigmas in doc.implies.items():
        if verdict.get(sub) == "pass":
            failed += [s for s in sigmas if verdict.get(s) != "pass"]
    return sorted(set(failed))


def drift(expected_line, line):
    """Checks whose (verdict, witness) digest differs from the
    reference."""
    if expected_line is None:
        return len(line.split())
    want, got = expected_line.split(), line.split()
    return sum(a != b for a, b in zip(want, got)) + abs(len(want) - len(got))


class Verdicts:
    """Judges pass after pass.  An operation is one load or one check of
    one document; it is attempted once per run however many passes
    repeat it, and it fails if it fails in any pass.  Both counts thus
    depend on the documents alone, not on how many passes fit in the
    time.  Keeps the largest verdict drift of a pass, and collects the
    failures that are not in the reference's list of known defects."""

    def __init__(self, workload_docs, reference):
        self.docs = workload_docs
        self.reference = reference
        self.first = None
        self.drift = 0
        self.operations, self.failures = set(), set()

    @property
    def attempted(self):
        return len(self.operations)

    @property
    def failed(self):
        return len(self.failures)

    @property
    def unexpected(self):
        return self.failures - set(self.reference["known_failures"])

    def add(self, outcomes):
        sigs = {doc: {op: signature(out) for op, out in outs.items()}
                for doc, outs in outcomes.items()}
        if self.first is None:
            self.first = sigs
        pass_drift = 0
        for doc in self.docs:
            outs = outcomes[doc.name]
            # an operation whose outcome differs from the first pass is
            # not deterministic, and counts as failed
            bad = set(judge(doc, outs)) | {
                op for op, sig in sigs[doc.name].items()
                if sig != self.first[doc.name].get(op)}
            self.operations |= {"%s:%s" % (doc.name, op) for op in outs}
            self.failures |= {"%s:%s" % (doc.name, op) for op in bad}
            pass_drift += drift(self.reference["docs"].get(doc.name),
                                digest_line(doc, outs))
        self.drift = max(self.drift, pass_drift)


# --- metrics ----------------------------------------------------------------------

def doc_quantiles(passes):
    """p50 and p90 over documents of each document's median time over
    the passes, and the document count.  Document costs come in clusters
    with gaps between them, so a single order statistic jumps across a
    gap when a few documents shift; the p50 is therefore the mean of the
    documents between p45 and p55, a smoothed median."""
    per_doc = {}
    for p in passes:
        for name, s in p["doc_s"].items():
            per_doc.setdefault(name, []).append(s)
    medians = sorted(statistics.median(v) for v in per_doc.values())
    n = len(medians)
    middle = medians[math.floor(0.45 * (n - 1)):math.ceil(0.55 * (n - 1)) + 1]
    q = statistics.quantiles(medians, n=10, method="inclusive")
    return statistics.fmean(middle), q[8], n


def end_to_end(setup_times, passes):
    p50, _, _ = doc_quantiles(passes)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "doc_p50_s": (p50, "s"),
        "top_rung_s": (statistics.median(p["top_rung_s"] for p in passes),
                       "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def traced_run(tk, args, reference):
    """Set up once and time untraced passes for half of the time, then
    install the wrappers and run traced passes for the other half.
    Per-layer times are medians over the traced passes; counts must
    repeat exactly from pass to pass."""
    tracer = Tracer()
    layers.install(tracer, tk, layers.SETUP_BOUNDARIES)
    try:
        workload_docs = build_docs(tk, args.workload, args.seed)
    finally:
        tracer.uninstall()
    generate_s = tracer.total_s["generate"]
    for doc in workload_docs:
        docs.add_cross_checks(doc)
    verdicts = Verdicts(workload_docs, reference)
    gc.collect()
    half = args.seconds / 2.0
    plain = run_passes(tk, workload_docs, half, 1, verdicts)
    per_pass = []

    def collect(p):
        reports = [o for outs in p["outcomes"].values()
                   for o in outs.values() if "verdict" in o]
        per_pass.append(layers.pass_metrics(tracer, reports))
        tracer.keep_spans = False

    tracer.reset()
    layers.install(tracer, tk, layers.RUN_BOUNDARIES)
    try:
        traced = run_passes(tk, workload_docs, half, 1, verdicts, tracer,
                            collect)
    finally:
        tracer.uninstall()
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(
        TRACE_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed)))

    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if layers.UNITS[name] != "count":
            metrics[name] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            raise RuntimeError("count %s differs between traced passes: %r"
                               % (name, values))
    metrics["doc_p90_s"] = doc_quantiles(plain)[1]
    untraced_s = statistics.median(p["run_s"] for p in plain)
    traced_s = statistics.median(p["run_s"] for p in traced)
    metrics.update({"generate.s": generate_s, "trace.run_s": traced_s,
                    "trace.overhead": traced_s / untraced_s,
                    "fail_share": verdicts.failed / verdicts.attempted,
                    "verdict_drift": verdicts.drift})
    return verdicts, {name: (metrics[name], layers.UNITS[name])
                      for name in layers.UNITS}


def timed_run(tk, args, reference):
    """Set up as ``timed_setup`` does, then time untraced passes.  Times
    are read from the speedometer's clock, in seconds at the reference
    speed (see ``speed.py``)."""
    with Speedometer() as speed:
        workload_docs, setup_times = timed_setup(tk, args.workload,
                                                 args.seed, speed.clock)
        for doc in workload_docs:
            docs.add_cross_checks(doc)
        verdicts = Verdicts(workload_docs, reference)
        gc.collect()
        passes = run_passes(tk, workload_docs, args.seconds, MIN_PASSES,
                            verdicts, clock=speed.clock)
    metrics = end_to_end(setup_times, passes)
    _, p90, n_docs = doc_quantiles(passes)
    print("doc_p90_s (a per-layer metric; it swings with the seed's "
          "documents): %.6g s" % p90)
    print("%s seed %d: %d documents, %d passes, %d set-ups; the clock ran "
          "at a median %.4f of wall-clock speed"
          % (args.workload, args.seed, n_docs, len(passes),
             len(setup_times), statistics.median(speed.rates)))
    return verdicts, metrics


# --- main ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tk = load_toolkit()
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    measure = traced_run if args.trace else timed_run
    verdicts, metrics = measure(tk, args, reference)
    shown = dict(metrics)
    shown.setdefault("fail_share",
                     (verdicts.failed / verdicts.attempted, "ratio"))
    shown.setdefault("verdict_drift", (verdicts.drift, "count"))
    for name, (value, unit) in shown.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print("failed operations: %d of %d attempted"
          % (verdicts.failed, verdicts.attempted))
    for op in sorted(verdicts.unexpected):
        print("unexpected failure: %s" % op)
    print(json.dumps({
        "correct": verdicts.drift == 0 and not verdicts.unexpected,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
