"""Verdicts, budgets and check reports.

Every decision procedure in the toolkit returns a CheckReport rather than a
bare bool, so that failures always carry a finite witness and budget
exhaustion is an honest third verdict instead of a silent pass.
"""

from dataclasses import dataclass, field
from itertools import product

from .errors import SearchBudgetExceeded

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class Budget:
    """A ticking step counter for exhaustive searches.

    tick() raises SearchBudgetExceeded once `limit` steps have been spent.
    A limit of None never exhausts.
    """

    def __init__(self, limit=None):
        self.limit = limit
        self.steps = 0

    def tick(self, n=1):
        self.steps += n
        if self.limit is not None and self.steps > self.limit:
            raise SearchBudgetExceeded(steps=self.steps)


def choices(budget, *groups):
    """Every way to pick one candidate for each cell, one budget tick each.

    Each group is an iterable of (cell, pool) pairs, read lazily and in
    order.  At the first empty pool nothing is yielded, and no later pair
    or group is read.  Otherwise the choices come in ``itertools.product``
    order over all the pools, the first pool varying slowest.  Each choice
    is a tuple with one dict per group, mapping the group's cells to their
    chosen candidates; the budget ticks once before each choice.
    """
    cells, pools = [], []
    for group in groups:
        keys = []
        for cell, pool in group:
            if not pool:
                return
            keys.append(cell)
            pools.append(pool)
        cells.append(keys)
    for combo in product(*pools):
        budget.tick()
        # zip stops at the end of keys, so each group takes its own picks
        picks = iter(combo)
        yield tuple([dict(zip(keys, picks)) for keys in cells])


@dataclass
class CheckReport:
    """Outcome of a single check.

    witness carries the finite counterexample (or certificate) as plain
    JSON-able data; details are human-readable one-liners.
    """

    name: str
    verdict: str
    details: list = field(default_factory=list)
    witness: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.verdict == PASS

    def to_json(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "details": list(self.details),
            "witness": self.witness,
        }


def passed(name, details=(), witness=None):
    return CheckReport(name, PASS, list(details), witness or {})


def failed(name, details=(), witness=None):
    return CheckReport(name, FAIL, list(details), witness or {})


def inconclusive(name, details=(), witness=None):
    return CheckReport(name, INCONCLUSIVE, list(details), witness or {})


def guarded(name, budget, fn, *args, **kwargs):
    """Run fn, converting budget exhaustion into an inconclusive report."""
    try:
        return fn(*args, **kwargs)
    except SearchBudgetExceeded as exc:
        return inconclusive(
            name,
            ["budget exhausted after %s steps" % exc.steps],
            {"steps": exc.steps},
        )


def merge(name, reports):
    """Combine subreports: fail dominates, then inconclusive, else pass."""
    verdict = PASS
    details = []
    witness = {}
    for r in reports:
        details.extend("%s: %s" % (r.name, d) for d in r.details)
        if r.verdict == FAIL and verdict != FAIL:
            verdict = FAIL
            witness = r.witness
        elif r.verdict == INCONCLUSIVE and verdict == PASS:
            verdict = INCONCLUSIVE
            witness = r.witness
    return CheckReport(name, verdict, details, witness)
