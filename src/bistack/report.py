"""Verdicts, budgets and check reports.

Every decision procedure in the toolkit returns a CheckReport rather than a
bare bool, so that failures always carry a finite witness and budget
exhaustion is an honest third verdict instead of a silent pass.
"""

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Callable, Iterable, NamedTuple

from .errors import SearchBudgetExceeded

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class Budget:
    """A ticking step counter for exhaustive searches.

    A step is work done: one tick per choice that ``choices`` yields, per
    pick that one of its edges rejects, and per display (a displayed
    equation or axiom instance) evaluated.  Work that a search skips
    spends nothing.  tick() raises SearchBudgetExceeded once `limit` steps
    have been spent.  A limit of None never exhausts.
    """

    def __init__(self, limit=None):
        self.limit = limit
        self.steps = 0

    def tick(self, n=1):
        """Spend n steps as n calls of tick(1) would: an overrun stops at
        the first step past the limit, not at the n-th."""
        if self.limit is not None and self.steps + n > self.limit:
            self.steps = max(self.steps + 1, self.limit + 1)
            raise SearchBudgetExceeded(steps=self.steps)
        self.steps += n


class Recorded:
    """What an immutable object decides about its own tables, each figure
    computed once and kept with the steps it spent.  A subclass sets
    ``self._recorded = {}`` in its constructor."""

    def recorded(self, key, budget, fn, *args):
        """fn(*args, budget), computed once per key with the steps it
        spent: a repeat spends them as one ``budget.tick(n)``, which stops
        where n single ticks would.  A call that raises, budget exhaustion
        included, records nothing.  The key must name the figure and
        everything fn reads besides these tables, and the value must not
        be changed by a caller."""
        hit = self._recorded.get(key)
        if hit is None:
            start = budget.steps
            value = fn(*args, budget)
            self._recorded[key] = value, budget.steps - start
            return value
        budget.tick(hit[1])
        return hit[0]

    def memo(self, key, fn=None):
        """fn(self, budget) under an unlimited budget, recorded under key:
        for figures derived from the tables alone, such as a check's
        report, kept under the name of the op that runs it (as
        ``two_category``), which a wrapper of the check does not change.
        Without fn, None unless recorded before."""
        if fn is None:
            hit = self._recorded.get(key)
            return None if hit is None else hit[0]
        return self.recorded(key, Budget(), fn, self)


def choices(budget, *groups, edges=()):
    """Every way to pick one candidate for each cell that passes the edges.

    Each group is an iterable of (cell, pool) pairs, naming each cell
    once, each pool a sequence, read lazily and in order.  At the first
    empty pool nothing is yielded, no later pair or group is read and no
    step is spent.  Otherwise the choices come in ``itertools.product``
    order over all the pools, the first pool varying slowest.  Each choice
    is a tuple with one dict per group, mapping its cells to their picks.

    edges is a collection of (x, y, ok) constraints between two cells,
    named as in the groups, which must then name each cell once in all.
    A choice is yielded only if ok(pick at x, pick at y) holds on every
    edge.  Each edge is tested as soon as both its cells are assigned
    (forward checking; Haralick & Elliott, 1980), so a pick that it
    rejects cuts off every choice that extends it.  The budget ticks once
    for each pick that an edge rejects and once before each choice
    yielded, so never more than for the choices without edges followed
    by a filter.  The ok tests must not read the budget.
    """
    # each group's cells with their first picks, in order
    firsts, pools = [], []
    for group in groups:
        first = {}
        for cell, pool in group:
            if not pool:
                return
            first[cell] = pool[0]
            pools.append(pool)
        firsts.append(first)
    if not edges and len(pools) == sum(map(len, pools)):
        # every pool is a singleton: the one choice is the first picks
        budget.tick()
        yield tuple(firsts)
        return
    for combo in (_forward(budget, pools, firsts, edges) if edges
                  else product(*pools)):
        budget.tick()
        # zip stops at a group's last cell, so each takes its own picks
        picks = iter(combo)
        yield tuple([dict(zip(first, picks)) for first in firsts])


def _forward(budget, pools, firsts, edges):
    """The combinations of ``product(*pools)`` that pass the edges, each
    edge tested once its later cell is assigned, one tick per pick that
    one rejects.  The cells of the pools, in order, are the keys of the
    firsts."""
    level = {cell: i for i, cell in enumerate(chain(*firsts))}
    checks = [[] for _ in pools]
    for x, y, ok in edges:
        i, j = level[x], level[y]
        checks[max(i, j)].append((i, j, ok))
    last = len(pools) - 1
    picks = [None] * len(pools)
    its = [iter(pools[0])]
    while its:
        i = len(its) - 1
        for a in its[i]:
            picks[i] = a
            if all(ok(picks[x], picks[y]) for x, y, ok in checks[i]):
                break
            budget.tick()
        else:
            its.pop()
            continue
        if i < last:
            its.append(iter(pools[i + 1]))
        else:
            yield tuple(picks)


def narrow(cells, edges):
    """The pools of ``choices(budget, cells, edges=edges)`` made arc
    consistent (AC-3; Mackworth, "Consistency in networks of relations",
    1977): a pre-pass, run before the search.

    Takes the same (cell, pool) pairs and (x, y, ok) edges, and returns the
    pairs with each pool, in its original order, reduced to the values that
    have a support on every edge: for a at x, some b left at y with
    ok(a, b), and likewise from y's side.  An edge from a cell to itself is
    the unary test ok(a, a).  A value without support is in no choice that
    passes every edge, so ``choices`` over the narrowed pools yields the
    same choices in the same order; only the ticks of its pruned branches
    shrink.  Once some pool is empty no choice passes, and every pool
    comes back empty.  Like the ok tests of ``choices``, narrowing reads
    no budget.
    """
    pools = {cell: list(pool) for cell, pool in cells}
    # arcs[i] = (x, y, test): revise x against y, test(pick at x, at y)
    arcs = []
    for x, y, ok in edges:
        if x == y:
            pools[x] = [a for a in pools[x] if ok(a, a)]
        else:
            arcs.append((x, y, ok))
            arcs.append((y, x, lambda b, a, ok=ok: ok(a, b)))
    into = {}
    for i, (_, y, _) in enumerate(arcs):
        into.setdefault(y, []).append(i)
    queue = deque(range(len(arcs)))
    queued = set(queue)
    while queue:
        i = queue.popleft()
        queued.discard(i)
        x, y, test = arcs[i]
        kept = [a for a in pools[x] if any(test(a, b) for b in pools[y])]
        if len(kept) < len(pools[x]):
            pools[x] = kept
            # arc i ^ 1, the same edge seen from y, keeps its supports
            for j in into[x]:
                if j != i ^ 1 and j not in queued:
                    queue.append(j)
                    queued.add(j)
    if not all(pools.values()):
        return [(cell, []) for cell in pools]
    return list(pools.items())


class Display(NamedTuple):
    """A coherence display, declared once: an equation between two pasting
    composites of 2-cells at each of its indices.  A pasting in a strict
    2-category has one composite (Power, "A 2-categorical pasting
    theorem", J. Algebra 129, 1990), so its two sides give it.

    indices are the index tuples in checking order; sides(*at) is the
    pair (lhs, rhs) at the index at.  Where they differ, the message is
    ``message % at``, or message(at, lhs, rhs) if callable, and the
    witness maps the key that ``witness`` names for each entry of
    at + (lhs, rhs) to that entry: "_" names none, and a key named more
    than once maps to the list of its entries.  With per_value set,
    indices are one (value, outer, inner) triple per group of indices
    that live in one value: outer + i for each i of inner.
    """

    name: str
    indices: Iterable
    sides: Callable
    message: object
    witness: str
    per_value: bool = False

    def failure(self, at, lhs, rhs):
        """The (message, witness) at the index at, with sides lhs, rhs."""
        keys = self.witness.split()
        witness = {}
        for key, x in zip(keys, at + (lhs, rhs)):
            if key != "_" and keys.count(key) > 1:
                witness.setdefault(key, []).append(x)
            elif key != "_":
                witness[key] = x
        if callable(self.message):
            return self.message(at, lhs, rhs), witness
        return self.message % at, witness


def first_failure(budget, displays, *args, values=None):
    """The failure (``Display.failure``) of the first of displays(*args)
    at its first index where the sides differ; None when all hold.  The
    budget ticks once per index evaluated.

    In a locally thin value, with at most one 2-cell between two 1-cells,
    any two parallel 2-cells are equal, so every display between
    well-typed cells holds (Johnson & Yau, *2-Dimensional Categories*,
    2021) and is not evaluated, with no step: none at all, nor
    displays(*args), when each of values is thin (values=None skips
    nothing as a whole), and no group of a per-value display whose value
    is thin.
    """
    if values is not None:
        for value in values:
            if not value.locally_thin():
                break
        else:
            return None
    for display in displays(*args):
        groups = display.indices if display.per_value \
            else ((None, (), display.indices),)
        for value, outer, inner in groups:
            if value is not None and value.locally_thin():
                continue
            for i in inner:
                budget.tick()
                at = outer + i
                lhs, rhs = display.sides(*at)
                if lhs != rhs:
                    return display.failure(at, lhs, rhs)
    return None


def reported(name, failure, details=()):
    """The report of a check whose displays gave failure: passed with
    details when it is None, else failed with its message and witness."""
    if failure is None:
        return passed(name, details)
    message, witness = failure
    return failed(name, [message], witness)


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
    """Combine pass and fail subreports: fail dominates, else pass."""
    verdict = PASS
    details = []
    witness = {}
    for r in reports:
        details.extend("%s: %s" % (r.name, d) for d in r.details)
        if r.verdict == FAIL and verdict != FAIL:
            verdict = FAIL
            witness = r.witness
    return CheckReport(name, verdict, details, witness)
