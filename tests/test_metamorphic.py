"""Metamorphic relations of the 2-stack deciders: how a verdict must
behave when the input changes in a way that the theory controls, which
needs no known answer (Chen, Cheung & Yiu 1998; Segura et al., IEEE TSE
2016).

The maximal-sieve relation: a sieve that contains the identity of its
target c restricts every trihom F biequivalently to F(c), by the
tricategorical Yoneda lemma, so with a maximal sieve as the only covering
sieve, every trihom is a 2-stack.  The rows are the constant B(Z/2) and
B(Z/3), acted on by the identity, over ``chain_suspension(2)``,
``chain_suspension(3)`` and the walking arrow, one row per object.
``is_2stack_direct`` passes such a sieve by that lemma, with no search, so
the rows run its per-sieve search, ``is_2stack_direct_on_sieve``.
"""

import pytest

from bistack.builders import chain_suspension
from bistack.descent import is_2stack, is_2stack_direct_on_sieve
from bistack.fincat import walking_arrow
from bistack.report import Budget, guarded
from bistack.sieves import Bitopology, literal_maximal_bisieve, \
    maximal_bisieve
from bistack.two_cat import from_fincat

from test_bicat3 import constant_trihom, one_object_z2, one_object_z3

_BASES = {"chain_suspension(2)": lambda: chain_suspension(2),
          "chain_suspension(3)": lambda: chain_suspension(3),
          "walking_arrow": lambda: from_fincat(walking_arrow())}
_VALUES = {"B(Z/2)": one_object_z2, "B(Z/3)": one_object_z3}
_ROWS = [(base, value, c) for base, make in _BASES.items()
         for value in _VALUES for c in sorted(make().objects)]

# is_2stack_direct_on_sieve fails these at (M) after 204, 533, 928 and
# 7,665 steps: the trimodification and tritransformation axioms at the
# base's 2-cells are not checked (ROADMAP item 1)
_ITEM_1 = {("chain_suspension(2)", "B(Z/2)", "Y"),
           ("chain_suspension(2)", "B(Z/3)", "Y"),
           ("chain_suspension(3)", "B(Z/2)", "Y"),
           ("chain_suspension(3)", "B(Z/3)", "Y")}

# is_2stack passes the rows at X and at 0 within 3,123 steps, and runs out
# of 100,000 steps on the others; this budget lets it pass the first and
# keeps the file's run short
_BUDGET = 4000


def _row(base, value, c, maximal):
    k = _BASES[base]()
    return (constant_trihom(k, _VALUES[value]()),
            Bitopology(k, {c: [maximal(k, c)]}))


def _params(item_1_fails):
    """The rows, those of item 1 marked to fail when item_1_fails."""
    out = []
    for row in _ROWS:
        marks = [pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the "
                                   "direct search fails at (M) over the "
                                   "maximal sieve")] \
            if item_1_fails and row in _ITEM_1 else []
        out.append(pytest.param(*row, id="-".join(row), marks=marks))
    return out


@pytest.mark.parametrize("base, value, c", _params(True))
def test_the_direct_decider_passes_under_a_maximal_sieve(base, value, c):
    """The per-sieve search, which the public op skips on this sieve."""
    F, tau = _row(base, value, c, literal_maximal_bisieve)
    r = is_2stack_direct_on_sieve(F, tau.sieves_on(c)[0], Budget(100000))
    assert r.verdict == "pass", (r.details, r.witness)


@pytest.mark.parametrize("base, value, c", _params(False))
def test_the_package_decider_never_fails_under_a_maximal_sieve(base, value,
                                                               c):
    """Where is_2stack finishes within the budget, it passes; elsewhere
    it is inconclusive, never failing."""
    F, tau = _row(base, value, c, maximal_bisieve)
    budget = Budget(_BUDGET)
    r = guarded("is_2stack", budget, is_2stack, F, tau, budget)
    assert r.verdict in ("pass", "inconclusive"), (r.details, r.witness)
    if c in ("X", "0"):
        assert r.verdict == "pass"
