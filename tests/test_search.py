import hashlib
from itertools import product

from hypothesis import given, settings, strategies as st

from bistack.bicat3 import representable_trihom
from bistack.builders import chain_suspension
from bistack.descent import _all_descent_data_mor, _all_tritransformations, \
    _all_weak_data, sieve_trihom
from bistack.generate import _literalize
from bistack.report import Budget, choices
from bistack.sieves import maximal_bisieve
from bistack.workspace import corpus_path, load


# --- choices against itertools.product ---------------------------------------

_pool = st.lists(st.integers(0, 9), max_size=3)
_group = st.lists(_pool, max_size=3)


class _Reads:
    """Records which groups choices has started to read."""

    def __init__(self, groups):
        self.groups = groups
        self.read = []

    def group(self, i):
        self.read.append(i)
        for j, pool in enumerate(self.groups[i]):
            yield (i, j), pool


@given(st.lists(_group, max_size=4))
@settings(max_examples=200, deadline=None)
def test_choices_is_product_split_by_group(groups):
    reads = _Reads(groups)
    budget = Budget()
    got = list(choices(budget, *(reads.group(i)
                                 for i in range(len(groups)))))
    pools = [pool for g in groups for pool in g]
    empty = [i for i, g in enumerate(groups) if any(not p for p in g)]
    if empty:
        assert got == []
        assert reads.read == list(range(empty[0] + 1))
        assert budget.steps == 0
        return
    want = []
    for combo in product(*pools):
        it = iter(combo)
        want.append(tuple({(i, j): next(it) for j in range(len(g))}
                          for i, g in enumerate(groups)))
    assert got == want
    assert budget.steps == len(want)


def test_choices_ticks_before_each_choice():
    budget = Budget()
    seen = [budget.steps for _ in choices(budget, [("a", (1, 2, 3))])]
    assert seen == [1, 2, 3]


# --- the enumerators' candidate order -----------------------------------------

def _canon(x):
    if isinstance(x, dict):
        return sorted((repr(k), _canon(v)) for k, v in x.items())
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    return x


def _instances():
    doc = load(corpus_path("walking_arrow.site"))
    tau = doc.bitopologies["tau"]
    yield doc.trihoms["F1"], [s for c in sorted(tau.k.objects)
                              for s in tau.sieves_on(c)]
    k = chain_suspension(3)
    yield representable_trihom(k, "Y"), [
        _literalize(maximal_bisieve(k, c)) for c in sorted(k.objects)]


def _sequences():
    out = []
    for F, sieves in _instances():
        for s in sieves:
            out.append([_canon((dd.X, dd.Y, dd.w, dd.phi, dd.eta))
                        for dd in _all_descent_data_mor(F, s, Budget())])
            out.append([_canon((w.W, w.eta, w.phi, w.phi_inv, w.rho,
                                w.beta, w.rho2, w.alpha))
                        for w in _all_weak_data(F, s, Budget())])
            out.append([_canon(({c: p.key() for c, p in t.comp.items()},
                                {f: q.key() for f, q in t.square.items()},
                                t.beta, t.gamma))
                        for t in _all_tritransformations(
                            sieve_trihom(s), F, Budget())])
    return out


# recorded from the product-then-check enumerators that choices replaced
_PINNED = ("ff9ac9b79512010190d1cdc264372bdf"
           "f8f4bea96aaf0ebe6471a150032d32c2")


def test_enumerator_candidate_order_is_pinned():
    seqs = _sequences()
    assert all(seqs)
    digest = hashlib.sha256(repr(seqs).encode()).hexdigest()
    assert digest == _PINNED
