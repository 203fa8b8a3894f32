"""A clock that reads seconds at a fixed machine speed.

The benchmark runs on shared machines whose speed drifts by 10-30% over
tens of seconds.  Measured in separate processes a few minutes apart,
wall-clock medians of the same work differ by as much.  The benchmark
therefore times a fixed piece of pure-Python work, the slice, every
GAP_S seconds from a timer signal while the toolkit runs, and reads time
from a clock that advances at::

    wall-clock rate * REFERENCE_SLICE_S / median of the last WINDOW slices

that is, in seconds on a machine running at the reference speed.  Slice
time itself does not advance the clock.  The slice does the kind of work
the toolkit does: table scans with sorting, dict lookups on tuple keys,
small products and JSON encoding.  It is owned by the benchmark and does
not change with the toolkit, so a toolkit change moves the clock's times
as it moves wall-clock ones.
"""

import gc
import json
import signal
import statistics
from collections import deque
from itertools import product
from time import perf_counter

# median slice time on the machine of baseline.json
REFERENCE_SLICE_S = 0.002
# seconds between slices
GAP_S = 0.05
# slices whose median sets the clock's rate
WINDOW = 5

_TABLE = {"c%03d" % i: ("o%d" % (i % 7), "o%d" % (i * 3 % 7))
          for i in range(200)}
_OBJECTS = sorted({s for s, _ in _TABLE.values()})
_CELLS = {"m%d" % i: ("o%d" % (i % 5), "o%d" % (i * 2 % 5))
          for i in range(60)}
_COMP = {(g, f): "m%d" % ((int(g[1:]) + int(f[1:])) % 60)
         for g in _CELLS for f in _CELLS if _CELLS[f][1] == _CELLS[g][0]}


def _slice_work():
    n = 0
    for a in _OBJECTS:
        for b in _OBJECTS:
            n += len(tuple(sorted(f for f, (s, t) in _TABLE.items()
                                  if s == a and t == b)))
    for (g, f), h in _COMP.items():
        if _CELLS[h][0] == _CELLS[f][0] and (f, g) not in _COMP:
            n += 1
    for choice in product(sorted(_CELLS)[:6], repeat=3):
        n += len(json.dumps(dict(zip("abc", choice)), sort_keys=True))
    return n


class Speedometer:
    """Takes a slice every GAP_S seconds while it is active
    (``with Speedometer() as speed:``) and keeps the clock ``clock``."""

    def __init__(self):
        self.rates = []
        self._recent = deque(maxlen=WINDOW)
        self._rate = 1.0
        # reference seconds up to the wall-clock instant _mark
        self._ref = 0.0
        self._mark = perf_counter()
        self._version = 0

    def __enter__(self):
        self._on_alarm(None, None)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, GAP_S, GAP_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        self._ref += (start - self._mark) * self._rate
        # with the collector off, a slice's time does not depend on how
        # many objects the interrupted toolkit code holds
        collecting = gc.isenabled()
        gc.disable()
        _slice_work()
        end = perf_counter()
        if collecting:
            gc.enable()
        self._recent.append(end - start)
        self._rate = REFERENCE_SLICE_S / statistics.median(self._recent)
        self.rates.append(self._rate)
        self._mark = end
        self._version += 1

    def clock(self):
        """Reference seconds since an arbitrary origin."""
        while True:
            # retry if a slice ran while reading
            version = self._version
            value = self._ref + (perf_counter() - self._mark) * self._rate
            if version == self._version:
                return value
