"""Spans and counters at the toolkit's module boundaries.

The tracer replaces public functions, as the calling module sees them,
with wrappers that time each call.  Nothing under ``src/`` changes: a
wrapper is installed by rebinding one attribute of one module or class,
and ``uninstall`` puts the original back.

Three kinds of boundary:

* ``span``: every call is kept in memory as a span (name, start, end,
  parent span, document id) and written out by ``write_spans``;
* ``leaf``: hot lookups, called about a million times per ladder pass,
  are timed and counted in place instead of kept one by one;
* ``count``: only the calls are counted.

Self time is a span's duration minus the time covered by its child
spans; it is accumulated per name as calls return.
"""

import json
from collections import Counter
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"


class Tracer:
    def __init__(self):
        self.doc = None
        self.spans = []
        self.keep_spans = True
        self.calls = Counter()
        self.accepted = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self._stack = []
        self._installed = []

    def reset(self):
        """Clear the spans and the counters."""
        self.spans = []
        self.reset_counters()

    def reset_counters(self):
        self.calls.clear()
        self.accepted.clear()
        self.total_s.clear()
        self.self_s.clear()

    def install(self, owner, attr, name, kind=SPAN):
        """Wrap ``owner.attr`` (a module or class attribute) under
        ``name``.  Calls whose result has a true ``ok`` attribute count as
        accepted."""
        original = owner.__dict__[attr]
        if kind == COUNT:
            wrapper = self._counting(original, name)
        else:
            wrapper = self._timing(original, name, kind == SPAN)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _counting(self, fn, name):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _timing(self, fn, name, keep):
        tracer = self
        stack = self._stack

        def timed(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            kept = keep and tracer.keep_spans
            if kept:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            else:
                # children of an unkept call hang from its nearest kept
                # ancestor
                span_id = parent
            # frame: [span id, start, time covered by children]
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[2]
                if kept:
                    tracer.spans[span_id] = (name, frame[1], end, parent,
                                             tracer.doc)
            if getattr(out, "ok", False):
                tracer.accepted[name] += 1
            return out
        return timed

    def write_spans(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                name, start, end, parent, doc = span
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "doc": doc}) + "\n")
