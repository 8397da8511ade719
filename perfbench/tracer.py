"""Outside-in span tracer for the benchmark's traced run.

Each layer boundary is traced by rebinding the name its calling module
imported (for example ``registration.mean_quantile``) to a wrapper that
records a span around the call.  Nothing inside the program changes, and
``restore`` puts every original binding back.

A span is (id, name, start, end, parent id, thread id).  Spans live in
memory until ``dump`` writes them out.  Counters that need the call's inputs
or result are computed after the span has closed, so they add to the tracing
overhead but not to any layer's time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans = []            # (id, name, start, end, parent, thread)
        self.counts = defaultdict(float)
        self.missing = []          # bindings the program no longer has
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self.pool_parent = None    # open thread_map span, parent of worker roots

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the body; yields the span id."""
        stack = self._stack()
        parent = stack[-1][0] if stack else self.pool_parent
        sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def current(self):
        """Name of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def wrap(self, module, attr, name, after=None):
        """Rebind ``module.attr`` to a traced wrapper.

        ``after(tracer, arguments, result)`` derives counters from the
        call's bound arguments and result once the span has closed.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        signature = inspect.signature(original) if after is not None else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def wrap_raw(self, module, attr, make_wrapper):
        """Rebind ``module.attr`` to ``make_wrapper(original)``."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path, extra=None):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "thread")
        doc = {
            "spans": [dict(zip(keys, s)) for s in sorted(self.spans)],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        if extra:
            doc.update(extra)
        path.write_text(json.dumps(doc, indent=1, default=float) + "\n", encoding="utf-8")


def self_times(spans):
    """Per-span self time: duration minus that of its same-thread children.

    Calls on one thread nest, so same-thread children never overlap and
    their durations can simply be subtracted.  Children on another thread
    (worker spans under a thread map) do not reduce the parent's self time:
    the parent's thread was waiting on them.
    """
    by_id = {s[0]: s for s in spans}
    own = {s[0]: s[3] - s[2] for s in spans}
    for sid, _name, start, end, parent, thread in spans:
        p = by_id.get(parent)
        if p is not None and p[5] == thread:
            own[parent] -= end - start
    return own


def total(spans, names):
    """Summed duration of spans named in ``names``, outermost calls only."""
    names = set(names)
    by_id = {s[0]: s for s in spans}
    out = 0.0
    for s in spans:
        if s[1] not in names:
            continue
        p, nested = by_id.get(s[4]), False
        while p is not None:
            if p[1] in names:
                nested = True
                break
            p = by_id.get(p[4])
        if not nested:
            out += s[3] - s[2]
    return out
