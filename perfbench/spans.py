"""In-memory span tracer that wraps public functions of the cretan package.

A span records name, start, end and the index of the span that was open
when it started (its parent).  Self time is a span's duration minus the
part of its interval that its child spans cover.  Spans stay in memory
and are written out once, by the caller, when the round ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []      # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list = []      # indices of spans not yet ended

    def timed(self, name: str, fn, on_call=None):
        """Wrap fn so every call records a span; on_call(args, kwargs,
        result) may add counts read from the call."""
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if on_call is not None:
                on_call(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap a hot, tiny function: count calls, record no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """{name: (self seconds, calls)} summed over every span of that name.

    A recursive call is a child span like any other, so the outer call's
    self time excludes the inner call's whole duration.
    """
    children: dict = {}
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict = {}
    for idx, (name, start, end, _) in enumerate(spans):
        own = (end - start) - _covered(children.get(idx, ()), start, end)
        s, c = out.get(name, (0.0, 0))
        out[name] = (s + own, c + 1)
    return out


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(wrap_targets, package: str = "cretan"):
    """Patch each target in every loaded module of the package that binds
    it.  wrap_targets is [(module, "func" or "Class.method", wrap)], where
    wrap(original) returns the replacement.  Returns an undo function."""
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package
                                     or name.startswith(package + "."))]
    for module, dotted, wrap in wrap_targets:
        owner, attr = _resolve(module, dotted)
        original = getattr(owner, attr)
        replacement = wrap(original)
        if owner is not module:
            # a method: the class is the single binding
            undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            continue
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, name, original))
                    setattr(m, name, replacement)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
