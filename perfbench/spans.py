"""In-memory span recorder that times calls into fracture from outside.

The library is not edited: ``Tracer.install`` replaces public functions
with timing wrappers and rebinds every name that points at the original
in every loaded ``fracture`` module, because the modules import each
other's functions by name (``from .core import class_stats``).  A span
is (id, parent, op, name, start, end); spans opened while an op is
running share that op's id.  Functions called millions of times are
wrapped with a bare call counter instead of a span, so tracing stays
cheap enough to leave every other layer timed.

Spans are kept in memory and written out once, by the caller, when the
run ends.  Everything here assumes one thread: the span stack is shared.
"""

from __future__ import annotations

import time
from collections import Counter

SPAN_FIELDS = ("id", "parent", "op", "name", "start", "end")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple] = []

    def _open(self, name: str) -> tuple[int, int | None, float]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id; filled on close
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid: int, parent, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, parent, self._op, name, start, end)

    def op(self, op_id: int, name: str, fn, *args):
        """Run one benchmark op as a root span; nested spans share op_id."""
        self._op = op_id
        sid, parent, start = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, name, start)

    def spanned(self, name: str, fn, on_return=None):
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            sid, parent, start = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if on_return is not None:
                on_return(self.counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules, targets) -> None:
        """Wrap each target and rebind it wherever it is visible.

        ``targets`` maps (module, attribute) to (span name, mode, hook)
        where mode is "span" or "count" and hook is an on_return callback
        or None.  Every module in ``modules`` is searched for names bound
        to the original object.
        """
        for (module, attr), (name, mode, hook) in targets.items():
            original = getattr(module, attr)
            if mode == "count":
                wrapper = self.counted(name, original)
            else:
                wrapper = self.spanned(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, _parent, _op, _name, start, end in spans:
        covered = [
            (max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end
        ]
        out.append((end - start) - _union_length(covered))
    return out


def self_time_where(spans, selves, match) -> float:
    """Summed self time of the spans whose name satisfies ``match``."""
    return float(sum(t for span, t in zip(spans, selves) if match(span[3])))


def busy_time_where(spans, match) -> float:
    """Wall time during which at least one matching span was open, so a
    recursive function is not counted twice."""
    return _union_length([(s[4], s[5]) for s in spans if match(s[3])])
