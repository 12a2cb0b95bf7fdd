"""In-memory spans recorded around calls into the program's layers.

The benchmark wraps public functions of each layer (from its own files;
the program carries no instrumentation) and records one span per call:
name, start, end, parent span and the interaction it belongs to.  Spans
stay in memory until the run ends and are then written as JSON lines.

A span's *self time* is its duration minus the part of its interval that
its child spans cover; children are clipped to the parent and overlapping
children are counted once, so the self times of one interaction's spans
sum exactly to the interaction's duration.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager

# span fields, kept as a list per span for cheap recording
ID, PARENT, INTERACTION, NAME, START, END, THREAD, ATTRS = range(8)


class Tracer:
    """Records spans for wrapped calls and benchmark interactions."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, new_interaction: bool = False) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, interaction = stack[-1][ID], stack[-1][INTERACTION]
        else:
            parent, interaction = 0, 0
        if new_interaction or not interaction:
            interaction = span_id
        span = [span_id, parent, interaction, name, time.perf_counter_ns(), 0,
                threading.get_ident(), None]
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def interaction(self, name: str):
        """One client interaction: the root span its layer spans nest under."""
        span = self._open(name, new_interaction=True)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrapping ------------------------------------------------------------------

    def _wrapper(self, fn, name: str, annotate):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if annotate is not None:
                span[ATTRS] = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` (a function or method) with a traced one.

        ``annotate(args, kwargs, result)`` may return a dict stored on the
        span.  :meth:`unwrap_all` restores every original.
        """
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            replacement = classmethod(self._wrapper(static.__func__, name, annotate))
        elif isinstance(static, staticmethod):
            replacement = staticmethod(self._wrapper(static.__func__, name, annotate))
        else:
            replacement = self._wrapper(static, name, annotate)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, static))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)



def write_spans(spans, path) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps({
                "id": span[ID], "parent": span[PARENT],
                "interaction": span[INTERACTION], "name": span[NAME],
                "start_ns": span[START], "end_ns": span[END],
                "thread": span[THREAD], "attrs": span[ATTRS],
            }, default=str) + "\n")


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """``span id -> self time (ns)``: duration minus children's coverage."""
    children: dict = {}
    for span in spans:
        if span[PARENT]:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - covered_ns(span[START], span[END], children.get(span[ID], ()))
        for span in spans
    }


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its first dotted component."""
    return name.split(".", 1)[0]


def layer_table(spans) -> dict:
    """``layer -> [self ns, span count]`` over all spans."""
    selfs = self_times(spans)
    table: dict = {}
    for span in spans:
        entry = table.setdefault(layer_of(span[NAME]), [0, 0])
        entry[0] += selfs[span[ID]]
        entry[1] += 1
    return table


def interaction_breakdown(spans, interaction_id: int) -> tuple[int, dict]:
    """Duration of one interaction and its self time per layer (ns)."""
    members = [s for s in spans if s[INTERACTION] == interaction_id]
    root = next(s for s in members if s[ID] == interaction_id)
    selfs = self_times(members)
    per_layer: dict = {}
    for span in members:
        layer = layer_of(span[NAME])
        per_layer[layer] = per_layer.get(layer, 0) + selfs[span[ID]]
    return root[END] - root[START], per_layer
