"""Outside-in span recorder.

The benchmark wraps the public callables at each layer boundary of the
program (class attributes and module globals are swapped for timing
wrappers while a traced phase runs, and restored after it); nothing
under ``src/`` knows it is being traced.

A span is ``(name, start, end, id, parent, op, self_s)``: the parent is the
enclosing span on the same thread, the op is the benchmark operation
(a session step, an integration, a served job) the span belongs to,
and ``self_s`` is the span's duration minus what its child spans cover.
Spans live in memory and are written out once at the end.

Voter ``score`` calls run hundreds of thousands of times per run, so
they are *hot*: instead of one record per call they add to per-thread
``(count, seconds)`` aggregates, and still charge their time to the
enclosing span, so self times stay exact.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

OnResult = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Spans, hot-call aggregates and counts of one traced run; the
    wrappers it installs are removed by :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int, Optional[str],
                               float]] = []
        #: op id -> op kind, for every op opened while tracing
        self.op_kinds: Dict[str, str] = {}
        #: free-form counts recorded at the same boundaries, per op kind
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._hot_tables: List[Dict[str, List[float]]] = []
        self._hot_lock = threading.Lock()
        self._count_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, bool, Any]] = []

    # -- per-thread state ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _hot_table(self) -> Dict[str, List[float]]:
        table = getattr(self._tls, "hot", None)
        if table is None:
            table = self._tls.hot = {}
            with self._hot_lock:
                self._hot_tables.append(table)
        return table

    def current_kind(self) -> str:
        op = getattr(self._tls, "op", None)
        return self.op_kinds.get(op, "none") if op is not None else "none"

    def count(self, key: str, value: float = 1.0) -> None:
        kind = self.current_kind()
        with self._count_lock:  # served jobs count from two worker threads
            self.counts[kind][key] += value

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        stack = self._stack()
        frame = [name, time.perf_counter(), 0.0, next(self._ids),
                 stack[-1][3] if stack else 0,
                 getattr(self._tls, "op", None)]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            return
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        self.spans.append((frame[0], frame[1], end, frame[3], frame[4],
                           frame[5], duration - frame[2]))

    @contextmanager
    def op(self, kind: str, op_id: str) -> Iterator[None]:
        """A top-level benchmark operation; everything under it shares
        *op_id*."""
        self.begin_op(kind, op_id)
        frame = self.open(f"op.{kind}")
        try:
            yield
        finally:
            self.close(frame)
            self._tls.op = None

    def begin_op(self, kind: str, op_id: str) -> None:
        self.op_kinds[op_id] = kind
        self._tls.op = op_id

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, hot: bool = False,
             on_result: Optional[OnResult] = None) -> None:
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        saved = vars(owner)[attr] if had_own else None
        tracer = self
        perf = time.perf_counter

        if hot:
            def wrapper(*args, **kwargs):
                t0 = perf()
                result = original(*args, **kwargs)
                elapsed = perf() - t0
                key = (name, getattr(tracer._tls, "op", None))
                table = tracer._hot_table()
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                stack = getattr(tracer._tls, "stack", None)
                if stack:
                    stack[-1][2] += elapsed
                return result
        else:
            def wrapper(*args, **kwargs):
                frame = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(frame)
                if on_result is not None:
                    on_result(tracer, args, result)
                return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, had_own, saved))

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Swap in a hand-written wrapper; :meth:`uninstall` restores."""
        had_own = attr in vars(owner)
        saved = vars(owner)[attr] if had_own else None
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, had_own, saved))

    def wrap_item(self, mapping: dict, key: str, name: str) -> None:
        """Wrap one callable held in a dict (a dispatch table)."""
        original = mapping[key]
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(frame)

        mapping[key] = wrapper
        self._patches.append((mapping, key, None, original))

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._patches:
            owner, attr, had_own, saved = self._patches.pop()
            if had_own is None:
                owner[attr] = saved
            elif had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------------

    def self_by_name(self, kinds: Optional[set] = None
                     ) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over spans and hot
        aggregates of ops of *kinds* (all ops when None)."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for name, _start, _end, _id, _parent, op, self_s in self.spans:
            if kinds is None or self.op_kinds.get(op) in kinds:
                out[name][0] += 1
                out[name][1] += self_s
        with self._hot_lock:
            tables = list(self._hot_tables)
        for table in tables:
            for (name, op), (calls, seconds) in list(table.items()):
                if kinds is None or self.op_kinds.get(op) in kinds:
                    out[name][0] += calls
                    out[name][1] += seconds
        return {name: (int(c), s) for name, (c, s) in out.items()}

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        payload = {
            "fields": ["name", "start", "end", "id", "parent", "op", "self_s"],
            "spans": self.spans,
            "op_kinds": self.op_kinds,
            "totals": self.self_by_name(),
            "counts": {k: dict(v) for k, v in self.counts.items()},
        }
        payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
