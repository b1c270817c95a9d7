"""In-memory span tracer that wraps functions from outside the program.

``Tracer.wrap`` replaces a function, in every given module namespace that
holds it, with a wrapper recording one span per call: name, start, end and
the id of the span that caused it.  Each thread appends to its own buffer,
so recording takes no lock; threads that open a span with nothing open on
their own stack (pool workers) are attributed to the innermost span open
in the thread that created the tracer.  Spans stay in memory until
``finish`` turns them into arrays, computes self times and writes them out.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array

import numpy as np

_NO_PARENT = -1


class _Buffer:
    """Spans opened by one thread, as parallel columns."""

    __slots__ = ("slot", "start", "end", "parent", "name", "value", "stack")

    def __init__(self, slot: int):
        self.slot = slot
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.value = array("d")
        self.stack = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[dict, str, object]] = []
        self._home = self._buffer()

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _open(self, nid: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        if buf.stack:
            parent = buf.stack[-1]
        else:
            try:
                parent = self._home.stack[-1]
            except IndexError:
                parent = _NO_PARENT
        i = len(buf.start)
        buf.stack.append((buf.slot << 32) | i)
        buf.parent.append(parent)
        buf.name.append(nid)
        buf.value.append(0.0)
        buf.end.append(0.0)
        buf.start.append(time.perf_counter())
        return buf, i

    @staticmethod
    def _close(buf: _Buffer, i: int) -> None:
        buf.end[i] = time.perf_counter()
        buf.stack.pop()

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self.names:
                self.names.append(name)
            return self.names.index(name)

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, self._name_id(name))

    def wrap(self, namespaces, attr: str, name: str, measure=None) -> None:
        """Trace every call of ``attr`` as found in ``namespaces[0]``.

        The wrapper replaces each namespace entry that is the same object.
        ``measure(args, kwargs, result)`` may return a number stored as
        the span's value (a batch size, a count of kept points).
        """
        original = namespaces[0][attr]
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            buf, i = tracer._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(buf, i)
            if measure is not None:
                buf.value[i] = measure(args, kwargs, result)
            return result

        for ns in namespaces:
            for key, obj in list(ns.items()):
                if obj is original:
                    ns[key] = wrapper
                    self._patches.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def finish(self, path=None) -> "Spans":
        """Stop tracing and return the spans; optionally write them out."""
        self.uninstall()
        spans = Spans.from_buffers(self._buffers, self.names)
        if path is not None:
            spans.save(path)
        return spans


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.buf, self.i = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.buf, self.i)
        return False


class Spans:
    """All recorded spans as flat arrays; row index is the span id."""

    def __init__(self, names, thread, parent, name, start, end, value):
        self.names = list(names)
        self.thread, self.parent, self.name = thread, parent, name
        self.start, self.end, self.value = start, end, value
        self.self_time = _self_times(parent, start, end)

    @classmethod
    def from_buffers(cls, buffers, names) -> "Spans":
        offsets = np.cumsum([0] + [len(b.start) for b in buffers])
        thread = np.concatenate(
            [np.full(len(b.start), b.slot, np.int64) for b in buffers])
        raw = np.concatenate([np.frombuffer(b.parent, np.int64)
                              for b in buffers])
        parent = np.full(len(raw), _NO_PARENT, np.int64)
        has = raw != _NO_PARENT
        parent[has] = offsets[raw[has] >> 32] + (raw[has] & 0xFFFFFFFF)

        def col(field, dtype):
            return np.concatenate(
                [np.frombuffer(getattr(b, field), dtype) for b in buffers])
        return cls(names, thread, parent, col("name", np.uint16),
                   col("start", np.float64), col("end", np.float64),
                   col("value", np.float64))

    def __len__(self) -> int:
        return len(self.start)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def ids(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def calls(self, name: str) -> int:
        return len(self.ids(name))

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.ids(name)].sum())

    def total_s(self, name: str) -> float:
        return float(self.duration[self.ids(name)].sum())

    def values(self, name: str) -> np.ndarray:
        return self.value[self.ids(name)]

    def children(self, span_id: int) -> np.ndarray:
        return np.flatnonzero(self.parent == span_id)

    def save(self, path) -> None:
        t0 = self.start.min() if len(self) else 0.0
        np.savez_compressed(
            path, names=np.array(self.names), thread=self.thread,
            parent=self.parent, name=self.name, value=self.value,
            start_ns=np.rint((self.start - t0) * 1e9).astype(np.int64),
            end_ns=np.rint((self.end - t0) * 1e9).astype(np.int64))


def _self_times(parent, start, end) -> np.ndarray:
    """Duration minus the part of the span's interval its children cover.

    Children of one span overlap only when they ran on different threads;
    their union is taken so overlapping time is subtracted once.
    """
    self_time = end - start
    kids = np.flatnonzero(parent != _NO_PARENT)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur_parent, cover_end = _NO_PARENT, 0.0
    for p, s, e in zip(parent[order].tolist(), start[order].tolist(),
                       end[order].tolist()):
        if p != cur_parent:
            cur_parent, cover_end = p, start[p]
        s = max(s, cover_end)
        if e > s:
            self_time[p] -= e - s
            cover_end = e
    return self_time
