"""In-memory span tracing of dpsgd's public functions, from outside.

A Tracer replaces a function with a timing wrapper in every loaded
``dpsgd`` module that holds it (the home module and each module that
imported it by name), or replaces a method on a class, and puts every
original back on ``restore()``. Nothing under ``src/dpsgd`` is edited.

A span holds a name, start, end, the span that was open around it
(its parent), the thread, and the worker pass it belongs to. Spans of
one worker pass share a pass id ``(worker, pass_idx)``: it is taken from
the arguments of ``run_local_pass`` and of the per-pass ``substream``
calls, so a fresh local thread that opens a pass also gets the pass's
``run_local_pass`` span as its parent.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    pass_id: tuple[int, int] | None
    note: float | None  # bytes, sweeps or steps, when the wrapper records one

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_sid = 0
        self._open_passes: dict[tuple[int, int], int] = {}
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.root = None
            local.pass_id = None
        return local

    def wrap(self, fn, name, *, pass_of=None, note_of=None,
             opens_pass=False, ends_pass=False):
        """Timing wrapper around fn.

        pass_of(args) names the pass a call belongs to (or None);
        note_of(args, result) gives a number stored on the span;
        opens_pass marks the span as the pass's parent for other
        threads; ends_pass clears the thread's pass (master-side work).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            if ends_pass:
                local.pass_id = None
            pid = pass_of(args) if pass_of is not None else None
            if pid is not None:
                local.pass_id = pid
                if not local.stack:
                    local.root = tracer._open_passes.get(pid, local.root)
            with tracer._lock:
                sid = tracer._next_sid
                tracer._next_sid += 1
            parent = local.stack[-1] if local.stack else local.root
            if opens_pass and pid is not None:
                tracer._open_passes[pid] = sid
            local.stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.stack.pop()
                if opens_pass and pid is not None:
                    tracer._open_passes.pop(pid, None)
            note = note_of(args, out) if note_of is not None else None
            tracer.spans.append(Span(sid, name, start, end, parent,
                                     threading.get_ident(), local.pass_id,
                                     note))
            return out

        return traced

    # -- patching --------------------------------------------------------

    def patch_function(self, fn, name, **hooks) -> None:
        """Wrap fn in every loaded dpsgd module that binds it by name."""
        wrapper = self.wrap(fn, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("dpsgd"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn, True))
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr, name, **hooks) -> None:
        had = attr in vars(cls)
        original = getattr(cls, attr)
        self._patches.append((cls, attr, vars(cls).get(attr), had))
        setattr(cls, attr, self.wrap(original, name, **hooks))

    def restore(self) -> None:
        for owner, attr, original, had in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- analysis --------------------------------------------------------

    def self_time(self, span: Span) -> float:
        """span.dur minus the part of it that its child spans cover."""
        children = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.spans
            if c.parent == span.sid
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in children:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return span.dur - covered

    def write_jsonl(self, path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name,
                    "start_us": round((s.start - t0) * 1e6, 3),
                    "end_us": round((s.end - t0) * 1e6, 3),
                    "parent": s.parent, "thread": s.thread,
                    "pass": list(s.pass_id) if s.pass_id else None,
                    "note": s.note,
                }) + "\n")
