"""Span tracer that wraps the program's public entry points from outside.

Each wrapped call records a span (name, start, end, parent, attributes).
Spans stay in memory until the run ends; ``write_jsonl`` then writes them out.
Wrapping is undone when the ``installed`` context exits, so a traced pass and
an untraced pass can share one process.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

FRAME = "pipeline.frame"


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter(), attrs=attrs or {})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        # a frame span is left open between observation callbacks; closing an
        # enclosing span also closes whatever is still open inside it
        while self._stack:
            top = self._stack.pop()
            top.end = time.perf_counter()
            if top is span:
                return

    def end_frame(self) -> None:
        """Close the camera-frame span left open by the previous callback."""
        if self._stack and self._stack[-1].name == FRAME:
            self.close(self._stack[-1])

    def wrap(self, fn, name, before=None, after=None):
        """Wrap fn in a span. ``name`` may be a callable of the call's
        arguments; ``before``/``after`` return span attributes computed from
        the arguments (and result)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            attrs = before(*args, **kwargs) if before else {}
            span = tracer.open(span_name, attrs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if after:
                span.attrs.update(after(result, *args, **kwargs))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch each (owner, attribute, name, before, after) target for the
        duration of the block."""
        saved = []
        try:
            for owner, attr, name, before, after in targets:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(raw.__func__, name, before, after))
                else:
                    patched = self.wrap(raw, name, before, after)
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_ms = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] += s.ms
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.ms - child_ms[s.sid]
        return out

    def wrapper_cost_ms(self) -> float:
        """Time the wrappers add for as many calls as this trace recorded,
        measured on a no-op through a scratch tracer. Unlike the traced minus
        untraced wall time, host-speed swings do not swamp it."""
        n = len(self.spans)

        def noop():
            return None

        traced = Tracer().wrap(noop, "noop")
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        return ((t1 - t0) - (t2 - t1)) * 1e3

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent,
                    "start_ms": (s.start - t0) * 1e3, "end_ms": (s.end - t0) * 1e3,
                    **s.attrs,
                }) + "\n")
