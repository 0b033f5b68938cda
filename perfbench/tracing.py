"""In-memory span tracing installed around the program's layer entry points.

The program carries no tracing of its own; a traced run (``--trace 1``)
wraps the entry points of each layer from here.  A span records ``(name,
start, end, parent, request id)``; spans stay in memory and are written
out once, when the run ends.  Counters sit at the same boundaries so the
per-layer ratios are counted where the work happens.

Wrapping replaces a function or method attribute.  Module-level functions
are often imported by name into other modules, so :meth:`Tracer.wrap_function`
patches every loaded ``repro`` module that holds the same function object.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.busy: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_span = 0
        self._next_request = 0

    # ------------------------------------------------------------- context

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request(self, kind: str):
        """Context manager tagging the spans of one request with an id and kind."""
        tracer = self

        class _Request:
            def __enter__(self_inner):
                with tracer._lock:
                    tracer._next_request += 1
                    tracer._local.request = (tracer._next_request, kind)
                return tracer._next_request

            def __exit__(self_inner, *_exc):
                tracer._local.request = None

        return _Request()

    def current_kind(self) -> str | None:
        request = getattr(self._local, "request", None)
        return request[1] if request else None

    # --------------------------------------------------------------- spans

    def span(self, name: str):
        tracer = self

        class _Span:
            def __enter__(self_inner):
                with tracer._lock:
                    tracer._next_span += 1
                    self_inner.id = tracer._next_span
                stack = tracer._stack()
                self_inner.parent = stack[-1] if stack else None
                stack.append(self_inner.id)
                self_inner.start = time.perf_counter()
                return self_inner

            def __exit__(self_inner, *_exc):
                end = time.perf_counter()
                tracer._stack().pop()
                request = getattr(tracer._local, "request", None)
                with tracer._lock:
                    tracer.spans.append(
                        (
                            name,
                            self_inner.start,
                            end,
                            self_inner.id,
                            self_inner.parent,
                            request[0] if request else None,
                        )
                    )
                    tracer.busy[name] += end - self_inner.start
                    tracer.counts[name] += 1

        return _Span()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------ wrapping

    def traced(self, name, function):
        """``function`` wrapped in a span; ``name`` may be ``f(args, kwargs)``."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with tracer.span(label):
                return function(*args, **kwargs)

        return wrapper

    def wrap_method(self, cls, attribute: str, name) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, classmethod):
            setattr(cls, attribute, classmethod(self.traced(name, original.__func__)))
        else:
            setattr(cls, attribute, self.traced(name, original))

    def wrap_function(self, module, attribute: str, name) -> None:
        original = getattr(module, attribute)
        replace_references(original, self.traced(name, original))

    def count_hashing(self, name: str) -> None:
        """Count the bytes every ``repro`` module feeds to ``hashlib.sha256``."""
        tracer = self

        class _Hash:
            def __init__(self, data=b"") -> None:
                self._digest = hashlib.sha256()
                self.update(data)

            def update(self, data) -> None:
                tracer.count(name, memoryview(data).nbytes)
                self._digest.update(data)

            def hexdigest(self) -> str:
                return self._digest.hexdigest()

            def digest(self) -> bytes:
                return self._digest.digest()

        class _Hashlib:
            sha256 = _Hash

            def __getattr__(self, attribute):
                return getattr(hashlib, attribute)

        replace_references(hashlib, _Hashlib())

    # -------------------------------------------------------------- output

    def snapshot(self) -> dict:
        with self._lock:
            return {"counts": dict(self.counts), "busy": dict(self.busy)}

    def write(self, path: Path, extra: dict | None = None) -> None:
        """Write every span plus the counters (once, at the end of a run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            document = {
                "fields": ["name", "start", "end", "span_id", "parent_id", "request_id"],
                "spans": self.spans,
                "counts": dict(self.counts),
                "busy_s": dict(self.busy),
                "self_s": self._self_times(),
                **(extra or {}),
            }
        path.write_text(json.dumps(document))

    def _self_times(self) -> dict:
        """Span time minus the time its direct children cover, per name."""
        child_time: dict[int, float] = defaultdict(float)
        for _name, start, end, _span_id, parent, _request in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, span_id, _parent, _request in self.spans:
            totals[name] += (end - start) - child_time.get(span_id, 0.0)
        return dict(totals)


def replace_references(original, replacement) -> None:
    """Point every loaded ``repro`` module's references to ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def diff(after: dict, before: dict) -> dict:
    """Counter deltas between two :meth:`Tracer.snapshot` dicts."""
    return {
        section: {
            key: value - before.get(section, {}).get(key, 0.0)
            for key, value in after.get(section, {}).items()
        }
        for section in ("counts", "busy")
    }
