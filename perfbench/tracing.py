"""In-memory spans around the layer functions the CLI calls.

The tracer replaces a function by a timing wrapper through the module
attribute its caller looks up (``qvnn.cli.build_sdp``, ...), so the program
itself is unchanged. A span records its name, start, end, parent and thread.
Recording is safe under the ``cmd_simulate`` thread pool: each thread keeps
its own stack of open spans, and a span opened in a thread with an empty
stack hangs under the open root span (the CLI call). A function that no
longer exists is listed in ``missing`` and its metrics are left out.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        if root:
            self._root = span_id
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident()))

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(name)
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, span: Span) -> float:
        """The span's duration less the part its child spans cover."""
        covered = union_seconds([(max(c.start, span.start), min(c.end, span.end))
                                 for c in self.children(span)])
        return span.seconds - covered

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]


def union_seconds(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
