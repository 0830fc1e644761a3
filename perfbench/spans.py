"""In-memory span recorder for the traced benchmark run.

Wrappers are set on module and class attributes from the benchmark's side,
around the public functions that solve() calls. A wrapped call records a
span only while a root span is open, so the benchmark's own output checks,
which call the same functions, stay out of the trace. A span's layer is
the part of its name before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    start: int  # time.perf_counter_ns()
    end: int
    parent: Optional[int]
    request: int  # id of the root span this span belongs to

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.absent: dict = {}  # span name -> why it could not be wrapped
        self._open: list = []
        self._restore: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter_ns(),
            end=0,
            parent=parent.id if parent else None,
            request=parent.request if parent else len(self.spans),
        )
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str) -> bool:
        """Replace owner.attr by a recording wrapper. A missing attribute
        is noted in `absent` instead of raising."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent[name] = f"{getattr(owner, '__name__', owner)}.{attr} not found"
            return False

        def wrapper(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))
        return True

    def unwrap_all(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> dict:
        """Span id -> duration minus the part of it covered by child spans."""
        children = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                children[sp.parent].append(sp)
        out = {}
        for sp in self.spans:
            covered = 0
            cursor = sp.start
            for ch in sorted(children[sp.id], key=lambda c: c.start):
                lo = max(ch.start, cursor)
                hi = min(ch.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[sp.id] = sp.duration - covered
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(sp) for sp in self.spans], fh)
