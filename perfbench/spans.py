"""In-memory spans for the traced run.

A span is a name, a start and an end on ``time.perf_counter``, the span
that caused it and a few attributes.  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def open(self, name: str, parent: int | None = None, **attrs) -> Span:
        with self._lock:
            span = Span(next(self._ids), parent, name, time.perf_counter(), attrs=attrs)
            self.spans.append(span)
        return span

    @staticmethod
    def close(span: Span, **attrs) -> Span:
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        return span

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
