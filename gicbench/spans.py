"""In-memory spans around calls into gicast, written out when the run ends."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class SpanLog:
    """Rows of [name, start_s, end_s, parent_index, op_id, seconds_per_ref];
    parent_index is -1 for a root span."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), 0.0, parent, self.op_id, 0.0]
        self.rows.append(row)
        self._stack.append(idx)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def calibrate(self, since: int, seconds_per_ref: float) -> None:
        for row in self.rows[since:]:
            row[5] = seconds_per_ref

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "op", "s_per_ref"], "spans": self.rows}, fh)
