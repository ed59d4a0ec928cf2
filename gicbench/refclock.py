"""Calibrated time: intervals divided by the duration of a fixed reference loop.

The machine this benchmark was tuned on runs the same pure-Python code up to
2.5 times as fast in some seconds as in others, while the process stays on
the CPU.  Dividing every timed interval by a reference loop timed in the
same process, within about a quarter of a second of the interval, cancels
most of that drift.  The unit of the quotient is called `ref`.
"""

from __future__ import annotations

import statistics
import time

#: Seconds after which a calibration sample is taken again.
MAX_AGE_S = 0.25

#: Loop repetitions per calibration sample; their median is the sample.
SAMPLE_REPEATS = 3


def _gf256_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x2 = x << 1
        x = (x2 ^ 0x11B if x2 & 0x100 else x2) ^ x
    return exp, log


_EXP, _LOG = _gf256_tables()
_MATRIX = tuple(tuple((r * 37 + c * 101 + r * c * 13 + 7) & 255 for c in range(16)) for r in range(12))


def _eliminate(rows) -> int:
    """Echelon form over GF(2^8) of the given rows; returns the rank."""
    exp, log = _EXP, _LOG
    basis: dict[int, list[int]] = {}
    for row in rows:
        v = list(row)
        c = 0
        while c < len(v):
            e = v[c]
            if not e:
                c += 1
                continue
            b = basis.get(c)
            if b is None:
                s = 255 - log[e]
                basis[c] = [exp[s + log[x]] if x else 0 for x in v]
                break
            le = log[e]
            v = [x ^ (exp[le + log[y]] if y else 0) for x, y in zip(v, b)]
            c += 1
    return len(basis)


def reference_loop() -> int:
    """Fixed interpreter work of the kind gicast does: Gaussian elimination
    of a fixed 12 x 16 matrix over GF(2^8) with log/antilog tables, which
    tracked the drift of gicast's searches, heuristic and decoding better
    than a tight integer loop did.  Never change it: every `ref` figure is
    relative to it."""
    rank = 0
    for _ in range(12):
        rank = _eliminate(_MATRIX)
    return rank


def sample_reference() -> float:
    """Seconds of one reference loop, as the median of a few repeats."""
    times = []
    for _ in range(SAMPLE_REPEATS):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class RefClock:
    """Keeps a reference-loop sample no older than MAX_AGE_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0
        self._at = float("-inf")

    def warm_up(self) -> None:
        for _ in range(20):
            reference_loop()
        self._take()

    def _take(self) -> None:
        self._last = sample_reference()
        self._at = time.perf_counter()
        self.samples.append(self._last)

    def ref(self) -> float:
        """Current seconds per ref, re-sampled when the last sample is stale."""
        if time.perf_counter() - self._at > MAX_AGE_S:
            self._take()
        return self._last

    def time(self, fn, *args):
        """(result, seconds, seconds per ref) of one call; the ref is the
        mean of the samples taken just before and just after it."""
        r0 = self.ref()
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        r1 = self.ref()
        return out, dt, (r0 + r1) / 2
