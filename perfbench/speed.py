"""The machine's speed at a moment, from a fixed pure-Python reference loop.

On a shared host the same work can take 20% longer from one second to the
next, and up to 45% longer from one minute to the next.  The benchmark
times its work in segments of about SEGMENT_S (and each set-up as one
segment), times this loop between segments, and scales each segment by
REFERENCE_S / (the loop's time around it), so that its figures follow
etcrit rather than the host.  etcrit, like this loop, spends its time in
the Python interpreter.
"""

from __future__ import annotations

import math
import time

# About the median time of one reference_loop() on the machine the README's
# figures come from; it fixes the unit of the scaled times, nothing else.
REFERENCE_S = 0.012
SEGMENT_S = 0.1


def _step(x: float, i: int) -> float:
    return (x * 0.5 + math.exp(-1e-3 * i)) % 7.0


def reference_loop() -> float:
    """A fixed amount of interpreted work: calls, float arithmetic, exp."""
    x = 0.0
    for i in range(60000):
        x = _step(x, i)
    return x


def loop_s() -> float:
    """Wall time of one reference_loop() now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class ScaledClock:
    """Times a stretch of work segment by segment.

    Call `start`, then `between` after each operation, then `stop`.  A
    segment closes at the first `between` after SEGMENT_S has passed, and
    the reference loop runs there, outside the timed segments.
    """

    def __init__(self):
        self._loop = loop_s()
        self._raw = self._scaled = self._segment = 0.0

    def start(self) -> None:
        self._raw = self._scaled = 0.0
        self._segment = time.perf_counter()

    def between(self) -> None:
        if time.perf_counter() - self._segment >= SEGMENT_S:
            self._close()

    def stop(self):
        """(wall time, scaled time) of the work since `start`."""
        self._close()
        return self._raw, self._scaled

    def _close(self) -> None:
        elapsed = time.perf_counter() - self._segment
        loop = loop_s()
        self._raw += elapsed
        self._scaled += elapsed * REFERENCE_S / (0.5 * (self._loop + loop))
        self._loop = loop
        self._segment = time.perf_counter()
