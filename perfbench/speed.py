"""Scales measured times to a fixed reference speed of the host.

The benchmark host is a 2-vCPU VM on a shared machine, and the speed it gives
one process swings by up to 1.7 times within seconds: a fixed pure-Python loop
took 2.0 ms of CPU time in one 4.5 s window and 3.4 ms in the next. Over
twenty such windows the CPU time of `arc_length` and of an `oracle-diff`
request varied with a coefficient of variation of 22-25%, but their ratio to
the loop's time only by 5%, because the swings slow all code alike.

So the worker times that loop between requests, about every ``EVERY_S`` of
timed work, and multiplies each request's CPU time by ``NOMINAL_S`` over the
median of the last three loop times. The loop shares no code with the
program, so a change to the program cannot move it. Reported times are
therefore "CPU time at the reference speed": the time the request would take
when the loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import process_time

LOOP_ITERATIONS = 20_000
NOMINAL_S = 0.002  # the loop's CPU time the reported times are scaled to
EVERY_S = 0.05  # timed CPU seconds between two samples of the loop


def reference_loop() -> float:
    """A fixed amount of interpreter work, independent of the program."""
    s = 0.0
    for i in range(LOOP_ITERATIONS):
        s += (i * 0.5) ** 0.5
    return s


class Speed:
    """Samples the reference loop and turns raw CPU times into scaled ones."""

    def __init__(self, every: float = EVERY_S):
        self.every = every
        self.recent: deque[float] = deque(maxlen=3)
        self.samples: list[float] = []
        self._due = 0.0
        for _ in range(3):
            self._sample()

    def _sample(self) -> None:
        t0 = process_time()
        reference_loop()
        loop_s = process_time() - t0
        self.recent.append(loop_s)
        self.samples.append(loop_s)
        self._due = self.every

    def factor(self) -> float:
        """The scale for the next timed interval; samples the loop first when due."""
        if self._due <= 0.0:
            self._sample()
        return NOMINAL_S / statistics.median(self.recent)

    def spent(self, raw_s: float) -> None:
        """Count raw timed CPU seconds towards the next sample."""
        self._due -= raw_s

    def summary(self) -> dict[str, float]:
        return {"loop_median_s": statistics.median(self.samples), "loop_samples": len(self.samples),
                "nominal_s": NOMINAL_S}
