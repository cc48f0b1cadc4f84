"""Host-speed probe: a fixed piece of pure-Python work, timed.

On a shared VM, identical work can run up to 2x slower for stretches of
seconds to minutes, with CPU time tracking wall time, so the slowdown comes
from the host.  The benchmark runs :func:`probe` between operations and
scales each operation's wall time by ``REFERENCE_NS / probe time``: timings
then read as on a host where one probe takes exactly ``REFERENCE_NS``.  The
probe exercises what the solver spends its time on (``Fraction``
arithmetic, tuple iteration, generator expressions) and never changes, so
two commits measured on the same host compare directly.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_NS = 1_000_000

_ROWS = tuple(tuple(Fraction(7 * i + j, j + 1) for j in range(6)) for i in range(6))


def probe() -> int:
    """Wall time of the fixed work, in ns."""
    start = time.perf_counter_ns()
    acc = Fraction(0)
    for r in _ROWS:
        for c in _ROWS:
            if all(a >= b for a, b in zip(r, c)):
                acc += 1
            acc += sum(a * b for a, b in zip(r, c)) / 7
    return time.perf_counter_ns() - start


class ScaledClock:
    """Collects operation times, raw and scaled to the reference host speed.

    A probe runs whenever ``every_ns`` has passed since the last one, outside
    the operations' timed region.  An operation is scaled by the median of
    the ``2 * half_window`` probes around it, which follows the host's slow
    and fast stretches but not the jitter of a single probe.
    """

    def __init__(self, every_ns: int = 25_000_000, half_window: int = 4) -> None:
        self.every_ns = every_ns
        self.half_window = half_window
        self.raw: list[int] = []
        self.probes: list[int] = [probe()]
        self._next_probe: list[int] = []  # per operation: index of the probe after it
        self._since = time.perf_counter_ns()

    def add(self, ns: int) -> None:
        self.raw.append(ns)
        self._next_probe.append(len(self.probes))
        if time.perf_counter_ns() - self._since >= self.every_ns:
            self.flush()

    def flush(self) -> None:
        """Probe now; call once more after the last operation."""
        self.probes.append(probe())
        self._since = time.perf_counter_ns()

    @property
    def scaled(self) -> list[float]:
        half = self.half_window
        reference = [
            statistics.median(self.probes[max(0, j - half):j + half])
            for j in range(len(self.probes))
        ]
        return [ns * REFERENCE_NS / reference[j] for ns, j in zip(self.raw, self._next_probe)]

    @property
    def speed(self) -> float:
        """Host speed relative to the reference: > 1 is faster."""
        return REFERENCE_NS / statistics.median(self.probes)
