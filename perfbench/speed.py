"""CPU-speed probe that rescales measured times to a reference speed.

On a shared machine the CPU a pass runs on slows down, often twice over,
for stretches of seconds while neighbours load it, so raw wall times of
identical passes differ by 20% and more.  A Probe runs a fixed pure-Python
loop from a SIGALRM handler every INTERVAL_S seconds while a step runs,
in the same process and on the same CPU, and once more when the step
ends.  REF_PROBE_S / (probe time) is the speed at that moment relative
to the reference; the mean of it over the step estimates the work done
per second, so

    rescaled seconds = (step seconds - probe seconds) * mean(REF / probe)

is the time the step would take at reference speed.  The probe adds
about 0.3% to a step and its own time is subtracted.

Process CPU time is no substitute: the slowdown comes from the host and
is charged to the process, so on a shared 2-vCPU x86-64 VM CPU time tracked
wall time within 0.3% in every pass, and over ten verify runs its
quartile spread was 29% of the median against 5% for rescaled time.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.05
# Probe time at reference speed: the median probe on an unloaded vCPU of
# the 2-vCPU x86-64 sandbox (Python 3.11) the benchmark was written on.
REF_PROBE_S = 130e-6

_BIG = (1 << 400) // 3  # a bitset the size of a small graph's adjacency row


class _Table:
    def __init__(self):
        self.rows = [[(a * b) & 7 for b in range(8)] for a in range(8)]

    def lookup(self, a: int, b: int) -> int:
        return self.rows[a][b]


_table = _Table()
_slots: dict[int, int] = {}


def probe_seconds() -> float:
    """Time one fixed loop mixing the program's kinds of work: big-int
    bitset operations, tuples, method calls, nested lists and dicts."""
    t = perf_counter()
    acc = 0
    big = _BIG
    for i in range(300):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= (big & (big >> (i & 63))).bit_count()
        row = (x & 7, acc & 7, i & 7)
        acc += _table.lookup(row[0], row[1])
        _slots[i & 255] = acc
    return perf_counter() - t


class Probe:
    """Samples speed while active; use `with probe:` around a timed step."""

    def __init__(self, on_sample=None):
        self.on_sample = on_sample  # called with each probe's seconds
        self.samples = 0
        self.speed_sum = 0.0
        self.spent_s = 0.0

    def sample(self) -> None:
        d = probe_seconds()
        self.samples += 1
        self.speed_sum += REF_PROBE_S / d
        self.spent_s += d
        if self.on_sample is not None:
            self.on_sample(d)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self.samples, self.speed_sum, self.spent_s = 0, 0.0, 0.0
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def rescale(self, seconds: float) -> tuple[float, float]:
        """(raw, rescaled) seconds of a step measured under this probe.

        Call after the `with` block; takes one more sample first, so a
        step shorter than INTERVAL_S still gets a speed estimate.
        """
        raw = seconds - self.spent_s
        self.sample()
        return raw, raw * self.speed_sum / self.samples
