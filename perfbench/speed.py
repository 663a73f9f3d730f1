"""How fast this process's core runs, sampled while the program works.

On a shared host a vCPU's core is intermittently shared with another
tenant: fixed Python work then runs about 1.7-2x slower, in episodes of
seconds to minutes, with no counter inside the guest that shows it (no
steal time, no hardware performance counters). Wall time over a run
moves with those episodes, not with the program.

``SpeedProbe`` times a fixed kernel from a SIGALRM handler
every ``INTERVAL_S`` of wall time, so the samples interleave with the
program's own work on the same core. A stretch of wall time ``w`` in
which probes took ``p_1 .. p_n`` is worth

    ref_s = w * mean(NOMINAL_S / p_i)

seconds on a reference core that runs the kernel in ``NOMINAL_S``: each
interval counts in proportion to the speed seen in it (the harmonic mean,
since samples are evenly spaced in wall time). The probe is the
benchmark's own code, so a change to the program cannot change it, and
the time spent in probes is taken out of ``w``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05      # one probe per 50 ms of wall time
NOMINAL_S = 0.001      # kernel time on the reference core
_ROUNDS = 2000
_ANGLES = np.linspace(0.1, 3.0, 1024)

_clock = time.perf_counter


def kernel():
    """Fixed work of the program's two kinds, in about equal time:
    interpreter work (dict lookups, float arithmetic, small lists) and
    vectorised trigonometry like the antenna kernel's. Contention slows the
    second more (about 1.8x against 1.45x here), so a probe of only one
    kind misjudges workloads dominated by the other."""
    table = {}
    acc = 0.0
    for i in range(_ROUNDS):
        k = i & 31
        table[k] = table.get(k, 0.0) * 0.5 + i
        acc += table[k] / (k + 1.0)
        if k == 0:
            acc = sum([acc, float(i)]) * 0.5
    for _ in range(8):
        z = np.exp(1j * np.pi * np.cos(_ANGLES)) * np.sin(_ANGLES)
        acc += float((z.real ** 2).sum())
    return acc


class SpeedProbe:
    """Probe samples taken while running; use as a context manager.

    ``samples`` holds each probe's duration in seconds. A probe runs at
    entry and at exit too, so even a block shorter than one interval has
    samples. Nested or concurrent use is not supported: the handler owns
    SIGALRM for the block's duration.
    """

    def __init__(self):
        self.samples = []

    def _probe(self, *_):
        t0 = _clock()
        kernel()
        self.samples.append(_clock() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def probe_s(self):
        return sum(self.samples)


def ref_seconds(wall_s, samples):
    """``wall_s`` (probe time already removed) in reference-core seconds."""
    return wall_s * sum(NOMINAL_S / p for p in samples) / len(samples)
