"""Machine-speed probe: times a fixed reference kernel while a pass runs, so a
pass's wall time can be rescaled to a nominal machine speed.

The machine this benchmark runs on is shared: for seconds to minutes at a time
the same code runs up to 1.5x slower (see README.md, "Steadiness"). A pass's
time alone then follows the load of the host more than the program. The probe
runs a reference kernel about every PERIOD_S seconds on a SIGALRM timer, in
the benchmark's own process and thread, between the pass's Python bytecodes.
Each stretch of the pass between two samples is rescaled by
NOMINAL_REF_S / (the reference time measured at its start):

    adjusted = sum over stretches of  stretch_wall * NOMINAL_REF_S / ref

The kernel is the kind of work the workloads do: numpy arithmetic on
1000-point arrays (squeeze's integrand nodes) and one 192 x 192 matrix
product (signalling's and ensembles' BLAS). Its own time is left out of both
the raw and the adjusted pass time. The kernel never calls numpy.linalg or
anything the traced run wraps, and the traced run does not use the probe.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.05
# The kernel's time on an idle development machine (2-vCPU Xeon KVM guest,
# numpy 2.4.6, OpenBLAS 0.3.31 on 1 thread): the 5th percentile of ~5000
# samples taken during passes. Adjusted seconds are seconds at this speed.
NOMINAL_REF_S = 0.65e-3


@dataclass
class Timing:
    wall_s: float      # wall time of the block, the probe's own time left out
    cpu_s: float       # process CPU time of the block, the probe's own left out
    adjusted_s: float  # wall_s rescaled to NOMINAL_REF_S, stretch by stretch
    samples: int       # reference samples taken in the block

    @property
    def speed(self) -> float:
        """Nominal over measured speed of the block: wall_s / adjusted_s."""
        return self.wall_s / self.adjusted_s


class SpeedProbe:
    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self._x = np.linspace(0.0, 1.0, 1000)
        self._m = np.random.default_rng(0).standard_normal((192, 192))
        # (start, end, cpu spent, reference seconds) per sample
        self._samples: list[tuple[float, float, float, float]] = []
        self._busy = True  # no sampling outside SpeedProbe.time
        self.reference()  # first touch and BLAS start-up, untimed
        # installed for the life of the process, so that an alarm that lands
        # after the timer is disarmed meets this handler and not SIG_DFL
        signal.signal(signal.SIGALRM, self._on_alarm)

    def reference(self) -> float:
        """Run the reference kernel once and return its wall seconds."""
        start = time.perf_counter()
        for i in range(15):
            (np.exp(-self._x * i) * np.sin(self._x)).sum()
        self._m @ self._m
        return time.perf_counter() - start

    def median_reference(self, repeats: int = 5) -> float:
        return statistics.median(self.reference() for _ in range(repeats))

    def _sample(self) -> None:
        cpu = time.process_time()
        start = time.perf_counter()
        ref = self.reference()
        self._samples.append((start, time.perf_counter(), time.process_time() - cpu, ref))

    def _on_alarm(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def time(self, fn, *args) -> Timing:
        """Call fn(*args) with the probe sampling, and time it."""
        self._samples = []
        cpu0 = time.process_time()
        self._sample()
        self._busy = False
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            fn(*args)
        finally:
            self._busy = True
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            end = time.perf_counter()
            cpu = time.process_time() - cpu0
        samples = self._samples
        starts = [s[0] for s in samples[1:]] + [end]
        stretches = [nxt - s[1] for s, nxt in zip(samples, starts)]
        adjusted = sum(w * NOMINAL_REF_S / s[3] for w, s in zip(stretches, samples))
        cpu -= sum(s[2] for s in samples)
        return Timing(sum(stretches), cpu, adjusted, len(samples))
