"""A calibrated clock for a machine whose speed drifts.

On a shared virtual machine the speed of one core can drift by 30% or more
over seconds to minutes, for every process at once, and not by the same
factor for every kind of work.  The calibrated clock scales each wall-clock
interval by the speed of the machine at that moment, measured by two fixed
reference computations that run between ops at most every ``INTERVAL``
seconds: one of interpreted Python and many small numpy calls, like a small
op, and one of dense linear algebra, like a large op.  An interval of
``seconds`` is scaled by a blend of the two, weighted toward the dense
reference as it grows past ``SPLIT``.  A calibrated second is the time the
interval would take on a machine that runs the references in ``NOMINAL``
seconds.
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL = 0.25
SPLIT = 0.02
NOMINAL = (2e-3, 1e-3)  # small-call reference, dense reference


class Clock:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
        self._dense = a
        self._herm = a[:48, :48] + a[:48, :48].conj().T
        self._small = a[:4, :4]
        self._last = -np.inf
        self.ref = self.reference()

    def _small_calls(self) -> None:
        total = 0
        for i in range(1500):
            total += i * i
        for _ in range(60):
            m = np.kron(self._small, self._small[:2, :2])
            float(np.max(np.abs(m @ m.conj().T)))
        np.linalg.eigvalsh(self._herm)

    def _dense_algebra(self) -> None:
        b = self._dense @ self._dense
        np.linalg.eigvalsh(b + b.conj().T)

    def reference(self) -> tuple[float, float]:
        """Seconds each reference computation takes now (fastest of three)."""
        out = []
        for kernel in (self._small_calls, self._dense_algebra):
            best = np.inf
            for _ in range(3):
                start = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - start)
            out.append(best)
        self._last = time.perf_counter()
        return out[0], out[1]

    def fresh(self) -> tuple[float, float]:
        """Reference times, re-measured when the last are older than INTERVAL."""
        if time.perf_counter() - self._last > INTERVAL:
            self.ref = self.reference()
        return self.ref

    def calibrate(self, seconds: float, ref_before: tuple[float, float]) -> float:
        """Calibrated length of an interval that started at reference times
        ``ref_before``; a long interval also uses the references after it."""
        small, dense = ref_before
        if seconds > INTERVAL:
            after = self.fresh()
            small, dense = (small + after[0]) / 2, (dense + after[1]) / 2
        w = seconds / (seconds + SPLIT)
        return seconds * ((1 - w) * NOMINAL[0] / small + w * NOMINAL[1] / dense)
