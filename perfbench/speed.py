"""Machine speed, sampled with a fixed reference loop while work runs.

The host's speed drifts by tens of percent over seconds to minutes (its cores
are shared), and seplane's requests slow down with it. While a ``Speed`` is
active, a timer signal runs the reference loop every SAMPLE_PERIOD_S of wall
time. The loop steps a small ODE with 2-element numpy arrays, the pattern of
seplane's rhs and stepper, but does not use seplane: ``seconds × factor``
cancels the drift while a change to seplane still moves it in full. Times
scaled so are "seconds at the nominal speed". A pure float loop tracked the
drift worse: it slowed less than seplane under contention.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

NOMINAL_S = 0.0013      # one reference() on the 2-core machine the bounds were set on
SAMPLE_PERIOD_S = 0.03  # about 4 % of the wall time goes to the reference


def _rhs(s: np.ndarray) -> np.ndarray:
    w, y = s[0], s[1]
    return np.array([y, (0.5 * w**3 - math.copysign(abs(w) ** 2.5, w) * math.hypot(w, y))
                     / (w * w + 1.5 * y * y)])


def reference() -> float:
    """Seconds for 300 midpoint steps of a fixed planar ODE."""
    t0 = time.perf_counter()
    s = np.array([0.4, 0.3])
    for _ in range(300):
        s = s + 1e-3 * _rhs(s + 5e-4 * _rhs(s))
    return time.perf_counter() - t0


class Speed:
    """Context manager that samples the reference loop on SIGALRM.

    ``spent`` is the time the samples took; a caller timing an interval
    inside the context subtracts the growth of ``spent`` over it.
    """

    def __init__(self):
        self.spent = 0.0
        self.count = 0
        self._previous = None

    def sample(self) -> None:
        self.spent += reference()
        self.count += 1

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def factor(self) -> float:
        """Nominal over measured reference time; 1 before any sample."""
        return NOMINAL_S * self.count / self.spent if self.count else 1.0

    def factor_since(self, spent: float, count: int) -> float:
        """Factor of the samples taken since ``spent`` and ``count`` were
        read; the overall factor if there were none."""
        if self.count == count:
            return self.factor
        return NOMINAL_S * (self.count - count) / (self.spent - spent)
