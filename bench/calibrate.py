"""How fast the core runs now: a fixed pure-Python loop timed between ops.

On a shared virtual machine the speed of a core changes by a third from
one minute to the next, with what the host runs beside it.  CPU time
leaves out the moments the host runs someone else, but not a core that
runs slower.  So the benchmark times this loop after every op, for about
``SHARE`` of the op's own CPU time, and scales the op times of each round
by ``REF_S`` over the median loop time of that round.  A scaled time is
the time the op would take on a core where the loop takes ``REF_S``; it
moves with gtmprod's own cost and hardly with the neighbours'.

The loop touches no gtmprod code, so a change to gtmprod cannot move it.
"""

from __future__ import annotations

import statistics
from time import process_time

REF_S = 2.5e-3  # the loop's CPU time on the reference core
SHARE = 0.05
LOOP = 30_000


def probe_s() -> float:
    """CPU seconds of one pass of the fixed loop."""
    t = process_time()
    s = 0
    for j in range(LOOP):
        s += j * j % 7
    return process_time() - t


class Probes:
    """Loop times taken during one round."""

    def __init__(self):
        self.samples: list[float] = []

    def after(self, op_s: float):
        """Time the loop for about ``SHARE`` of ``op_s``, at least once."""
        spent = 0.0
        while True:
            x = probe_s()
            self.samples.append(x)
            spent += x
            if spent >= SHARE * op_s:
                return

    def scale(self) -> float:
        """REF_S over the median loop time (timing the loop now if the round took none)."""
        if not self.samples:
            self.after(0.0)
        return REF_S / statistics.median(self.samples)
