"""Host speed reference, for scaling wall times to one nominal host speed.

The benchmark runs on shared virtual machines whose speed changes by a
third or more for a minute or longer, longer than a run. So each timed
unit (a stage process, a world, a set-up) is bracketed by timings of a
fixed pure-Python loop, and its time is scaled by them:

    scaled = wall * NOMINAL_S / mean(loop before, loop after)

that is, the wall time the unit would take on a host where the loop takes
``NOMINAL_S``. The loop never touches the package, so a change to the
package cannot move it. It must run for a tenth of a second or more: a
shorter loop follows sub-second blips that the unit around it averages
out. Standard library only: run.py imports it.
"""

from __future__ import annotations

import time

#: The loop's time on a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11, in
#: its fast spells; scaled times read as wall times there.
NOMINAL_S = 0.085
LOOP_N = 1_500_000


def sample() -> float:
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOP_N):
        total += i * i
    return time.perf_counter() - t0


class Clock:
    """Scales successive timed units by the loop timings around them.

    Takes the first timing on construction; each ``scale`` call times the
    loop again, so one timing closes a unit and opens the next.
    """

    def __init__(self) -> None:
        self.last = sample()
        self.factors: list[float] = []

    def scale(self, seconds: float) -> float:
        now = sample()
        factor = NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return seconds * factor
