"""Machine-speed calibration of the timed sections.

On a shared host the machine's own speed drifts by 20–40 % over tens of
seconds, whatever runs: a slow phase stretches every repetition of a
unit, so taking each unit's fastest repetition does not remove it.  A
fixed stdlib-only workload (a JSON round trip, a sort and an integer
fixed-point loop, the same kinds of work the program does) is timed in
*slots* interleaved with the units, and each slot keeps its fastest
repetition, just as each unit does.  The slots' summed fastest time
against :data:`REFERENCE_S` gives the run's speed, and the end-to-end
times are reported at the reference speed::

    time at reference = measured time × REFERENCE_S / calibration time

The calibration code is fixed in this directory, so it runs the same on
every tree: two trees measured at different machine speeds compare as if
measured at one.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter
from typing import List

#: slots per calibration block; a workload runs about one block per pass
SLOTS = 100

#: summed fastest slot times (s) on the reference machine, a 2-CPU
#: container with python 3.11 at its usual speed
REFERENCE_S = 0.013

_DOC = json.dumps({"masters": [
    {"address": a, "streams": [
        {"name": f"s{a}.{k}", "T": 1000 + 37 * k, "D": 900 + 11 * k, "C": 40 + k}
        for k in range(6)]}
    for a in range(4)]})


def work() -> int:
    """One slot's work: about 0.1 ms."""
    doc = json.loads(_DOC)
    total = 0
    for master in doc["masters"]:
        streams = sorted(master["streams"], key=lambda s: (s["D"], s["name"]))
        for s in streams:
            x = s["C"]
            for _ in range(4):
                x = s["C"] + sum(-(-x // o["T"]) * o["C"]
                                 for o in streams if o is not s)
            total += x
    return total + len(json.dumps(doc))


class Calibration:
    """Fastest time of each of :data:`SLOTS` calibration slots."""

    def __init__(self) -> None:
        self.best: List[float] = [float("inf")] * SLOTS
        self.ticks = 0

    def tick(self, count: int = 1) -> None:
        """Time the next ``count`` slots (round robin).  The collector
        is off meanwhile: its pauses grow with the heap the program
        under test keeps, and must not move the measured speed."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                k = self.ticks % SLOTS
                self.ticks += 1
                t0 = perf_counter()
                work()
                self.best[k] = min(self.best[k], perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def seconds(self) -> float:
        """Summed fastest slot times (timing any slot not yet run)."""
        if self.ticks < SLOTS:
            self.tick(SLOTS - self.ticks)
        return sum(self.best)

    def scale(self) -> float:
        """Factor from measured times to times at the reference speed
        (above 1 when this machine runs faster than the reference)."""
        return REFERENCE_S / self.seconds()
