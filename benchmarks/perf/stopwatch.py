"""Wall and CPU time in laps, reported at a reference machine speed.

The sandbox's speed drifts by tens of percent over tens of seconds (the
README has the numbers), slower than a run is long, so no estimator inside
a run makes raw seconds of one commit repeat.  A :class:`Stopwatch`
therefore closes every lap with ``calibrate()`` — a fixed piece of
interpreter work that holds none of the program's code — and reports the
lap as

    raw seconds ÷ (mean of the two calibrations around it ÷ REFERENCE_CALIBRATION_S)

that is, in seconds at the speed at which ``calibrate()`` takes 45 ms.
Workloads close a lap at every natural boundary of their own loops (a leg, a
round, 32 AutoTag calls): the denser the calibrations, the better they track
the drift.  Calibration time is never inside a lap.
"""

from __future__ import annotations

import heapq
import resource
import time
from typing import Dict, List, NamedTuple, Optional

#: seconds one ``calibrate()`` takes on the reference box when it is quiet
REFERENCE_CALIBRATION_S = 0.045

_DELAYS = [((index * 7919) % 10007) / 10007.0 for index in range(50_000)]
_LEFT = {index: float(index % 13) for index in range(0, 3000, 2)}
_RIGHT = {index: float(index % 7) for index in range(0, 3000, 3)}


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work: integer arithmetic, a
    dict-based sparse dot product, heap pushes and pops — what the program's
    hot loops are made of and nothing of the program itself, so a change to
    ``src/`` cannot move it."""
    start = time.perf_counter()
    total = 0
    for index in range(360_000):
        total += index * index
    left, right = _LEFT, _RIGHT
    for _ in range(230):
        sum(value * right[key] for key, value in left.items() if key in right)
    heap: List[float] = []
    for delay in _DELAYS:
        heapq.heappush(heap, delay)
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Split(NamedTuple):
    """Totals of the laps since the previous split."""

    seconds: float      # wall, at the reference speed
    cpu_seconds: float  # CPU, at the reference speed
    raw_seconds: float  # wall, as the clock read it


class Stopwatch:
    """Laps of wall and CPU time; ``calibrated=False`` reports raw seconds
    (the traced unit is calibrated around its window, not inside it)."""

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        #: label -> seconds of the laps closed under that label
        self.phases: Dict[str, float] = {}
        self._mark = REFERENCE_CALIBRATION_S
        self._totals = [0.0, 0.0, 0.0]
        self._wall_from = self._cpu_from = 0.0

    def _open(self) -> None:
        self._cpu_from = cpu_seconds()
        self._wall_from = time.perf_counter()

    def start(self) -> None:
        if self.calibrated:
            self._mark = calibrate()
        self._open()

    def lap(self, label: Optional[str] = None) -> float:
        """Close the running lap (under ``label``, if given), open the next;
        returns the lap's slowdown against the reference speed."""
        wall = time.perf_counter() - self._wall_from
        cpu = cpu_seconds() - self._cpu_from
        slowdown = 1.0
        if self.calibrated:
            mark = calibrate()
            slowdown = (self._mark + mark) / 2.0 / REFERENCE_CALIBRATION_S
            self._mark = mark
        totals = self._totals
        totals[0] += wall / slowdown
        totals[1] += cpu / slowdown
        totals[2] += wall
        if label is not None:
            self.phases[label] = self.phases.get(label, 0.0) + wall / slowdown
        self._open()
        return slowdown

    def split(self) -> Split:
        """Totals of the laps closed since the last split (a phase ends by
        closing its last lap itself)."""
        totals, self._totals = self._totals, [0.0, 0.0, 0.0]
        return Split(*totals)
