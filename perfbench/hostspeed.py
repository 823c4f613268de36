"""Host-speed probe: wall time scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed moves
under it: a fixed pure-Python probe flips between about 1x and 2x its
fast time, for stretches from a fraction of a second to minutes, with
no steal time, so CPU time tracks wall time and medians over one run
cannot remove the drift.  :class:`SpeedClock` measures it alongside
the workload instead.  It times a fixed probe kernel (object, dict,
string, heap and struct work in the interpreter plus small numpy
operations) at every boundary the workload stops at, and scales each
stretch of wall time between two probes by ``(REF_PROBE_S / p) **
sensitivity``, where ``p`` is the mean probe time at the stretch's two
ends.  Probes are not inside any stretch.

``sensitivity`` is the workload's own, one for its set-up and one for
the rest of its run: how far its time moves when the probe's does,
measured as the exponent that makes repeated runs agree best
(:func:`fit_sensitivity`).  Interpreter-bound work slows nearly as much
as the probe; work in numpy's compiled loops or in the kernel's page
fault path (a set-up allocating a large world) slows much less, and
scaling it fully would add the probe's noise instead of removing the
host's.

Nothing in the probe touches the program under test, so a change to
the program moves the scaled times by the same share as the raw ones.
"""

from __future__ import annotations

import gc
import heapq
import math
import statistics
import struct
import time

import numpy as np

#: Typical probe time on the 2-vCPU Xeon VM (Python 3.11, numpy 2.4)
#: the sensitivities were fitted on: the host speed scaled times are
#: expressed at.
REF_PROBE_S = 0.004

_PACK = struct.Struct("<IdQ")


class _Node:
    __slots__ = ("name", "value", "n")

    def __init__(self, name: str, value: float):
        self.name, self.value, self.n = name, value, 0

    def bump(self, dv: float) -> float:
        self.n += 1
        self.value += dv
        return self.value


def kernel(rounds: int = 4) -> int:
    """A fixed amount of mixed interpreter and numpy work."""
    acc = 0
    arr = np.arange(256, dtype=np.float64)
    for r in range(rounds):
        nodes = {f"n{i}/m{i % 7}": _Node(f"n{i}", float(i))
                 for i in range(300)}
        heap: list[tuple[float, int]] = []
        for i, (key, node) in enumerate(nodes.items()):
            heapq.heappush(heap, (node.bump(0.5 * r), i))
            line = f"{key} {node.value:.3f} {node.n}"
            acc += len(line.split()[0])
            acc += _PACK.unpack(_PACK.pack(i, node.value, node.n))[0]
        while heap:
            acc += heapq.heappop(heap)[1] & 3
        acc += len(sorted(nodes, key=len)[0])
        for _ in range(20):
            arr = np.sqrt(arr * 1.0001 + 1.0)
        acc += int(arr[-1])
    return acc


def probe(tries: int = 3) -> float:
    """Seconds one :func:`kernel` call takes now: the fastest of
    ``tries``, so one interrupt does not read as a slow host.  The
    cyclic collector is paused, so a probe never pays for collecting
    the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(tries):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(p_before: float, p_after: float, sensitivity: float) -> float:
    """Factor from raw wall time to the reference host speed for a
    stretch between probes ``p_before`` and ``p_after``."""
    return (REF_PROBE_S / (0.5 * (p_before + p_after))) ** sensitivity


class SpeedClock:
    """Wall time of the stretches between :meth:`lap` calls, raw and
    scaled to the reference host speed.

    Construction takes the first probe and starts the first stretch;
    each :meth:`lap` ends the current stretch, takes a probe and starts
    the next.  :meth:`skip` restarts the current stretch without a
    probe, leaving out what ran since the last lap.
    """

    def __init__(self, clock=time.perf_counter, probe=probe):
        self._clock, self._probe = clock, probe
        kernel()  # warm-up: first-call allocations, numpy dispatch caches
        self.probes = [self._probe()]
        #: (raw seconds, probe before, probe after) per stretch
        self.stretches: list[tuple[float, float, float]] = []
        self._t = self._clock()

    def lap(self, sensitivity: float) -> tuple[float, float]:
        """(raw, scaled) seconds of the stretch since the last lap, for
        work of the given sensitivity."""
        raw = self._clock() - self._t
        self.probes.append(self._probe())
        self._t = self._clock()
        before, after = self.probes[-2], self.probes[-1]
        self.stretches.append((raw, before, after))
        return raw, raw * scale(before, after, sensitivity)

    def skip(self) -> None:
        self._t = self._clock()


def fit_sensitivity(runs: list[list[tuple[float, float, float]]],
                    steps: int = 20) -> float:
    """The sensitivity in ``0, 1/steps, ..., 1`` under which the scaled
    totals of repeated runs of one workload (each a list of
    :attr:`SpeedClock.stretches`) have the smallest standard deviation
    of their logarithms; the smallest such sensitivity on ties."""
    def spread(sensitivity: float) -> float:
        return statistics.stdev(
            math.log(sum(raw * scale(a, b, sensitivity)
                         for raw, a, b in run))
            for run in runs)

    return min((spread(i / steps), i / steps) for i in range(steps + 1))[1]
