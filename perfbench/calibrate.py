"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by tens of percent within
seconds as neighbours load the machine. The benchmark times a fixed kernel
right before and right after every CLI call and scales the call's wall
time by ``REFERENCE_S / kernel time``. The kernel is a Dijkstra search with
tuple labels on a fixed random graph, the same mix of heap, tuple and list
work as the solver's inner loop, so it slows down with the solver when the
machine does. The kernel belongs to the benchmark and never changes with
the package: a change to sspflow moves a calibrated time exactly as it
moves the wall time at a fixed machine speed.

The kernel runs in a helper process that inherits the benchmark's core, so
nothing the package leaves in the benchmark's interpreter (a large live
heap, changed gc thresholds) can move the scale. Run as a script, this file
is that helper: each line on stdin asks for one sample.
"""

from __future__ import annotations

import gc
import heapq
import random
import subprocess
import sys
import time

# Calibrated times are the wall times of a machine on which one kernel
# sample takes this long, about what an idle core of the machine named in
# reference.json needs.
REFERENCE_S = 0.015
_NODES = 400
_DEGREE = 8
_SEARCHES = 24
_SAMPLES = 2
_SEED = 20150121


class _Kernel:
    def __init__(self):
        rng = random.Random(_SEED)
        self._adj = [
            [(rng.randrange(_NODES), rng.random()) for _ in range(_DEGREE)]
            for _ in range(_NODES)
        ]

    def _search(self) -> None:
        dist = [float("inf")] * _NODES
        done = [False] * _NODES
        dist[0] = 0.0
        heap = [(0.0, 0, (), 0)]
        while heap:
            d, hops, seq, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, cost in self._adj[u]:
                cand = d + cost
                if cand < dist[v]:
                    dist[v] = cand
                    heapq.heappush(heap, (cand, hops + 1, seq + (v,), v))

    def sample(self) -> float:
        """Fastest of a few kernel runs, in seconds."""
        gc.collect()
        best = float("inf")
        for _ in range(_SAMPLES):
            started = time.perf_counter()
            for _ in range(_SEARCHES):
                self._search()
            best = min(best, time.perf_counter() - started)
        return best


class Calibrator:
    """Client of the helper process; use it as a context manager, so that
    the helper is stopped and waited for."""

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.last: float | None = None

    def __enter__(self) -> Calibrator:
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()

    def sample(self) -> float:
        """One kernel sample, in seconds; also kept as ``last``."""
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        self.last = float(self._helper.stdout.readline())
        return self.last

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a wall time measured between two samples into
        a calibrated time."""
        return REFERENCE_S / ((before + after) / 2.0)


def _serve() -> None:
    kernel = _Kernel()
    for _ in sys.stdin:
        print(repr(kernel.sample()), flush=True)


if __name__ == "__main__":
    _serve()
