"""Host-speed probes that make timings comparable across a noisy host.

The machine this benchmark was written on is a 2-vCPU VM whose speed
swings by 15-30% over tens of seconds with its neighbours' load: the
same CPU-bound operation ran at 7.0k and at 9.4k gradients/s a minute
apart, and sleep-and-wake-bound operations swing more. A probe is a
fixed piece of work that touches no dpsgd code. Timed between the
operations of a run, it measures how slow the host is at that moment,
and the run's timings are scaled by the median of those readings to the
speed at which the probe takes its reference time. A change to dpsgd moves the operation and
not the probe, so it shows in full; a slow phase of the host moves both
and cancels.

Two probes, because the host slows compute and wake-ups differently:

- ``cpu``: a Python loop that seeds Philox streams, takes small
  matrix-vector steps and keeps a heap, the cost profile of the
  simulated runtime and of the two application drivers.
- ``wake``: twenty rounds of two fresh threads that each sleep 1 ms
  twice, then join; the cost profile of the real-time runtimes, whose
  time goes into sleeps, thread start-up and wake-ups.

The reference times are these probes' typical times on that VM.
"""
from __future__ import annotations

import heapq
import threading
import time

import numpy as np


def cpu_probe() -> None:
    feats = np.linspace(-1.0, 1.0, 400).reshape(20, 20)
    x = np.zeros(20)
    heap: list[tuple[float, int]] = []
    for i in range(360):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([7, 1, i % 5, i])))
        idx = rng.integers(0, 20, size=4)
        s = 1.0 / (1.0 + np.exp(-(feats[idx] @ x)))
        x -= 0.01 * ((s * (1.0 - s))[:, None] * feats[idx]).mean(axis=0)
        heapq.heappush(heap, (float(s[0]), i))
        if len(heap) > 8:
            heapq.heappop(heap)


def _sleeper() -> None:
    time.sleep(1e-3)
    time.sleep(1e-3)


def wake_probe() -> None:
    for _ in range(20):
        threads = [threading.Thread(target=_sleeper) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()


PROBES = {
    "cpu": (cpu_probe, 0.028),
    "wake": (wake_probe, 0.055),
}


def slowdown(kind: str) -> float:
    """How many times slower than the reference the host is right now."""
    probe, reference_s = PROBES[kind]
    start = time.perf_counter()
    probe()
    return (time.perf_counter() - start) / reference_s
