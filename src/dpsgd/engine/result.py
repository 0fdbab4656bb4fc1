"""Run outputs: counters, per-iteration series, trace bundles."""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from ..core import OverwriteTrace, ParamVector


@dataclass
class RunCounters:
    pushes_received: int = 0
    pushes_applied: int = 0
    pushes_dropped_stale: int = 0
    stale_applied_violations: int = 0
    pulls_served: int = 0
    gradient_evals_applied: int = 0
    gradient_evals_computed: int = 0
    malformed_frames: int = 0


class MetricsSeries:
    """Columnar per-iteration series the master appends to.

    grad_norm_sq and loss are NaN on iterations where they were not
    sampled; every other column is populated for all T iterations.
    """

    COLUMNS = (
        "t",
        "wall_clock_s",
        "model_norm",
        "batch_max_staleness",
        "batch_mean_staleness",
        "grad_norm_sq",
        "loss",
        "messages",
        "effective_gradients",
    )

    # one typed array per column, int64 counts and float64 measurements:
    # 72 bytes an iteration, against about 330 as a tuple of Python objects
    TYPECODES = "qddqdddqq"

    def __init__(self):
        self._columns = tuple(array(code) for code in self.TYPECODES)

    def append(
        self,
        t: int,
        wall_clock_s: float,
        model_norm: float,
        batch_max_staleness: int,
        batch_mean_staleness: float,
        grad_norm_sq: float,
        loss: float,
        messages: int,
        effective_gradients: int,
    ) -> None:
        (c_t, c_wall, c_norm, c_max, c_mean, c_grad, c_loss, c_messages,
         c_effective) = self._columns
        c_t.append(t)
        c_wall.append(wall_clock_s)
        c_norm.append(model_norm)
        c_max.append(batch_max_staleness)
        c_mean.append(batch_mean_staleness)
        c_grad.append(grad_norm_sq)
        c_loss.append(loss)
        c_messages.append(messages)
        c_effective.append(effective_gradients)

    @property
    def rows(self) -> list[tuple]:
        """One tuple of Python ints and floats per iteration."""
        return list(zip(*self._columns))

    def column(self, name: str) -> np.ndarray:
        return np.array(self._columns[self.COLUMNS.index(name)])

    def __len__(self) -> int:
        return len(self._columns[0])

    def identical(self, other: "MetricsSeries") -> bool:
        """Elementwise equality with NaN == NaN (replay comparisons)."""
        if len(self) != len(other):
            return False
        for a, b in zip(self._columns, other._columns):
            for x, y in zip(a, b):
                if x != y and not (x != x and y != y):
                    return False
        return True

    def mean_sampled_grad_norm_sq(self) -> float:
        col = self.column("grad_norm_sq")
        good = col[~np.isnan(col)]
        return float(good.mean()) if good.size else float("nan")


@dataclass
class TraceBundle:
    """One traced worker pass: enough to replay the pushed delta exactly."""

    worker_id: int
    pass_idx: int
    base_version: int
    base: np.ndarray
    delta: np.ndarray
    trace: OverwriteTrace


@dataclass
class RunResult:
    final: ParamVector
    version: int
    counters: RunCounters
    metrics: MetricsSeries
    mode: str
    applied_staleness_hist: dict[int, int] = field(default_factory=dict)
    received_staleness_hist: dict[int, int] = field(default_factory=dict)
    traces: list[TraceBundle] = field(default_factory=list)
    theory_warnings: list[str] = field(default_factory=list)
    wall_clock_s: float = 0.0
