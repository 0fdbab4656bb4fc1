"""Parameter containers and the master-side update rule.

The master owns a ParamVector that is immutable once published: workers may
hold references to it concurrently, so every mutation produces a fresh
vector and publication is a single reference swap.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError, NumericFaultError


def as_float64(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ConfigurationError(f"expected a 1-d vector, got shape {arr.shape}")
    return arr


def check_finite(arr: np.ndarray, what: str) -> None:
    """Raise NumericFaultError naming the first non-finite dimension."""
    finite = np.isfinite(arr)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericFaultError(
            f"non-finite value {arr[k]!r} in {what} at dimension {k}"
        )


@dataclass(frozen=True)
class ParamVector:
    """Immutable float64 parameter vector."""

    values: np.ndarray

    def __post_init__(self):
        arr = as_float64(self.values).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @staticmethod
    def zeros(dim: int) -> "ParamVector":
        if dim <= 0:
            raise ConfigurationError(f"dimension must be positive, got {dim}")
        return ParamVector(np.zeros(dim))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "ParamVector":
        """Wrap a freshly computed 1-d float64 array without copying it.

        Only for arrays nothing else references: it is frozen in place.
        """
        arr.flags.writeable = False
        vec = object.__new__(cls)
        object.__setattr__(vec, "values", arr)
        return vec

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def copy_values(self) -> np.ndarray:
        return self.values.copy()


def _check_base_version(base_version: int) -> None:
    if base_version < 0:
        raise ConfigurationError(
            f"base_version must be >= 0, got {base_version}"
        )


@dataclass(frozen=True)
class UpdateVector:
    """A worker's pushed delta together with its provenance.

    delta is (local params at push time) - (pulled model); base_version is
    the master version the worker pulled before computing it.
    """

    delta: np.ndarray
    base_version: int
    worker_id: int

    def __post_init__(self):
        arr = as_float64(self.delta).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "delta", arr)
        _check_base_version(self.base_version)

    @classmethod
    def _adopt(cls, delta: np.ndarray, base_version: int,
               worker_id: int) -> "UpdateVector":
        """Wrap a freshly computed 1-d float64 delta without copying it.

        Only for arrays nothing else writes: it is frozen in place.
        """
        _check_base_version(base_version)
        delta.flags.writeable = False
        upd = object.__new__(cls)
        object.__setattr__(upd, "delta", delta)
        object.__setattr__(upd, "base_version", base_version)
        object.__setattr__(upd, "worker_id", worker_id)
        return upd

    @property
    def dim(self) -> int:
        return self.delta.shape[0]


def apply_global_update(
    v: ParamVector, updates: Sequence[UpdateVector], rho: float
) -> ParamVector:
    """One master iteration: v + rho * sum of the collected update deltas.

    Deltas are summed in the order given (first-come first-served order at
    the master), from +0.0 even for one update, as the sum's signed zeros
    are part of the result. An update is anything with an UpdateVector's
    delta and worker_id. The result is a fresh immutable vector, so
    concurrent readers of the old one are unaffected; it is the apply's
    only copy of the model.
    """
    if not updates:
        raise ConfigurationError("apply_global_update needs at least one update")
    if rho <= 0:
        raise ConfigurationError(f"rho must be positive, got {rho}")
    values = v.values
    total = np.zeros(values.shape[0])
    for upd in updates:
        if upd.delta.shape != total.shape:
            raise ConfigurationError(
                f"update from worker {upd.worker_id} has dim "
                f"{upd.delta.shape[0]}, model has dim {total.shape[0]}"
            )
        total += upd.delta
    # values + rho * total, in place: addition commutes bit for bit
    total *= rho
    total += values
    check_finite(total, "global model after update")
    return ParamVector._adopt(total)
