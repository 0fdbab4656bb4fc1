"""Shared parameter slab written lock-free by local gradient threads.

Each local step is a per-dimension read-modify-write: load the current
value, subtract eta * grad, store the result. Threads never coordinate, so
a store landing between another step's load and store overwrites that
step's contribution for that dimension (a lost update). Dimensions are
individually indivisible; a reader may observe a mix of old and new values
across dimensions but never a torn value within one.

With tracing enabled every load and store additionally records, under a
short internal lock, which store produced the value it read. That gives an
exact per-dimension survival account: the final content equals the serial
application of exactly the surviving writes, which `replay` and
`masked_replay` reconstruct bit for bit. Tracing perturbs timing and is
meant for test builds and diagnostics, not benchmark runs.
"""
from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .params import ParamVector, UpdateVector, as_float64, check_finite

_NO_STORE = -1     # store id meaning "initial content, no write yet"
_NOT_WRITTEN = -2  # this write step did not touch the dimension at all


@dataclass(frozen=True)
class WriteRecord:
    """One local step: the amounts it subtracted and its load/store ids."""

    amounts: np.ndarray     # eta * grad, per dimension
    base_ids: np.ndarray    # store id whose value each dimension loaded
    store_ids: np.ndarray   # store id assigned to each dimension's store


@dataclass(frozen=True)
class ReadRecord:
    """One traced read: per-dimension store ids and values it observed."""

    observed_ids: np.ndarray
    values: np.ndarray


class OverwriteTrace:
    """Exact record of one slab epoch (between loads) under tracing."""

    def __init__(self, initial: np.ndarray):
        self.initial = initial.copy()
        self.dim = initial.shape[0]
        self.writes: list[WriteRecord] = []
        self.reads: list[ReadRecord] = []

    @property
    def n_writes(self) -> int:
        return len(self.writes)

    def _final_store_ids(self) -> np.ndarray:
        """Last store id per dimension, _NO_STORE where never written."""
        final = np.full(self.dim, _NO_STORE, dtype=np.int64)
        for rec in self.writes:
            final = np.maximum(final, rec.store_ids)
        return final

    def _store_index(self) -> dict[int, tuple[int, int]]:
        """Map store id -> (write index, dimension)."""
        index: dict[int, tuple[int, int]] = {}
        for j, rec in enumerate(self.writes):
            for k in range(self.dim):
                sid = int(rec.store_ids[k])
                if sid >= 0:
                    index[sid] = (j, k)
        return index

    def _chain(self, start_sid: int, index) -> list[int]:
        """Store ids on the base-link chain from start_sid, oldest first."""
        chain = []
        sid = start_sid
        while sid != _NO_STORE:
            chain.append(sid)
            j, k = index[sid]
            sid = int(self.writes[j].base_ids[k])
        chain.reverse()
        return chain

    def _masks_behind(self, ids: np.ndarray) -> np.ndarray:
        """Bool (n_writes, dim): (j, k) is True when write j's store at k
        lies on the base-link chain behind store id ids[k], or write j
        never touched k."""
        index = self._store_index()
        masks = np.zeros((self.n_writes, self.dim), dtype=bool)
        for j, rec in enumerate(self.writes):
            masks[j, rec.store_ids == _NOT_WRITTEN] = True
        for k in range(self.dim):
            for sid in self._chain(int(ids[k]), index):
                masks[index[sid][0], k] = True
        return masks

    def survival_masks(self) -> np.ndarray:
        """Bool (n_writes, dim): which dimensions of each write survived.

        A write's store at dimension k survives when it sits on the
        base-link chain that produced the final value of k; everything off
        that chain was overwritten by a concurrent step that had loaded an
        older value. Dimensions a write never touched (zero amount) count
        as surviving vacuously: a zero contribution is always in the sum.
        """
        return self._masks_behind(self._final_store_ids())

    def replay(self) -> np.ndarray:
        """Reconstruct the final slab content exactly from the trace."""
        index = self._store_index()
        final = self._final_store_ids()
        out = self.initial.copy()
        for k in range(self.dim):
            for sid in self._chain(int(final[k]), index):
                j, _ = index[sid]
                out[k] = out[k] - self.writes[j].amounts[k]
        return out

    def masked_replay(self) -> np.ndarray:
        """Apply only the surviving amounts, serially per dimension.

        Returns the same array as `replay`: the lost-update semantics mean
        the final content is the serial composition of exactly the
        surviving per-dimension writes.
        """
        masks = self.survival_masks()
        out = self.initial.copy()
        for k in range(self.dim):
            order = sorted(
                (int(rec.store_ids[k]), j)
                for j, rec in enumerate(self.writes)
                if masks[j, k] and int(rec.store_ids[k]) >= 0
            )
            for _, j in order:
                out[k] = out[k] - self.writes[j].amounts[k]
        return out

    def stored_values(self, k: int) -> np.ndarray:
        """Every value ever stored at dimension k (any thread, any step)."""
        index = self._store_index()
        memo: dict[int, float] = {_NO_STORE: float(self.initial[k])}

        def value_of(sid: int) -> float:
            if sid in memo:
                return memo[sid]
            j, kk = index[sid]
            base = value_of(int(self.writes[j].base_ids[kk]))
            val = base - float(self.writes[j].amounts[kk])
            memo[sid] = val
            return val

        return np.array(
            [
                value_of(int(rec.store_ids[k]))
                for rec in self.writes
                if int(rec.store_ids[k]) >= 0
            ]
        )

    def read_inclusion_masks(self, read_index: int) -> np.ndarray:
        """Bool (n_writes, dim): which writes a traced read has absorbed.

        Entry (j, k) is True when write j's store at dimension k lies on
        the base-link chain behind the value the read observed at k. A
        read taken mid-flight can include different write sets on
        different dimensions; that mix is exactly what this reports.
        """
        return self._masks_behind(self.reads[read_index].observed_ids)


class SharedSlab:
    """The per-worker shared memory that local threads update lock-free.

    The untraced path is plain numpy in-place arithmetic; under the GIL
    each dimension's load/store is indivisible, which is the only atomicity
    the contract asks for. The traced path serializes individual loads and
    stores through a lock purely to label them; it does not remove the
    lost-update window between a step's load and its store (jitter_s can
    widen that window to provoke contention deterministically often).
    """

    def __init__(self, values, *, trace: bool = False, jitter_s: float = 0.0):
        arr = as_float64(values).copy()
        if arr.shape[0] == 0:
            raise ConfigurationError("slab dimension must be positive")
        self._values = arr
        self._trace_enabled = bool(trace)
        self._jitter_s = float(jitter_s)
        self._lock = threading.Lock()
        self._last_store = np.full(arr.shape[0], _NO_STORE, dtype=np.int64)
        self._next_sid = 0
        self._trace: OverwriteTrace | None = (
            OverwriteTrace(arr) if trace else None
        )

    @property
    def dim(self) -> int:
        return self._values.shape[0]

    @property
    def traced(self) -> bool:
        return self._trace_enabled

    def load(self, values) -> None:
        """Overwrite the slab with a pulled model; starts a new trace epoch."""
        arr = as_float64(values)
        if arr.shape[0] != self.dim:
            raise ConfigurationError(
                f"load dim {arr.shape[0]} != slab dim {self.dim}"
            )
        with self._lock:
            self._values[:] = arr
            self._last_store[:] = _NO_STORE
            self._next_sid = 0
            if self._trace_enabled:
                self._trace = OverwriteTrace(self._values)

    def read(self) -> np.ndarray:
        """Copy of the current content; per-dimension consistent only."""
        if not self._trace_enabled:
            return self._values.copy()
        dim = self.dim
        vals = np.empty(dim)
        obs = np.empty(dim, dtype=np.int64)
        for k in range(dim):
            with self._lock:
                vals[k] = self._values[k]
                obs[k] = self._last_store[k]
        with self._lock:
            self._trace.reads.append(ReadRecord(obs, vals.copy()))
        return vals

    def write_step(self, grad, eta: float) -> None:
        """One local SGD step: values -= eta * grad, dimension by dimension."""
        if eta <= 0:
            raise ConfigurationError(f"eta must be positive, got {eta}")
        g = as_float64(grad)
        if g.shape[0] != self.dim:
            raise ConfigurationError(
                f"gradient dim {g.shape[0]} != slab dim {self.dim}"
            )
        check_finite(g, "local gradient")
        amounts = eta * g
        if not self._trace_enabled:
            self._values -= amounts
            return
        # a step only writes dimensions it changes; zero-amount dimensions
        # take no store, so writers with disjoint supports cannot collide
        dim = self.dim
        touched = [k for k in range(dim) if amounts[k] != 0.0]
        base_vals = np.zeros(dim)
        base_ids = np.full(dim, _NOT_WRITTEN, dtype=np.int64)
        for k in touched:
            with self._lock:
                base_vals[k] = self._values[k]
                base_ids[k] = self._last_store[k]
        if self._jitter_s > 0:
            time.sleep(self._jitter_s * random.random())
        store_ids = np.full(dim, _NOT_WRITTEN, dtype=np.int64)
        for k in touched:
            with self._lock:
                sid = self._next_sid
                self._next_sid += 1
                self._values[k] = base_vals[k] - amounts[k]
                self._last_store[k] = sid
                store_ids[k] = sid
        with self._lock:
            self._trace.writes.append(
                WriteRecord(amounts.copy(), base_ids, store_ids)
            )

    def snapshot_trace(self) -> OverwriteTrace:
        """The trace of the current epoch. Call only while writers are quiet."""
        if self._trace is None:
            raise ConfigurationError("slab was created without tracing")
        return self._trace


def make_update_vector(
    slab: SharedSlab, base, base_version: int, worker_id: int
) -> UpdateVector:
    """Package the slab's drift from the pulled model as a push payload."""
    base_arr = base.values if isinstance(base, ParamVector) else as_float64(base)
    if base_arr.shape[0] != slab.dim:
        raise ConfigurationError(
            f"base dim {base_arr.shape[0]} != slab dim {slab.dim}"
        )
    # an untraced slab is subtracted in place of a read() copy; the result
    # is fresh either way, so the update adopts it
    now = slab._values if not slab.traced else slab.read()
    return UpdateVector._adopt(np.subtract(now, base_arr), base_version,
                               worker_id)
