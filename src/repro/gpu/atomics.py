"""Atomically-appended device buffers.

GPU threads in all three kernels publish results with
``atomic: resultSet <- resultSet U result`` (Algorithms 1-3).  On real
hardware this is an ``atomicAdd`` on a tail counter followed by a global
memory write; hundreds of threads contend on the counter.  The model keeps
an exact count of atomic operations (the cost model charges serialization
per op) and enforces the fixed capacity that makes the paper process large
query sets incrementally (§V-D, §V-E).
"""

from __future__ import annotations

import numpy as np

__all__ = ["AtomicResultBuffer", "AtomicIntList"]


class AtomicResultBuffer:
    """Fixed-capacity device buffer of ``(q_id, e_id, t_lo, t_hi)`` items.

    ``capacity_items`` corresponds to the paper's result-set buffer — e.g.
    5.0e7 items for the Merger experiments, 9.2e7 for Random-dense.  Appends
    beyond capacity are *rejected* and flagged; the engine must stop
    assigning new queries and let the host drain the buffer (kernel
    re-invocation on the unprocessed remainder).
    """

    #: Device bytes per item: 2 x int64 ids + 2 x float64 interval bounds.
    ITEM_BYTES = 32

    def __init__(self, capacity_items: int) -> None:
        if capacity_items <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_items = int(capacity_items)
        self._q = np.empty(capacity_items, dtype=np.int64)
        self._e = np.empty(capacity_items, dtype=np.int64)
        self._lo = np.empty(capacity_items)
        self._hi = np.empty(capacity_items)
        self.size = 0
        self.atomic_ops = 0
        self.overflowed = False

    @property
    def nbytes(self) -> int:
        return self.capacity_items * self.ITEM_BYTES

    @property
    def free_items(self) -> int:
        return self.capacity_items - self.size

    def try_append(self, q: np.ndarray, e: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray) -> bool:
        """Append a batch of items produced by one thread.

        Each item costs one atomic operation (the tail-counter increment).
        Returns True if the whole batch fit; False (appending nothing) if
        capacity would be exceeded — the all-or-nothing semantics keep a
        query's results from being split across kernel invocations, which
        is how the engines guarantee the host never double-counts a query.
        """
        n = int(q.shape[0])
        if n == 0:
            return True
        if n > self.free_items:
            self.overflowed = True
            return False
        s = self.size
        self._q[s:s + n] = q
        self._e[s:s + n] = e
        self._lo[s:s + n] = lo
        self._hi[s:s + n] = hi
        self.size += n
        self.atomic_ops += n
        return True

    def __getstate__(self) -> dict:
        # Pickle the capacity and the published items only: the unused
        # tail of the np.empty storage is garbage, and for a drained
        # buffer that is every byte of it.
        state = self.__dict__.copy()
        for name in ("_q", "_e", "_lo", "_hi"):
            state[name] = state[name][:self.size].copy()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in ("_q", "_e", "_lo", "_hi"):
            items = state[name]
            full = np.empty(self.capacity_items, dtype=items.dtype)
            full[:items.shape[0]] = items
            setattr(self, name, full)

    def drain(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Host-side read-out; empties the buffer for the next invocation.

        The caller is responsible for logging the d2h transfer
        (``size * ITEM_BYTES`` bytes).
        """
        s = self.size
        out = (self._q[:s].copy(), self._e[:s].copy(),
               self._lo[:s].copy(), self._hi[:s].copy())
        self.size = 0
        self.overflowed = False
        return out


class AtomicIntList:
    """Fixed-capacity append-only integer list (the ``redo`` array of
    Algorithm 1: "atomic: redo <- redo U {queryID}")."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._buf = np.empty(capacity, dtype=np.int64)
        self.size = 0
        self.atomic_ops = 0

    @property
    def nbytes(self) -> int:
        return int(self._buf.nbytes)

    def append(self, value: int) -> None:
        if self.size >= self._buf.shape[0]:
            raise OverflowError("redo list capacity exceeded")
        self._buf[self.size] = value
        self.size += 1
        self.atomic_ops += 1

    def extend(self, values: np.ndarray) -> None:
        n = int(values.shape[0])
        if self.size + n > self._buf.shape[0]:
            raise OverflowError("redo list capacity exceeded")
        self._buf[self.size:self.size + n] = values
        self.size += n
        self.atomic_ops += n

    def drain(self) -> np.ndarray:
        out = self._buf[:self.size].copy()
        self.size = 0
        return out
