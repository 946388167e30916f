"""Tests for device memory management and OOM behaviour."""

import numpy as np
import pytest

from repro.gpu.memory import (DeviceArray, DeviceOutOfMemoryError,
                              MemoryManager)


class TestMemoryManager:
    def test_alloc_and_accounting(self):
        mem = MemoryManager(capacity_bytes=10_000)
        a = mem.alloc("a", 100, dtype=np.float64)
        assert isinstance(a, DeviceArray)
        assert a.nbytes == 800
        assert mem.allocated_bytes == 800
        assert mem.free_bytes == 9_200
        assert "a" in mem

    def test_pickle_keeps_contents_and_shrinks_zero_placeholders(self):
        import pickle
        mem = MemoryManager(capacity_bytes=10_000_000)
        mem.alloc("buf", (100_000, 4))
        mem.put("x", np.arange(10, dtype=np.int32))
        blob = pickle.dumps(mem)
        assert len(blob) < 10_000  # not the 3.2 MB of zeros
        clone = pickle.loads(blob)
        assert clone.allocations() == mem.allocations()
        buf = clone.get("buf").data
        assert buf.shape == (100_000, 4) and buf.dtype == np.float64
        assert not buf.any()
        x = clone.get("x").data
        assert x.dtype == np.int32 and x.tolist() == list(range(10))

    def test_put_copies(self):
        mem = MemoryManager(capacity_bytes=10_000)
        host = np.arange(10, dtype=np.float64)
        dev = mem.put("x", host)
        host[0] = 99.0
        assert dev.data[0] == 0.0  # device copy unaffected

    def test_oom_raises(self):
        mem = MemoryManager(capacity_bytes=1_000, device_name="test-gpu")
        mem.alloc("big", 100, dtype=np.float64)  # 800 bytes
        with pytest.raises(DeviceOutOfMemoryError) as exc:
            mem.alloc("more", 100, dtype=np.float64)
        assert exc.value.requested == 800
        assert exc.value.free == 200
        assert "test-gpu" in str(exc.value)

    def test_free_releases(self):
        mem = MemoryManager(capacity_bytes=1_000)
        mem.alloc("a", 100, dtype=np.float64)
        mem.free("a")
        assert mem.allocated_bytes == 0
        mem.alloc("a", 120, dtype=np.float64)  # name reusable after free

    def test_duplicate_name_rejected(self):
        mem = MemoryManager(capacity_bytes=1_000)
        mem.alloc("a", 10, dtype=np.int32)
        with pytest.raises(ValueError, match="already exists"):
            mem.alloc("a", 10, dtype=np.int32)
        with pytest.raises(ValueError, match="already exists"):
            mem.put("a", np.zeros(1))

    def test_free_unknown_raises(self):
        mem = MemoryManager(capacity_bytes=1_000)
        with pytest.raises(KeyError):
            mem.free("ghost")

    def test_peak_tracking(self):
        mem = MemoryManager(capacity_bytes=10_000)
        mem.alloc("a", 500, dtype=np.float64)  # 4000
        mem.free("a")
        mem.alloc("b", 100, dtype=np.float64)  # 800
        assert mem.peak_bytes == 4_000

    def test_allocations_snapshot(self):
        mem = MemoryManager(capacity_bytes=10_000)
        mem.alloc("a", 10, dtype=np.float64)
        mem.alloc("b", (5, 2), dtype=np.int64)
        assert mem.allocations() == {"a": 80, "b": 80}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MemoryManager(capacity_bytes=0)

    def test_get(self):
        mem = MemoryManager(capacity_bytes=1_000)
        a = mem.alloc("a", 3, dtype=np.float32)
        assert mem.get("a") is a
        assert len(a) == 3


class TestDatabaseFitsOnDevice:
    def test_full_scale_merger_fits_c2075(self):
        """The paper's headline claim that D + index fit in 6 GiB: the
        25.2M-segment Merger database is ~2 GiB as SoA float64 + ids."""
        from repro.gpu.device import TESLA_C2075
        full_merger_segments = 25_165_824
        db_bytes = 80 * full_merger_segments
        index_bytes = 4 * 8 * 1_000              # 1,000 temporal bins
        xyz_bytes = 3 * 4 * full_merger_segments  # X/Y/Z id arrays
        result_buffer = 32 * 50_000_000
        total = db_bytes + index_bytes + xyz_bytes + result_buffer
        assert total < TESLA_C2075.global_mem_bytes
