"""Multi-memory-space coherence: ensure / write / writeback / flush."""

import pytest

from repro.errors import MemoryModelError
from repro.platform.topology import HOST_SPACE
from repro.runtime.memory import MemoryManager
from repro.runtime.regions import ArraySpec, Region


@pytest.fixture
def mm(tiny_platform):
    arrays = {"a": ArraySpec("a", 1000, 4), "b": ArraySpec("b", 500, 8)}
    return MemoryManager(tiny_platform, arrays)


class TestInitialState:
    def test_host_holds_everything(self, mm):
        assert mm.is_valid("a", HOST_SPACE, 0, 1000)
        assert mm.is_valid("b", HOST_SPACE, 0, 500)

    def test_devices_start_empty(self, mm):
        assert not mm.is_valid("a", "gpu0", 0, 1)

    def test_unknown_array_or_space(self, mm):
        with pytest.raises(MemoryModelError):
            mm.is_valid("zzz", HOST_SPACE, 0, 1)
        with pytest.raises(MemoryModelError):
            mm.is_valid("a", "gpu9", 0, 1)


class TestEnsure:
    def test_h2d_transfer_generated(self, mm):
        ops = mm.ensure(Region("a", 0, 100), "gpu0")
        assert len(ops) == 1
        op = ops[0]
        assert op.is_h2d and op.src_space == HOST_SPACE and op.dst_space == "gpu0"
        assert op.nbytes == 400
        assert mm.is_valid("a", "gpu0", 0, 100)

    def test_already_valid_is_free(self, mm):
        mm.ensure(Region("a", 0, 100), "gpu0")
        assert mm.ensure(Region("a", 0, 100), "gpu0") == []
        assert mm.ensure(Region("a", 20, 80), "gpu0") == []

    def test_partial_validity_transfers_delta_only(self, mm):
        mm.ensure(Region("a", 0, 100), "gpu0")
        ops = mm.ensure(Region("a", 50, 200), "gpu0")
        assert [(o.start, o.end) for o in ops] == [(100, 200)]

    def test_host_read_of_host_data_is_free(self, mm):
        assert mm.ensure(Region("a", 0, 1000), HOST_SPACE) == []

    def test_device_to_device_stages_through_host(self, mm):
        # write on gpu0 makes host stale; a host read must flush first
        mm.write(Region("a", 0, 100), "gpu0")
        ops = mm.ensure(Region("a", 0, 100), HOST_SPACE)
        assert len(ops) == 1
        assert ops[0].is_d2h and ops[0].src_space == "gpu0"

    def test_elem_bytes_respected(self, mm):
        ops = mm.ensure(Region("b", 0, 100), "gpu0")
        assert ops[0].nbytes == 800  # 8-byte elements

    def test_stale_range_split_over_devices_stages_each_piece(self):
        """A stale host range whose copies span two devices (the shape a
        dynamic split leaves behind) stages each piece from its holder,
        in space order."""
        from repro.platform import dual_gpu_platform

        mm = MemoryManager(dual_gpu_platform(), {"a": ArraySpec("a", 100, 4)})
        mm.write(Region("a", 43, 66), "gpu1")
        mm.write(Region("a", 66, 67), "gpu0")
        ops = mm.ensure(Region("a", 40, 70), HOST_SPACE)
        assert [(o.src_space, o.dst_space, o.start, o.end) for o in ops] == [
            ("gpu0", HOST_SPACE, 66, 67),
            ("gpu1", HOST_SPACE, 43, 66),
        ]
        assert [o.nbytes for o in ops] == [4, 92]
        assert mm.is_valid("a", HOST_SPACE, 0, 100)

    def test_unowned_stale_element_still_raises(self, mm):
        mm.write(Region("a", 0, 10), "gpu0")
        mm._valid["a"]["gpu0"].remove(5, 6)  # corrupt the directory
        with pytest.raises(MemoryModelError, match=r"a\[5:6\)"):
            mm.ensure(Region("a", 0, 10), HOST_SPACE)


class TestWrite:
    def test_write_invalidates_other_spaces(self, mm):
        mm.ensure(Region("a", 0, 100), "gpu0")
        mm.write(Region("a", 0, 100), "gpu0")
        assert not mm.is_valid("a", HOST_SPACE, 0, 100)
        assert mm.is_valid("a", HOST_SPACE, 100, 1000)
        assert mm.is_valid("a", "gpu0", 0, 100)

    def test_dirty_bytes_accounting(self, mm):
        mm.write(Region("a", 0, 100), "gpu0")
        assert mm.dirty_bytes() == 400
        mm.write(Region("b", 0, 50), "gpu0")
        assert mm.dirty_bytes() == 400 + 400

    def test_host_write_invalidates_device(self, mm):
        mm.ensure(Region("a", 0, 100), "gpu0")
        mm.write(Region("a", 0, 100), HOST_SPACE)
        assert not mm.is_valid("a", "gpu0", 0, 1)


class TestWriteback:
    def test_writeback_copies_dirty_region(self, mm):
        mm.write(Region("a", 0, 100), "gpu0")
        ops = mm.writeback(Region("a", 0, 100), "gpu0")
        assert len(ops) == 1 and ops[0].is_d2h
        assert mm.is_valid("a", HOST_SPACE, 0, 100)
        # device copy stays valid
        assert mm.is_valid("a", "gpu0", 0, 100)

    def test_writeback_from_host_is_noop(self, mm):
        assert mm.writeback(Region("a", 0, 100), HOST_SPACE) == []

    def test_writeback_clean_region_is_noop(self, mm):
        mm.ensure(Region("a", 0, 100), "gpu0")  # clean copy
        assert mm.writeback(Region("a", 0, 100), "gpu0") == []


class TestFlush:
    def test_flush_returns_all_dirty(self, mm):
        mm.write(Region("a", 0, 100), "gpu0")
        mm.write(Region("b", 100, 200), "gpu0")
        ops = mm.flush_to_host()
        moved = {(o.array, o.start, o.end) for o in ops}
        assert moved == {("a", 0, 100), ("b", 100, 200)}
        assert mm.dirty_bytes() == 0

    def test_flush_without_invalidate_keeps_device_copies(self, mm):
        mm.write(Region("a", 0, 100), "gpu0")
        mm.flush_to_host(invalidate=False)
        assert mm.is_valid("a", "gpu0", 0, 100)

    def test_flush_with_invalidate_empties_devices(self, mm):
        mm.write(Region("a", 0, 100), "gpu0")
        mm.ensure(Region("a", 500, 600), "gpu0")
        mm.flush_to_host(invalidate=True)
        assert not mm.is_valid("a", "gpu0", 0, 1)
        assert not mm.is_valid("a", "gpu0", 500, 501)
        assert mm.is_valid("a", HOST_SPACE, 0, 1000)

    def test_flush_idempotent(self, mm):
        mm.write(Region("a", 0, 100), "gpu0")
        assert mm.flush_to_host()
        assert mm.flush_to_host() == []

    def test_invalidate_requires_coherent_host(self, mm):
        mm.write(Region("a", 0, 100), "gpu0")
        with pytest.raises(MemoryModelError):
            mm.invalidate_device_copies()
