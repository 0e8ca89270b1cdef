"""Unit tests for the virtual memory model."""

import mmap
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.host import MemoryFault, VirtualMemory
from repro.host.memory import MMAP_MIN_BYTES


def test_alloc_returns_distinct_addresses():
    vm = VirtualMemory()
    a = vm.alloc(100)
    b = vm.alloc(100)
    assert a != b
    assert b >= a + 100


def test_write_read_roundtrip():
    vm = VirtualMemory()
    addr = vm.alloc(64)
    vm.write(addr, b"hello world")
    assert vm.read(addr, 11) == b"hello world"


def test_write_read_at_offset():
    vm = VirtualMemory()
    addr = vm.alloc(1000)
    vm.write(addr + 500, b"xyz")
    assert vm.read(addr + 500, 3) == b"xyz"
    assert vm.read(addr, 3) == b"\x00\x00\x00"


def test_alloc_zero_rejected():
    vm = VirtualMemory()
    with pytest.raises(ValueError):
        vm.alloc(0)


def test_read_unmapped_faults():
    vm = VirtualMemory()
    vm.alloc(10)
    with pytest.raises(MemoryFault):
        vm.read(0x10, 4)


def test_access_past_end_faults():
    vm = VirtualMemory()
    addr = vm.alloc(10)
    with pytest.raises(MemoryFault):
        vm.read(addr + 8, 4)
    with pytest.raises(MemoryFault):
        vm.write(addr + 8, b"abcd")


def test_guard_gap_between_allocations():
    vm = VirtualMemory()
    a = vm.alloc(10)
    vm.alloc(10)
    # One byte past allocation `a` must fault, not hit the next buffer.
    with pytest.raises(MemoryFault):
        vm.read(a + 10, 1)


def test_view_is_zero_copy():
    vm = VirtualMemory()
    addr = vm.alloc(16)
    view = vm.view(addr, 16)
    view[0] = 0xAB
    assert vm.read(addr, 1) == b"\xab"


def test_ndarray_typed_view():
    vm = VirtualMemory()
    addr = vm.alloc(8 * 10)
    arr = vm.ndarray(addr, (10,), np.float64)
    arr[:] = np.arange(10.0)
    again = vm.ndarray(addr, (10,), np.float64)
    assert np.array_equal(again, np.arange(10.0))


def test_write_accepts_numpy_array():
    vm = VirtualMemory()
    addr = vm.alloc(4)
    vm.write(addr, np.array([1, 2, 3, 4], dtype=np.uint8))
    assert vm.read(addr, 4) == b"\x01\x02\x03\x04"


def test_allocated_bytes():
    vm = VirtualMemory()
    vm.alloc(100)
    vm.alloc(50)
    assert vm.allocated_bytes == 150


def test_many_allocations_lookup():
    vm = VirtualMemory()
    addrs = [vm.alloc(32) for _ in range(200)]
    for i, addr in enumerate(addrs):
        vm.write(addr, bytes([i % 256] * 4))
    for i, addr in enumerate(addrs):
        assert vm.read(addr, 4) == bytes([i % 256] * 4)


def _scatter(vm, pairs):
    """write_scatter from (address, bytes) pairs laid end to end."""
    records, offset = [], 0
    for addr, data in pairs:
        records.append((addr, offset, len(data)))
        offset += len(data)
    vm.write_scatter(records, b"".join(data for _, data in pairs))


def test_write_scatter_lands_every_record():
    vm = VirtualMemory()
    a = vm.alloc(100)
    b = vm.alloc(100)
    _scatter(vm, [(a + 1, b"xy"), (a + 90, b"0123456789"), (b, b"z"), (b + 50, b"")])
    assert vm.read(a, 4) == b"\x00xy\x00"
    assert vm.read(a + 90, 10) == b"0123456789"
    assert vm.read(b, 2) == b"z\x00"


def test_write_scatter_later_record_wins():
    vm = VirtualMemory()
    a = vm.alloc(100)
    b = vm.alloc(100)
    # Out of address order and overlapping, across two allocations.
    _scatter(vm, [(b + 4, b"BBBB"), (a, b"aaaaaa"), (a + 2, b"cc"), (b, b"DDDDDD")])
    assert vm.read(a, 6) == b"aaccaa"
    assert vm.read(b, 8) == b"DDDDDDBB"


@pytest.mark.parametrize("offset, size", [(-1, 1), (98, 4), (100, 1), (100 + 10, 2)])
def test_write_scatter_faults(offset, size):
    vm = VirtualMemory()
    a = vm.alloc(100)
    vm.alloc(100)
    # A valid record first: the region it looked up must not wave the bad
    # one through.
    with pytest.raises(MemoryFault):
        _scatter(vm, [(a, b"ok"), (a + offset, b"!" * size)])


def test_write_scatter_below_every_allocation_faults():
    vm = VirtualMemory()
    with pytest.raises(MemoryFault):
        _scatter(vm, [(0x10, b"x")])
    with pytest.raises(MemoryFault):
        _scatter(vm, [(0, b"")])
    a = vm.alloc(10)
    with pytest.raises(MemoryFault):
        _scatter(vm, [(a - 1, b"x")])


@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 199), st.binary(max_size=40)),
        max_size=30,
    )
)
def test_write_scatter_equals_writes_one_by_one(records):
    """Any in-bounds batch (out of order, overlapping, two allocations)
    leaves memory exactly as the record-by-record loop does."""
    batched, looped = VirtualMemory(), VirtualMemory()
    bases = [batched.alloc(240), batched.alloc(240)]
    assert bases == [looped.alloc(240), looped.alloc(240)]
    pairs = [(bases[r] + off, data) for r, off, data in records]
    _scatter(batched, pairs)
    for addr, data in pairs:
        looped.write(addr, data)
    for base in bases:
        assert batched.read(base, 240) == looped.read(base, 240)


# -- backing, free ------------------------------------------------------

SMALL, LARGE = 4096, MMAP_MIN_BYTES + 4096


def _mmap_backed(vm, addr):
    base = vm.view(addr, 1)
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(getattr(base, "obj", None), mmap.mmap)


@pytest.mark.skipif(not hasattr(mmap, "MAP_PRIVATE"), reason="no MAP_PRIVATE")
def test_backing_follows_size():
    vm = VirtualMemory()
    assert not _mmap_backed(vm, vm.alloc(MMAP_MIN_BYTES - 1))
    assert _mmap_backed(vm, vm.alloc(MMAP_MIN_BYTES))


def test_untouched_large_region_reads_zero():
    vm = VirtualMemory()
    addr = vm.alloc(LARGE)
    assert vm.read(addr, LARGE) == bytes(LARGE)
    assert not vm.view(addr, LARGE).any()


@pytest.mark.parametrize("size", [SMALL, LARGE])
def test_accessors_agree_on_both_backings(size):
    vm = VirtualMemory()
    addr = vm.alloc(size)
    vm.write(addr + size - 3, b"end")
    vm.write(addr + 8, np.arange(8, dtype=np.uint8))
    assert vm.read(addr + size - 3, 3) == b"end"
    assert vm.view(addr + 8, 8).tolist() == list(range(8))
    vm.view(addr, 1)[0] = 0xAB
    assert vm.read(addr, 1) == b"\xab"
    arr = vm.ndarray(addr + 16, (4,), np.float64)
    arr[:] = [1.5, 2.5, 3.5, 4.5]
    assert vm.ndarray(addr + 16, (4,), np.float64).tolist() == [1.5, 2.5, 3.5, 4.5]
    _scatter(vm, [(addr + 100, b"xy"), (addr + size - 1, b"z")])
    assert vm.read(addr + 100, 2) == b"xy"
    assert vm.read(addr + size - 1, 1) == b"z"
    with pytest.raises(MemoryFault):
        vm.read(addr + size - 1, 2)


@pytest.mark.parametrize("size", [SMALL, LARGE])
def test_use_after_free_faults(size):
    vm = VirtualMemory()
    before = vm.alloc(16)
    addr = vm.alloc(size)
    after = vm.alloc(16)
    vm.free(addr)
    for access in (
        lambda: vm.read(addr, 1),
        lambda: vm.write(addr + size - 1, b"x"),
        lambda: vm.view(addr, size),
        lambda: _scatter(vm, [(addr, b"x")]),
    ):
        with pytest.raises(MemoryFault):
            access()
    with pytest.raises(MemoryFault):
        vm.free(addr)  # double free
    # Neighbours are untouched.
    vm.write(before, b"b")
    vm.write(after, b"a")
    assert vm.read(before, 1) == b"b" and vm.read(after, 1) == b"a"


def test_free_of_non_base_address_faults():
    vm = VirtualMemory()
    addr = vm.alloc(100)
    for bad in (addr + 1, addr - 1, addr + 100, 0):
        with pytest.raises(MemoryFault):
            vm.free(bad)
    assert vm.region_count == 1


def test_free_shrinks_accounting():
    vm = VirtualMemory()
    a = vm.alloc(100)
    vm.alloc(LARGE)
    assert (vm.allocated_bytes, vm.region_count) == (100 + LARGE, 2)
    vm.free(a)
    assert (vm.allocated_bytes, vm.region_count) == (LARGE, 1)


@given(st.lists(st.tuples(st.integers(1, 2 * MMAP_MIN_BYTES), st.booleans()), max_size=25))
def test_free_never_changes_later_addresses(steps):
    """Any interleaving of alloc and free hands out exactly the addresses
    of the alloc-only sequence: freed ranges are never reused."""
    plain, freeing = VirtualMemory(), VirtualMemory()
    for size, free_now in steps:
        addr = freeing.alloc(size)
        assert addr == plain.alloc(size)
        freeing.write(addr + size - 1, b"\x01")
        if free_now:
            freeing.free(addr)
            with pytest.raises(MemoryFault):
                freeing.read(addr, 1)
        else:
            assert freeing.read(addr + size - 1, 1) == b"\x01"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("size", [SMALL, LARGE])
def test_forked_child_writes_stay_private(size):
    """A forked child (warm sweeps, checkpoint fork points) gets
    copy-on-write memory: its writes never reach the parent."""
    vm = VirtualMemory()
    addr = vm.alloc(size)
    vm.write(addr, b"parent")
    pid = os.fork()
    if pid == 0:  # child
        vm.write(addr, b"child!")
        vm.write(addr + size - 1, b"c")
        os._exit(0 if vm.read(addr, 6) == b"child!" else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert vm.read(addr, 6) == b"parent"
    assert vm.read(addr + size - 1, 1) == b"\x00"
