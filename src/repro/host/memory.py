"""Per-node virtual memory.

RDMA operations in MultiEdge address the *virtual address space* of the
remote process (paper §2.2: receive buffers need not be pre-registered; data
is copied directly into the receiver's address space).  This module gives
each node a real byte-addressable store so the reproduction moves actual
data: the DSM and the applications depend on RDMA writes landing the right
bytes at the right addresses.

Allocations come from a bump allocator; reads and writes may span any range
inside a single allocation (cross-allocation accesses are a programming
error and raise).  :meth:`VirtualMemory.free` drops an allocation without
rewinding the bump pointer, so an address is never handed out twice and a
use-after-free faults.

Host memory follows what the simulation writes, not what it allocates:
allocations of at least :data:`MMAP_MIN_BYTES` are private anonymous
mappings, whose pages the OS supplies as zeros on first touch, so a mostly
idle staging ring or page region costs almost nothing, and a freed one is
unmapped instead of being recycled (and re-zeroed) through the C heap.
"""

from __future__ import annotations

import bisect
import mmap
from typing import Iterable

import numpy as np

__all__ = ["VirtualMemory", "MemoryFault", "MMAP_MIN_BYTES"]

# Allocations this large get their own lazily zeroed mapping.
MMAP_MIN_BYTES = 64 * 1024
# Private, not Python's default shared mapping: a forked child (warm
# sweeps, checkpoint fork points) must get copy-on-write pages, never
# write through to its parent's memory.  None where unsupported.
_MAP_PRIVATE = getattr(mmap, "MAP_PRIVATE", None)


def _zeroed(size: int) -> np.ndarray:
    """A zero-filled uint8 buffer of ``size`` bytes."""
    if size >= MMAP_MIN_BYTES and _MAP_PRIVATE is not None:
        return np.frombuffer(mmap.mmap(-1, size, flags=_MAP_PRIVATE), np.uint8)
    return np.zeros(size, dtype=np.uint8)


class MemoryFault(Exception):
    """Access outside any allocation (the simulated SIGSEGV)."""


class VirtualMemory:
    """A sparse virtual address space backed by numpy byte buffers."""

    # Leave a guard gap between allocations so off-by-one bugs fault
    # instead of silently touching a neighbouring buffer.
    _GUARD = 4096

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base
        self._starts: list[int] = []
        self._regions: list[tuple[int, int, np.ndarray]] = []  # (start, end, buf)

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the virtual base address."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        addr = self._next
        self._regions.append((addr, addr + size, _zeroed(size)))
        self._starts.append(addr)
        self._next = addr + size + self._GUARD
        return addr

    def free(self, addr: int) -> None:
        """Drop the allocation based at ``addr``.

        The bump pointer never rewinds, so the range is not reused and
        any later access to it raises :class:`MemoryFault`.
        """
        i = bisect.bisect_left(self._starts, addr)
        if i == len(self._starts) or self._starts[i] != addr:
            raise MemoryFault(f"free of {addr:#x}: not an allocation base")
        del self._starts[i]
        del self._regions[i]

    def _region(self, addr: int, size: int) -> tuple[int, int, np.ndarray]:
        """The (start, end, buffer) allocation holding [addr, addr + size)."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i >= 0:
            region = self._regions[i]
            if addr + size <= region[1]:
                return region
        raise MemoryFault(
            f"access [{addr:#x}, {addr + size:#x}) outside any allocation"
        )

    def write(self, addr: int, data: bytes | np.ndarray) -> None:
        """Store ``data`` at virtual address ``addr``."""
        view = np.frombuffer(data, dtype=np.uint8) if isinstance(
            data, (bytes, bytearray, memoryview)
        ) else data
        self.view(addr, len(view))[:] = view

    def write_scatter(
        self, records: Iterable[tuple[int, int, int]], source: bytes
    ) -> None:
        """Store scattered records: ``(address, offset, length)`` puts
        ``source[offset : offset + length]`` at ``address``, in order.

        Consecutive records in one allocation share one region lookup.
        A record that leaves its allocation raises :class:`MemoryFault`.
        """
        src = memoryview(source)
        start = end = -1  # no region looked up yet
        for addr, off, length in records:
            if addr < start or addr + length > end:
                start, end, buf = self._region(addr, length)
                dst = memoryview(buf)
            dst[addr - start : addr - start + length] = src[off : off + length]

    def read(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes from virtual address ``addr``."""
        return self.view(addr, size).tobytes()

    def view(self, addr: int, size: int) -> np.ndarray:
        """Zero-copy uint8 view of an allocated range (for applications)."""
        start, _, buf = self._region(addr, size)
        return buf[addr - start : addr - start + size]

    def ndarray(self, addr: int, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Typed zero-copy view of an allocated range."""
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return self.view(addr, nbytes).view(dtype).reshape(shape)

    @property
    def allocated_bytes(self) -> int:
        return sum(end - start for start, end, _ in self._regions)

    @property
    def region_count(self) -> int:
        """Number of live (allocated, not freed) regions."""
        return len(self._regions)
