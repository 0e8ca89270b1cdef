"""Per-node virtual memory.

RDMA operations in MultiEdge address the *virtual address space* of the
remote process (paper §2.2: receive buffers need not be pre-registered; data
is copied directly into the receiver's address space).  This module gives
each node a real byte-addressable store so the reproduction moves actual
data: the DSM and the applications depend on RDMA writes landing the right
bytes at the right addresses.

Allocations come from a bump allocator; reads and writes may span any range
inside a single allocation (cross-allocation accesses are a programming
error and raise).
"""

from __future__ import annotations

import bisect
from typing import Iterable

import numpy as np

__all__ = ["VirtualMemory", "MemoryFault"]


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
        buf = np.zeros(size, dtype=np.uint8)
        self._regions.append((addr, addr + size, buf))
        self._starts.append(addr)
        self._next = addr + size + self._GUARD
        return addr

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

    def _find(self, addr: int, size: int) -> tuple[np.ndarray, int]:
        start, _, buf = self._region(addr, size)
        return buf, addr - start

    def write(self, addr: int, data: bytes | np.ndarray) -> None:
        """Store ``data`` at virtual address ``addr``."""
        view = np.frombuffer(data, dtype=np.uint8) if isinstance(
            data, (bytes, bytearray, memoryview)
        ) else data
        buf, off = self._find(addr, len(view))
        buf[off : off + len(view)] = view

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
        buf, off = self._find(addr, size)
        return buf[off : off + size].tobytes()

    def view(self, addr: int, size: int) -> np.ndarray:
        """Zero-copy uint8 view of an allocated range (for applications)."""
        buf, off = self._find(addr, size)
        return buf[off : off + size]

    def ndarray(self, addr: int, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Typed zero-copy view of an allocated range."""
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return self.view(addr, nbytes).view(dtype).reshape(shape)

    @property
    def allocated_bytes(self) -> int:
        return sum(end - start for start, end, _ in self._regions)
