"""Receiver-side delivery ordering and fence semantics (paper §2.5).

By default MultiEdge lets operations — and the individual frames inside
them — be applied to destination memory in whatever order they arrive.
Ordering constraints come from two sources:

* **in-order mode** (the paper's 2L-1G configuration): every frame is
  applied in strict sequence-number order; out-of-order arrivals are
  buffered until the gap fills;
* **fence mode** (1L, 2Lu): frames are applied on arrival unless the
  operation carries a *backward fence* — "performed only after all previous
  operations issued by this source to the same destination have been
  performed".  (*Forward fences* are enforced on the send side: the sender
  withholds later operations until the fenced operation is fully
  acknowledged; see :mod:`repro.core.connection`.)

Completion tracking lives here too: an operation is *performed* when all of
its payload bytes have been applied, at which point notifications (if
requested) fire.  Once the watermark passes a performed operation no frame
can refer to it again (the sequence tracker drops duplicates first), so its
record is retired and only its byte count is kept.

The manager assumes the caller applies every frame it returns, immediately
and in order — true for the kernel-thread receive path that drives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ethernet import Frame, FrameType, OpFlags

__all__ = ["RxOpState", "OrderingManager", "InOrderDelivery", "FenceDelivery"]


@dataclass(slots=True)
class RxOpState:
    """Receiver-side record of one incoming operation."""

    op_id: int
    op_seq: int
    flags: int
    length: int
    src_node: int = -1
    bytes_applied: int = 0
    complete: bool = False
    is_read_request: bool = False
    # Lowest target address seen across the op's frames; once the op is
    # complete this is the operation's base remote address.
    base_address: int = 1 << 62

    def wants_notification(self) -> bool:
        return bool(self.flags & OpFlags.NOTIFY)


class OrderingManager:
    """Base class: operation bookkeeping shared by both delivery modes."""

    def __init__(self) -> None:
        self.ops: dict[int, RxOpState] = {}  # op_seq -> state, not retired
        self.watermark = 0  # every op_seq < watermark is complete and retired
        self.retired_bytes = 0  # bytes_applied summed over retired ops

    def _op_for(self, frame: Frame) -> RxOpState:
        h = frame.header
        op = self.ops.get(h.op_seq)
        if op is None:
            op = RxOpState(
                op_id=h.op_id,
                op_seq=h.op_seq,
                flags=h.flags,
                length=h.op_length,
                is_read_request=h.frame_type == FrameType.READ_REQ,
            )
            self.ops[h.op_seq] = op
        if h.remote_address < op.base_address:
            op.base_address = h.remote_address
        return op

    def _apply_bookkeeping(self, frame: Frame) -> Optional[RxOpState]:
        """Record a frame as applied; returns the op if it just completed."""
        op = self._op_for(frame)
        op.bytes_applied += frame.header.payload_length
        done = (
            op.is_read_request or op.bytes_applied >= op.length
        ) and not op.complete
        if done:
            op.complete = True
            self._advance_watermark()
            return op
        return None

    def _advance_watermark(self) -> None:
        while True:
            op = self.ops.get(self.watermark)
            if op is None or not op.complete:
                return
            del self.ops[self.watermark]
            self.retired_bytes += op.bytes_applied
            self.watermark += 1

    # Subclass interface -------------------------------------------------

    @property
    def buffered(self) -> int:
        raise NotImplementedError

    def on_frame(self, frame: Frame) -> tuple[list[Frame], list[RxOpState]]:
        """Feed one (deduplicated) sequenced frame.

        Returns ``(apply_now, completed_ops)``: the frames the caller must
        apply to memory right now, in order, and the operations that became
        complete as a result.
        """
        raise NotImplementedError


class InOrderDelivery(OrderingManager):
    """Strict sequence-order application (2L-1G configuration)."""

    def __init__(self) -> None:
        super().__init__()
        self._next_apply = 0
        self._buffer: dict[int, Frame] = {}

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def on_frame(self, frame: Frame) -> tuple[list[Frame], list[RxOpState]]:
        self._op_for(frame)
        if frame.header.seq != self._next_apply:
            self._buffer[frame.header.seq] = frame
            return [], []
        batch = [frame]
        self._next_apply += 1
        while self._next_apply in self._buffer:
            batch.append(self._buffer.pop(self._next_apply))
            self._next_apply += 1
        completed = []
        for f in batch:
            op = self._apply_bookkeeping(f)
            if op is not None:
                completed.append(op)
        return batch, completed


class FenceDelivery(OrderingManager):
    """Apply-on-arrival with backward-fence blocking (1L / 2Lu configs)."""

    def __init__(self) -> None:
        super().__init__()
        # op_seq -> frames waiting for the fence to lift, in arrival order.
        self._blocked: dict[int, list[Frame]] = {}

    @property
    def buffered(self) -> int:
        return sum(len(v) for v in self._blocked.values())

    def _fence_blocks(self, frame: Frame) -> bool:
        h = frame.header
        return bool(h.flags & OpFlags.FENCE_BACKWARD) and self.watermark < h.op_seq

    def on_frame(self, frame: Frame) -> tuple[list[Frame], list[RxOpState]]:
        self._op_for(frame)
        if self._fence_blocks(frame):
            self._blocked.setdefault(frame.header.op_seq, []).append(frame)
            return [], []
        batch = [frame]
        completed = []
        # Applying frames can complete ops, advance the watermark, and lift
        # fences for buffered frames; iterate to a fixpoint.
        i = 0
        while i < len(batch):
            op = self._apply_bookkeeping(batch[i])
            i += 1
            if op is None:
                continue
            completed.append(op)
            for op_seq in sorted(self._blocked):
                probe = self._blocked[op_seq][0]
                if self._fence_blocks(probe):
                    continue
                batch.extend(self._blocked.pop(op_seq))
        return batch, completed
