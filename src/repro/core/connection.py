"""Connection state machine: the heart of the MultiEdge protocol.

One :class:`Connection` object lives at each endpoint of a point-to-point
channel.  It owns:

**Send side**
  * operation submission: RDMA writes fragment into frame descriptors; RDMA
    reads become a single READ_REQ frame,
  * the sliding :class:`~repro.core.window.SendWindow`,
  * the *pump*: the CPU-charged loop that moves frame descriptors into NIC
    TX rings, choosing a rail per frame via the striping policy, assigning
    sequence numbers in actual transmission order, and piggy-backing the
    current cumulative ack on every frame,
  * forward-fence enforcement (later operations are withheld until the
    fenced operation is fully acknowledged),
  * NACK-driven selective retransmission and the coarse timeout.

**Receive side**
  * duplicate filtering and out-of-order accounting
    (:class:`~repro.core.window.ReceiveTracker`),
  * delivery ordering / backward fences
    (:class:`~repro.core.ordering.OrderingManager`),
  * applying payloads into the node's virtual memory (the paper's
    copy-to-user step, charged to the protocol CPU),
  * servicing remote reads (READ_REQ spawns a READ_RESP send operation),
  * the delayed-ack and NACK timers,
  * completion notifications delivered to the user-level library.

Everything that costs CPU is expressed as a generator to be driven from a
simulation process (the application's syscall context or the kernel
protocol thread), so the CPU-utilization figures fall out of the model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Generator, Optional

from ..congestion import CongestionParams, make_congestion_controller
from ..congestion.base import FULL_FRAME_WIRE_BYTES
from ..ethernet import ECN_CE, ECN_ECHO, Frame, FrameType, OpFlags, max_payload_per_frame
from ..host.cpu import Cpu
from ..sim import Event, Simulator, Store, Timer
from .ack import AckPolicy, AckPolicyParams
from .messages import (
    ScatterList,
    make_ack_frame,
    make_data_frame,
    make_nack_frame,
    make_probe_ack_frame,
    make_read_req_frame,
    pack_scatter_frames,
    parse_scatter_records,
)
from .errors import PeerCrashed, RetransmitExhausted
from .ordering import FenceDelivery, InOrderDelivery, RxOpState
from .retransmit import RetransmitParams, RetransmitTimer
from .stats import ConnectionStats
from .striping import make_striping_policy
from .window import ReceiveTracker, SendWindow

__all__ = ["ProtocolParams", "Operation", "Notification", "Connection"]


@dataclass
class ProtocolParams:
    """Compile-time protocol configuration (paper: fixed window size etc.)."""

    window_frames: int = 256
    ack: AckPolicyParams = field(default_factory=AckPolicyParams)
    retransmit: RetransmitParams = field(default_factory=RetransmitParams)
    # 2L-1G mode: buffer out-of-order frames, apply strictly in seq order.
    in_order_delivery: bool = False
    striping: str = "round_robin"
    # Frames whose CPU cost is charged per pump batch.
    pump_batch: int = 8
    # Cost of reclaiming a batch of TX descriptors.
    tx_complete_ns: int = 400
    # Length-only payloads: frames carry no bytes, only header lengths.
    # Every CPU/wire cost is computed from lengths, so timing and results
    # are identical to carrying real bytes; memory contents are simply not
    # moved.  Used by the micro-benchmark harness; applications that read
    # back received data must keep this off.
    synthetic_payloads: bool = False
    # Congestion controller ("static" | "aimd" | "dctcp" | any registered
    # name).  "static" is the paper's behaviour: the fixed flow-control
    # window is the only send limit, and every trace is bit-identical to
    # a build without the congestion subsystem.
    congestion: str = "static"
    # Controller tunables; None uses CongestionParams() defaults.
    congestion_params: Optional[CongestionParams] = None

    def __post_init__(self) -> None:
        if self.window_frames < 1:
            raise ValueError("window_frames must be >= 1")
        if self.pump_batch < 1:
            raise ValueError("pump_batch must be >= 1")


class Operation:
    """Sender-side record of one RDMA operation."""

    WRITE = "write"
    READ = "read"
    READ_RESP = "read_resp"

    def __init__(
        self,
        sim: Simulator,
        op_id: int,
        op_seq: int,
        kind: str,
        flags: int,
        local_address: int,
        remote_address: int,
        length: int,
    ) -> None:
        self.op_id = op_id
        self.op_seq = op_seq
        self.kind = kind
        self.flags = flags
        self.local_address = local_address
        self.remote_address = remote_address
        self.length = length
        self.frames_total = 0
        self.frames_acked = 0
        self.bytes_received = 0  # reads: response bytes applied locally
        self.submitted_at = sim.now
        self.completed_at: Optional[int] = None
        self.done = Event(sim)
        # Terminal failure (RetransmitExhausted / PeerCrashed).  A failed
        # op counts as completed so waiters wake exactly once; the API
        # layer re-raises the error from wait()/test().
        self.error: Optional[BaseException] = None

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def forward_fenced(self) -> bool:
        return bool(self.flags & OpFlags.FENCE_FORWARD)

    def __repr__(self) -> str:
        state = "done" if self.completed else "pending"
        return f"Op({self.kind} id={self.op_id} len={self.length} {state})"


@dataclass
class Notification:
    """Completion notification delivered at the target (paper §2.2)."""

    op_id: int
    src_node: int
    address: int
    length: int
    delivered_at: int


@dataclass(slots=True)
class _FrameDesc:
    """A not-yet-transmitted fragment of an operation.

    ``payload_len`` is authoritative for frame sizing; ``payload`` holds
    the actual bytes, or None for READ_REQs and synthetic-payload mode.
    """

    op: Operation
    payload: Optional[bytes]
    remote_address: int
    payload_len: int = 0
    is_read_req: bool = False
    read_dest_address: int = 0  # READ_REQ: requester's local buffer


class Connection:
    """One endpoint of a MultiEdge connection."""

    def __init__(
        self,
        protocol: "Any",  # MultiEdgeProtocol; typed loosely to avoid a cycle
        conn_id: int,
        peer_node_id: int,
        peer_macs: list[int],
        params: Optional[ProtocolParams] = None,
    ) -> None:
        self.protocol = protocol
        self.node = protocol.node
        self.sim: Simulator = protocol.node.sim
        self.conn_id = conn_id
        self.peer_node_id = peer_node_id
        self.peer_macs = list(peer_macs)
        self.params = params or ProtocolParams()
        rails = min(len(self.peer_macs), len(self.node.nics))
        self.nics = self.node.nics[:rails]
        self.stats = ConnectionStats()
        # Set by graceful teardown (core.handshake); a closed connection
        # rejects new operations and ignores stray data frames.
        self.closed = False
        self.frames_after_close = 0

        # ---- send state ----
        self.window = SendWindow(self.params.window_frames)
        self.unsent: Deque[_FrameDesc] = deque()
        self._retransmit_q: Deque[int] = deque()  # seqs to retransmit
        self._frame_op: dict[int, Operation] = {}  # seq -> op
        self.striping = make_striping_policy(self.params.striping, self.nics)
        # Congestion control (repro.congestion).  The fast-path guard _cc
        # is None for the static policy — the same single-attribute-test
        # pattern as the monitor hooks, so the default costs nothing.
        self.congestion = make_congestion_controller(
            self.params.congestion, self.window, self.params.congestion_params
        )
        self._cc = self.congestion if self.congestion.active else None
        self._pacing_on = (
            self._cc is not None and self.congestion.params.pacing
        )
        # ECN accounting.  Deliberately *not* in ConnectionStats: stats
        # fields feed the fuzz fingerprints, which must stay bit-identical
        # for pre-ECN scenarios.
        self.ce_frames_received = 0
        self.ecn_echoes_sent = 0
        self.ecn_echoes_received = 0
        # Crash recovery (repro.recovery).  ``recovery`` is None unless the
        # cluster enabled whole-node crash faults; the incarnation pair then
        # fences off frames from dead incarnations of the peer.  Counters
        # are plain attributes for the same fingerprint reason as ECN.
        self.recovery: Optional[Any] = None
        self.local_incarnation = 0
        self.peer_incarnation = 0
        self.stale_frames_rejected = 0
        self.duplicate_msgs_suppressed = 0
        self._next_op_seq = 0
        self._forward_fences: Deque[Operation] = deque()
        self._pending_reads: dict[int, Operation] = {}  # op_id -> read op
        self.retransmit_timer = RetransmitTimer(
            self.sim,
            self.params.retransmit,
            on_timeout=self._on_coarse_timeout,
            on_dead=self._on_coarse_dead,
        )
        # Edge lifecycle control plane (repro.control); None when the
        # connection runs bare.  Receives probe echoes and dead-peer events.
        self.control_plane: Optional[Any] = None
        # Opt-in invariant monitor (repro.verify); None in normal runs so
        # every hook below is a single attribute test.
        self.monitor: Optional[Any] = None
        # Opt-in flow-level fast-forward (repro.fastpath); None keeps the
        # pump on the exact frame-level path.
        self.fastpath: Optional[Any] = None

        # ---- receive state ----
        self.tracker = ReceiveTracker()
        self.ordering = (
            InOrderDelivery() if self.params.in_order_delivery else FenceDelivery()
        )
        self.ack_policy = AckPolicy(self.params.ack)
        self._delayed_ack_timer: Optional[Timer] = None
        self._nack_timer: Optional[Timer] = None
        # Sequences that were already missing when the NACK timer was armed;
        # only gaps that *persist* across the whole delay are NACKed, so
        # transient striping reorder never triggers spurious retransmits.
        self._nack_snapshot: set[int] = set()
        self._nacked_at: dict[int, int] = {}
        self.notifications: Store = Store(self.sim)

        if self._pacing_on:
            self._sync_pacing()

    # ------------------------------------------------------------------
    # Operation submission (runs in the caller's CPU context)
    # ------------------------------------------------------------------

    def submit_write(
        self,
        local_address: int,
        remote_address: int,
        length: int,
        flags: int = 0,
    ) -> Operation:
        """Fragment an RDMA write into frame descriptors and queue them.

        Pure bookkeeping — the caller charges CPU and then drives
        :meth:`pump`.  The data is copied out of user memory here (the
        paper's user→kernel copy; cost charged by the API layer).
        """
        if length <= 0:
            raise ValueError("RDMA operation length must be positive")
        self._check_open()
        op = Operation(
            self.sim,
            op_id=self.protocol.allocate_op_id(),
            op_seq=self._next_op_seq,
            kind=Operation.WRITE,
            flags=flags,
            local_address=local_address,
            remote_address=remote_address,
            length=length,
        )
        self._next_op_seq += 1
        self.unsent.extend(self._fragment(op))
        if op.forward_fenced:
            self._forward_fences.append(op)
        self.stats.ops_submitted += 1
        if self.monitor is not None:
            self.monitor.on_op_submitted(self, op)
        return op

    def _fragment(self, op: Operation) -> list[_FrameDesc]:
        """Copy ``op``'s bytes out of local memory into MTU-sized frame
        descriptors (no bytes in synthetic-payload mode)."""
        length, mtu = op.length, max_payload_per_frame()
        data = None
        if not self.params.synthetic_payloads:
            data = self.node.memory.read(op.local_address, length)
        descs = [
            _FrameDesc(
                op=op,
                payload=None if data is None else data[offset : offset + mtu],
                remote_address=op.remote_address + offset,
                payload_len=min(mtu, length - offset),
            )
            for offset in range(0, length, mtu)
        ]
        op.frames_total += len(descs)
        return descs

    def submit_scatter(
        self,
        segments: "ScatterList | list[tuple[int, bytes]]",
        flags: int = 0,
    ) -> Operation:
        """Queue a scatter write: many small (address, data) segments in
        one operation.

        This is the wire format of a software-DSM *diff*: rather than one
        operation per changed byte-run, every run of a flush rides in one
        operation whose frames pack ``u64 addr + u32 len + data`` records
        (see :func:`~repro.core.messages.pack_scatter_frames`).
        """
        segments = ScatterList.of(segments)
        if not len(segments.addresses):
            raise ValueError("scatter operation needs at least one segment")
        self._check_open()
        remote_address = int(segments.addresses[0])
        op = Operation(
            self.sim,
            op_id=self.protocol.allocate_op_id(),
            op_seq=self._next_op_seq,
            kind=Operation.WRITE,
            flags=flags | OpFlags.SCATTER,
            local_address=0,
            remote_address=remote_address,
            length=0,
        )
        self._next_op_seq += 1
        for payload in pack_scatter_frames(segments, max_payload_per_frame()):
            self.unsent.append(
                _FrameDesc(
                    op=op,
                    payload=payload,
                    remote_address=remote_address,
                    payload_len=len(payload),
                )
            )
            op.frames_total += 1
            op.length += len(payload)
        if op.forward_fenced:
            self._forward_fences.append(op)
        self.stats.ops_submitted += 1
        if self.monitor is not None:
            self.monitor.on_op_submitted(self, op)
        return op

    def submit_read(
        self,
        local_address: int,
        remote_address: int,
        length: int,
        flags: int = 0,
    ) -> Operation:
        """Queue an RDMA read: one READ_REQ frame; completion when all
        response bytes have been applied locally."""
        if length <= 0:
            raise ValueError("RDMA operation length must be positive")
        self._check_open()
        op = Operation(
            self.sim,
            op_id=self.protocol.allocate_op_id(),
            op_seq=self._next_op_seq,
            kind=Operation.READ,
            flags=flags,
            local_address=local_address,
            remote_address=remote_address,
            length=length,
        )
        self._next_op_seq += 1
        op.frames_total = 1
        self.unsent.append(
            _FrameDesc(
                op=op,
                payload=None,
                remote_address=remote_address,
                is_read_req=True,
                read_dest_address=local_address,
            )
        )
        self._pending_reads[op.op_id] = op
        if op.forward_fenced:
            self._forward_fences.append(op)
        self.stats.ops_submitted += 1
        if self.monitor is not None:
            self.monitor.on_op_submitted(self, op)
        return op

    def _submit_read_response(self, req_frame: Frame) -> None:
        """Responder side: turn an applied READ_REQ into a data send."""
        length = req_frame.header.op_length
        source = req_frame.header.remote_address
        dest = req_frame.control  # requester's local buffer address
        op = Operation(
            self.sim,
            op_id=req_frame.header.op_id,  # keep the requester's id
            op_seq=self._next_op_seq,
            kind=Operation.READ_RESP,
            flags=0,
            local_address=source,
            remote_address=int(dest),
            length=length,
        )
        self._next_op_seq += 1
        descs = self._fragment(op)
        # Responses bypass forward fences (see _fence_blocked), so they
        # must not queue behind descriptors a fence is withholding: slot
        # them ahead of the first fence-blocked descriptor.
        idx = len(self.unsent)
        if self._forward_fences:
            barrier = self._forward_fences[0].op_seq
            for k, queued in enumerate(self.unsent):
                if (
                    queued.op.kind != Operation.READ_RESP
                    and queued.op.op_seq > barrier
                ):
                    idx = k
                    break
        for k, desc in enumerate(descs):
            self.unsent.insert(idx + k, desc)
        if self.monitor is not None:
            self.monitor.on_op_submitted(self, op)

    # ------------------------------------------------------------------
    # The pump: move descriptors into NIC rings (CPU-charged)
    # ------------------------------------------------------------------

    def has_send_work(self) -> bool:
        return bool(self._retransmit_q) or (
            bool(self.unsent) and self.window.can_send and not self._fence_blocked()
        )

    def _fence_blocked(self) -> bool:
        if not self._forward_fences or not self.unsent:
            return False
        head = self.unsent[0]
        if head.op.kind == Operation.READ_RESP:
            # Responder traffic is never fenced: forward fences order this
            # endpoint's *own* operations.  Parking a read response behind
            # a local fence deadlocks two endpoints whose fenced reads
            # wait on each other's responses.
            return False
        return head.op.op_seq > self._forward_fences[0].op_seq

    def pump(self, cpu: Cpu, tag: str = "protocol.send") -> Generator[Any, Any, None]:
        """Transmit as much as the window, fences, and TX rings allow."""
        fastpath = self.fastpath
        if fastpath is not None and fastpath.offer(self):
            # The flow is in analytic steady state: the forwarder took
            # ownership of everything queued and will synthesize the whole
            # cascade (including this pump's CPU charges) at op boundaries.
            return
        per_frame = self.node.params.per_frame_send_ns
        stats = self.stats
        while True:
            n = self._sendable_now()
            if n == 0:
                return
            batch = min(n, self.params.pump_batch)
            yield from cpu.run(batch * per_frame, tag)
            gray_extra = self.node.gray_pump_extra_ns
            if gray_extra:
                # SlowNode gray fault: the core really is this much slower,
                # but the surplus is billed under its own tag so the
                # pump-CPU conservation invariant stays exact.
                yield from cpu.run(batch * gray_extra, "gray.slow-node")
            # Transmit atomically (no yields) — recheck state after the wait.
            sent = 0
            while sent < batch:
                if not self._send_one():
                    break
                sent += 1
            stats.pump_charged_ns += sent * per_frame
            if self.monitor is not None:
                self.monitor.on_event(self)
            if sent < batch:
                # The batch was billed up front, then the TX rings (or a
                # state change during the CPU wait) stopped it early.  The
                # core really was occupied for the full charge, but the
                # surplus is ring-stall time, not protocol work: reclassify
                # it so protocol-CPU utilization counts only frames sent.
                stalled = (batch - sent) * per_frame
                stats.pump_stalled_ns += stalled
                cpu.accounting.reclassify(tag, "stall.tx_ring", stalled)
                return

    def _sendable_now(self) -> int:
        n = len(self._retransmit_q)
        if self.unsent and not self._fence_blocked():
            n += min(len(self.unsent), self.window.available)
        return n

    def _send_one(self) -> bool:
        """Push one frame to a NIC.  False when nothing can go right now."""
        # Retransmissions first: they unblock the peer.
        while self._retransmit_q:
            seq = self._retransmit_q[0]
            rec = self.window.inflight.get(seq)
            if rec is None:  # acked in the meantime
                self._retransmit_q.popleft()
                continue
            rail = self.striping.next_rail(rec.frame.wire_bytes)
            if rail is None:
                return False
            self._retransmit_q.popleft()
            # An independent wire copy: a previous copy of this seq may
            # still be in flight on another rail, and mutating a shared
            # object would retroactively rewrite its ack, ECN bits, MACs,
            # and transit state (hops/CE/corruption) mid-journey.
            frame = rec.frame.wire_copy()
            frame.dst_mac = self.peer_macs[rail]
            frame.src_mac = self.nics[rail].mac
            frame.header.ack = self.tracker.cum_ack
            # Re-evaluate the ECN echo: the bit a previous copy carried is
            # stale, and a pending CE debt may ride out with this copy.
            if self.ack_policy.echo_pending:
                frame.header.flags |= ECN_ECHO
                self.ecn_echoes_sent += 1
                self.ack_policy.note_echo_sent()
            else:
                frame.header.flags &= ~ECN_ECHO
            rec.last_sent_at = self.sim.now
            rec.last_rail = rail
            if self.recovery is not None:
                frame.incarnation = self.local_incarnation
            self.nics[rail].transmit(frame)
            self.stats.retransmitted_frames += 1
            self.retransmit_timer.arm()
            return True
        unsent = self.unsent
        window = self.window
        if not unsent or not window.can_send or self._fence_blocked():
            return False
        next_bytes = unsent[0].payload_len or 64
        rail = self.striping.next_rail(next_bytes)
        if rail is None:
            return False
        desc = unsent.popleft()
        seq = window.allocate_seq()
        cum_ack = self.tracker.cum_ack
        nic = self.nics[rail]
        if desc.is_read_req:
            frame = make_read_req_frame(
                src_mac=nic.mac,
                dst_mac=self.peer_macs[rail],
                connection_id=self.conn_id,
                seq=seq,
                ack=cum_ack,
                op_id=desc.op.op_id,
                op_seq=desc.op.op_seq,
                op_flags=desc.op.flags,
                remote_address=desc.remote_address,
                op_length=desc.op.length,
            )
            frame.control = desc.read_dest_address
        else:
            frame = make_data_frame(
                src_mac=nic.mac,
                dst_mac=self.peer_macs[rail],
                connection_id=self.conn_id,
                seq=seq,
                ack=cum_ack,
                op_id=desc.op.op_id,
                op_seq=desc.op.op_seq,
                op_flags=desc.op.flags,
                remote_address=desc.remote_address,
                op_length=desc.op.length,
                payload=desc.payload,
                read_response=desc.op.kind == Operation.READ_RESP,
                payload_length=desc.payload_len,
            )
        if self.ack_policy.echo_pending:
            frame.header.flags |= ECN_ECHO
            self.ecn_echoes_sent += 1
        if self.recovery is not None:
            frame.incarnation = self.local_incarnation
        window.register(frame, desc.op.op_id, self.sim.now, rail=rail)
        self._frame_op[seq] = desc.op
        nic.transmit(frame)
        stats = self.stats
        stats.data_frames_sent += 1
        stats.data_bytes_sent += frame.header.payload_length
        stats.piggybacked_acks += 1
        self.ack_policy.on_ack_emitted(cum_ack, piggybacked=True)
        self._cancel_delayed_ack()
        self.retransmit_timer.arm()
        return True

    # ------------------------------------------------------------------
    # Receive path (runs on the protocol kernel thread)
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(
                f"connection {self.conn_id} is closed; no new operations"
            )

    def handle_rx_frame(self, frame: Frame, cpu: Cpu) -> Generator[Any, Any, None]:
        h = frame.header
        if self.recovery is not None and frame.incarnation != self.peer_incarnation:
            # Frame (or ack) from a dead incarnation of the peer: reject it
            # before it can corrupt the resurrected connection's windows.
            self.stale_frames_rejected += 1
            return
        if self.monitor is not None:
            # No-stale-frame-accepted invariant: every frame that passes
            # the guard above must match the expected peer incarnation.
            self.monitor.on_rx_frame(self, frame)
        if self.closed and h.frame_type in (
            FrameType.DATA, FrameType.READ_REQ, FrameType.READ_RESP
        ):
            self.frames_after_close += 1
            return
        # Per-frame protocol cost, charged inline (the open-coded uncontended
        # claim mirrors Cpu.run exactly; the receive path is hot enough that
        # the extra generator hop per frame shows up in wall time).
        duration = self.node.params.per_frame_recv_ns
        if duration > 0:
            sim = self.sim
            res = cpu.resource
            if res.in_use < res.capacity and not res._waiters:
                now = sim.now
                res.busy_time += res.in_use * (now - res._busy_since)
                res._busy_since = now
                res.in_use += 1
            else:
                yield res.acquire()
            yield duration
            if res._waiters:
                res.release()
            else:
                now = sim.now
                res.busy_time += res.in_use * (now - res._busy_since)
                res._busy_since = now
                res.in_use -= 1
            cpu.accounting.charge("protocol.recv", duration)

        ftype = h.frame_type
        if ftype == FrameType.PROBE:
            # Heartbeat: echo it on the rail it probed (control plane §2.4
            # analogue; unsequenced, never flow-controlled).
            if not self.closed:
                yield from self._answer_probe(frame, cpu)
            return
        if ftype == FrameType.PROBE_ACK:
            if self.control_plane is not None:
                self.control_plane.on_probe_ack(frame)
            return
        if ftype == FrameType.ACK:
            self.stats.explicit_acks_received += 1
            self._process_ack_value(h.ack, bool(h.flags & ECN_ECHO))
        elif ftype == FrameType.NACK:
            self.stats.nacks_received += 1
            self._process_ack_value(h.ack, bool(h.flags & ECN_ECHO))
            self._process_nack(frame.control or [])
        else:
            # Sequenced frame: ECN first (a CE mark must be echoed even on
            # a duplicate), then the piggy-backed ack, then delivery.
            flags = h.flags
            if flags & ECN_CE:
                self.ce_frames_received += 1
                self.ack_policy.note_ce()
            self._process_ack_value(h.ack, bool(flags & ECN_ECHO))
            stats = self.stats
            tracker = self.tracker
            expected_before = tracker.expected
            is_new, in_order = tracker.on_frame(h.seq)
            if not is_new:
                stats.duplicate_frames += 1
                # The peer is retransmitting: our ack state probably got lost.
                self._send_explicit_ack()
            else:
                stats.data_frames_received += 1
                stats.data_bytes_received += h.payload_length
                if not in_order:
                    stats.out_of_order_frames += 1
                    stats.record_reorder(abs(h.seq - expected_before))

                # Gap management: arm/cancel the NACK timer.
                if tracker._beyond:
                    self._arm_nack_timer()
                else:
                    self._cancel_nack_timer()

                apply_now, completed = self.ordering.on_frame(frame)
                if not apply_now:
                    stats.record_buffered(self.ordering.buffered)
                for f in apply_now:
                    yield from self._apply_frame(f, cpu)
                for rx_op in completed:
                    self._on_rx_op_complete(rx_op)

                if self.ack_policy.on_data_frame():
                    self._send_explicit_ack()
                else:
                    self._arm_delayed_ack()

        if self.monitor is not None:
            self.monitor.on_event(self)
        # Acks may have opened the window; new work may be queued.
        if self.has_send_work():
            yield from self.pump(cpu)

    def _apply_frame(self, frame: Frame, cpu: Cpu) -> Generator[Any, Any, None]:
        h = frame.header
        if h.frame_type == FrameType.READ_REQ:
            # Perform the read: snapshot memory into a response operation.
            cost = self.node.params.memcpy_ns(h.op_length)
            yield from cpu.run(cost, "protocol.recv")
            self._submit_read_response(frame)
            return
        if h.payload_length > 0:
            # Copy-to-user cost is a function of length alone; it is charged
            # whether or not real bytes ride in the frame (synthetic mode).
            cost = self.node.params.memcpy_ns(h.payload_length)
            if cost > 0:
                sim = self.sim
                res = cpu.resource
                if res.in_use < res.capacity and not res._waiters:
                    now = sim.now
                    res.busy_time += res.in_use * (now - res._busy_since)
                    res._busy_since = now
                    res.in_use += 1
                else:
                    yield res.acquire()
                yield cost
                if res._waiters:
                    res.release()
                else:
                    now = sim.now
                    res.busy_time += res.in_use * (now - res._busy_since)
                    res._busy_since = now
                    res.in_use -= 1
                cpu.accounting.charge("protocol.recv", cost)
            payload = frame.payload
            if payload is not None:
                if h.flags & OpFlags.SCATTER:
                    self.node.memory.write_scatter(parse_scatter_records(payload), payload)
                else:
                    self.node.memory.write(h.remote_address, payload)
        if h.frame_type == FrameType.READ_RESP:
            op = self._pending_reads.get(h.op_id)
            if op is not None:
                op.bytes_received += h.payload_length
                if op.bytes_received >= op.length:
                    del self._pending_reads[h.op_id]
                    self._complete_local_op(op)

    def _on_rx_op_complete(self, rx_op: RxOpState) -> None:
        rx_op.src_node = self.peer_node_id
        if (
            self.recovery is not None
            and rx_op.flags & OpFlags.JOURNALED
            and not self.recovery.accept_delivery(self, rx_op)
        ):
            # Journal replay re-sent a message this node already delivered
            # (same peer incarnation + journal seq): suppress the duplicate.
            self.duplicate_msgs_suppressed += 1
            return
        if rx_op.wants_notification() and not rx_op.is_read_request:
            self.notifications.put(
                Notification(
                    op_id=rx_op.op_id,
                    src_node=self.peer_node_id,
                    address=rx_op.base_address,
                    length=rx_op.length,
                    delivered_at=self.sim.now,
                )
            )
            self.stats.notifications_delivered += 1

    # ------------------------------------------------------------------
    # Edge lifecycle (driven by repro.control, usable manually too)
    # ------------------------------------------------------------------

    def _answer_probe(self, frame: Frame, cpu: Cpu) -> Generator[Any, Any, None]:
        """Echo a heartbeat probe back on the rail it arrived on."""
        rail = frame.control
        if not isinstance(rail, int) or not 0 <= rail < len(self.nics):
            return
        yield from cpu.run(self.node.params.per_frame_send_ns, "protocol.send")
        gray_extra = self.node.gray_pump_extra_ns
        if gray_extra:
            # A slow node answers probes slowly too — that is exactly the
            # RTT inflation the differential gray scorer keys on.
            yield from cpu.run(gray_extra, "gray.slow-node")
        nic = self.nics[rail]
        probe_ack = make_probe_ack_frame(
            nic.mac, self.peer_macs[rail], self.conn_id, frame
        )
        if self.recovery is not None:
            probe_ack.incarnation = self.local_incarnation
        nic.transmit(probe_ack)
        self.stats.probes_answered += 1

    def remove_edge(self, rail: int, migrate: bool = True) -> int:
        """Take one rail of a live connection out of service.

        Masks the rail for the striping policy and migrates every unacked
        in-flight frame whose latest transmission used it onto the
        survivors (requeued in sequence order, so delivery-order
        guarantees are untouched — retransmissions keep their original
        sequence numbers).  Returns the number of migrated frames.
        Idempotent: removing an already-removed edge does nothing.
        """
        if not 0 <= rail < len(self.nics):
            raise ValueError(f"rail {rail} out of range")
        if not self.striping.rail_active(rail):
            return 0
        self.striping.disable_rail(rail)
        self.stats.edges_removed += 1
        migrated = 0
        if migrate:
            queued = set(self._retransmit_q)
            for seq in self.window.inflight_on_rail(rail):
                if seq in queued:
                    continue
                self.window.inflight[seq].retransmits += 1
                self._retransmit_q.append(seq)
                migrated += 1
        self.stats.migrated_frames += migrated
        if self.monitor is not None:
            self.monitor.on_event(self)
        if self.has_send_work():
            self.sim.process(self._timer_pump())
        return migrated

    def add_edge(self, rail: int) -> None:
        """Return a previously removed rail to service (live re-stripe)."""
        if not 0 <= rail < len(self.nics):
            raise ValueError(f"rail {rail} out of range")
        if self.striping.rail_active(rail):
            return
        self.striping.enable_rail(rail)
        self.stats.edges_added += 1
        if self.monitor is not None:
            self.monitor.on_event(self)
        if self.has_send_work():
            self.sim.process(self._timer_pump())

    def attach_rail(self, nic: "Any", peer_mac: int) -> int:
        """Extend a live connection with a brand-new rail; returns its index.

        The NIC must already be wired into the fabric; the peer must
        symmetrically attach its own end for traffic to flow both ways.
        """
        self.nics.append(nic)
        self.peer_macs.append(peer_mac)
        rail = self.striping.add_rail(nic)
        self.stats.edges_added += 1
        return rail

    @property
    def active_rails(self) -> list[int]:
        return self.striping.active_rails

    def _on_coarse_dead(self) -> None:
        """Retransmit retries exhausted: every rail is silent."""
        self.fail_pending_ops(
            RetransmitExhausted(
                self.conn_id, self.retransmit_timer.consecutive_timeouts
            )
        )
        if self.control_plane is not None:
            self.control_plane.on_connection_dead()

    def fail_pending_ops(self, exc: BaseException) -> int:
        """Terminate every incomplete operation with a typed error.

        Failed ops count as completed (waiters wake exactly once and the
        API layer re-raises ``exc``); send queues and window state are left
        untouched so accounting invariants still hold — :meth:`destroy`
        clears them for the whole-node crash case.  Returns the number of
        ops failed.
        """
        pending: dict[int, Operation] = {}
        for op in self._frame_op.values():
            pending[id(op)] = op
        for desc in self.unsent:
            pending[id(desc.op)] = desc.op
        for op in self._pending_reads.values():
            pending[id(op)] = op
        for op in self._forward_fences:
            pending[id(op)] = op
        failed = 0
        for op in pending.values():
            if op.completed:
                continue
            op.error = exc
            op.completed_at = self.sim.now
            if not op.done.triggered:
                op.done.trigger(op)
            failed += 1
        return failed

    def destroy(self, exc: Optional[BaseException] = None) -> int:
        """Atomically discard this endpoint's volatile state (crash model).

        Fails every pending op (default :class:`PeerCrashed`), cancels all
        timers, drops the send/receive queues and in-flight window records,
        and removes the connection from the protocol's dispatch table.
        Frames still in the fabric hit ``unknown_connection_frames`` (or
        the stale-incarnation guard of a successor connection).  Returns
        the number of ops failed.
        """
        if exc is None:
            exc = PeerCrashed(self.conn_id, self.peer_node_id)
        fastpath = self.fastpath
        if fastpath is not None:
            fastpath.on_discontinuity("endpoint-destroyed")
            self.fastpath = None
        failed = self.fail_pending_ops(exc)
        self.closed = True
        self.retransmit_timer.cancel()
        self.retransmit_timer.exhausted = True  # never re-arm
        self._cancel_delayed_ack()
        self._cancel_nack_timer()
        self.unsent.clear()
        self._retransmit_q.clear()
        self.window.inflight.clear()
        self._frame_op.clear()
        self._pending_reads.clear()
        self._forward_fences.clear()
        if self.protocol.connections.get(self.conn_id) is self:
            del self.protocol.connections[self.conn_id]
        return failed

    # ------------------------------------------------------------------
    # Ack / NACK machinery
    # ------------------------------------------------------------------

    def _sync_pacing(self) -> None:
        """Retune the NIC token buckets to the controller's current rate.

        The connection-level rate (cwnd/srtt with headroom) is split evenly
        across the active rails; the NIC clamps each share at line rate.
        """
        rate = self.congestion.pacing_rate_bps()
        if rate is None:
            return
        rails = self.striping.active_rails
        per_rail = rate / len(rails) if rails else rate
        burst = self.congestion.params.pacing_burst_frames * FULL_FRAME_WIRE_BYTES
        for rail in rails:
            self.nics[rail].set_pacing_rate(per_rail, burst)

    def _process_ack_value(self, cum_ack: int, ece: bool = False) -> None:
        freed = self.window.on_ack(cum_ack)
        if ece:
            self.ecn_echoes_received += 1
        if self.monitor is not None:
            self.monitor.on_ack(self, cum_ack, freed)
        if not freed:
            return
        cc = self._cc
        if cc is not None:
            # Karn's rule: an RTT sample only from a never-retransmitted
            # frame (the newest of the freed batch).
            rec = freed[-1]
            rtt = None if rec.retransmits else self.sim.now - rec.last_sent_at
            cc.on_ack(len(freed), ece, self.sim.now, rtt)
            if self._pacing_on:
                self._sync_pacing()
        self.retransmit_timer.on_progress()
        if self.window.inflight:
            self.retransmit_timer.arm()
        for rec in freed:
            seq = rec.frame.header.seq
            op = self._frame_op.pop(seq, None)
            if op is None:
                continue
            op.frames_acked += 1
            if op.frames_acked >= op.frames_total and not op.completed:
                if op.kind == Operation.READ:
                    # Reads complete when response data lands, not on ack.
                    continue
                self._complete_local_op(op)

    def _complete_local_op(self, op: Operation) -> None:
        op.completed_at = self.sim.now
        self.stats.ops_completed += 1
        if self._forward_fences and self._forward_fences[0] is op:
            self._forward_fences.popleft()
        elif op in self._forward_fences:
            self._forward_fences.remove(op)
        op.done.trigger(op)

    def _process_nack(self, missing: list[int]) -> None:
        queued = set(self._retransmit_q)
        holdoff = self.params.retransmit.nack_holdoff_ns
        now = self.sim.now
        enqueued = 0
        for seq in missing:
            rec = self.window.inflight.get(seq)
            if rec is None or seq in queued:
                continue
            # Recently (re)transmitted frames are most likely still queued
            # in a busy rail, not lost: retransmitting them would only add
            # duplicates on an already-congested path.
            if now - rec.last_sent_at < holdoff:
                continue
            rec.retransmits += 1
            self._retransmit_q.append(seq)
            self.stats.nack_retransmits += 1
            enqueued += 1
        if enqueued:
            cc = self._cc
            if cc is not None:
                cc.on_loss(now)
                if self._pacing_on:
                    self._sync_pacing()

    def _send_explicit_ack(self) -> None:
        # Control frames ride a separate rotation: they must not charge the
        # data-plane byte-deficit counters or advance its cursor.
        rail = self.striping.control_rail()
        if rail is None:
            return  # rings full; the delayed-ack timer will try again
        cum = self.tracker.cum_ack
        ece = self.ack_policy.echo_pending
        frame = make_ack_frame(
            self.nics[rail].mac, self.peer_macs[rail], self.conn_id, cum, ece
        )
        if self.recovery is not None:
            frame.incarnation = self.local_incarnation
        self.nics[rail].transmit(frame)
        self.stats.explicit_acks_sent += 1
        if ece:
            self.ecn_echoes_sent += 1
        self.ack_policy.on_ack_emitted(cum, piggybacked=False)
        self._cancel_delayed_ack()

    def _send_nack(self) -> None:
        still_missing = set(self.tracker.missing(self.params.ack.nack_max_entries))
        now = self.sim.now
        renack = self.params.ack.renack_interval_ns
        missing = sorted(
            seq
            for seq in (still_missing & self._nack_snapshot)
            if now - self._nacked_at.get(seq, -(1 << 60)) >= renack
        )
        if not missing:
            return
        rail = self.striping.control_rail()
        if rail is None:
            return
        ece = self.ack_policy.echo_pending
        frame = make_nack_frame(
            self.nics[rail].mac,
            self.peer_macs[rail],
            self.conn_id,
            self.tracker.cum_ack,
            missing,
            ece,
        )
        if self.recovery is not None:
            frame.incarnation = self.local_incarnation
        self.nics[rail].transmit(frame)
        self.stats.nacks_sent += 1
        if ece:
            self.ecn_echoes_sent += 1
            self.ack_policy.note_echo_sent()
        for seq in missing:
            self._nacked_at[seq] = now
        expected = self.tracker.expected
        if len(self._nacked_at) > 4 * self.params.ack.nack_max_entries:
            self._nacked_at = {
                s: t for s, t in self._nacked_at.items() if s >= expected
            }

    # ------------------------------------------------------------------
    # Timers (callbacks spawn small CPU-charged processes)
    # ------------------------------------------------------------------

    def _arm_delayed_ack(self) -> None:
        if self._delayed_ack_timer is None or not self._delayed_ack_timer.active:
            self._delayed_ack_timer = self.sim.timer(
                self.params.ack.ack_delay_ns, self._delayed_ack_fired
            )

    def _cancel_delayed_ack(self) -> None:
        if self._delayed_ack_timer is not None:
            self._delayed_ack_timer.cancel()
            self._delayed_ack_timer = None

    def _delayed_ack_fired(self) -> None:
        self._delayed_ack_timer = None
        if self.ack_policy.needs_delayed_ack(self.tracker.cum_ack):
            self.sim.process(self._timer_work(self._send_explicit_ack))

    def _arm_nack_timer(self) -> None:
        if self._nack_timer is None or not self._nack_timer.active:
            self._nack_snapshot = set(
                self.tracker.missing(self.params.ack.nack_max_entries)
            )
            self._nack_timer = self.sim.timer(
                self.params.ack.nack_delay_ns, self._nack_fired
            )

    def _cancel_nack_timer(self) -> None:
        if self._nack_timer is not None:
            self._nack_timer.cancel()
            self._nack_timer = None

    def _nack_fired(self) -> None:
        self._nack_timer = None
        if self.tracker.has_gap():
            self.sim.process(self._timer_work(self._send_nack))
            self._arm_nack_timer()  # keep nagging until the gap closes

    def _on_coarse_timeout(self) -> None:
        rec = self.window.last_unacked()
        if rec is None:
            return
        seq = rec.frame.header.seq
        if seq not in self._retransmit_q:
            # Count at the enqueue site: a timer firing while the seq is
            # still queued enqueues nothing and must not inflate either
            # the per-frame or the connection-level retransmit counter.
            rec.retransmits += 1
            self.stats.timeout_retransmits += 1
            self._retransmit_q.append(seq)
            cc = self._cc
            if cc is not None:
                cc.on_timeout(self.sim.now)
                if self._pacing_on:
                    self._sync_pacing()
        self.sim.process(self._timer_pump())
        self.retransmit_timer.arm()
        if self.monitor is not None:
            self.monitor.on_event(self)

    def _timer_work(self, action) -> Generator[Any, Any, None]:
        """Run a small control-frame action on the protocol CPU."""
        cpu = self.node.protocol_cpu
        yield from cpu.run(self.node.params.per_frame_send_ns, "protocol.send")
        action()

    def _timer_pump(self) -> Generator[Any, Any, None]:
        yield from self.pump(self.node.protocol_cpu)
