"""Opt-in runtime invariant checker for the MultiEdge protocol.

An :class:`InvariantMonitor` attaches to a cluster (or to individual
connections) through the guarded hook points the core exposes
(``Connection.monitor``, ``Nic.monitor``,
``EdgeLifecycleManager.invariant_monitor``).  When no monitor is attached
every hook is a single ``is not None`` test, so the disabled overhead is
unmeasurable; when attached, the full invariant set below is re-checked
after every protocol event and the first violation raises (or is
collected, in ``collect`` mode) with enough context to debug.

Checked invariants (see docs/PROTOCOL.md "Protocol invariants"):

**Send side**
  * in-flight frames never exceed the window size,
  * every in-flight seq is below ``next_seq`` and at or above the highest
    cumulative ack processed (no freed seq reappears in flight),
  * seq conservation: ``next_seq == frames freed by acks + in flight``,
  * the retransmit queue holds no duplicates, and every entry is either
    still in flight or below the ack watermark (lazily freed),
  * ``data_frames_sent`` equals the sequence numbers consumed,
  * pump CPU conservation: ``pump_charged_ns`` equals frames actually sent
    times ``per_frame_send_ns`` (the TX-ring stall surplus is reclassified,
    never silently kept),
  * the seq → operation map matches the in-flight set exactly,
  * per operation: ``frames_acked <= frames_total``; frame conservation
    over all submitted operations vs. unsent descriptors + consumed seqs.

**Receive side**
  * the cumulative ack (``tracker.expected``) is monotone,
  * every buffered out-of-order seq is beyond ``expected``,
  * the ordering manager's watermark is monotone; in-order delivery stays
    in lockstep with the tracker; fence-blocked frames are genuinely
    fence-blocked,
  * per receive operation: ``bytes_applied <= length``; completion implies
    all bytes applied; byte conservation: applied + still-buffered payload
    bytes equals ``data_bytes_received``.

**Striping**
  * byte-deficit counters are non-negative and renormalised (bounded),
  * masked rails are in range.

**Congestion (repro.congestion)**
  * when a controller grants a cwnd, it stays within
    ``[min_cwnd_frames, window.size]``; the static policy leaves
    ``window.cwnd`` as ``None``,
  * ECN conservation (final): a sender never receives more echoes than
    its peer sent, and the cluster never receives more CE-marked frames
    than its switches marked.

**Wire (NIC tap)**
  * sequenced frames transmitted equals ``data_frames_sent +
    retransmitted_frames``; explicit ACK/NACK counts match stats; no
    unregistered seq ever hits the wire.

**Crash recovery (repro.recovery)**
  * no stale frame accepted: every frame that passes the receive path's
    incarnation guard carries the negotiated peer incarnation,
  * journal conservation (final): every journaled message is in exactly
    one of {pending, delivered}; jseqs are contiguous from 0; every
    delivered entry appears in the receiver's durable delivery log.

**Final (quiesced end-of-run)**
  * CPU conservation: each node's summed resource busy time equals the
    sum of per-tag accounting charges,
  * NIC rings and RX pipelines are empty,
  * cross-endpoint: a receiver never acks beyond what its peer sent,
  * edge lifecycle transitions follow the detector state machine
    (checked online as they happen).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..control.detector import EdgeState
from ..ethernet import FrameType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bench.cluster import Cluster
    from ..core.connection import Connection, Operation
    from ..ethernet import Frame, Nic

__all__ = ["InvariantViolation", "ConnectionMonitor", "InvariantMonitor"]

_DEFICIT_BOUND = 1 << 30  # striping renormalisation threshold

_SEQUENCED = (FrameType.DATA, FrameType.READ_REQ, FrameType.READ_RESP)


class InvariantViolation(AssertionError):
    """A protocol invariant failed.  Carries the invariant name + context."""

    def __init__(self, name: str, detail: str, where: str = "") -> None:
        self.invariant = name
        self.detail = detail
        self.where = where
        # Stamped by InvariantMonitor._violation with the simulated time
        # the check fired; rewind-to-violation seeks back to this instant.
        self.time_ns = 0
        super().__init__(f"[{name}] {detail}" + (f" ({where})" if where else ""))


class ConnectionMonitor:
    """Per-connection-endpoint invariant state and checks."""

    def __init__(self, mon: "InvariantMonitor", conn: "Connection") -> None:
        self.mon = mon
        self.conn = conn
        self.where = f"conn={conn.conn_id} node={conn.node.node_id}"
        self.checks = 0
        # Ack bookkeeping fed by the on_ack hook.
        self.freed_total = 0
        self.ack_watermark = 0
        self.ops: list[Operation] = []  # every op submitted since attach
        # Frame conservation over tracked ops is only sound if no unsent
        # descriptors from *untracked* (pre-attach) ops remain queued.
        self._ops_check = not conn.unsent
        self._seq0 = conn.window.next_seq
        self._inflight0 = len(conn.window.inflight)
        # Wire-tap counters (fed by the NIC hook, routed by connection id).
        self.wire_data = 0
        self.wire_acks = 0
        self.wire_nacks = 0
        self.wire_probes = 0
        # Monotonicity state.
        self._expected_max = conn.tracker.expected
        self._watermark_max = conn.ordering.watermark
        # Stats counters may be re-zeroed mid-run (measurement resets swap
        # the stats object); rebase every stats-relative check when the
        # object identity changes.
        self._stats_ref: Any = None
        self._rebase()

    # -- rebasing against stats resets ----------------------------------

    def _rebase(self) -> None:
        s = self.conn.stats
        self._stats_ref = s
        self._seq_base = self.conn.window.next_seq - s.data_frames_sent
        self._wire_data_base = self.wire_data - (
            s.data_frames_sent + s.retransmitted_frames
        )
        self._wire_ack_base = self.wire_acks - s.explicit_acks_sent
        self._wire_nack_base = self.wire_nacks - s.nacks_sent
        self._rx_bytes_base = (
            self._applied_plus_buffered() - s.data_bytes_received
        )

    def _applied_plus_buffered(self) -> int:
        ordering = self.conn.ordering
        applied = ordering.retired_bytes + sum(
            op.bytes_applied for op in ordering.ops.values()
        )
        buffered = 0
        buf = getattr(ordering, "_buffer", None)
        if buf is not None:  # InOrderDelivery
            buffered += sum(f.header.payload_length for f in buf.values())
        blocked = getattr(ordering, "_blocked", None)
        if blocked is not None:  # FenceDelivery
            for frames in blocked.values():
                buffered += sum(f.header.payload_length for f in frames)
        return applied + buffered

    # -- hook entry points ------------------------------------------------

    def on_ack(self, cum_ack: int, freed: list) -> None:
        self.freed_total += len(freed)
        for rec in freed:
            if rec.frame.header.seq >= cum_ack:
                self._fail(
                    "ack-freed-beyond-cumack",
                    f"freed seq {rec.frame.header.seq} >= cum_ack {cum_ack}",
                )
        if cum_ack > self.ack_watermark:
            self.ack_watermark = cum_ack

    def on_op_submitted(self, op: "Operation") -> None:
        self.ops.append(op)

    def on_wire_tx(self, frame: "Frame") -> None:
        ftype = frame.header.frame_type
        if ftype in _SEQUENCED:
            self.wire_data += 1
            if frame.header.seq >= self.conn.window.next_seq:
                self._fail(
                    "wire-unregistered-seq",
                    f"seq {frame.header.seq} transmitted but next_seq is "
                    f"{self.conn.window.next_seq}",
                )
        elif ftype == FrameType.ACK:
            self.wire_acks += 1
        elif ftype == FrameType.NACK:
            self.wire_nacks += 1
        else:
            self.wire_probes += 1

    # -- the invariant set ------------------------------------------------

    def _fail(self, name: str, detail: str) -> None:
        self.mon._violation(name, detail, self.where)

    def check(self) -> None:
        """Re-verify every invariant against current connection state."""
        self.checks += 1
        conn = self.conn
        window = conn.window
        inflight = window.inflight
        fail = self._fail
        if conn.stats is not self._stats_ref:
            self._rebase()
        s = conn.stats

        # -- window / sequence space --
        if len(inflight) > window.size:
            fail(
                "window-overflow",
                f"{len(inflight)} in flight > window size {window.size}",
            )
        if inflight:
            mn, mx = min(inflight), max(inflight)
            if mx >= window.next_seq:
                fail(
                    "inflight-beyond-next-seq",
                    f"in-flight seq {mx} >= next_seq {window.next_seq}",
                )
            if mn < self.ack_watermark:
                fail(
                    "freed-seq-reappeared",
                    f"in-flight seq {mn} below ack watermark "
                    f"{self.ack_watermark}",
                )
        # Every seq consumed since attach is either freed by an ack or
        # still in flight.
        expect_next = (
            self._seq0 + self.freed_total + len(inflight) - self._inflight0
        )
        if window.next_seq != expect_next:
            fail(
                "seq-conservation",
                f"next_seq {window.next_seq} != base {self._seq0} + freed "
                f"{self.freed_total} + inflight {len(inflight)} - "
                f"inflight-at-attach {self._inflight0}",
            )

        # -- retransmit queue --
        q = conn._retransmit_q
        if len(set(q)) != len(q):
            fail("retransmit-dup", f"duplicate seqs in retransmit queue {list(q)}")
        for seq in q:
            if seq not in inflight and seq >= self.ack_watermark:
                fail(
                    "retransmit-orphan",
                    f"queued seq {seq} neither in flight nor below ack "
                    f"watermark {self.ack_watermark}",
                )

        # -- seq -> op map --
        if set(inflight) != set(conn._frame_op):
            extra = set(conn._frame_op) ^ set(inflight)
            fail("frame-op-leak", f"inflight/frame_op mismatch on seqs {extra}")

        # -- stats vs sequence space --
        if s.data_frames_sent != window.next_seq - self._seq_base:
            fail(
                "sent-vs-seq",
                f"data_frames_sent {s.data_frames_sent} != seqs consumed "
                f"{window.next_seq - self._seq_base}",
            )

        # -- pump CPU conservation --
        per_frame = conn.node.params.per_frame_send_ns
        expect = (s.data_frames_sent + s.retransmitted_frames) * per_frame
        if s.pump_charged_ns != expect:
            fail(
                "pump-cpu-conservation",
                f"pump_charged_ns {s.pump_charged_ns} != "
                f"(sent {s.data_frames_sent} + retrans "
                f"{s.retransmitted_frames}) * {per_frame} = {expect}",
            )
        if s.pump_stalled_ns < 0:
            fail("pump-stall-negative", f"pump_stalled_ns {s.pump_stalled_ns}")

        # -- per-operation bounds + frame conservation --
        frames_total = 0
        for op in self.ops:
            frames_total += op.frames_total
            if op.frames_acked > op.frames_total:
                fail(
                    "op-ack-overrun",
                    f"op {op.op_id}: frames_acked {op.frames_acked} > "
                    f"frames_total {op.frames_total}",
                )
            if op.kind == "read" and op.bytes_received > op.length:
                fail(
                    "read-byte-overrun",
                    f"op {op.op_id}: bytes_received {op.bytes_received} > "
                    f"length {op.length}",
                )
        if self._ops_check:
            consumed = window.next_seq - self._seq0
            if frames_total != consumed + len(conn.unsent):
                fail(
                    "op-frame-conservation",
                    f"sum(frames_total) {frames_total} != seqs consumed "
                    f"{consumed} + unsent {len(conn.unsent)}",
                )

        # -- receive side --
        tracker = conn.tracker
        if tracker.expected < self._expected_max:
            fail(
                "cumack-monotone",
                f"tracker.expected moved back: {tracker.expected} < "
                f"{self._expected_max}",
            )
        self._expected_max = tracker.expected
        if tracker._beyond and min(tracker._beyond) <= tracker.expected:
            fail(
                "beyond-stale",
                f"buffered seq {min(tracker._beyond)} <= expected "
                f"{tracker.expected}",
            )

        ordering = conn.ordering
        if ordering.watermark < self._watermark_max:
            fail(
                "watermark-monotone",
                f"ordering watermark moved back: {ordering.watermark} < "
                f"{self._watermark_max}",
            )
        self._watermark_max = ordering.watermark
        buf = getattr(ordering, "_buffer", None)
        if buf is not None:  # strict in-order mode
            if ordering._next_apply != tracker.expected:
                fail(
                    "inorder-desync",
                    f"next_apply {ordering._next_apply} != tracker.expected "
                    f"{tracker.expected}",
                )
            if set(buf) != tracker._beyond:
                fail(
                    "inorder-buffer-desync",
                    f"ordering buffer {sorted(buf)} != tracker beyond "
                    f"{sorted(tracker._beyond)}",
                )
        blocked = getattr(ordering, "_blocked", None)
        if blocked is not None:  # fence mode
            for op_seq, frames in blocked.items():
                if not frames:
                    fail("fence-empty-block", f"empty block list for op {op_seq}")
                elif op_seq <= ordering.watermark:
                    fail(
                        "fence-stale-block",
                        f"op {op_seq} still blocked at watermark "
                        f"{ordering.watermark}",
                    )
        for op_seq, rx_op in ordering.ops.items():
            if rx_op.bytes_applied > rx_op.length:
                fail(
                    "rx-byte-overrun",
                    f"rx op {op_seq}: applied {rx_op.bytes_applied} > "
                    f"length {rx_op.length}",
                )
            if rx_op.complete and not rx_op.is_read_request and (
                rx_op.bytes_applied != rx_op.length
            ):
                fail(
                    "rx-early-complete",
                    f"rx op {op_seq} complete with {rx_op.bytes_applied}/"
                    f"{rx_op.length} bytes",
                )
        got = self._applied_plus_buffered() - self._rx_bytes_base
        if got != s.data_bytes_received:
            fail(
                "rx-byte-conservation",
                f"applied+buffered {got} != data_bytes_received "
                f"{s.data_bytes_received}",
            )

        # -- congestion window bounds --
        cc = conn.congestion
        if cc.active:
            lo = cc.params.min_cwnd_frames
            cwnd = window.cwnd
            if cwnd is None:
                fail(
                    "cwnd-unset",
                    f"{cc.name} controller active but window.cwnd is None",
                )
            elif not lo <= cwnd <= window.size:
                fail(
                    "cwnd-out-of-bounds",
                    f"cwnd {cwnd} outside [{lo}, {window.size}] "
                    f"({cc.name})",
                )
        elif window.cwnd is not None:
            fail(
                "cwnd-static-clamped",
                f"static policy but window.cwnd is {window.cwnd}",
            )

        # -- striping --
        striping = conn.striping
        n = len(striping.nics)
        for rail in striping.masked:
            if not 0 <= rail < n:
                fail("mask-range", f"masked rail {rail} out of range 0..{n - 1}")
        for attr in ("_assigned_bytes", "_charged"):
            deficits = getattr(striping, attr, None)
            if deficits:
                if min(deficits) < 0:
                    fail(
                        "deficit-negative",
                        f"{attr} has negative entry: {deficits}",
                    )
                if min(deficits) > _DEFICIT_BOUND:
                    fail(
                        "deficit-unbounded",
                        f"{attr} not renormalised: min {min(deficits)}",
                    )

        # -- wire conservation --
        wire_data = self.wire_data - self._wire_data_base
        if wire_data != s.data_frames_sent + s.retransmitted_frames:
            fail(
                "wire-data-conservation",
                f"wire sequenced frames {wire_data} != sent "
                f"{s.data_frames_sent} + retrans {s.retransmitted_frames}",
            )
        if self.wire_acks - self._wire_ack_base != s.explicit_acks_sent:
            fail(
                "wire-ack-conservation",
                f"wire ACKs {self.wire_acks - self._wire_ack_base} != "
                f"explicit_acks_sent {s.explicit_acks_sent}",
            )
        if self.wire_nacks - self._wire_nack_base != s.nacks_sent:
            fail(
                "wire-nack-conservation",
                f"wire NACKs {self.wire_nacks - self._wire_nack_base} != "
                f"nacks_sent {s.nacks_sent}",
            )


class InvariantMonitor:
    """Cluster-wide monitor: one :class:`ConnectionMonitor` per endpoint.

    ``collect=True`` records violations in :attr:`violations` instead of
    raising on the first one (used by tests that plant corruptions).
    """

    def __init__(self, collect: bool = False) -> None:
        self.collect = collect
        self.violations: list[InvariantViolation] = []
        self.conn_monitors: dict[tuple[int, int], ConnectionMonitor] = {}
        self._mac_to_node: dict[int, int] = {}
        self.cluster: Optional["Cluster"] = None
        # Called with each InvariantViolation as it is recorded (before any
        # raise), so external machinery — e.g. a rewind-to-violation
        # harness — can learn the stamped instant in either collect mode.
        self.on_violation = None

    # -- attachment -------------------------------------------------------

    @classmethod
    def attach(cls, cluster: "Cluster", collect: bool = False) -> "InvariantMonitor":
        """Hook every existing connection, NIC, and control plane.

        Call after the experiment's connections are established;
        connections created later need :meth:`attach_connection`.
        """
        mon = cls(collect=collect)
        mon.cluster = cluster
        for node in cluster.nodes:
            for nic in node.nics:
                mon._mac_to_node[nic.mac] = node.node_id
                nic.monitor = mon
        for stack in cluster.stacks:
            for conn in stack.protocol.connections.values():
                mon.attach_connection(conn)
        for mgr in cluster.control_planes.values():
            mgr.invariant_monitor = mon
        recovery = getattr(cluster, "recovery", None)
        if recovery is not None:
            # Connections created mid-run by the reconnect loop must be
            # monitored too; the recovery layer attaches them on creation.
            recovery.monitor = mon
        return mon

    def attach_connection(self, conn: "Connection") -> ConnectionMonitor:
        key = (conn.conn_id, conn.node.node_id)
        cm = self.conn_monitors.get(key)
        if cm is None:
            cm = ConnectionMonitor(self, conn)
            self.conn_monitors[key] = cm
            conn.monitor = self
        return cm

    def detach_connection(self, conn: "Connection") -> None:
        """Stop monitoring one endpoint (it is about to be destroyed).

        A crashed or torn-down connection legitimately violates the
        steady-state invariants (cleared window, failed ops); the
        recovery layer detaches it before destruction.
        """
        self.conn_monitors.pop((conn.conn_id, conn.node.node_id), None)
        if conn.monitor is self:
            conn.monitor = None

    def detach(self) -> None:
        """Remove every hook installed by :meth:`attach`."""
        for cm in self.conn_monitors.values():
            if cm.conn.monitor is self:
                cm.conn.monitor = None
        if self.cluster is not None:
            for node in self.cluster.nodes:
                for nic in node.nics:
                    if nic.monitor is self:
                        nic.monitor = None
            for mgr in self.cluster.control_planes.values():
                if mgr.invariant_monitor is self:
                    mgr.invariant_monitor = None

    # -- hook entry points (called from core through guarded hooks) -------

    def on_event(self, conn: "Connection") -> None:
        cm = self.conn_monitors.get((conn.conn_id, conn.node.node_id))
        if cm is not None:
            cm.check()

    def on_rx_frame(self, conn: "Connection", frame: "Frame") -> None:
        """No-stale-frame-accepted: runs *after* the incarnation guard."""
        if (
            conn.recovery is not None
            and frame.incarnation != conn.peer_incarnation
        ):
            self._violation(
                "stale-frame-accepted",
                f"frame incarnation {frame.incarnation} != negotiated peer "
                f"incarnation {conn.peer_incarnation}",
                f"conn={conn.conn_id} node={conn.node.node_id}",
            )

    def on_ack(self, conn: "Connection", cum_ack: int, freed: list) -> None:
        cm = self.conn_monitors.get((conn.conn_id, conn.node.node_id))
        if cm is not None:
            cm.on_ack(cum_ack, freed)

    def on_op_submitted(self, conn: "Connection", op: "Operation") -> None:
        cm = self.conn_monitors.get((conn.conn_id, conn.node.node_id))
        if cm is not None:
            cm.on_op_submitted(op)

    def on_nic_tx(self, nic: "Nic", frame: "Frame") -> None:
        node_id = self._mac_to_node.get(nic.mac)
        if node_id is None:
            return
        cm = self.conn_monitors.get((frame.header.connection_id, node_id))
        if cm is not None:
            cm.on_wire_tx(frame)

    def on_edge_transition(
        self, mgr: Any, rail: int, old: EdgeState, new: EdgeState, reason: str
    ) -> None:
        """Validate a lifecycle transition against the state machine."""
        where = f"conn={mgr.conn.conn_id} rail={rail}"
        if old is new:
            self._violation(
                "edge-self-transition", f"{old} -> {new} ({reason})", where
            )
        elif new is EdgeState.SUSPECT and old not in (
            EdgeState.UP, EdgeState.DEGRADED
        ):
            self._violation(
                "edge-illegal-transition", f"{old} -> SUSPECT ({reason})", where
            )
        elif new is EdgeState.DEGRADED and old is not EdgeState.UP:
            # Only the differential scorer enters DEGRADED, and only
            # from a healthy edge; any other origin is a machine bug.
            self._violation(
                "edge-illegal-transition", f"{old} -> DEGRADED ({reason})", where
            )
        elif new is EdgeState.RECOVERING and old is not EdgeState.DOWN:
            self._violation(
                "edge-illegal-transition",
                f"{old} -> RECOVERING ({reason})",
                where,
            )

    # -- end-of-run checks ------------------------------------------------

    def final_check(self) -> None:
        """Quiesced end-of-run checks: run after the simulator drains."""
        for cm in self.conn_monitors.values():
            cm.check()
        # Cross-endpoint: the receiver can never ack what was not sent.
        for (conn_id, node_id), cm in self.conn_monitors.items():
            peer_id = cm.conn.peer_node_id
            peer = self.conn_monitors.get((conn_id, peer_id))
            if peer is None:
                continue
            if cm.conn.tracker.expected > peer.conn.window.next_seq:
                self._violation(
                    "rx-beyond-tx",
                    f"receiver expected {cm.conn.tracker.expected} > peer "
                    f"next_seq {peer.conn.window.next_seq}",
                    cm.where,
                )
            # ECN echoes are only ever reflections of marks the peer saw.
            if cm.conn.ecn_echoes_received > peer.conn.ecn_echoes_sent:
                self._violation(
                    "ecn-echo-conservation",
                    f"echoes received {cm.conn.ecn_echoes_received} > peer "
                    f"echoes sent {peer.conn.ecn_echoes_sent}",
                    cm.where,
                )
        if self.cluster is not None:
            ce_marked = sum(
                sw.ce_marked_total for sw in self.cluster.all_switches
            )
            ce_received = sum(
                s.protocol.connections[c].ce_frames_received
                for s in self.cluster.stacks
                for c in s.protocol.connections
            )
            if ce_received > ce_marked:
                self._violation(
                    "ecn-mark-conservation",
                    f"CE frames received {ce_received} > CE marks applied "
                    f"by switches {ce_marked}",
                )
        if self.cluster is not None:
            for node in self.cluster.nodes:
                self._check_node_quiesced(node)
        recovery = getattr(self.cluster, "recovery", None)
        if recovery is not None:
            self._check_journals(recovery)
        serve = getattr(self.cluster, "serve", None)
        if serve is not None:
            for problem in serve.check_invariants():
                self._violation("serve-invariant", problem, "serve runtime")

    def _check_journals(self, recovery: Any) -> None:
        """Journal conservation + delivered-implies-logged, per channel."""
        for ch in recovery.channels:
            where = f"channel {ch.src}->{ch.dst}"
            entries = ch.journal.entries
            for i, e in enumerate(entries):
                if e.jseq != i:
                    self._violation(
                        "journal-jseq-gap",
                        f"entry {i} carries jseq {e.jseq}",
                        where,
                    )
            delivered = sum(1 for e in entries if e.delivered)
            if delivered != ch.journal.delivered_count:
                self._violation(
                    "journal-conservation",
                    f"delivered_count {ch.journal.delivered_count} != "
                    f"{delivered} delivered entries (of {len(entries)})",
                    where,
                )
            if ch.dead is not None:
                continue  # sender crashed: its journal is fail-stop garbage
            sender_inc = recovery.nodes[ch.src].incarnation
            log = recovery.nodes[ch.dst].delivered
            for e in entries:
                if e.delivered and (ch.src, sender_inc, e.jseq) not in log:
                    self._violation(
                        "journal-delivered-unlogged",
                        f"entry {e.jseq} acked but absent from the "
                        f"receiver's delivery log",
                        where,
                    )

    def _check_node_quiesced(self, node: Any) -> None:
        where = f"node={node.node_id}"
        busy = 0
        for cpu in node.cpus:
            res = cpu.resource
            res._account()  # flush lazily accumulated busy time
            if res.in_use != 0:
                self._violation(
                    "cpu-not-quiesced",
                    f"{cpu.name} still in use at end of run",
                    where,
                )
                return
            busy += res.busy_time
        charged = node.accounting.total("", since_epoch=True)
        if busy != charged:
            self._violation(
                "cpu-charge-conservation",
                f"summed busy time {busy} != summed tag charges {charged}",
                where,
            )
        for nic in node.nics:
            if nic._tx_ring_used != 0:
                self._violation(
                    "nic-tx-not-drained",
                    f"{nic.name}: {nic._tx_ring_used} frames in TX ring",
                    where,
                )
            if nic._rx_inflight != 0:
                self._violation(
                    "nic-rx-not-drained",
                    f"{nic.name}: {nic._rx_inflight} frames in RX pipeline",
                    where,
                )

    # -- reporting --------------------------------------------------------

    @property
    def checks_run(self) -> int:
        return sum(cm.checks for cm in self.conn_monitors.values())

    @property
    def ok(self) -> bool:
        return not self.violations

    def _violation(self, name: str, detail: str, where: str = "") -> None:
        v = InvariantViolation(name, detail, where)
        if self.cluster is not None:
            v.time_ns = self.cluster.sim.now
        self.violations.append(v)
        if self.on_violation is not None:
            self.on_violation(v)
        if not self.collect:
            raise v
