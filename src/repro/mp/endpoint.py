"""Message passing over MultiEdge RDMA.

The paper motivates MultiEdge with the observation that scalable systems
carry *several* communication protocols for different application domains
on separate physical interconnects, and asks whether one edge-based
interconnect can serve them all.  The DSM (:mod:`repro.dsm`) is one such
domain; this package is the other classic one — MPI-style message passing —
built on exactly the same RDMA primitives:

* **eager protocol** (small messages): the payload is RDMA-written into a
  slot of the receiver's per-peer inbox ring together with a 32-byte
  envelope; the completion notification wakes the receiver's matcher.
  Slot reuse is governed by credits the receiver returns.
* **rendezvous protocol** (large messages): the sender posts a
  request-to-send envelope; when a matching ``recv`` buffer exists, the
  receiver answers clear-to-send with the destination virtual address and
  the payload travels as a single zero-copy RDMA write into the user
  buffer — the RDMA-enabled message passing the paper's related work
  (EMP, U-Net, VIA) builds towards.

Matching follows MPI semantics: ``(source, tag)`` with wildcards, FIFO per
(source, tag) pair, with an unexpected-message queue.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..bench.cluster import Cluster
from ..core import ConnectionHandle, PeerCrashed
from ..ethernet import OpFlags
from ..sim import Event, Simulator, Store

__all__ = ["MpWorld", "MpEndpoint", "MpMessage", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = -1
ANY_TAG = -1

SLOT_BYTES = 16_384  # eager ceiling; larger messages rendezvous
RING_SLOTS = 16
CREDIT_EVERY = 4

# Envelope at the head of every eager slot / control message:
#   u32 kind, u32 src, u32 tag, u32 msg_id, u64 size, u64 addr
_ENVELOPE = struct.Struct("!IIIIQQ")
ENVELOPE_BYTES = _ENVELOPE.size

KIND_EAGER = 1
KIND_RTS = 2  # rendezvous request-to-send
KIND_CTS = 3  # clear-to-send, carries destination address
KIND_FIN = 4  # rendezvous payload delivered
KIND_CREDIT = 5


@dataclass
class MpMessage:
    """A received message."""

    source: int
    tag: int
    data: bytes

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class _PeerState:
    conn: ConnectionHandle
    # our inbox the peer writes into
    my_ring_base: int = 0
    my_credit_cell: int = 0
    # the peer's inbox we write into
    peer_ring_base: int = 0
    peer_credit_cell: int = 0
    send_seq: int = 0
    peer_consumed: int = 0
    recv_seq: int = 0
    processed: int = 0
    credit_event: Optional[Event] = None


@dataclass
class _PendingRecv:
    source: int
    tag: int
    event: Event


@dataclass
class _PendingRendezvous:
    """Sender-side state of one rendezvous transfer."""

    data: bytes
    done: Event
    dest: int = -1


class MpEndpoint:
    """One rank of a message-passing world."""

    def __init__(self, world: "MpWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self.sim: Simulator = world.cluster.sim
        self.stack = world.cluster.stacks[rank]
        self._peers: dict[int, _PeerState] = {}
        self._unexpected: list[MpMessage] = []
        self._waiting: list[_PendingRecv] = []
        # Posted receive buffers for rendezvous: (source, tag) matching.
        self._posted_rdv: list[tuple[int, int, int, int, Event]] = []
        #   entries: (source, tag, dest_addr, max_size, event)
        self._rdv_out: dict[int, _PendingRendezvous] = {}
        self._next_msg_id = 1
        # Messages that arrived as RTS and wait for a matching recv.
        self._pending_rts: list[tuple[int, int, int, int]] = []
        #   entries: (src, tag, msg_id, size)
        self.stats_sent = 0
        self.stats_received = 0

    # -- wiring ------------------------------------------------------------

    def _wire(self) -> None:
        memory = self.stack.node.memory
        for peer in range(self.size):
            if peer == self.rank:
                continue
            here, _ = self.world.cluster.connect(self.rank, peer)
            ps = self._peers.setdefault(peer, _PeerState(conn=here))
            ps.conn = here
            ps.my_ring_base = memory.alloc(RING_SLOTS * SLOT_BYTES)
            ps.my_credit_cell = memory.alloc(8)
            other = self.world.endpoints[peer]._peers.setdefault(
                self.rank, _PeerState(conn=None)  # conn fixed when peer wires
            )
            other.peer_ring_base = ps.my_ring_base
            other.peer_credit_cell = ps.my_credit_cell
        if self.size > 1:
            for peer in self._peers:
                self.sim.process(
                    self._listener(peer), name=f"mp.listen{self.rank}-{peer}"
                )

    # -- send path -----------------------------------------------------------

    def send(
        self, dest: int, data: bytes, tag: int = 0
    ) -> Generator[Any, Any, None]:
        """Blocking send (returns when the buffer is reusable)."""
        if dest == self.rank:
            raise ValueError("self-sends are not supported")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("mp payloads are bytes")
        data = bytes(data)
        ps = self._peers[dest]
        if ENVELOPE_BYTES + len(data) <= SLOT_BYTES:
            yield from self._send_eager(ps, dest, data, tag)
        else:
            yield from self._send_rendezvous(ps, dest, data, tag)
        self.stats_sent += 1

    def _slot_write(
        self, ps: _PeerState, envelope: bytes, payload: bytes = b""
    ) -> Generator[Any, Any, None]:
        """Write envelope+payload into the peer's next ring slot."""
        while ps.send_seq - ps.peer_consumed >= RING_SLOTS - 2:
            ps.credit_event = Event(self.sim)
            got = yield ps.credit_event
            if isinstance(got, PeerCrashed):
                raise got
        slot = ps.send_seq % RING_SLOTS
        yield from ps.conn.write_bytes(
            envelope + payload,
            ps.peer_ring_base + slot * SLOT_BYTES,
            flags=OpFlags.NOTIFY | OpFlags.FENCE_BACKWARD,
        )
        ps.send_seq += 1

    def _send_eager(
        self, ps: _PeerState, dest: int, data: bytes, tag: int
    ) -> Generator[Any, Any, None]:
        envelope = _ENVELOPE.pack(
            KIND_EAGER, self.rank, tag, self._next_msg_id, len(data), 0
        )
        self._next_msg_id += 1
        yield from self._slot_write(ps, envelope, data)

    def _send_rendezvous(
        self, ps: _PeerState, dest: int, data: bytes, tag: int
    ) -> Generator[Any, Any, None]:
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        pending = _PendingRendezvous(data=data, done=Event(self.sim), dest=dest)
        self._rdv_out[msg_id] = pending
        envelope = _ENVELOPE.pack(
            KIND_RTS, self.rank, tag, msg_id, len(data), 0
        )
        yield from self._slot_write(ps, envelope)
        # CTS handling (in the listener) performs the bulk write; we wait
        # until the payload has been pushed and acknowledged.
        got = yield pending.done
        if isinstance(got, PeerCrashed):
            raise got

    # -- receive path ----------------------------------------------------------

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Any, Any, MpMessage]:
        """Blocking receive with MPI-style (source, tag) matching."""
        msg = self._match_unexpected(source, tag)
        if msg is not None:
            self.stats_received += 1
            return msg
        # A pending rendezvous RTS may match: accept it by allocating the
        # destination buffer and answering CTS.
        rts = self._match_rts(source, tag)
        if rts is not None:
            msg = yield from self._accept_rendezvous(*rts)
            self.stats_received += 1
            return msg
        waiter = _PendingRecv(source, tag, Event(self.sim))
        self._waiting.append(waiter)
        msg = yield waiter.event
        if isinstance(msg, PeerCrashed):  # the only matching sender died
            raise msg
        if isinstance(msg, tuple):  # an RTS matched this waiter
            msg = yield from self._accept_rendezvous(*msg)
        self.stats_received += 1
        return msg

    def _match_unexpected(self, source: int, tag: int) -> Optional[MpMessage]:
        for i, msg in enumerate(self._unexpected):
            if (source in (ANY_SOURCE, msg.source)) and (
                tag in (ANY_TAG, msg.tag)
            ):
                return self._unexpected.pop(i)
        return None

    def _match_rts(self, source: int, tag: int):
        for i, (src, t, msg_id, size) in enumerate(self._pending_rts):
            if (source in (ANY_SOURCE, src)) and (tag in (ANY_TAG, t)):
                return self._pending_rts.pop(i)
        return None

    def _accept_rendezvous(
        self, src: int, tag: int, msg_id: int, size: int
    ) -> Generator[Any, Any, MpMessage]:
        memory = self.stack.node.memory
        dest = memory.alloc(size)
        fin = Event(self.sim)
        self._posted_rdv.append((src, msg_id, dest, size, fin))
        ps = self._peers[src]
        envelope = _ENVELOPE.pack(KIND_CTS, self.rank, tag, msg_id, size, dest)
        yield from self._slot_write(ps, envelope)
        got = yield fin
        if isinstance(got, PeerCrashed):
            raise got
        data = memory.read(dest, size)
        memory.free(dest)
        return MpMessage(source=src, tag=tag, data=data)

    # -- listener ---------------------------------------------------------------

    def _listener(self, peer: int) -> Generator:
        ps = self._peers[peer]
        memory = self.stack.node.memory
        cpu = self.stack.node.protocol_cpu
        while True:
            note = yield from ps.conn.wait_notification(cpu=cpu)
            if ps.conn.conn.closed:
                # This incarnation died (node crash destroyed the
                # endpoint); drop the notification and retire.  After a
                # reconnect, rewire_pair() spawns a fresh listener on
                # the new endpoints.
                return
            if note.address == ps.my_credit_cell:
                consumed = int.from_bytes(memory.read(ps.my_credit_cell, 8), "big")
                ps.peer_consumed = max(ps.peer_consumed, consumed)
                if ps.credit_event is not None and not ps.credit_event.triggered:
                    ps.credit_event.trigger()
                    ps.credit_event = None
                continue
            # Rendezvous payload landing directly in a posted buffer?
            handled = False
            for i, (src, msg_id, dest, size, fin) in enumerate(self._posted_rdv):
                if note.address == dest and src == peer:
                    self._posted_rdv.pop(i)
                    fin.trigger()
                    handled = True
                    break
            if handled:
                continue
            # Otherwise: an inbox slot.
            slot = ps.recv_seq % RING_SLOTS
            base = ps.my_ring_base + slot * SLOT_BYTES
            if note.address != base:
                raise RuntimeError(
                    f"mp rank {self.rank}: notification at {note.address:#x} "
                    f"matches no ring slot or posted buffer"
                )
            ps.recv_seq += 1
            ps.processed += 1
            envelope = memory.read(base, ENVELOPE_BYTES)
            kind, src, tag, msg_id, size, addr = _ENVELOPE.unpack(envelope)
            if ps.processed % CREDIT_EVERY == 0:
                try:
                    yield from self._send_credit(ps)
                except RuntimeError:
                    if ps.conn.conn.closed:
                        return  # crashed mid-credit; listener retires
                    raise
            if kind == KIND_EAGER:
                data = memory.read(base + ENVELOPE_BYTES, size)
                self._deliver(MpMessage(source=src, tag=tag, data=data))
            elif kind == KIND_RTS:
                self._deliver_rts(src, tag, msg_id, size)
            elif kind == KIND_CTS:
                pending = self._rdv_out.pop(msg_id, None)
                if pending is None:
                    raise RuntimeError(f"CTS for unknown message {msg_id}")
                self.sim.process(
                    self._push_rendezvous(ps, addr, pending),
                    name=f"mp.rdv{self.rank}->{peer}",
                )
            else:
                raise RuntimeError(f"unknown mp envelope kind {kind}")

    def _push_rendezvous(
        self, ps: _PeerState, dest_addr: int, pending: _PendingRendezvous
    ) -> Generator:
        h = yield from ps.conn.write_bytes(
            pending.data, dest_addr, flags=OpFlags.NOTIFY,
            cpu=self.stack.node.protocol_cpu,
        )
        yield from h.wait()
        pending.done.trigger()

    def _send_credit(self, ps: _PeerState) -> Generator:
        yield from ps.conn.write_bytes(
            ps.recv_seq.to_bytes(8, "big"), ps.peer_credit_cell,
            flags=OpFlags.NOTIFY, cpu=self.stack.node.protocol_cpu,
        )

    def _deliver(self, msg: MpMessage) -> None:
        for i, waiter in enumerate(self._waiting):
            if (waiter.source in (ANY_SOURCE, msg.source)) and (
                waiter.tag in (ANY_TAG, msg.tag)
            ):
                self._waiting.pop(i)
                waiter.event.trigger(msg)
                return
        self._unexpected.append(msg)

    # -- crash recovery hook ----------------------------------------------

    def on_peer_crashed(self, peer: int) -> None:
        """Fail every wait that only ``peer`` could satisfy.

        Called by the recovery layer when ``peer`` crashes.  Receives
        posted with ``source == peer``, rendezvous sends targeting the
        peer, and credit waits on its inbox all raise a typed
        :class:`~repro.core.PeerCrashed` instead of hanging forever.
        ``ANY_SOURCE`` receives are left alone — a surviving rank may
        still satisfy them.
        """
        exc = PeerCrashed(-1, peer)
        ps = self._peers.get(peer)
        if ps is not None and ps.credit_event is not None:
            ev, ps.credit_event = ps.credit_event, None
            if not ev.triggered:
                ev.trigger(exc)
        for waiter in [w for w in self._waiting if w.source == peer]:
            self._waiting.remove(waiter)
            waiter.event.trigger(exc)
        for msg_id in [m for m, p in self._rdv_out.items() if p.dest == peer]:
            pending = self._rdv_out.pop(msg_id)
            if not pending.done.triggered:
                pending.done.trigger(exc)
        for entry in [e for e in self._posted_rdv if e[0] == peer]:
            self._posted_rdv.remove(entry)
            fin = entry[4]
            if not fin.triggered:
                fin.trigger(exc)

    def _deliver_rts(self, src: int, tag: int, msg_id: int, size: int) -> None:
        for i, waiter in enumerate(self._waiting):
            if (waiter.source in (ANY_SOURCE, src)) and (
                waiter.tag in (ANY_TAG, tag)
            ):
                self._waiting.pop(i)
                waiter.event.trigger((src, tag, msg_id, size))
                return
        self._pending_rts.append((src, tag, msg_id, size))


class MpWorld:
    """A message-passing world over one simulated cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.size = cluster.config.nodes
        self.endpoints = [MpEndpoint(self, rank) for rank in range(self.size)]
        for ep in self.endpoints:
            ep._wire()
        recovery = getattr(cluster, "recovery", None)
        if recovery is not None:
            self.attach_recovery(recovery)

    def attach_recovery(self, recovery) -> None:
        """Propagate node crashes into typed ``PeerCrashed`` failures."""

        def on_crash(node_id: int) -> None:
            for ep in self.endpoints:
                if ep.rank != node_id:
                    ep.on_peer_crashed(node_id)

        recovery.subscribe_crash(on_crash)

    def rewire_pair(self, i: int, j: int) -> None:
        """Rebuild the eager rings between ``i`` and ``j`` after a crash.

        A node crash destroys the pair's connection endpoints; once the
        recovery layer has re-dialled and refreshed the cluster's cached
        handles, the old per-peer state (ring bases, credit cells,
        sequence counters) refers to a dead incarnation.  This allocates
        fresh rings on both sides, cross-links them, and spawns new
        listener processes on the fresh connection.  The old listeners
        stay parked on the destroyed endpoints' notification queues
        forever, which is harmless — destroyed connections never notify.
        """
        if i == j:
            raise ValueError("cannot rewire a rank to itself")
        for rank, peer in ((i, j), (j, i)):
            ep = self.endpoints[rank]
            here, _ = self.cluster.connect(rank, peer)
            memory = ep.stack.node.memory
            ps = _PeerState(conn=here)
            ps.my_ring_base = memory.alloc(RING_SLOTS * SLOT_BYTES)
            ps.my_credit_cell = memory.alloc(8)
            ep._peers[peer] = ps
        self.endpoints[j]._peers[i].peer_ring_base = (
            self.endpoints[i]._peers[j].my_ring_base
        )
        self.endpoints[j]._peers[i].peer_credit_cell = (
            self.endpoints[i]._peers[j].my_credit_cell
        )
        self.endpoints[i]._peers[j].peer_ring_base = (
            self.endpoints[j]._peers[i].my_ring_base
        )
        self.endpoints[i]._peers[j].peer_credit_cell = (
            self.endpoints[j]._peers[i].my_credit_cell
        )
        for rank, peer in ((i, j), (j, i)):
            ep = self.endpoints[rank]
            ep.sim.process(
                ep._listener(peer), name=f"mp.relisten{rank}-{peer}"
            )

    def start(self, program) -> list:
        """Spawn ``program(endpoint)`` on every rank without running.

        Returns the processes; pass them to :meth:`wait` to execute.  The
        split lets a caller pause the world mid-run (checkpointing) —
        ``start`` + ``wait`` is exactly :meth:`run`.
        """
        sim = self.cluster.sim
        return [
            sim.process(program(ep), name=f"mp.rank{ep.rank}")
            for ep in self.endpoints
        ]

    def wait(self, procs: list, limit_ms: int = 600_000) -> list:
        """Run until every process from :meth:`start` finishes."""
        sim = self.cluster.sim
        return [
            sim.run_until_done(p, limit=limit_ms * 1_000_000) for p in procs
        ]

    def run(self, program, limit_ms: int = 600_000) -> list:
        """Run ``program(endpoint)`` on every rank; returns their results."""
        return self.wait(self.start(program), limit_ms)
