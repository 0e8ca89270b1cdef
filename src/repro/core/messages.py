"""Frame construction helpers.

Thin factory layer between the protocol state machines and the Ethernet
substrate: every frame the protocol emits is built here, so header
conventions live in exactly one place.

Conventions:

* only DATA / READ_REQ / READ_RESP frames consume sequence numbers and are
  flow-controlled; ACK / NACK / SYN / SYN_ACK / FIN are unsequenced control
  frames,
* every sequenced frame piggy-backs the sender's current cumulative ack in
  its ``ack`` field (paper §2.4: "all data frames carry positive
  acknowledgement information"),
* a NACK carries the list of missing sequence numbers in ``control`` and
  accounts for their wire size via ``payload_length``.
"""

from __future__ import annotations

import bisect
import struct
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..ethernet import ECN_ECHO, Frame, FrameType, MultiEdgeHeader

__all__ = [
    "SCATTER_RECORD_HEADER",
    "ScatterList",
    "pack_scatter_frames",
    "parse_scatter_records",
    "encode_scatter_records",
    "decode_scatter_records",
    "make_data_frame",
    "make_read_req_frame",
    "make_ack_frame",
    "make_nack_frame",
    "make_syn_frame",
    "make_syn_ack_frame",
    "make_probe_frame",
    "make_probe_ack_frame",
    "SEQUENCED_TYPES",
]

# Frame kinds that consume sequence numbers and are covered by the window.
SEQUENCED_TYPES = frozenset(
    {FrameType.DATA, FrameType.READ_REQ, FrameType.READ_RESP}
)

# Bytes per missing-sequence entry in a NACK payload.
NACK_ENTRY_BYTES = 4

# Scatter-write record framing: u64 address + u32 length, then data.
SCATTER_RECORD_HEADER = 12
_SCATTER_HDR = struct.Struct("!QI")
_SCATTER_HDR_DTYPE = np.dtype([("addr", ">u8"), ("len", ">u4")])


class ScatterList(NamedTuple):
    """Scatter-write segments as arrays.

    Segment ``i`` stores ``lengths[i]`` bytes at ``addresses[i]``; ``data``
    holds every segment's bytes back to back, in segment order.
    """

    addresses: np.ndarray  # int64
    lengths: np.ndarray  # int64
    data: np.ndarray  # uint8

    @classmethod
    def of(cls, segments) -> "ScatterList":
        """A ScatterList as is, or one built from (address, bytes) pairs."""
        if isinstance(segments, cls):
            return segments
        n = len(segments)
        return cls(
            np.fromiter((a for a, _ in segments), np.int64, n),
            np.fromiter((len(d) for _, d in segments), np.int64, n),
            np.frombuffer(b"".join(d for _, d in segments), np.uint8),
        )


def _record_stream(records: ScatterList) -> np.ndarray:
    """Wire bytes of ``records``: each header followed by its data."""
    n = len(records.lengths)
    header = np.empty(n, _SCATTER_HDR_DTYPE)
    header["addr"] = records.addresses
    header["len"] = records.lengths
    sizes = records.lengths + SCATTER_RECORD_HEADER
    header_at = np.cumsum(sizes) - sizes
    is_header = np.zeros(int(sizes.sum()), bool)
    is_header[np.add.outer(header_at, np.arange(SCATTER_RECORD_HEADER))] = True
    out = np.empty(len(is_header), np.uint8)
    out[is_header] = header.view(np.uint8)
    out[~is_header] = records.data
    return out


def pack_scatter_frames(segments: ScatterList, mtu: int) -> list[bytes]:
    """Pack segments into scatter-frame payloads of at most ``mtu`` bytes.

    Greedy fill: each frame takes whole records until the next one would
    not fit, so records never split across frames.  A segment longer than
    ``mtu - SCATTER_RECORD_HEADER`` is first cut into consecutive records
    of that size (the last one shorter); empty segments carry no record.
    """
    room = mtu - SCATTER_RECORD_HEADER
    lengths = segments.lengths
    pieces = -(-lengths // room)
    seg = np.repeat(np.arange(len(lengths)), pieces)
    skip = (np.arange(len(seg)) - np.repeat(np.cumsum(pieces) - pieces, pieces)) * room
    records = ScatterList(
        segments.addresses[seg] + skip,
        np.minimum(room, lengths[seg] - skip),
        segments.data,
    )
    stream = _record_stream(records)
    ends = np.cumsum(records.lengths + SCATTER_RECORD_HEADER).tolist()
    payloads = []
    start = i = 0
    while i < len(ends):
        i = bisect.bisect_right(ends, start + mtu, i)
        payloads.append(stream[start : ends[i - 1]].tobytes())
        start = ends[i - 1]
    return payloads


def parse_scatter_records(payload: bytes) -> list[tuple[int, int, int]]:
    """``(address, data offset, length)`` of each record in one frame's
    payload, in wire order."""
    records = []
    unpack = _SCATTER_HDR.unpack_from
    off, end = 0, len(payload)
    while off < end:
        addr, length = unpack(payload, off)
        off += SCATTER_RECORD_HEADER
        records.append((addr, off, length))
        off += length
    return records


def encode_scatter_records(segments: "Sequence[tuple[int, bytes]]") -> bytes:
    """Pack (remote_address, data) segments into wire bytes."""
    return _record_stream(ScatterList.of(segments)).tobytes()


def decode_scatter_records(payload: bytes) -> list[tuple[int, bytes]]:
    """Unpack scatter records from one frame's payload as (address, data)."""
    return [
        (addr, payload[off : off + length])
        for addr, off, length in parse_scatter_records(payload)
    ]


def make_data_frame(
    src_mac: int,
    dst_mac: int,
    connection_id: int,
    seq: int,
    ack: int,
    op_id: int,
    op_seq: int,
    op_flags: int,
    remote_address: int,
    op_length: int,
    payload: Optional[bytes],
    read_response: bool = False,
    payload_length: Optional[int] = None,
) -> Frame:
    """A payload-carrying frame of an RDMA write (or read response).

    ``payload`` may be None (synthetic-payload mode); ``payload_length``
    then supplies the length the frame accounts for on the wire.
    """
    header = MultiEdgeHeader(
        frame_type=FrameType.READ_RESP if read_response else FrameType.DATA,
        flags=op_flags,
        connection_id=connection_id,
        seq=seq,
        ack=ack,
        op_id=op_id,
        op_seq=op_seq,
        remote_address=remote_address,
        op_length=op_length,
        payload_length=len(payload) if payload is not None else (payload_length or 0),
    )
    return Frame(src_mac=src_mac, dst_mac=dst_mac, header=header, payload=payload)


def make_read_req_frame(
    src_mac: int,
    dst_mac: int,
    connection_id: int,
    seq: int,
    ack: int,
    op_id: int,
    op_seq: int,
    op_flags: int,
    remote_address: int,
    op_length: int,
) -> Frame:
    """A remote-read request: asks the peer to send ``op_length`` bytes
    starting at ``remote_address`` back as READ_RESP frames.

    ``payload_length`` is 8: the local destination address rides in the
    payload (the frame stays at the 46-byte Ethernet minimum either way).
    """
    header = MultiEdgeHeader(
        frame_type=FrameType.READ_REQ,
        flags=op_flags,
        connection_id=connection_id,
        seq=seq,
        ack=ack,
        op_id=op_id,
        op_seq=op_seq,
        remote_address=remote_address,
        op_length=op_length,
        payload_length=8,
    )
    return Frame(src_mac=src_mac, dst_mac=dst_mac, header=header)


def make_ack_frame(
    src_mac: int, dst_mac: int, connection_id: int, ack: int, ece: bool = False
) -> Frame:
    """Explicit positive acknowledgement up to (not including) ``ack``.

    ``ece`` sets the ECN-echo bit: CE-marked frames arrived since the last
    acknowledgement left this node.
    """
    header = MultiEdgeHeader(
        frame_type=FrameType.ACK,
        flags=ECN_ECHO if ece else 0,
        connection_id=connection_id,
        ack=ack,
    )
    return Frame(src_mac=src_mac, dst_mac=dst_mac, header=header)


def make_nack_frame(
    src_mac: int,
    dst_mac: int,
    connection_id: int,
    ack: int,
    missing: Sequence[int],
    ece: bool = False,
) -> Frame:
    """Negative acknowledgement: cumulative ack plus missing sequences."""
    missing = list(missing)
    header = MultiEdgeHeader(
        frame_type=FrameType.NACK,
        flags=ECN_ECHO if ece else 0,
        connection_id=connection_id,
        ack=ack,
        payload_length=len(missing) * NACK_ENTRY_BYTES,
    )
    return Frame(src_mac=src_mac, dst_mac=dst_mac, header=header, control=missing)


def make_syn_frame(
    src_mac: int, dst_mac: int, connection_id: int, node_id: int
) -> Frame:
    header = MultiEdgeHeader(
        frame_type=FrameType.SYN, connection_id=connection_id, op_id=node_id
    )
    return Frame(src_mac=src_mac, dst_mac=dst_mac, header=header)


def make_syn_ack_frame(
    src_mac: int, dst_mac: int, connection_id: int, node_id: int
) -> Frame:
    header = MultiEdgeHeader(
        frame_type=FrameType.SYN_ACK, connection_id=connection_id, op_id=node_id
    )
    return Frame(src_mac=src_mac, dst_mac=dst_mac, header=header)


def make_probe_frame(
    src_mac: int,
    dst_mac: int,
    connection_id: int,
    rail: int,
    probe_seq: int,
    sent_at: int,
) -> Frame:
    """Edge-health heartbeat (control plane, unsequenced).

    ``probe_seq`` rides in ``op_id`` and the transmit timestamp in
    ``remote_address`` (u64), so the echo carries everything the monitor
    needs to compute the RTT without sender-side correlation state.  The
    probed rail index rides in ``control``; the responder echoes it back
    on the same rail.
    """
    header = MultiEdgeHeader(
        frame_type=FrameType.PROBE,
        connection_id=connection_id,
        op_id=probe_seq,
        remote_address=sent_at,
    )
    frame = Frame(src_mac=src_mac, dst_mac=dst_mac, header=header)
    frame.control = rail
    return frame


def make_probe_ack_frame(
    src_mac: int, dst_mac: int, connection_id: int, probe: Frame
) -> Frame:
    """Echo of a heartbeat probe, sent back on the rail it arrived on."""
    header = MultiEdgeHeader(
        frame_type=FrameType.PROBE_ACK,
        connection_id=connection_id,
        op_id=probe.header.op_id,
        remote_address=probe.header.remote_address,
    )
    frame = Frame(src_mac=src_mac, dst_mac=dst_mac, header=header)
    frame.control = probe.control
    return frame
