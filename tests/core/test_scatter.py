"""Tests for scatter-gather write operations (the DSM diff carrier)."""

import pytest

from repro.bench.cluster import make_cluster
from repro.core.messages import (
    SCATTER_RECORD_HEADER,
    decode_scatter_records,
    encode_scatter_records,
)
from repro.ethernet import max_payload_per_frame
from repro.sim import SimulationError


def pair(config="1L-1G"):
    cluster = make_cluster(config, nodes=2)
    a, b = cluster.connect(0, 1)
    return cluster, a, b


def run(cluster, gen, limit_ms=5000):
    proc = cluster.sim.process(gen)
    return cluster.sim.run_until_done(proc, limit=limit_ms * 1_000_000)


def greedy_reference(segments, mtu):
    """Reference packer: cut runs longer than ``mtu - header`` into
    consecutive records, then fill each frame with whole records."""
    room = mtu - SCATTER_RECORD_HEADER
    records = [
        (addr + off, data[off : off + room])
        for addr, data in segments
        for off in range(0, len(data), room)
    ]
    frames, current, used = [], [], 0
    for addr, data in records:
        need = SCATTER_RECORD_HEADER + len(data)
        if current and used + need > mtu:
            frames.append(current)
            current, used = [], 0
        current.append((addr, data))
        used += need
    if current:
        frames.append(current)
    return [encode_scatter_records(frame) for frame in frames]


class TestCodec:
    def test_roundtrip(self):
        segs = [(0x1000, b"abc"), (0x2000, b"defgh")]
        assert decode_scatter_records(encode_scatter_records(segs)) == segs

    def test_wire_size(self):
        segs = [(1, b"xy")]
        assert len(encode_scatter_records(segs)) == SCATTER_RECORD_HEADER + 2

    def test_empty(self):
        assert decode_scatter_records(b"") == []


class TestScatterWrites:
    def test_sparse_segments_land(self):
        cluster, a, b = pair()
        dst = b.node.memory.alloc(10_000)
        segments = [
            (dst + 0, b"head"),
            (dst + 5000, b"middle"),
            (dst + 9996, b"tail"),
        ]

        def app():
            h = yield from a.rdma_write_scatter(segments)
            yield from h.wait()

        run(cluster, app())
        assert b.node.memory.read(dst, 4) == b"head"
        assert b.node.memory.read(dst + 5000, 6) == b"middle"
        assert b.node.memory.read(dst + 9996, 4) == b"tail"
        # Untouched gap bytes stay zero.
        assert b.node.memory.read(dst + 100, 4) == b"\x00" * 4

    def test_many_small_segments_one_op(self):
        cluster, a, b = pair()
        dst = b.node.memory.alloc(65536)
        segments = [
            (dst + i * 64, bytes([i % 256]) * 8) for i in range(500)
        ]

        def app():
            h = yield from a.rdma_write_scatter(segments)
            yield from h.wait()

        run(cluster, app())
        for i in range(500):
            assert b.node.memory.read(dst + i * 64, 8) == bytes([i % 256]) * 8
        # 500 tiny writes travel in far fewer frames than 500 ops would.
        assert a.stats.ops_submitted == 1
        assert a.stats.data_frames_sent <= 10

    def test_large_segment_splits_across_frames(self):
        cluster, a, b = pair()
        size = 3 * max_payload_per_frame()
        dst = b.node.memory.alloc(size)
        payload = bytes(i % 256 for i in range(size))

        def app():
            h = yield from a.rdma_write_scatter([(dst, payload)])
            yield from h.wait()

        run(cluster, app())
        assert b.node.memory.read(dst, size) == payload
        assert a.stats.data_frames_sent >= 3

    def test_scatter_on_two_rails(self):
        cluster, a, b = pair("2Lu-1G")
        dst = b.node.memory.alloc(200_000)
        segments = [
            (dst + i * 400, bytes([(i * 7) % 256]) * 16) for i in range(400)
        ]

        def app():
            h = yield from a.rdma_write_scatter(segments)
            yield from h.wait()

        run(cluster, app())
        for i in range(0, 400, 37):
            assert (
                b.node.memory.read(dst + i * 400, 16)
                == bytes([(i * 7) % 256]) * 16
            )

    def test_empty_scatter_rejected(self):
        cluster, a, b = pair()

        def app():
            yield from a.rdma_write_scatter([])

        with pytest.raises(Exception):
            run(cluster, app())

    def test_scatter_with_notify(self):
        from repro.ethernet import OpFlags

        cluster, a, b = pair()
        dst = b.node.memory.alloc(64)

        def sender():
            h = yield from a.rdma_write_scatter(
                [(dst, b"notify-me")], flags=OpFlags.NOTIFY
            )
            yield from h.wait()

        def receiver():
            note = yield from b.wait_notification()
            return note

        cluster.sim.process(sender())
        proc = cluster.sim.process(receiver())
        note = cluster.sim.run_until_done(proc, limit=10_000_000_000)
        assert note.src_node == 0


class TestScatterWireLayout:
    def segments(self, dst):
        mtu = max_payload_per_frame()
        small = [(dst + 64 * i, bytes([i]) * (1 + i % 29)) for i in range(150)]
        # One run longer than a frame's record room, and not a multiple of it.
        big = (dst + 20_000, bytes(i % 251 for i in range(2 * mtu + 100)))
        assert len(big[1]) > mtu - SCATTER_RECORD_HEADER
        return small[:70] + [big] + small[70:]

    def test_frames_match_greedy_reference(self):
        cluster, a, b = pair()
        segments = self.segments(b.node.memory.alloc(65536))
        op = a.conn.submit_scatter(segments)
        sent = [desc.payload for desc in a.conn.unsent]
        expected = greedy_reference(segments, max_payload_per_frame())
        assert [len(p) for p in sent] == [len(p) for p in expected]
        assert sent == expected
        assert op.frames_total == len(expected)
        assert op.length == sum(len(p) for p in expected)

    def test_every_record_lands(self):
        cluster, a, b = pair()
        dst = b.node.memory.alloc(65536)
        segments = self.segments(dst)

        def app():
            h = yield from a.rdma_write_scatter(segments)
            yield from h.wait()

        run(cluster, app())
        for addr, data in segments:
            assert b.node.memory.read(addr, len(data)) == data


class TestScatterBounds:
    @pytest.mark.parametrize("overrun", ["past-end", "guard-gap"])
    def test_record_leaving_its_allocation_faults(self, overrun):
        cluster, a, b = pair()
        dst = b.node.memory.alloc(256)
        other = b.node.memory.alloc(256)
        # Valid records around the bad one, in both allocations and all in
        # one frame: the batch's shared region lookup must still catch it.
        bad = (dst + 250, b"12345678") if overrun == "past-end" else (
            dst + 256 + 100, b"x"
        )
        segments = [(dst, b"first"), bad, (other + 100, b"last")]

        def app():
            h = yield from a.rdma_write_scatter(segments)
            yield from h.wait()

        with pytest.raises(SimulationError, match="outside any allocation"):
            run(cluster, app())
