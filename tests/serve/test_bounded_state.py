"""Long runs keep bounded simulator state.

Per-message staging buffers are freed once sent and completed receive-op
records are retired, so a run twice as long ends with the same number of
live memory regions per node (those wired at start-up) and the same
receive-op tables, not twice as many.
"""

import pytest

from repro.bench.cluster import make_cluster
from repro.bench.serve import ServeRun
from repro.mp import MpWorld
from repro.serve import ArrivalSpec

_MS = 1_000_000


def _regions(cluster):
    return [node.memory.region_count for node in cluster.nodes]


def _max_rx_ops(cluster):
    return max(
        len(conn.ordering.ops)
        for stack in cluster.stacks
        for conn in stack.protocol.connections.values()
    )


def _serve(duration_ms, max_response=8192):
    run = ServeRun(
        n_clients=2,
        n_servers=2,
        arrival=ArrivalSpec(
            rate_rps=20_000, response_bytes=("uniform", 128, max_response)
        ),
        duration_ns=duration_ms * _MS,
        seed=5,
        use_monitor=True,
    )
    wired = _regions(run.cluster)
    result = run.finish()
    assert result.ok and result.completed > 0
    return wired, _regions(run.cluster), _max_rx_ops(run.cluster), result.completed


def test_serve_state_does_not_grow_with_requests():
    wired, short_end, short_ops, short_done = _serve(2)
    wired2, long_end, long_ops, long_done = _serve(4)
    assert long_done > 1.5 * short_done
    assert short_end == wired and long_end == wired2 == wired
    assert long_ops == short_ops <= 1


def test_serve_with_rendezvous_responses():
    """Responses above the 16 KiB eager limit rendezvous, so a client's
    clear-to-send shares the ring toward each server with its requests."""
    wired, end, ops, done = _serve(2, max_response=24_576)
    assert done > 0 and end == wired and ops <= 1


@pytest.mark.parametrize("config", ["1L-1G", "2L-1G"])
def test_mp_state_does_not_grow_with_messages(config):
    def run(n):
        cluster = make_cluster(config, nodes=3, seed=1)
        world = MpWorld(cluster)
        wired = _regions(cluster)

        def program(ep):
            for k in range(n):
                data = bytes([k]) * (100 if k % 2 else 40_000)  # eager, rendezvous
                if ep.rank == 0:
                    for peer in range(1, ep.size):
                        yield from ep.send(peer, data, tag=k)
                        msg = yield from ep.recv(source=peer, tag=k)
                        assert msg.data == data
                else:
                    msg = yield from ep.recv(source=0, tag=k)
                    yield from ep.send(0, msg.data, tag=k)

        world.run(program)
        cluster.sim.run()
        return wired, _regions(cluster), _max_rx_ops(cluster)

    wired, end, ops = run(6)
    wired2, end2, ops2 = run(12)
    assert end == wired and end2 == wired2 == wired
    assert ops2 == ops <= 1
