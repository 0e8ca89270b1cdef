"""The benchmark's four workloads, built from the simulator's public API.

Each workload is a list of :class:`Part`\\ s -- one cluster each -- with a
set-up step (build and wire the cluster, establish connections, set up
the application or serving runtime) and a run step (simulate the fixed
work and collect every simulated output).  The runner times the two
steps separately: their sums over a workload's parts are ``setup_s`` and
``host_s``.

A :class:`Workload` turns its parts' outputs into the simulated-time
end-to-end values (``timed``), the correctness outcome (``outcome``), the
per-layer counters (``layer_counts``) and the paper comparison
(``paper_error_pct``).  Everything a part returns is a pure function of
the seed, so the digest over it is identical on every repetition and in
a traced run.

Sizes: ``full`` is what the benchmark measures; ``tiny`` runs the same
code paths on much less work, for the quick check.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Any, Callable

from repro.analysis.summary import summarize_cluster
from repro.apps import FftApp, WaterNsqApp
from repro.bench import make_cluster
from repro.bench.fabric import leaf_spine_3to1
from repro.bench.paper_data import FIG2_MAX_THROUGHPUT_MBPS, FIG3_SPEEDUP_BANDS
from repro.bench.serve import ServeRun
from repro.core import merge_stats
from repro.dsm import DsmRuntime
from repro.ethernet import OpFlags
from repro.serve import ArrivalSpec, ServerSpec

__all__ = ["Part", "Workload", "WORKLOADS", "make_workload"]

_MB = 1e6


@dataclass
class Part:
    """One cluster's worth of a workload: ``run(setup())`` -> outputs."""

    name: str
    setup: Callable[[], Any]
    run: Callable[[Any], dict]


def _latency(values: list) -> dict:
    """Nearest-rank p50 and p99 of a list of latencies, with its size."""
    ordered = sorted(values)
    n = len(ordered)

    def rank(q: int) -> float:
        return float(ordered[max(1, -(-n * q // 100)) - 1])

    return {"latency_p50_ns": rank(50), "latency_p99_ns": rank(99),
            "samples": n}


def _cluster_counts(cluster, elapsed_ns: int) -> dict:
    """Every counter the per-layer metrics draw on, for one cluster."""
    summary = asdict(summarize_cluster(cluster, elapsed_ns))
    total = merge_stats([s.protocol.total_stats() for s in cluster.stacks])
    summary["ops_submitted"] = total.ops_submitted
    summary["ops_completed"] = total.ops_completed
    summary["data_bytes_received"] = total.data_bytes_received
    summary["peak_queue_frames"] = max(
        (sc["peak_queue_depth"] for sc in summary["switches"]), default=0
    )
    access = {
        (fab.rail, name, port)
        for fab in cluster.fabrics
        for name, port in fab.access.values()
    }
    summary["trunk_drops"] = sum(
        port.dropped_queue_full
        for fab in cluster.fabrics
        for sw in fab.switches
        for index, port in enumerate(sw.ports)
        if (fab.rail, sw.name, index) not in access
    )
    return summary


# -- stream --------------------------------------------------------------


def _stream_part(config: str, mode: str, seed: int, size: int, warmup: int,
                 iterations: int) -> Part:
    """Fig-2 bulk RDMA writes between two nodes (one-way or two-way)."""

    def setup():
        cluster = make_cluster(config, nodes=2, seed=seed,
                               synthetic_payloads=True)
        a, b = cluster.connect(0, 1)
        pairs = [(a, b)] if mode == "one-way" else [(a, b), (b, a)]
        flows = [
            (src, dst, src.node.memory.alloc(size), dst.node.memory.alloc(size))
            for src, dst in pairs
        ]
        return cluster, flows

    def run(state) -> dict:
        cluster, flows = state
        sim = cluster.sim
        latencies: list[int] = []
        marks = {"warm": 0, "start": 0, "ends": []}
        barrier = sim.event()

        def burst(handle, src_addr, dst_addr, count, record):
            handles = []
            for i in range(count):
                flags = OpFlags.NOTIFY if i == count - 1 else 0
                op = yield from handle.rdma_write(src_addr, dst_addr, size,
                                                  flags=flags)
                handles.append(op)
            for op in handles:
                yield from op.wait()
                if record:
                    latencies.append(op.latency_ns)

        def sender(handle, src_addr, dst_addr):
            yield from burst(handle, src_addr, dst_addr, warmup, False)
            marks["warm"] += 1
            if marks["warm"] == len(flows):
                marks["start"] = sim.now
                barrier.trigger()
            else:
                yield barrier
            yield from burst(handle, src_addr, dst_addr, iterations, True)

        def sink(handle):
            yield from handle.wait_notification()  # warm-up burst
            yield from handle.wait_notification()  # measured burst
            marks["ends"].append(sim.now)

        procs = []
        for src, dst, src_addr, dst_addr in flows:
            procs.append(sim.process(sender(src, src_addr, dst_addr)))
            procs.append(sim.process(sink(dst)))
        for proc in procs:
            sim.run_until_done(proc, limit=600_000_000_000)
        elapsed = max(marks["ends"]) - marks["start"]
        measured = len(flows) * size * iterations
        directions = [
            {
                "issued_bytes": size * (warmup + iterations),
                "delivered_bytes": dst.conn.stats.data_bytes_received,
                "ops_submitted": src.conn.stats.ops_submitted,
                "ops_completed": src.conn.stats.ops_completed,
            }
            for src, dst, _, _ in flows
        ]
        return {
            "config": config,
            "mode": mode,
            "elapsed_ns": elapsed,
            "measured_bytes": measured,
            "throughput_mbps": measured / (elapsed / 1e9) / _MB,
            "latencies_ns": latencies,
            "directions": directions,
            "counts": _cluster_counts(cluster, sim.now),
        }

    return Part(f"{config}/{mode}", setup, run)


# -- rpc -----------------------------------------------------------------


def _rpc_part(seed: int, duration_ns: int, rate_rps: float) -> Part:
    """Open-loop Poisson RPC on 1L-10G: 2 clients, 2 servers."""

    def setup():
        return ServeRun(
            config="1L-10G",
            n_clients=2,
            n_servers=2,
            policy="least-outstanding",
            arrival=ArrivalSpec(
                rate_rps=rate_rps,
                request_bytes=("uniform", 64, 512),
                response_bytes=("uniform", 128, 1024),
            ),
            server=ServerSpec(service=("exp", 10_000)),
            duration_ns=duration_ns,
            seed=seed,
        )

    def run(serve: ServeRun) -> dict:
        sim = serve.cluster.sim
        serve.run_to(duration_ns)
        sim.run_until_time(duration_ns + serve.drain_grace_ns,
                           stop=lambda: serve.traffic_done)
        done_ns = sim.now
        rt = serve.runtime
        rt.fail_pending()
        merged = rt.merged_histogram()
        return {
            "done_ns": done_ns,
            "generated": rt.generated,
            "completed": rt.completed,
            "shed": rt.shed + rt.shed_client,
            "failed": rt.failed,
            "deadline_missed": rt.deadline_missed,
            "pending": rt.pending,
            "violations": list(rt.check_invariants()),
            "p50_ns": merged.p50,
            "p99_ns": merged.p99,
            "p999_ns": merged.p999,
            "mean_ns": merged.mean,
            "queueing_p99_ns": rt.hist_queueing.p99,
            "service_p99_ns": rt.hist_service.p99,
            "network_p99_ns": rt.hist_network.p99,
            "mp_messages": sum(ep.stats_sent for ep in serve.world.endpoints),
            "counts": _cluster_counts(serve.cluster, done_ns),
        }

    return Part("1L-10G/serve", setup, run)


# -- dsm -----------------------------------------------------------------


def _dsm_part(app_factory: Callable[[], Any], nodes: int, seed: int) -> Part:
    """One SPLASH-2 application run on a 1L-1G page DSM."""

    def setup():
        cluster = make_cluster("1L-1G", nodes=nodes, seed=seed)
        runtime = DsmRuntime(cluster)
        app = app_factory()
        app.setup(runtime)
        return cluster, runtime, app

    def run(state) -> dict:
        cluster, runtime, app = state
        result = runtime.run(app.program)
        return {
            "app": app.name,
            "nodes": nodes,
            "elapsed_ns": result.elapsed_ns,
            "verified": bool(app.verify(runtime, result)),
            "per_node": [asdict(s) for s in result.per_node],
            "breakdowns": [asdict(b) for b in result.breakdowns],
            "counts": _cluster_counts(cluster, cluster.sim.now),
        }

    return Part(f"1L-1G/{app_factory().name}/{nodes}", setup, run)


# -- incast --------------------------------------------------------------


def _incast_part(congestion: str, ecn: Any, seed: int, senders: int,
                 chunk_bytes: int, chunks: int) -> Part:
    """``senders``:1 incast across the 3:1 leaf-spine fabric."""

    def setup():
        cluster = make_cluster("1L-1G", nodes=senders + 1, seed=seed,
                               synthetic_payloads=True,
                               fabric=leaf_spine_3to1())
        cluster.config.protocol = replace(cluster.config.protocol,
                                          congestion=congestion)
        if ecn is not None:
            cluster.set_ecn_threshold(ecn)
        rx_node = cluster.nodes[senders]
        flows = []
        for s in range(senders):
            handle, peer = cluster.connect(s, senders)
            flows.append((handle, peer,
                          cluster.nodes[s].memory.alloc(chunk_bytes),
                          rx_node.memory.alloc(chunk_bytes)))
        return cluster, flows

    def run(state) -> dict:
        cluster, flows = state
        sim = cluster.sim
        latencies: list[int] = []
        flow_ns: list[int] = []

        def sender(handle, src_addr, dst_addr):
            start = sim.now
            for _ in range(chunks):
                op = yield from handle.rdma_write(src_addr, dst_addr,
                                                  chunk_bytes)
                yield from op.wait()
                latencies.append(op.latency_ns)
            flow_ns.append(sim.now - start)

        procs = [sim.process(sender(h, s, d)) for h, _, s, d in flows]
        for proc in procs:
            sim.run_until_done(proc, limit=20_000_000_000)
        elapsed = sim.now
        sim.run()  # drain straggling acks and timers
        counts = _cluster_counts(cluster, elapsed)
        return {
            "congestion": congestion,
            "ecn_threshold": ecn,
            "elapsed_ns": elapsed,
            "chunks_issued": senders * chunks,
            "chunks_completed": len(latencies),
            "issued_bytes": senders * chunks * chunk_bytes,
            "delivered_bytes": sum(
                peer.conn.stats.data_bytes_received for _, peer, _, _ in flows
            ),
            "latencies_ns": latencies,
            "flow_ns": flow_ns,
            "routing_violations": [
                v for fab in cluster.fabrics for v in fab.routing_invariants()
            ],
            "counts": counts,
        }

    return Part(f"leaf-spine/{congestion}", setup, run)


# -- workloads -----------------------------------------------------------


class Workload:
    """A named list of parts plus how to read their outputs."""

    name = ""

    def __init__(self, seed: int, size: str) -> None:
        self.parts: list[Part] = self.build(seed, size)

    def build(self, seed: int, size: str) -> list[Part]:
        raise NotImplementedError

    def timed(self, outputs: list[dict]) -> dict:
        """Simulated end-to-end values (see README for each workload):
        ``elapsed_ns``, ``goodput_bytes``, ``payload_bytes``, ``ops``,
        ``latency_p50_ns``, ``latency_p99_ns`` and ``samples``."""
        raise NotImplementedError

    def outcome(self, outputs: list[dict]) -> tuple[int, int, list[str]]:
        """``(attempted, failed, problems)`` for one repetition."""
        raise NotImplementedError

    def paper_error_pct(self, outputs: list[dict]):
        """Error against the paper's reference values, in percent; None
        where the paper has none (the model is unvalidated there)."""
        return None

    def layer_counts(self, outputs: list[dict]) -> dict:
        counts = [out["counts"] for out in outputs]
        merged = _sum_counts(counts)
        data_frames = merged["data_frames"]
        wire = merged["wire_frames"]
        return {
            "sim.events": merged["events_processed"],
            "sim.heap_pushes": merged["heap_pushes"],
            "sim.fastlane_hits": merged["fastlane_hits"],
            "sim.cancelled_popped": merged["cancelled_popped"],
            "ethernet.wire_frames": wire,
            "ethernet.irq_per_frame": merged["irqs"] / wire if wire else 0.0,
            "ethernet.switch_drops": merged["switch_drops"],
            "ethernet.ring_drops": merged["nic_ring_drops"],
            "ethernet.peak_queue_frames": max(
                c["peak_queue_frames"] for c in counts
            ),
            "host.protocol_cpu_frac": max(
                c["protocol_cpu_fraction_mean"] for c in counts
            ),
            "core.data_frames": data_frames,
            "core.ops": merged["ops_submitted"],
            "core.retransmits": merged["retransmissions"],
            "core.first_try_frac": (
                (data_frames - merged["retransmissions"]) / data_frames
                if data_frames else 0.0
            ),
            "core.extra_frame_frac": _weighted(
                counts, "extra_frame_fraction", "data_frames"),
            "core.ooo_frac": _weighted(
                counts, "out_of_order_fraction", "data_frames"),
            "fabric.ecmp_routed": sum(
                sw["ecmp_routed"] for c in counts for sw in c["switches"]
            ),
            "fabric.trunk_drops": merged["trunk_drops"],
            "congestion.ce_marked": merged["ce_marked"],
            "congestion.cwnd_final_mean": _mean_nonzero(
                c["cwnd_final_mean"] for c in counts),
            "mp.messages": sum(out.get("mp_messages", 0) for out in outputs),
        }


def _sum_counts(counts: list[dict]) -> dict:
    out: dict = {}
    for c in counts:
        for key, value in c.items():
            if isinstance(value, int) and not isinstance(value, bool):
                out[key] = out.get(key, 0) + value
    return out


def _weighted(counts: list[dict], key: str, weight: str) -> float:
    total = sum(c[weight] for c in counts)
    if not total:
        return 0.0
    return sum(c[key] * c[weight] for c in counts) / total


def _mean_nonzero(values) -> float:
    kept = [v for v in values if v]
    return sum(kept) / len(kept) if kept else 0.0


class Stream(Workload):
    name = "stream"

    def build(self, seed, size):
        if size == "full":
            nbytes, warmup, iterations = 1 << 20, 4, 10
        else:
            nbytes, warmup, iterations = 64 << 10, 1, 2
        return [
            _stream_part("1L-1G", "one-way", seed, nbytes, warmup, iterations),
            _stream_part("2L-1G", "two-way", seed, nbytes, warmup, iterations),
            _stream_part("1L-10G", "one-way", seed, nbytes, warmup, iterations),
        ]

    def timed(self, outputs):
        return {
            "elapsed_ns": sum(o["elapsed_ns"] for o in outputs),
            "goodput_bytes": sum(o["measured_bytes"] for o in outputs),
            "payload_bytes": sum(
                d["delivered_bytes"] for o in outputs for d in o["directions"]
            ),
            "ops": sum(
                d["ops_completed"] for o in outputs for d in o["directions"]
            ),
            **_latency([x for o in outputs for x in o["latencies_ns"]]),
        }

    def outcome(self, outputs):
        problems = []
        attempted = failed = 0
        for o in outputs:
            for i, d in enumerate(o["directions"]):
                attempted += d["ops_submitted"]
                failed += d["ops_submitted"] - d["ops_completed"]
                if d["ops_completed"] != d["ops_submitted"]:
                    problems.append(
                        f"{o['config']} {o['mode']} direction {i}: "
                        f"{d['ops_completed']} of {d['ops_submitted']} "
                        "writes completed"
                    )
                if d["delivered_bytes"] != d["issued_bytes"]:
                    problems.append(
                        f"{o['config']} {o['mode']} direction {i}: delivered "
                        f"{d['delivered_bytes']} B of {d['issued_bytes']} B"
                    )
        return attempted, failed, problems

    def paper_error_pct(self, outputs):
        return max(
            100.0 * abs(o["throughput_mbps"] - ref) / ref
            for o in outputs
            for ref in [FIG2_MAX_THROUGHPUT_MBPS[(o["config"], o["mode"])]]
        )


class Rpc(Workload):
    name = "rpc"

    def build(self, seed, size):
        duration = 40_000_000 if size == "full" else 2_000_000
        return [_rpc_part(seed, duration, rate_rps=50_000.0)]

    def timed(self, outputs):
        (o,) = outputs
        payload = o["counts"]["data_bytes_received"]
        return {
            "elapsed_ns": o["done_ns"],
            "goodput_bytes": payload,
            "payload_bytes": payload,
            "ops": o["completed"],
            "latency_p50_ns": o["p50_ns"],
            "latency_p99_ns": o["p99_ns"],
            "samples": o["completed"],
        }

    def outcome(self, outputs):
        (o,) = outputs
        failed = o["failed"] + o["shed"] + o["deadline_missed"] + o["pending"]
        problems = list(o["violations"])
        answered = o["completed"] + o["shed"] + o["failed"]
        if o["generated"] != answered:
            problems.append(
                f"generated {o['generated']} != completed + shed + failed "
                f"{answered}"
            )
        return o["generated"], failed, problems

    def layer_counts(self, outputs):
        out = super().layer_counts(outputs)
        (o,) = outputs
        out.update({
            "serve.requests": o["generated"],
            "serve.shed": o["shed"],
            "serve.queueing_p99_us": o["queueing_p99_ns"] / 1e3,
            "serve.service_p99_us": o["service_p99_ns"] / 1e3,
            "serve.network_p99_us": o["network_p99_ns"] / 1e3,
        })
        return out


class Dsm(Workload):
    name = "dsm"

    def build(self, seed, size):
        if size == "full":
            nodes = 16
            fft = partial(FftApp, m=128, seed=seed)
            water = partial(WaterNsqApp, iterations=1, seed=seed)
        else:
            nodes = 4
            fft = partial(FftApp, m=32, seed=seed)
            water = partial(WaterNsqApp, n_molecules=128, iterations=1,
                            seed=seed)
        return [
            _dsm_part(fft, 1, seed),
            _dsm_part(fft, nodes, seed),
            _dsm_part(water, 1, seed),
            _dsm_part(water, nodes, seed),
        ]

    @staticmethod
    def _parallel(outputs):
        return [o for o in outputs if o["nodes"] > 1]

    def timed(self, outputs):
        parallel = self._parallel(outputs)
        # Mean page-fetch wait of every node that fetched, per parallel run.
        waits = [
            s["data_wait_ns"] / s["page_fetches"]
            for o in parallel
            for s in o["per_node"]
            if s["page_fetches"]
        ]
        payload = sum(o["counts"]["data_bytes_received"] for o in outputs)
        return {
            "elapsed_ns": sum(o["elapsed_ns"] for o in parallel),
            "goodput_bytes": sum(
                o["counts"]["data_bytes_received"] for o in parallel
            ),
            "payload_bytes": payload,
            "ops": sum(o["counts"]["ops_completed"] for o in outputs),
            **_latency(waits),
        }

    def outcome(self, outputs):
        problems = [
            f"{o['app']} on {o['nodes']} nodes failed verify()"
            for o in outputs
            if not o["verified"]
        ]
        return len(outputs), len(problems), problems

    def speedups(self, outputs) -> dict:
        single = {o["app"]: o for o in outputs if o["nodes"] == 1}
        return {
            o["app"]: single[o["app"]]["elapsed_ns"] / o["elapsed_ns"]
            for o in self._parallel(outputs)
        }

    def paper_error_pct(self, outputs):
        """Worst distance outside the Fig-3 speedup band, in percent of
        the nearer band edge (0 when every speedup is inside its band)."""
        worst = 0.0
        for app, speedup in self.speedups(outputs).items():
            low, high = FIG3_SPEEDUP_BANDS[app]
            if speedup < low:
                worst = max(worst, 100.0 * (low - speedup) / low)
            elif speedup > high:
                worst = max(worst, 100.0 * (speedup - high) / high)
        return worst

    def layer_counts(self, outputs):
        out = super().layer_counts(outputs)
        nodes = [s for o in outputs for s in o["per_node"]]
        parallel = [b for o in self._parallel(outputs) for b in o["breakdowns"]]

        def mean(key):
            return statistics.fmean(b[key] for b in parallel)

        out.update({
            "dsm.page_fetches": sum(s["page_fetches"] for s in nodes),
            "dsm.diffs": sum(s["diffs_flushed"] for s in nodes),
            "dsm.data_wait_frac": mean("data_wait"),
            "dsm.sync_frac": mean("sync"),
            "dsm.overhead_frac": mean("dsm_overhead"),
            "dsm.protocol_frac": mean("protocol"),
        })
        return out


class Incast(Workload):
    name = "incast"

    def build(self, seed, size):
        # The static run is the default 8-chunk incast.  Its timeout
        # storms make its simulated work vary by about 15 % with the seed,
        # so the steady DCTCP run carries most of the work.
        if size == "full":
            chunk, static_chunks, dctcp_chunks = 64 << 10, 8, 48
        else:
            chunk, static_chunks, dctcp_chunks = 16 << 10, 1, 1
        return [
            _incast_part("static", None, seed, 16, chunk, static_chunks),
            _incast_part("dctcp", 32, seed, 16, chunk, dctcp_chunks),
        ]

    def timed(self, outputs):
        delivered = sum(o["delivered_bytes"] for o in outputs)
        # Latency is the flow completion time of each DCTCP sender.  The
        # static run's flow times are set by a handful of timeouts; its
        # cost shows in sim_elapsed_ms and sim_goodput_mbps instead.
        (dctcp,) = [o for o in outputs if o["congestion"] == "dctcp"]
        return {
            "elapsed_ns": sum(o["elapsed_ns"] for o in outputs),
            "goodput_bytes": delivered,
            "payload_bytes": delivered,
            "ops": sum(o["chunks_completed"] for o in outputs),
            **_latency(dctcp["flow_ns"]),
        }

    def outcome(self, outputs):
        problems = []
        attempted = failed = 0
        for o in outputs:
            attempted += o["chunks_issued"]
            failed += o["chunks_issued"] - o["chunks_completed"]
            problems.extend(
                f"{o['congestion']}: {v}" for v in o["routing_violations"]
            )
            if o["chunks_completed"] != o["chunks_issued"]:
                problems.append(
                    f"{o['congestion']}: {o['chunks_completed']} of "
                    f"{o['chunks_issued']} chunks completed"
                )
            if o["delivered_bytes"] != o["issued_bytes"]:
                problems.append(
                    f"{o['congestion']}: delivered {o['delivered_bytes']} B "
                    f"of {o['issued_bytes']} B"
                )
        return attempted, failed, problems


WORKLOADS = {cls.name: cls for cls in (Stream, Rpc, Dsm, Incast)}


def make_workload(name: str, seed: int, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, size)
