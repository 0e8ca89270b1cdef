"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the single source for ``BENCHMARK.json`` at the repository
root: ``python3 perfbench/spec.py`` prints the file's contents, and the
quick check fails if the two disagree.  Beyond what ``BENCHMARK.json``
holds, each per-layer metric records which end-to-end metric it should
move and on which workload (``MOVES``).

"host" figures are wall time of the simulator; "sim" figures are virtual
time of the modelled cluster and are a pure function of the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "MOVES",
    "MEASURED_LAYERS",
    "UNMEASURED_LAYERS",
    "benchmark_json",
]

RUN_SECONDS = 25

# The modules under src/repro/ the traced run attributes host time to.
MEASURED_LAYERS = (
    "sim", "ethernet", "host", "core", "mp", "serve", "analysis", "dsm",
    "apps", "fabric", "congestion",
)
# Off on the default path: no workload here exercises them, and the
# benchmark does not invent load for them.
UNMEASURED_LAYERS = ("control", "recovery")

WORKLOADS = {
    "stream": "Fig-2 1 MB RDMA writes (1L-1G one-way, 2L-1G two-way, "
              "1L-10G one-way): per-byte cost of the lossless core/ethernet "
              "data path, with paper reference values",
    "rpc": "open-loop Poisson RPC on 1L-10G, 2 clients x 2 servers, "
           "least-outstanding: per-message cost in sim, mp, serve, "
           "analysis and host.cpu",
    "dsm": "fft (communication-bound) and water-nsq (compute-bound) on a "
           "16-node page DSM plus 1-node baselines: dsm, apps, host.memory "
           "and the heaviest set-up",
    "incast": "16:1 incast over the 3:1 leaf-spine, static window and "
              "DCTCP+ECN: core loss recovery, fabric ECMP and congestion",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


_HOST = 0.25
_SIM = 0.2

END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("host_s", "s", "lower", _HOST),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("sim_mb_per_host_s", "MB/s", "higher", _HOST),
    Metric("req_per_host_s", "req/s", "higher", _HOST),
    Metric("sim_goodput_mbps", "MB/s", "higher", _SIM),
    Metric("sim_elapsed_ms", "ms", "lower", _SIM),
    Metric("sim_p50_us", "us", "lower", _SIM),
    Metric("sim_p99_us", "us", "lower", _SIM),
)

# name, unit, better, which end-to-end metric it should move (and where).
_LAYER_ROWS = (
    ("sim.self_s", "s", "lower", "host_s, req_per_host_s: rpc most, then stream, dsm least"),
    ("sim.events", "count", "lower", "host_s, req_per_host_s: rpc most, then stream, dsm least"),
    ("sim.heap_pushes", "count", "lower", "host_s, req_per_host_s: rpc most, then stream"),
    ("sim.fastlane_hits", "count", "lower", "host_s, req_per_host_s: rpc most, then stream"),
    ("sim.cancelled_popped", "count", "lower", "host_s: rpc and stream"),
    ("sim.host_ns_per_event", "ns", "lower", "host_s, req_per_host_s: rpc, then stream, dsm least"),
    ("ethernet.self_s", "s", "lower", "sim_mb_per_host_s: stream and incast"),
    ("ethernet.wire_frames", "count", "lower", "sim_mb_per_host_s: stream and incast"),
    ("ethernet.irq_per_frame", "ratio", "lower", "sim_mb_per_host_s: stream and incast"),
    ("ethernet.switch_drops", "count", "lower", "sim_goodput_mbps, sim_elapsed_ms: incast"),
    ("ethernet.ring_drops", "count", "lower", "sim_goodput_mbps, sim_elapsed_ms: incast"),
    ("ethernet.peak_queue_frames", "frames", "lower", "sim_goodput_mbps, sim_elapsed_ms: incast"),
    ("host.self_s", "s", "lower", "host_s: dsm"),
    ("host.mem_write_calls", "count", "lower", "host_s: dsm (water-nsq)"),
    ("host.protocol_cpu_frac", "ratio", "lower", "sim_goodput_mbps: stream (1L-10G point)"),
    ("core.self_s", "s", "lower", "host_s: every workload, most on stream and dsm"),
    ("core.data_frames", "count", "lower", "host_s: stream and dsm"),
    ("core.ops", "count", "higher", "req_per_host_s: stream, dsm, incast"),
    ("core.retransmits", "count", "lower", "sim_goodput_mbps: incast"),
    ("core.first_try_frac", "ratio", "higher", "sim_goodput_mbps: incast"),
    ("core.extra_frame_frac", "ratio", "lower", "sim_goodput_mbps: stream (paper error)"),
    ("core.ooo_frac", "ratio", "lower", "sim_goodput_mbps: stream (paper error)"),
    ("mp.self_s", "s", "lower", "req_per_host_s: rpc"),
    ("mp.messages", "count", "higher", "req_per_host_s: rpc"),
    ("serve.self_s", "s", "lower", "req_per_host_s: rpc"),
    ("serve.requests", "count", "higher", "req_per_host_s: rpc"),
    ("serve.shed", "count", "lower", "req_per_host_s: rpc"),
    ("serve.queueing_p99_us", "us", "lower", "sim_p99_us: rpc"),
    ("serve.service_p99_us", "us", "lower", "sim_p99_us: rpc"),
    ("serve.network_p99_us", "us", "lower", "sim_p99_us: rpc"),
    ("analysis.self_s", "s", "lower", "req_per_host_s: rpc"),
    ("dsm.self_s", "s", "lower", "host_s: dsm"),
    ("apps.self_s", "s", "lower", "host_s: dsm"),
    ("dsm.page_fetches", "count", "lower", "host_s, sim_elapsed_ms: dsm"),
    ("dsm.diffs", "count", "lower", "host_s, sim_elapsed_ms: dsm"),
    ("dsm.data_wait_frac", "ratio", "lower", "sim_elapsed_ms: dsm (paper error)"),
    ("dsm.sync_frac", "ratio", "lower", "sim_elapsed_ms: dsm (paper error)"),
    ("dsm.overhead_frac", "ratio", "lower", "sim_elapsed_ms: dsm (paper error)"),
    ("dsm.protocol_frac", "ratio", "lower", "sim_elapsed_ms: dsm (paper error)"),
    ("fabric.self_s", "s", "lower", "host_s, sim_goodput_mbps: incast"),
    ("fabric.ecmp_routed", "count", "lower", "host_s, sim_goodput_mbps: incast"),
    ("fabric.trunk_drops", "count", "lower", "host_s, sim_goodput_mbps: incast"),
    ("congestion.self_s", "s", "lower", "host_s, sim_goodput_mbps: incast"),
    ("congestion.ce_marked", "count", "lower", "host_s, sim_goodput_mbps: incast"),
    ("congestion.cwnd_final_mean", "frames", "higher", "host_s, sim_goodput_mbps: incast"),
    ("trace.overhead", "ratio", "lower", "none: traced host_s over untraced host_s"),
    ("trace.coverage", "ratio", "higher", "none: summed layer self time over traced host_s"),
)

PER_LAYER = tuple(Metric(n, u, b) for n, u, b, _ in _LAYER_ROWS)
MOVES = {n: moves for n, _, _, moves in _LAYER_ROWS}


def benchmark_json() -> dict:
    """The contents ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
