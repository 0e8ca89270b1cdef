"""Host-time ledger for the simulator: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0

Runs the workload's fixed simulated work repeatedly for ``--seconds``
(each repetition builds fresh clusters from the same seed), checks every
repetition's simulated output, and prints one line per metric followed by
a final JSON line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` runs a few untraced repetitions, then one traced repetition,
and reports the per-layer metrics: host self time per ``repro`` layer
from layer-boundary spans (see ``spans.py``), the layers' counters, and
the tracer's own overhead and coverage.  The traced repetition must
simulate exactly what the untraced ones did (equal digests).

A record of the run (commit, interpreter, ``nproc``, seed, workload list,
metrics, digest) and, for traced runs, the spans are written under
``.perfbench/`` in the repository root.  Exits 1 if an output is wrong,
2 if the simulator's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# Each repetition builds every part's cluster this many times and times
# the median, so set-up time is a median of many builds.
SETUP_BUILDS = 5
MIN_REPS = 3
# Share of --seconds a traced run spends on untraced repetitions.
TRACE_BASELINE_SHARE = 0.4

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


@dataclass
class Rep:
    """One repetition of a workload."""

    setup_s: float
    host_s: float
    outputs: list
    digest: str


def digest(outputs: list) -> str:
    """SHA-256 over every simulated output and counter of a repetition."""
    blob = json.dumps(outputs, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_once(workload, tracer=None) -> Rep:
    """Set up and run every part once; time set-up and run separately."""
    setup_s = host_s = 0.0
    outputs = []
    for part in workload.parts:
        builds = []
        for _ in range(SETUP_BUILDS):
            state = None
            gc.collect()
            t0 = time.perf_counter()
            state = part.setup()
            builds.append(time.perf_counter() - t0)
        setup_s += statistics.median(builds)
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        outputs.append(part.run(state))
        host_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        state = None
    gc.collect()
    return Rep(setup_s, host_s, outputs, digest(outputs))


def repeat(workload, seconds: float, min_reps: int) -> list[Rep]:
    """Repeat the workload until another repetition would overrun."""
    reps: list[Rep] = []
    begin = time.perf_counter()
    while True:
        reps.append(run_once(workload))
        spent = time.perf_counter() - begin
        if len(reps) >= min_reps and spent * (len(reps) + 1) / len(reps) > seconds:
            return reps


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload, reps: list[Rep]) -> dict:
    from perfbench.spec import END_TO_END

    timed = workload.timed(reps[0].outputs)
    host = statistics.median(r.host_s for r in reps)
    values = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "host_s": host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_mb_per_host_s": timed["payload_bytes"] / 1e6 / host,
        "req_per_host_s": timed["ops"] / host,
        "sim_goodput_mbps": timed["goodput_bytes"] / 1e6
        / (timed["elapsed_ns"] / 1e9),
        "sim_elapsed_ms": timed["elapsed_ns"] / 1e6,
        "sim_p50_us": timed["latency_p50_ns"] / 1e3,
        "sim_p99_us": timed["latency_p99_ns"] / 1e3,
    }
    return {m.name: (values[m.name], m.unit) for m in END_TO_END}


def per_layer(workload, baseline: list[Rep], traced: Rep, tracer) -> dict:
    from perfbench.spec import MEASURED_LAYERS, PER_LAYER

    counts = workload.layer_counts(traced.outputs)
    self_times = tracer.self_times()
    host = statistics.median(r.host_s for r in baseline)
    # A layer the workload does not use reads 0.
    values = {m.name: 0 for m in PER_LAYER}
    values.update(counts)
    for layer in MEASURED_LAYERS:
        values[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    values["sim.host_ns_per_event"] = host * 1e9 / counts["sim.events"]
    values["host.mem_write_calls"] = tracer.calls("host:VirtualMemory.write")
    values["trace.overhead"] = traced.host_s / host
    values["trace.coverage"] = (
        sum(self_times.get(layer, 0.0) for layer in MEASURED_LAYERS)
        / traced.host_s
    )
    return {m.name: (values[m.name], m.unit) for m in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: same code paths, little work (quick check)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench.spec import MOVES, UNMEASURED_LAYERS, WORKLOADS as WHY
    from perfbench.workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = make_workload(args.workload, args.seed, args.size)

    tracer = None
    if args.trace:
        from perfbench.spans import SpanTracer

        reps = repeat(workload, args.seconds * TRACE_BASELINE_SHARE, 1)
        tracer = SpanTracer()
        tracer.install()
        try:
            traced = run_once(workload, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(workload, reps, traced, tracer)
    else:
        reps = repeat(workload, args.seconds, MIN_REPS)
        traced = None
        metrics = end_to_end(workload, reps)

    # -- correctness ------------------------------------------------------
    attempted = failed = 0
    problems: list[str] = []
    for rep in reps:
        a, f, p = workload.outcome(rep.outputs)
        attempted += a
        failed += f
        problems.extend(p)
    digests = {rep.digest for rep in reps}
    if len(digests) > 1:
        problems.append("repetitions of one seed simulated different outputs")
    if traced is not None:
        problems.extend(workload.outcome(traced.outputs)[2])
        if traced.digest != reps[0].digest:
            problems.append("the traced run simulated different outputs")
    problems = list(dict.fromkeys(problems))
    paper = workload.paper_error_pct(reps[0].outputs)

    # -- report -----------------------------------------------------------
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} size={args.size} reps={len(reps)} "
          f"commit={commit_id()} python={platform.python_version()} "
          f"nproc={os.cpu_count()}")
    print(f"why: {WHY[args.workload]}")
    for part in workload.parts:
        print(f"part {part.name}")
    for name, (value, unit) in metrics.items():
        moves = f"  # moves {MOVES[name]}" if name in MOVES else ""
        print(f"metric {name} = {value:.6g} {unit}{moves}")
    if traced is None:
        samples = workload.timed(reps[0].outputs)["samples"]
        print(f"latency samples = {samples} (sim_p50_us, sim_p99_us)")
    print(f"fail_frac = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    if paper is None:
        print("paper_err_pct: no reference values; this model is unvalidated")
    else:
        print(f"paper_err_pct = {paper:.4g} %")
    if tracer is not None:
        print(f"traced host_s = {traced.host_s:.4g} s, spans = "
              f"{tracer.span_count()}; unmeasured (off on the default "
              f"path): {', '.join(UNMEASURED_LAYERS)}")
        print("self time by layer (share of traced host_s):")
        for layer, secs in sorted(tracer.self_times().items(),
                                  key=lambda kv: -kv[1]):
            print(f"  {layer:<12} {secs:9.4f} s  "
                  f"{100 * secs / traced.host_s:5.1f} %")
        print("top span names by self time:")
        for label, secs, calls in tracer.top_names():
            print(f"  {label:<60} {secs:8.4f} s  {calls} calls")
    print(f"digest = {reps[0].digest}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    values = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    record = {
        "commit": commit_id(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "workloads": list(WORKLOADS),
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps": [{"setup_s": r.setup_s, "host_s": r.host_s} for r in reps],
        "digest": reps[0].digest,
        "metrics": values,
        "attempted": attempted,
        "failed": failed,
        "paper_err_pct": paper,
        "problems": problems,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        record["traced_host_s"] = traced.host_s
        record["self_s"] = tracer.self_times()
        tracer.save(OUT_DIR / f"spans-{stem}.npz")
    (OUT_DIR / f"record-{stem}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
