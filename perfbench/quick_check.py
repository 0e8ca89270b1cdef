"""The benchmark's own quick check, at tiny workload sizes.

Usage (from the repository root)::

    python3 perfbench/quick_check.py

Runs every workload untraced on two seeds and traced on one, each for a
second at ``--size tiny``, and fails (exit 1) unless:

* ``BENCHMARK.json`` equals what ``perfbench/spec.py`` defines, and no
  metric in it is stored under two spellings;
* every run exits 0, passes its correctness checks with no failed
  operation, and ends with the four-key JSON result line;
* every metric of the mode (end-to-end untraced, per-layer traced) is
  printed exactly once on a ``metric`` line and in the JSON, with its
  unit, and nothing else is;
* the two seeds give different digests, and the traced run's digest
  equals the untraced one of the same seed;
* without the simulator's sources the command exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json  # noqa: E402

_METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")


def spelling(name: str) -> str:
    """Names that differ only in case or separators are the same metric."""
    return re.sub(r"[^a-z0-9]", "", name.lower())


def bench(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(proc, expected, label: str, problems: list) -> str:
    """Check one run's output; return its digest."""
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return ""
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")
    want = {m.name: m.unit for m in expected}
    got = {n: v["unit"] for n, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: JSON metrics differ: {sorted(set(got) ^ set(want))}")
    printed: dict = {}
    for line in lines:
        match = _METRIC_LINE.match(line)
        if match:
            printed.setdefault(match[1], []).append(match[3])
    for name, unit in want.items():
        if printed.get(name) != [unit]:
            problems.append(f"{label}: {name} printed as {printed.get(name)}")
    for name in set(printed) - set(want):
        problems.append(f"{label}: unexpected metric {name}")
    digests = [ln.split(" = ")[1] for ln in lines if ln.startswith("digest = ")]
    return digests[0] if digests else ""


def main() -> int:
    problems: list[str] = []
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    if on_disk != benchmark_json():
        problems.append("BENCHMARK.json differs from perfbench/spec.py")
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    spellings = [spelling(n) for n in names]
    for name, key in zip(names, spellings):
        if spellings.count(key) > 1:
            problems.append(f"metric {name} is stored under two spellings")

    for workload in WORKLOADS:
        first = check_run(bench(ROOT, workload, 1, 0), END_TO_END,
                          f"{workload} seed 1", problems)
        second = check_run(bench(ROOT, workload, 2, 0), END_TO_END,
                           f"{workload} seed 2", problems)
        traced = check_run(bench(ROOT, workload, 1, 1), PER_LAYER,
                           f"{workload} traced", problems)
        if first and first == second:
            problems.append(f"{workload}: seeds 1 and 2 gave the same digest")
        if first and traced != first:
            problems.append(f"{workload}: traced digest differs from untraced")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(bare, "stream", 1, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the simulator's sources the command "
                        "did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAILED: {problem}")
    print("quick check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
