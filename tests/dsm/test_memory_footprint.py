"""Host memory of repeated DSM builds stays bounded (Linux only).

A 16-node DSM wires 240 notice-staging rings of 512 KiB.  They are
lazily zeroed private mappings, so building clusters over and over (perf
harness set-ups, forked sweeps, the shrinker) costs host memory only for
the pages the simulation writes, instead of re-zeroing recycled heap
chunks on every build.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_BUILDS = """
import gc, resource
from repro.bench import make_cluster
from repro.dsm import DsmRuntime
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for _ in range(5):
    DsmRuntime(make_cluster("1L-1G", nodes=16, seed=1))
    gc.collect()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_five_16_node_dsm_builds_grow_peak_rss_under_40_mib():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _BUILDS],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    growth_mib = int(out.stdout.split()[-1]) / 1024
    assert growth_mib < 40, f"peak RSS grew {growth_mib:.1f} MiB over five builds"
