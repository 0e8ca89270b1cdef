"""Gray-off serving runs are fingerprint-identical to the pre-gray tree.

The gray-failure machinery (``faults=``, ``tail=``, ``gray_detection=``)
is opt-in: a serving run that passes none of them must execute
byte-for-byte the same event sequence it did before the subsystem
existed.  These fingerprints were captured from the repo HEAD
immediately before the gray-failure PR landed (the RPC serving PR); any
drift here means the default serving path changed behaviour.  The crash
pin exercises crash replay on the one attempt-tracking path that runs
with and without a ``TailSpec``.
"""

from repro.bench.serve import run_serve
from repro.serve import ArrivalSpec, ServerSpec

MS = 1_000_000

# Scenario builders + the fingerprint each produced at the pre-gray HEAD.
PINNED = [
    (
        dict(
            config="1L-1G", n_clients=2, n_servers=2, policy="round-robin",
            duration_ns=8 * MS, seed=1,
        ),
        "ddb88d1c3b5b6dd1a62b50a752b3cf339204b89529a4cd1e5a625f4b005056ee",
    ),
    (
        dict(
            config="2L-1G", n_clients=2, n_servers=3,
            policy="least-outstanding",
            arrival=ArrivalSpec(kind="bursty", rate_rps=15_000),
            duration_ns=8 * MS, seed=5,
        ),
        "e873f2021caadc1023fe60ca18d2667efc1af6f5e7c257e84b5dd0cebc774973",
    ),
    (
        # A server crash with replay to the survivor, monitor attached.
        dict(
            config="1L-1G", n_clients=2, n_servers=2, policy="round-robin",
            duration_ns=10 * MS, seed=3, crash_server=2, crash_ns=3 * MS,
            restart_delay_ns=2 * MS, use_monitor=True,
        ),
        "5913422a195a22efaacb8de33037ba1a9a80f0ebdb8eccaf1ca0139f8a723a38",
    ),
]


def test_gray_off_serving_runs_match_pre_gray_fingerprints():
    for kwargs, want in PINNED:
        res = run_serve(server=ServerSpec(), **kwargs)
        assert not res.violations, (kwargs, res.violations)
        assert res.fingerprint == want, (
            f"gray-off serving run {kwargs} drifted from the pre-gray "
            f"baseline: {res.fingerprint}"
        )
