"""Sharded fleet throughput — 4 worker processes vs 1.

Not a paper figure: this benchmarks the `repro.fleet.sharding` layer.
Two legs run over the same cohort: a single-process (1-shard) run and a
4-process run.  The merged `FleetSummary` must be **byte-identical**
between the two legs — the sharding determinism contract.  On a machine
with >= 4 cores the sharded leg must clear 2x over the single-process
leg.  On smaller runners the speedup assertion is skipped —
byte-equivalence always gates.
"""

from __future__ import annotations

import os

import pytest
from conftest import print_table

from repro.fleet import (
    CohortConfig,
    GatewayConfig,
    NodeProxyConfig,
    SchedulerConfig,
    ShardedFleetRunner,
    make_cohort,
)

N_PATIENTS = 12
DURATION_S = 120.0
FS = 250.0
N_SHARDS = 4
#: Required sharded-over-single-process speedup on a >= 4-core machine.
MIN_SPEEDUP = 2.0


def run_layout(n_shards: int):
    """One sharded run of the benchmark cohort at ``n_shards``."""
    cohort = make_cohort(CohortConfig(n_patients=N_PATIENTS, seed=7))
    return ShardedFleetRunner(
        cohort, n_shards=n_shards,
        config=SchedulerConfig(duration_s=DURATION_S, fs=FS),
        node_config=NodeProxyConfig(stream_telemetry=False),
        gateway_config=GatewayConfig(n_iter=80)).run()


def test_fleet_throughput_sharded(benchmark):
    single, sharded = benchmark.pedantic(
        lambda: (run_layout(1), run_layout(N_SHARDS)),
        rounds=1, iterations=1)
    speedup = single.timings_s["total"] / sharded.timings_s["total"]

    print_table(
        f"Sharded fleet ({N_PATIENTS} patients x {DURATION_S:.0f} s, "
        f"{N_SHARDS} shards)",
        ["metric", "value"],
        [
            ("single-process wall [s]", single.timings_s["total"]),
            (f"{N_SHARDS}-shard wall [s]", sharded.timings_s["total"]),
            ("speedup [x]", speedup),
            ("patients/sec (sharded)", sharded.patients_per_second),
            ("packets sent", sharded.packets_sent),
            ("SNR p50 [dB]", sharded.summary.snr_p50_db),
            ("cores available", os.cpu_count() or 1),
        ],
    )

    # The determinism contract gates unconditionally.
    assert sharded.summary.to_json() == single.summary.to_json(), \
        "sharded FleetSummary diverged from the single-process leg"
    assert sharded.packets_sent == single.packets_sent
    assert sharded.summary.n_patients == N_PATIENTS
    assert sharded.summary.dropped_packets == 0

    if (os.cpu_count() or 1) < N_SHARDS:
        pytest.skip(f"speedup assertion needs >= {N_SHARDS} cores "
                    f"(have {os.cpu_count() or 1}); byte-equivalence "
                    "already checked")
    assert speedup >= MIN_SPEEDUP, (
        f"{N_SHARDS}-shard run only {speedup:.2f}x faster than the "
        f"single-process run (need >= {MIN_SPEEDUP}x)")
