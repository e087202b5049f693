"""Observability overhead — fleet hot path with vs without repro.obs.

Not a paper figure: this benchmarks the `repro.obs` layer's out-of-band
contract.  The same cohort runs through the `FleetScheduler` plain and
with an `Observability` bundle attached (gateway counters, trace
events, governor hooks all live); the bundle must change **nothing** —
the `FleetSummary` bytes are compared — and the CPU-time overhead of
keeping it attached must stay under 5 %.  The canonical fleet-scope
snapshot must also be byte-identical across repeated observed runs
(virtual-time trace determinism).

The overhead is the smaller of two estimators over back-to-back
(plain, observed) pairs: the median of the per-pair CPU-time ratios
and the ratio of the pooled CPU totals.  Each pair shares machine
state, so the pairwise ratio cancels the load drift that dwarfs the
real overhead on shared runners; pair order alternates so the
second-run-is-warmer bias cancels too.  Short runs keep each pair
inside one machine-state window, which is what makes the ratio tight.
"""

from __future__ import annotations

import sys
import time

import numpy as np
from conftest import print_table
from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    NodeProxyConfig,
    SchedulerConfig,
    make_cohort,
)
from repro.obs import Observability

N_PATIENTS = 8
DURATION_S = 60.0
FS = 250.0
#: Interleaved (plain, observed) pairs per measurement round.
N_PAIRS = 5
#: Allowed CPU-time slowdown with the bundle attached.
MAX_OVERHEAD = 0.05


def run_once(obs: Observability | None):
    """One fleet run; return (CPU seconds, report)."""
    cohort = make_cohort(CohortConfig(n_patients=N_PATIENTS, seed=7))
    scheduler = FleetScheduler(
        cohort,
        SchedulerConfig(duration_s=DURATION_S, fs=FS),
        node_config=NodeProxyConfig(stream_telemetry=False),
        obs=obs,
    )
    t0 = time.process_time()
    fleet = scheduler.run()
    return time.process_time() - t0, fleet


def overhead_ratio(plain_cpu: list[float], obs_cpu: list[float]) -> float:
    """Estimate the observed/plain CPU ratio from paired runs.

    The median pairwise ratio is robust to load spikes hitting single
    pairs; the pooled ratio is robust to one noisy denominator
    inflating a pairwise ratio.  A real regression inflates both,
    scheduling jitter rarely does.
    """
    pair_ratios = [o / p for p, o in zip(plain_cpu, obs_cpu)]
    return min(float(np.median(pair_ratios)),
               sum(obs_cpu) / sum(plain_cpu))


def measure_overhead() -> dict:
    """Interleave plain and observed runs; estimate the overhead ratio."""
    run_once(None)  # warm caches outside both timed variants
    plain_cpu: list[float] = []
    obs_cpu: list[float] = []
    summaries: set[str] = set()
    canonicals: set[str] = set()
    last: dict = {}

    def measure_pairs(n: int) -> None:
        for i in range(n):
            obs = Observability()
            if i % 2:  # alternate order to cancel warm-up bias
                cpu_obs, fleet_obs = run_once(obs)
                cpu_plain, fleet_plain = run_once(None)
            else:
                cpu_plain, fleet_plain = run_once(None)
                cpu_obs, fleet_obs = run_once(obs)
            plain_cpu.append(cpu_plain)
            obs_cpu.append(cpu_obs)
            summaries.add(fleet_plain.summary.to_json())
            summaries.add(fleet_obs.summary.to_json())
            canonicals.add(obs.canonical_json())
            last.update(obs=obs, fleet=fleet_obs)

    measure_pairs(N_PAIRS)
    ratio = overhead_ratio(plain_cpu, obs_cpu)
    attempts = 0
    while ratio > 1.0 + MAX_OVERHEAD and attempts < 2:
        # Jitter on a shared runner can still dwarf the real overhead
        # at this workload size; confirm with more interleaved pairs
        # before calling it a regression.
        attempts += 1
        measure_pairs(N_PAIRS + 3)
        ratio = overhead_ratio(plain_cpu, obs_cpu)
    return {
        "ratio": ratio,
        "pairs": len(plain_cpu),
        "plain_cpu_s": float(np.median(plain_cpu)),
        "obs_cpu_s": float(np.median(obs_cpu)),
        "summaries": summaries,
        "canonicals": canonicals,
        **last,
    }


def test_fleet_obs_overhead(benchmark):
    result = benchmark.pedantic(measure_overhead, rounds=1, iterations=1)
    obs, observed = result["obs"], result["fleet"]
    snapshot = obs.metrics.snapshot()
    names = {series["name"] for series in snapshot["series"]}
    print_table(
        "Observability overhead "
        f"({N_PATIENTS} patients x {DURATION_S:.0f} s, "
        f"{result['pairs']} pairs)",
        ["metric", "value"],
        [
            ("overhead ratio [x]", result["ratio"]),
            ("plain CPU [s]", result["plain_cpu_s"]),
            ("observed CPU [s]", result["obs_cpu_s"]),
            ("metric series", len(snapshot["series"])),
            ("metric families", len(names)),
            ("trace events", len(obs.trace.events)),
            ("packets sent", observed.packets_sent),
        ],
    )

    # Out-of-band: the summary must be byte-identical either way.
    assert len(result["summaries"]) == 1, \
        "observability changed FleetSummary bytes"
    # Determinism: every observed run reproduces the canonical
    # fleet-scope snapshot byte-for-byte.
    assert len(result["canonicals"]) == 1, \
        "canonical obs snapshot varied across identical runs"
    assert "gateway_packets_ingested_total" in names
    assert "scheduler_uplink_packets_total" in names
    assert len(obs.trace.events) > 0

    # A tracer (coverage, a debugger) surcharges every Python call,
    # which penalizes exactly the observed variant: the budget only
    # holds against an honest clock.
    if sys.gettrace() is None:
        assert result["ratio"] <= 1.0 + MAX_OVERHEAD, (
            f"observability overhead {result['ratio']:.3f}x exceeds the "
            f"{1.0 + MAX_OVERHEAD:.2f}x budget")


class TestOverheadRatio:
    """The estimator the budget rests on, on synthetic CPU times."""

    def test_spike_on_one_pair_does_not_trip(self):
        # One observed run hit by a 3x load spike: the pooled ratio
        # jumps, the median pairwise ratio does not.
        plain = [1.0] * N_PAIRS
        obs = [1.01] * (N_PAIRS - 1) + [3.0]
        assert overhead_ratio(plain, obs) <= 1.0 + MAX_OVERHEAD

    def test_pairwise_noise_does_not_trip(self):
        # Short plain runs in most pairs inflate the pairwise median;
        # the pooled totals stay honest.
        plain = [0.8, 0.8, 0.8, 2.0, 2.0]
        obs = [1.0, 1.0, 1.0, 1.0, 1.0]
        assert float(np.median([o / p for p, o in zip(plain, obs)])) > 1.2
        assert overhead_ratio(plain, obs) <= 1.0 + MAX_OVERHEAD

    def test_uniform_regression_trips(self):
        plain = [1.0, 1.1, 0.9, 1.05, 0.95]
        obs = [1.1 * p for p in plain]
        assert overhead_ratio(plain, obs) > 1.0 + MAX_OVERHEAD
