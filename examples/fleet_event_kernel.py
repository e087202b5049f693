"""Event-kernel demo: the fleet's virtual-time clock, two ways.

Part 1 runs one cohort on the per-tick loop, then again with every
node's ``uplink_period_s`` overridden to the base excerpt period —
which puts the run on the per-node events of ``repro.fleet.kernel`` —
and proves the two ``FleetSummary`` JSON payloads are byte-identical.

Part 2 marks most of the cohort delineation-only with a per-node
``uplink_period_s`` at 10x the base excerpt period: each node uplinks
at its own period, and the run's cost is proportional to *events*,
not ticks x cohort.  The printed ratio is the kernel's win over the
per-patient visits the tick loop would have spent.

Run:  python examples/fleet_event_kernel.py [--patients 12] \
          [--sparse-every 4]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    NodeProxyConfig,
    SchedulerConfig,
    make_cohort,
)


def main() -> None:
    """Run the equivalence check, then the sparse-cohort event run."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=12,
                        help="cohort size for both parts")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds per patient")
    parser.add_argument("--sparse-every", type=int, default=4,
                        help="keep every Nth node dense; the rest "
                             "uplink at 10x the base period")
    args = parser.parse_args()

    node_config = NodeProxyConfig(stream_telemetry=False)
    period = node_config.excerpt_period_s

    print(f"part 1: {args.patients} patients x {args.duration:.0f} s "
          "on both clocks ...")
    cohort = make_cohort(CohortConfig(n_patients=args.patients, seed=7))
    overridden = [replace(p, uplink_period_s=period) for p in cohort]
    reports = {
        name: FleetScheduler(
            members, SchedulerConfig(duration_s=args.duration),
            node_config=node_config).run()
        for name, members in (("ticks", cohort), ("events", overridden))
    }
    identical = (reports["events"].summary.to_json()
                 == reports["ticks"].summary.to_json())
    print(f"  tick loop : {reports['ticks'].kernel_stats['engine']}, "
          f"{reports['ticks'].packets_sent} packets")
    print(f"  per-node  : {reports['events'].kernel_stats['engine']}, "
          f"{reports['events'].packets_sent} packets, "
          f"{reports['events'].kernel_stats['n_events']} events")
    print("  summaries byte-identical:", identical)
    if not identical:
        raise SystemExit("clock equivalence contract broken")

    sparse_duration = period * 10.0
    sparse_cohort = [
        p if i % args.sparse_every == 0
        else replace(p, uplink_period_s=sparse_duration)
        for i, p in enumerate(cohort)
    ]
    n_sparse = sum(1 for p in sparse_cohort
                   if p.uplink_period_s is not None)
    print(f"\npart 2: {n_sparse}/{len(sparse_cohort)} nodes "
          f"delineation-only at 10x period ({sparse_duration:.0f} s) "
          "...")
    sparse = FleetScheduler(
        sparse_cohort,
        SchedulerConfig(duration_s=sparse_duration),
        node_config=node_config).run()
    stats = sparse.kernel_stats
    ratio = stats["tick_loop_iterations"] / stats["n_events"]
    print(f"  engine               : {stats['engine']}")
    print(f"  kernel events        : {stats['n_events']}")
    print(f"  tick-loop iterations : {stats['tick_loop_iterations']}")
    print(f"  event ratio          : {ratio:.2f}x fewer events")
    print(f"  packets sent         : {sparse.packets_sent}, "
          f"stale patients: {sparse.summary.stale_patients}")


if __name__ == "__main__":
    main()
