"""Sharded fleet demo: one cohort striped across worker processes.

Runs the same cohort twice — single-process and sharded across N
worker processes, each shard returning its per-patient rows to the
parent — then proves the two merged fleet summaries are
byte-identical and reports the speedup.  On a multi-core machine the
sharded run should approach a core-count speedup; on one core it shows
the (small) process overhead instead.

Run:  python examples/fleet_sharded.py [--patients 16] [--shards 4]
"""

from __future__ import annotations

import argparse
import os

from repro.fleet import (
    CohortConfig,
    GatewayConfig,
    NodeProxyConfig,
    SchedulerConfig,
    ShardedFleetRunner,
    make_cohort,
    partition_cohort,
)


def main() -> None:
    """Run the single-process vs sharded comparison and print it."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=16,
                        help="cohort size")
    parser.add_argument("--shards", type=int, default=4,
                        help="worker processes for the sharded run")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds per patient")
    args = parser.parse_args()

    cohort = make_cohort(CohortConfig(n_patients=args.patients, seed=7))
    stripes = partition_cohort(cohort, args.shards)
    print(f"cohort: {len(cohort)} patients striped over "
          f"{len(stripes)} shards "
          f"({', '.join(str(len(s)) for s in stripes)} patients each); "
          f"{os.cpu_count() or 1} cores available")

    kwargs = dict(
        config=SchedulerConfig(duration_s=args.duration),
        node_config=NodeProxyConfig(stream_telemetry=False),
        gateway_config=GatewayConfig(n_iter=80),
    )
    print("running single-process reference ...")
    single = ShardedFleetRunner(cohort, n_shards=1, **kwargs).run()
    print(f"running {len(stripes)}-shard layout ...")
    sharded = ShardedFleetRunner(cohort, n_shards=args.shards,
                                 **kwargs).run()

    identical = sharded.summary.to_json() == single.summary.to_json()
    print("\n" + sharded.summary.describe())
    wall_1 = single.timings_s["total"]
    wall_n = sharded.timings_s["total"]
    print(f"\nsingle-process: {wall_1:.2f} s "
          f"({single.patients_per_second:.1f} patients/s)")
    print(f"{sharded.n_shards}-shard:        {wall_n:.2f} s "
          f"({sharded.patients_per_second:.1f} patients/s)")
    print(f"speedup: {wall_1 / wall_n:.2f}x")
    print(f"merged summaries byte-identical: {identical}")
    if not identical:
        raise SystemExit("sharding determinism violated!")


if __name__ == "__main__":
    main()
