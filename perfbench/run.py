"""Fleet benchmark: three workloads, end-to-end metrics and a traced ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ward-default --seed 2014 \\
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs
untraced and traced ops alternately and prints every per-layer metric,
the ledger closure and the tracing overhead.  Progress and tables go
to stdout; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Journals and span dumps (inside the checkout, ignored by git).
SCRATCH = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_SEED = 2014
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "patient_seconds_per_s": "patient-s/s",
    "tick_rtt_ms_p50": "ms",
    "tick_rtt_ms_p95": "ms",
    "snr_p50_db": "dB",
    "peak_rss_mb": "MB",
}

#: Per-layer time metric -> (span names, "self" or "inclusive").
LAYER_TIMES = {
    "signals.synthesize_s": (["signals.synthesize"], "self"),
    "delineation.wavelet_s": (["delineation.wavelet"], "self"),
    "delineation.rpeak_s": (["delineation.rpeak"], "self"),
    "classification.af_predict_s": (["classification.af_predict"], "self"),
    "pipeline.node_process_s": (["pipeline.node_process"], "self"),
    "pipeline.streaming_s": (["pipeline.streaming"], "inclusive"),
    "compression.encode_s": (["compression.encode"], "self"),
    "compression.build_s": (["compression.build", "compression.matrix"],
                            "self"),
    "compression.recover_s": (["compression.recover"], "self"),
    "fleet.wire.encode_s": (["fleet.wire.encode"], "self"),
    "fleet.wire.decode_s": (["fleet.wire.decode"], "self"),
    "fleet.gateway.ingest_s": (["fleet.gateway.ingest"], "self"),
    "fleet.gateway.reassembly_s": (["fleet.gateway.reassembly"], "self"),
    "fleet.gateway.drain_self_s": (["fleet.gateway.drain"], "self"),
    "fleet.triage.s": (["fleet.triage.tick", "fleet.triage.observe"],
                       "self"),
    "fleet.kernel.self_s": (["fleet.kernel.run"], "self"),
    "fleet.journal.write_s": (["fleet.journal.write"], "self"),
    "fleet.journal.read_s": (["fleet.journal.read"], "self"),
    "fleet.journal.replay_self_s": (["fleet.journal.replay"], "self"),
    "fleet.serve.service_s": (["fleet.serve.service"], "self"),
    "fleet.client.send_s": (["fleet.client.send"], "self"),
    "fleet.client.tick_wait_s": (["fleet.client.tick_wait"], "self"),
    "power.governor.step_s": (["power.governor.step"], "self"),
}

#: Counters recorded at the layer boundaries; exact for one seed.
LAYER_COUNTS = [
    "signals.synthesize_calls",
    "delineation.wavelet_calls",
    "delineation.rpeak_calls",
    "delineation.beats_out",
    "classification.af_predict_calls",
    "pipeline.streaming_samples",
    "compression.encode_windows",
    "compression.encoder_builds",
    "compression.matrix_builds",
    "compression.recover_calls",
    "compression.recover_windows",
    "fleet.wire.frames",
    "fleet.wire.bytes",
    "fleet.gateway.ingest_calls",
    "fleet.gateway.duplicates",
    "fleet.gateway.gaps",
    "fleet.triage.calls",
    "fleet.kernel.runs",
    "fleet.kernel.events",
    "fleet.journal.records_written",
    "fleet.journal.bytes_written",
    "fleet.journal.records_read",
    "fleet.serve.service_calls",
    "power.governor.decisions",
]

#: Layers whose self thread-CPU time is reported as ``<layer>.cpu_s``.
LAYERS = ["signals", "delineation", "classification", "pipeline",
          "compression", "fleet.wire", "fleet.gateway", "fleet.triage",
          "fleet.kernel", "fleet.journal", "fleet.serve", "fleet.client",
          "power.governor"]

#: Ratios and high-water marks (no determinism promise for the last).
LAYER_RATIOS = {
    "compression.encoder_builds_per_geometry": "ratio",
    "compression.windows_per_recover_call": "ratio",
    "fleet.gateway.useful_ratio": "ratio",
    "fleet.serve.queue_depth_max": "count",
    "ledger.unattributed_share": "ratio",
    "ledger.closure_error_s": "s",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {name: "s" for name in LAYER_TIMES}
    units.update({f"{layer}.cpu_s": "s" for layer in LAYERS})
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update(LAYER_RATIOS)
    return units


def import_program() -> None:
    """Put the checkout's ``src`` on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def reference_ok(workload) -> bool:
    """At the default seed, the reference must match its stored digest."""
    from workloads import digest

    if workload.inputs.seed != DEFAULT_SEED:
        return True
    stored = json.loads(DIGESTS.read_text())
    return stored.get(workload.name) == digest(workload.reference)


def run_op(workload, trusted: bool) -> tuple[float, str | None]:
    """One closed-loop op: (wall seconds, output or ``None`` on failure).
    """
    t0 = time.perf_counter()
    try:
        out = workload.op()
    except Exception:  # a raising op is a failed op, not a crash
        traceback.print_exc(file=sys.stderr)
        out = None
    wall = time.perf_counter() - t0
    if out is not None and (not trusted or out != workload.reference):
        print(f"perfbench: {workload.name} op output does not match the "
              f"reference", file=sys.stderr)
        out = None
    return wall, out


def percentile_ms(samples: list[float], q: float) -> float:
    """Percentile (linear interpolation) of latency samples, in ms."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    frac = rank - lo
    value = ordered[lo]
    if frac and value != float("inf"):  # inf stays inf, never nan
        value += (ordered[lo + 1] - value) * frac
    return 1000.0 * value


def reset_peak_rss() -> None:
    """Restart the kernel's resident-memory high-water mark (VmHWM)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError as exc:
        print(f"perfbench: cannot reset peak RSS ({exc}); peak_rss_mb "
              f"includes set-up", file=sys.stderr)


def peak_rss_mb() -> float:
    """VmHWM of this process since the last :func:`reset_peak_rss`."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced run: every end-to-end metric of one workload.

    ``setup_s`` is one cold set-up: a second set-up in the same
    process would find lazy caches warm.  Throughput and SNR are medians
    over ops.  On ward-served the tick percentiles pool the client's
    round trips of every op.  The in-process workloads have no client,
    so their tick sample is the op's wall per scheduler sweep, one per
    op.  A failed op completes no patient-seconds and misses every
    latency limit (its ticks count as infinite).
    ``peak_rss_mb`` covers the measured ops only: the high-water mark is
    reset after set-up.
    """
    from workloads import Probe, setup

    t0 = time.perf_counter()
    workload = setup(name, seed, SCRATCH)
    setup_s = time.perf_counter() - t0
    trusted = reference_ok(workload)
    served = name == "ward-served"
    probe = Probe()
    if served:
        probe.install()
    walls, outs, ticks = [], [], []
    reset_peak_rss()
    start = time.perf_counter()
    try:
        while True:
            probe.samples_s.clear()
            wall, out = run_op(workload, trusted)
            walls.append(wall)
            outs.append(out)
            samples = (probe.samples_s if served
                       else [wall / workload.sweeps])
            ticks.extend(samples if out is not None
                         else [float("inf")] * len(samples))
            if time.perf_counter() - start >= seconds:
                break
    finally:
        probe.uninstall()
        workload.close()
    peak_mb = peak_rss_mb()
    failed = outs.count(None)
    print(f"{name}: {len(walls)} ops, op walls "
          f"{', '.join(f'{wall:.3f}' for wall in walls)} s, "
          f"{len(ticks)} tick samples, set-up {setup_s:.3f} s")
    snrs = [json.loads(out)["snr_p50_db"] for out in outs
            if out is not None]
    values = {
        "setup_s": setup_s,
        "patient_seconds_per_s": statistics.median(
            workload.patient_seconds / wall if out is not None else 0.0
            for wall, out in zip(walls, outs)),
        "tick_rtt_ms_p50": percentile_ms(ticks, 50),
        "tick_rtt_ms_p95": percentile_ms(ticks, 95),
        "snr_p50_db": statistics.median(snrs) if snrs else float("nan"),
        "peak_rss_mb": peak_mb,
    }
    return {"correct": failed == 0 and trusted,
            "attempted": len(walls), "failed": failed,
            "metrics": {key: {"value": value, "unit": END_TO_END[key]}
                        for key, value in values.items()}}


def op_layer_metrics(tracer, op: int, books: dict, summary: dict,
                     stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced op (times per op, exact counts)."""
    from layertrace import layer_of

    main = threading.main_thread().ident
    values: dict[str, float] = {}
    for metric, (spans, kind) in LAYER_TIMES.items():
        values[metric] = sum(
            (book.self_wall if kind == "self" else book.inclusive)
            .get(span, 0.0)
            for book in books.values() for span in spans)
    for layer in LAYERS:
        values[f"{layer}.cpu_s"] = sum(
            cpu for book in books.values()
            for span, cpu in book.self_cpu.items()
            if layer_of(span) == layer)
    counts = tracer.counts[op]
    for metric in LAYER_COUNTS:
        values[metric] = counts.get(metric, 0.0)
    values["fleet.journal.bytes_written"] = sum(
        value for key, value in counts.items()
        if key.startswith("fleet.journal.bytes_written#"))
    values["fleet.gateway.duplicates"] = summary["duplicate_packets"]
    values["fleet.gateway.gaps"] = summary["reassembly_gaps"]
    geometries = len(tracer.geometries[op])
    values["compression.encoder_builds_per_geometry"] = (
        values["compression.encoder_builds"] / geometries
        if geometries else 0.0)
    values["compression.windows_per_recover_call"] = (
        values["compression.recover_windows"]
        / values["compression.recover_calls"]
        if values["compression.recover_calls"] else 0.0)
    values["fleet.gateway.useful_ratio"] = (
        counts.get("fleet.gateway.drained", 0.0)
        / values["fleet.gateway.ingest_calls"]
        if values["fleet.gateway.ingest_calls"] else 0.0)
    values["fleet.serve.queue_depth_max"] = stats.get("max_queue_depth", 0)
    # The threads that run the op: the main thread when it ran layer
    # work, else the served clients' threads.
    op_threads = [b for t, b in books.items() if t == main] or [
        b for b in books.values() if "fleet.client.tick_wait" in b.self_wall]
    values["ledger.unattributed_share"] = (
        sum(b.unattributed for b in op_threads)
        / sum(b.wall for b in op_threads) if op_threads else 1.0)
    values["ledger.closure_error_s"] = max(
        (b.closure_error for b in books.values()), default=0.0)
    return values


def print_ledger(op: int, books: dict) -> None:
    """Human-readable per-thread ledger of one op."""
    from layertrace import layer_of

    main = threading.main_thread().ident
    for thread, book in sorted(books.items()):
        role = "main" if thread == main else f"thread {thread}"
        by_layer: dict[str, float] = {}
        for span, seconds in book.self_wall.items():
            layer = layer_of(span)
            by_layer[layer] = by_layer.get(layer, 0.0) + seconds
        parts = ", ".join(f"{layer} {seconds:.3f}" for layer, seconds in
                          sorted(by_layer.items(), key=lambda kv: -kv[1]))
        print(f"  op {op} {role}: wall {book.wall:.3f} s = attributed "
              f"{book.attributed:.3f} + unattributed "
              f"{book.unattributed:.3f} [{parts}]")


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    """Traced run: untraced and traced ops alternate; per-layer metrics.
    """
    from layertrace import Tracer, ledger
    from workloads import setup

    workload = setup(name, seed, SCRATCH)
    trusted = reference_ok(workload)
    tracer = Tracer()
    plain_walls, traced_walls, per_op = [], [], []
    failed = attempted = 0
    start = time.perf_counter()
    try:
        while True:
            # Alternate which leg of the pair runs first, so drift over
            # the run does not bias the overhead estimate.
            traced_first = len(traced_walls) % 2 == 1
            for traced in (traced_first, not traced_first):
                attempted += 1
                if not traced:
                    wall, out = run_op(workload, trusted)
                    plain_walls.append(wall)
                    failed += out is None
                    continue
                tracer.op = len(traced_walls)
                with tracer:
                    wall, out = run_op(workload, trusted)
                traced_walls.append(wall)
                if out is None:
                    failed += 1
                    continue
                books = ledger(tracer.spans, tracer.op, wall,
                               threading.main_thread().ident)
                per_op.append(op_layer_metrics(
                    tracer, tracer.op, books, json.loads(out),
                    workload.last_stats))
                print_ledger(tracer.op, books)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        workload.close()
    units = per_layer_units()
    counts_repeat = all(
        op[key] == per_op[0][key] for op in per_op for key in LAYER_COUNTS)
    if not counts_repeat:
        print(f"perfbench: {name} layer counts differ between traced ops",
              file=sys.stderr)
    values = {}
    for key in units:
        if key == "trace.overhead_pct":
            continue
        if key in LAYER_COUNTS:
            values[key] = per_op[0][key] if per_op else 0.0
        elif per_op:
            values[key] = statistics.median(op[key] for op in per_op)
        else:
            values[key] = float("nan")
    values["ledger.closure_error_s"] = max(
        (op["ledger.closure_error_s"] for op in per_op), default=0.0)
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / statistics.median(plain_walls)
        - 1.0)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    dump = SCRATCH / f"spans-{name}-{seed}.jsonl"
    with dump.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.to_json()) + "\n")
    print(f"{name}: {attempted} ops ({len(traced_walls)} traced), "
          f"{len(tracer.spans)} spans -> {dump.relative_to(ROOT)}")
    return {"correct": failed == 0 and trusted and counts_repeat,
            "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in values.items()}}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ward-default", "gateway-replay",
                                 "ward-served"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # One BLAS thread per process, set before numpy loads: on 2 cores
    # OpenBLAS workers contend with the benchmark's own threads (served
    # lanes and clients) and made gateway-replay op walls swing by 30 %.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_program()
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    for key, metric in result["metrics"].items():
        print(f"  {key:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    # JSON has no NaN or Infinity.  Only failed ops leave a value
    # unmeasured or infinite (and ``correct`` false); it prints as null.
    for metric in result["metrics"].values():
        if not math.isfinite(metric["value"]):
            metric["value"] = None
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
