"""Sharded fleet runtime: one cohort, N worker processes, one summary.

:class:`~repro.fleet.FleetScheduler` drives its whole cohort inside one
process, which caps fleet throughput at a single core no matter how
vectorized the tick loop gets.  This module partitions a cohort across
``n_shards`` worker processes — each running its own full
``FleetScheduler`` + ``Gateway`` + ``TriageBoard`` over its patient
stripe — and merges the per-shard results into a single
:class:`~repro.fleet.FleetSummary`.

A shard worker returns a picklable :class:`ShardResult`: one
:class:`ShardPatientRow` per patient of its stripe plus the shard's
counters and observability snapshot.  Every row — here, in the served
gateway session, in journal replay and in the campaign — is built by
the one constructor :func:`patient_row` from the patient's ``report``
message (:meth:`~repro.fleet.FleetScheduler.report_message`) and the
gateway-side channel and triage state, and every fold of rows goes
through :func:`merge_patient_rows`.

Determinism contract (tested, and gated in CI by
``benchmarks/test_fleet_throughput_sharded.py``):

* patient work is a pure function of the patient profile — synthesis
  seeds live on the profile, per-patient stream seeds are derived from
  the master seed and the patient id, never from the shard index;
* the batched encode/recover paths are row-independent, so a patient's
  numbers do not depend on who shares its batch;
* the merge rebuilds per-patient channels, triage machines, reports
  and governor aggregates **in cohort order** and folds them with the
  same :func:`~repro.fleet.triage.fleet_summary` as the single-process
  path.

Together these make the merged summary byte-identical
(`FleetSummary.to_json`) across any shard count — ``n_shards=4`` equals
``n_shards=1`` equals a plain ``FleetScheduler`` run.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from ..classification.afib import AfDetector
from ..obs import (Observability, ObsConfig, SCOPE_SHARD,
                   canonical_bundle_json, canonical_view, merge_bundles)
from ..pipeline.node_app import NodeReport
from .cohort import PatientProfile
from .gateway import Gateway, GatewayConfig, PatientChannel
from .node_proxy import NodeProxyConfig, UplinkPacket
from .scheduler import (
    AcuityOverride,
    ExtraLoad,
    FleetReport,
    FleetScheduler,
    GovernorFactory,
    RecordTransform,
    SchedulerConfig,
    UplinkChannel,
)
from .triage import FleetSummary, PatientTriage, TriageBoard, fleet_summary
from .wire import ServeMessage, WireFormatError, message_count


@dataclass(frozen=True)
class ShardHooks:
    """Per-shard scheduler wiring built *inside* the worker process.

    A hook factory (see :class:`ShardedFleetRunner`) returns one of
    these per shard; the closures it carries never cross a process
    boundary, so they may capture anything.

    Attributes:
        link: Channel model between the shard's nodes and its gateway
            (``None`` = perfect link).  Use :class:`PerPatientLink` to
            keep channel draws shard-layout independent.
        record_transform: Signal-fault hook (scenario injection).
        governor_factory: Per-patient governor builder (governed runs).
        extra_load: Parasitic-watts hook (``battery_drain``).
        acuity_override: Forced-acuity hook (``governor_stress``).
    """

    link: UplinkChannel | None = None
    record_transform: RecordTransform | None = None
    governor_factory: GovernorFactory | None = None
    extra_load: ExtraLoad | None = None
    acuity_override: AcuityOverride | None = None


#: Builds the scenario wiring of one shard, inside the worker process.
#: Must be picklable (a module-level function or a ``functools.partial``
#: of one); receives the shard's patient stripe and the master seed.
#: Any randomness it sets up must be derived per *patient*, never per
#: shard, or the N-shard == 1-shard equivalence breaks.
ShardHookFactory = Callable[[list[PatientProfile], int], ShardHooks]


class PerPatientLink:
    """Demux adapter: one independent channel model per patient.

    A single shared link draws its RNG in global send order, which
    depends on who shares the shard — per-patient links keep every
    channel draw a pure function of ``(master seed, patient id)``, so
    outcomes are identical under any shard layout.  Implements the
    :class:`~repro.fleet.UplinkChannel` protocol by routing each packet
    to its patient's own link (built lazily by ``link_for``).

    Args:
        link_for: Returns the channel model of one patient id.
    """

    def __init__(self, link_for: Callable[[str], UplinkChannel]) -> None:
        self._link_for = link_for
        self._links: dict[str, UplinkChannel] = {}

    def _link(self, patient_id: str) -> UplinkChannel:
        """The (created-on-demand) channel of one patient."""
        if patient_id not in self._links:
            self._links[patient_id] = self._link_for(patient_id)
        return self._links[patient_id]

    def send(self, packet: UplinkPacket,
             now_s: float) -> list[UplinkPacket]:
        """Offer one packet to its patient's own channel."""
        return self._link(packet.patient_id).send(packet, now_s)

    def due(self, now_s: float) -> list[UplinkPacket]:
        """Due deliveries across every patient channel (id order)."""
        out: list[UplinkPacket] = []
        for patient_id in sorted(self._links):
            out.extend(self._links[patient_id].due(now_s))
        return out

    def drain(self) -> list[UplinkPacket]:
        """Everything still in flight, across every patient channel."""
        out: list[UplinkPacket] = []
        for patient_id in sorted(self._links):
            out.extend(self._links[patient_id].drain())
        return out

    def next_due_s(self) -> float | None:
        """Earliest in-flight delivery time across patient channels.

        ``None`` when nothing is in flight or no underlying link
        exposes a due time — the event kernel then falls back to its
        base-grid delivery sweeps.
        """
        dues = []
        for link in self._links.values():
            peek = getattr(link, "next_due_s", None)
            due = peek() if peek is not None else None
            if due is not None:
                dues.append(due)
        return min(dues) if dues else None

    def stats_for(self, patient_id: str) -> dict[str, int]:
        """Channel counters of one patient (empty before first send)."""
        link = self._links.get(patient_id)
        return dict(getattr(link, "stats", {}) or {}) if link else {}

    @property
    def stats(self) -> dict[str, int]:
        """Summed channel counters across every patient link."""
        totals: dict[str, int] = {}
        for link in self._links.values():
            for key, value in (getattr(link, "stats", {}) or {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals


@dataclass(frozen=True)
class ShardPatientRow:
    """One patient's end-of-run row: what every fold consumes.

    Channel counters and SNR samples, triage state, node-report
    aggregates, governor aggregates and per-patient link statistics —
    all :func:`merge_patient_rows` (and the campaign's scenario
    results) need, and nothing heavier.  Built only by
    :func:`patient_row`.
    """

    patient_id: str
    n_sent: int
    n_reconstructed: int
    n_node_alarms: int
    average_power_w: float
    battery_days: float
    channel: PatientChannel | None
    triage: PatientTriage
    governed: bool
    mode_seconds: dict[str, float]
    governor_switches: int
    final_soc: float
    projected_hours: float
    link_stats: dict[str, int]


@dataclass(frozen=True)
class ShardResult:
    """Outcome of one shard worker (pickled home from the pool).

    Attributes:
        shard_index: Position in the shard layout.
        packets_sent: Uplink packets offered by this shard's nodes.
        dropped: Packets lost to this shard gateway's bounded queue.
        timings_s: The shard scheduler's phase timings.
        rows: Per-patient rows, in the shard's cohort-stripe order.
        obs_bundle: The worker's observability snapshot bundle
            (metrics + trace + flight summary), ``None`` when the run
            was not observed.
    """

    shard_index: int
    packets_sent: int
    dropped: int
    timings_s: dict[str, float]
    rows: list[ShardPatientRow] = field(default_factory=list)
    obs_bundle: dict | None = None


def patient_row(report: ServeMessage, channel: PatientChannel | None,
                triage: PatientTriage,
                n_reconstructed: int) -> ShardPatientRow:
    """Build one patient's row from its ``report`` message.

    The single row constructor.  ``report`` carries the node-side half
    (see :meth:`~repro.fleet.FleetScheduler.report_message`): counts,
    energy, governor aggregates, ``mode:<name>`` dwell times in
    insertion order and ``link:<name>`` channel counters.  The
    gateway-side half — the patient's channel (``None`` when nothing
    arrived), its triage machine and the number of reconstructed
    excerpts — comes from whoever ran the gateway.

    Raises:
        WireFormatError: A count field (``n_sent``, ``n_node_alarms``,
            ``governor_switches``, ``link:*``) is not a finite,
            integral, non-negative number.
    """
    fields = report.fields
    return ShardPatientRow(
        patient_id=report.patient_id,
        n_sent=message_count(report, "n_sent"),
        n_reconstructed=n_reconstructed,
        n_node_alarms=message_count(report, "n_node_alarms"),
        average_power_w=fields.get("average_power_w", float("nan")),
        battery_days=fields.get("battery_days", float("nan")),
        channel=channel,
        triage=triage,
        governed=report.info.get("governed") == "1",
        mode_seconds={key[5:]: value for key, value in fields.items()
                      if key.startswith("mode:")},
        governor_switches=message_count(report, "governor_switches"),
        final_soc=fields.get("final_soc", float("nan")),
        projected_hours=fields.get("projected_hours", float("nan")),
        link_stats={key[5:]: message_count(report, key)
                    for key in fields if key.startswith("link:")},
    )


def scheduler_rows(scheduler: FleetScheduler,
                   fleet: FleetReport) -> list[ShardPatientRow]:
    """Rows of every patient of a finished in-process run (cohort order).

    The in-process caller of :func:`patient_row`: shard workers and the
    campaign's units and joint path read their rows off the scheduler
    that ran the gateway.
    """
    reconstructed = Counter(excerpt.patient_id for excerpt in fleet.excerpts)
    rows = []
    for profile in scheduler.cohort:
        pid = profile.patient_id
        rows.append(patient_row(
            scheduler.report_message(pid, fleet.node_reports),
            scheduler.gateway.channels.get(pid),
            scheduler.board.patients[pid], reconstructed[pid]))
    return rows


def partition_cohort(cohort: list[PatientProfile],
                     n_shards: int) -> list[list[PatientProfile]]:
    """Round-robin patient stripes: shard ``i`` gets ``cohort[i::n]``.

    Striping balances heterogeneous patients (long AF records cost more
    than quiet sinus ones) better than contiguous chunks; the merge
    never depends on the layout, only on cohort order.

    Raises:
        ValueError: ``n_shards`` below 1 or an empty cohort.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if not cohort:
        raise ValueError("cohort must not be empty")
    n_shards = min(n_shards, len(cohort))
    return [cohort[i::n_shards] for i in range(n_shards)]


@dataclass(frozen=True)
class _SocView:
    """Battery stand-in carrying only the final state of charge."""

    soc: float


@dataclass(frozen=True)
class _GovernorView:
    """Merged-side stand-in for one shard patient's governor.

    Duck-types exactly what :func:`~repro.fleet.triage.fleet_summary`
    reads from a live :class:`~repro.power.EnergyGovernor`: mode dwell
    (insertion-ordered), switch count, final SoC and the projected
    hours-to-empty.
    """

    mode_seconds: dict[str, float]
    n_switches: int
    battery: _SocView
    _projected_hours: float

    def projected_hours_to_empty(self) -> float:
        """The worker-side projection, carried in the row."""
        return self._projected_hours


def _node_report_view(duration_s: float, fs: float, n_alarms: int,
                      average_power_w: float,
                      battery_days: float) -> NodeReport:
    """A :class:`NodeReport` carrying the merged-side aggregates.

    Only ``len(alarms)``, ``average_power_w`` and ``battery_days`` are
    read by :func:`~repro.fleet.triage.fleet_summary`; the alarm list
    holds placeholders purely so its length is right.
    """
    return NodeReport(
        duration_s=duration_s, beats=[], alarms=[None] * n_alarms,
        periodic_excerpts=0, transmitted_bits=0, processing_cycles=0.0,
        average_power_w=average_power_w, battery_days=battery_days,
        fs=fs)


def merge_patient_rows(cohort: list[PatientProfile],
                       rows: dict[str, ShardPatientRow],
                       gateway_config: GatewayConfig,
                       duration_s: float, fs: float,
                       dropped: int = 0) -> FleetSummary:
    """Fold per-patient rows (in cohort order) into one fleet summary.

    The single fold of rows, shared by :class:`ShardedFleetRunner`, the
    socket gateway service (:mod:`repro.fleet.serve`), journal replay
    (:class:`~repro.fleet.JournalReplayer`) and the campaign's
    per-patient sweep: channels, triage machines, node reports and
    governor views are rebuilt **in cohort order** and folded with the
    very same
    :func:`~repro.fleet.triage.fleet_summary` the single-process
    scheduler uses — so any runtime that produces correct per-patient
    rows is byte-identical to the in-process engine by construction.

    Args:
        cohort: Patient profiles in canonical (merge) order.
        rows: One :class:`ShardPatientRow` per cohort member.
        gateway_config: Gateway parameters of the run (queue capacity
            feeds the summary's queue diagnostics).
        duration_s: Simulated duration each row covers.
        fs: Node sampling rate (node-report view reconstruction).
        dropped: Bounded-queue drops summed across every worker.

    Raises:
        WireFormatError: A cohort member has no row.
    """
    missing = [p.patient_id for p in cohort if p.patient_id not in rows]
    if missing:
        raise WireFormatError(
            f"shard results missing patients: {missing[:5]}")
    gateway = Gateway(gateway_config)
    gateway.dropped = dropped
    board = TriageBoard()
    reports: dict[str, NodeReport] = {}
    governors: dict[str, _GovernorView] = {}
    for profile in cohort:
        row = rows[profile.patient_id]
        if row.channel is not None:
            gateway.channels[row.patient_id] = row.channel
        board.patients[row.patient_id] = row.triage
        reports[row.patient_id] = _node_report_view(
            duration_s, fs, row.n_node_alarms, row.average_power_w,
            row.battery_days)
        if row.governed:
            governors[row.patient_id] = _GovernorView(
                mode_seconds=row.mode_seconds,
                n_switches=row.governor_switches,
                battery=_SocView(row.final_soc),
                _projected_hours=row.projected_hours)
    return fleet_summary(reports, gateway, board, duration_s,
                         governors=governors or None)


@dataclass
class ShardedFleetReport:
    """Outcome of one sharded fleet run.

    Attributes:
        summary: The merged fleet summary — byte-identical
            (:meth:`~repro.fleet.FleetSummary.to_json`) across shard
            counts.
        n_shards: Shard layout actually used.
        packets_sent: Uplink packets offered across every shard.
        dropped_packets: Bounded-queue drops across every shard.
        rows: Per-patient rows in cohort order.
        shard_timings_s: Each shard scheduler's phase timings.
        timings_s: Parent-side wall clock (``total`` spans fork to
            merge).
        obs_bundle: Merged observability bundle across every shard
            plus the parent's merge-cost gauges (``None`` when the run
            was not observed).
    """

    summary: FleetSummary
    n_shards: int
    packets_sent: int
    dropped_packets: int
    rows: dict[str, ShardPatientRow] = field(default_factory=dict)
    shard_timings_s: list[dict[str, float]] = field(default_factory=list)
    timings_s: dict[str, float] = field(default_factory=dict)
    obs_bundle: dict | None = None

    @property
    def patients_per_second(self) -> float:
        """End-to-end fleet throughput of this run."""
        total = self.timings_s.get("total", 0.0)
        return (self.summary.n_patients / total if total > 0
                else float("nan"))

    def canonical_obs_json(self) -> str:
        """Byte-stable fleet-scope view of the merged observability.

        The shard-equivalence surface for metrics and traces: for the
        same master seed this string is byte-identical across shard
        counts and equal to
        :meth:`~repro.obs.Observability.canonical_json` of a plain
        in-process run.

        Raises:
            ValueError: The run was not observed (no ``obs_config``).
        """
        if self.obs_bundle is None:
            raise ValueError("run was not observed: pass obs_config to "
                             "ShardedFleetRunner")
        return canonical_bundle_json(canonical_view(self.obs_bundle))


def _run_shard(shard_index: int, profiles: list[PatientProfile],
               config: SchedulerConfig, node_config: NodeProxyConfig,
               gateway_config: GatewayConfig, master_seed: int,
               hook_factory: ShardHookFactory | None,
               af_detector: AfDetector | None,
               obs_config: ObsConfig | None = None,
               journal_config=None, n_shards: int = 1) -> ShardResult:
    """Worker body: run one shard's scheduler, return its result.

    Module-level so a :class:`~concurrent.futures.ProcessPoolExecutor`
    can pickle the call; every argument is a plain dataclass (or a
    picklable callable), and so is the returned :class:`ShardResult`.
    The live :class:`~repro.obs.Observability` bundle is built *here*
    from the picklable ``obs_config`` and returns as a plain-dict
    snapshot.

    With a ``journal_config``
    (:class:`~repro.fleet.journal.JournalConfig`), the worker writes
    its stripe's transcript to the per-shard journal
    (``config.for_shard(shard_index)``), stamping each patient's
    ``hello`` with its *global* cohort index (stripe ``i`` of ``n``
    holds ``cohort[i::n]``, so local slot ``j`` is global ``i + j*n``)
    — which is how a replayer of all N journals recovers the full
    cohort order without being told it.
    """
    hooks = (hook_factory(profiles, master_seed)
             if hook_factory is not None else ShardHooks())
    obs = Observability.from_config(obs_config)
    journal = None
    if journal_config is not None:
        # Deferred import: the journal module imports this one for the
        # merge path, so sharding must not import it at module scope.
        from .journal import JournalWriter, journal_meta

        journal = JournalWriter(
            journal_config.for_shard(shard_index),
            meta=journal_meta(config.duration_s, config.fs,
                              gateway_config),
            obs=obs, resume=False)
    indexes = {profile.patient_id: shard_index + j * n_shards
               for j, profile in enumerate(profiles)}
    scheduler = FleetScheduler(
        profiles, config, node_config=node_config,
        gateway=Gateway(gateway_config, obs=obs),
        af_detector=af_detector,
        link=hooks.link, record_transform=hooks.record_transform,
        governor_factory=hooks.governor_factory,
        extra_load=hooks.extra_load,
        acuity_override=hooks.acuity_override, obs=obs,
        journal=journal, journal_indexes=indexes)
    try:
        fleet = scheduler.run()
    finally:
        if journal is not None:
            journal.close()
    if obs is not None:
        wall = obs.metrics.gauge(
            "shard_wall_seconds",
            "Wall-clock seconds per phase of one shard scheduler.",
            scope=SCOPE_SHARD)
        for phase, seconds in fleet.timings_s.items():
            wall.set(seconds, shard=str(shard_index), phase=phase)
        obs.metrics.gauge(
            "shard_virtual_seconds",
            "Simulated seconds covered by one shard scheduler.",
            scope=SCOPE_SHARD).set(config.duration_s,
                                   shard=str(shard_index))
    return ShardResult(
        shard_index=shard_index,
        packets_sent=fleet.packets_sent,
        dropped=scheduler.gateway.dropped,
        timings_s=dict(fleet.timings_s),
        rows=scheduler_rows(scheduler, fleet),
        obs_bundle=(obs.snapshot_bundle() if obs is not None else None))


class ShardedFleetRunner:
    """Partition a cohort across worker processes and merge the run.

    Args:
        cohort: Patient profiles, in the order the merge preserves.
        n_shards: Worker processes (capped at the cohort size;
            ``1`` runs the single stripe inline, no pool).
        config: Scheduler parameters shared by every shard.
        node_config: Uplink policy shared by every node.
        gateway_config: Per-shard gateway parameters.
        master_seed: Seed handed to the hook factory; per-patient
            streams must derive from it plus the patient id.
        hook_factory: Optional per-shard scenario wiring (see
            :data:`ShardHookFactory`); must be picklable.
        af_detector: Trained fleet AF detector (pickled to workers).
        obs_config: Optional :class:`~repro.obs.ObsConfig`.  Each
            worker builds its own :class:`~repro.obs.Observability`
            bundle from it and ships a snapshot home in its result; the
            parent merges them (plus its own merge-cost gauges) into
            :attr:`ShardedFleetReport.obs_bundle`.
        journal: Optional :class:`~repro.fleet.journal.JournalConfig`.
            Each worker writes its stripe's transcript to the derived
            per-shard journal (``journal.for_shard(i)``); replaying all
            N journals merged reproduces this run's summary
            byte-identically (see :mod:`repro.fleet.journal`).
    """

    def __init__(self, cohort: list[PatientProfile], n_shards: int = 4,
                 config: SchedulerConfig | None = None,
                 node_config: NodeProxyConfig | None = None,
                 gateway_config: GatewayConfig | None = None,
                 master_seed: int = 2014,
                 hook_factory: ShardHookFactory | None = None,
                 af_detector: AfDetector | None = None,
                 obs_config: ObsConfig | None = None,
                 journal=None) -> None:
        self.shards = partition_cohort(cohort, n_shards)
        self.cohort = list(cohort)
        self.config = config or SchedulerConfig()
        self.node_config = node_config or NodeProxyConfig()
        self.gateway_config = gateway_config or GatewayConfig()
        self.master_seed = master_seed
        self.hook_factory = hook_factory
        self.af_detector = af_detector
        self.obs_config = obs_config
        self.journal = journal

    @property
    def n_shards(self) -> int:
        """Shard layout actually used (cohort-size capped)."""
        return len(self.shards)

    def run(self) -> ShardedFleetReport:
        """Run every shard and merge their rows in cohort order."""
        t_start = time.perf_counter()
        tasks = [(i, profiles, self.config, self.node_config,
                  self.gateway_config, self.master_seed,
                  self.hook_factory, self.af_detector, self.obs_config,
                  self.journal, len(self.shards))
                 for i, profiles in enumerate(self.shards)]
        if len(tasks) == 1:
            results = [_run_shard(*tasks[0])]
        else:
            with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
                futures = [pool.submit(_run_shard, *task)
                           for task in tasks]
                results = [future.result() for future in futures]
        t_merge = time.perf_counter()
        report = self._merge(results)
        if self.obs_config is not None:
            report.obs_bundle = self._merge_obs(
                results, time.perf_counter() - t_merge)
        report.timings_s["total"] = time.perf_counter() - t_start
        return report

    def _merge_obs(self, results: list[ShardResult],
                   merge_seconds: float) -> dict:
        """Fold worker bundles with the parent's shard-scope gauges."""
        parent = Observability(ObsConfig(trace=False))
        parent.metrics.gauge(
            "shard_merge_seconds",
            "Parent-side wall seconds to merge shard results.",
            scope=SCOPE_SHARD).set(merge_seconds)
        parent.metrics.gauge(
            "shard_count", "Shard layout of this run.",
            scope=SCOPE_SHARD).set(float(len(results)))
        ordered = sorted(results, key=lambda r: r.shard_index)
        bundles = [r.obs_bundle for r in ordered
                   if r.obs_bundle is not None]
        bundles.append(parent.snapshot_bundle())
        return merge_bundles(bundles)

    def _merge(self, results: list[ShardResult]) -> ShardedFleetReport:
        """Fold shard results into one fleet view.

        Delegates to :func:`merge_patient_rows` — the merge path shared
        with the socket gateway service — so equivalence is structural,
        not coincidental.
        """
        rows: dict[str, ShardPatientRow] = {}
        for result in results:
            for row in result.rows:
                rows[row.patient_id] = row
        dropped = sum(r.dropped for r in results)
        summary = merge_patient_rows(
            self.cohort, rows, self.gateway_config,
            self.config.duration_s, self.config.fs, dropped=dropped)
        return ShardedFleetReport(
            summary=summary,
            n_shards=len(self.shards),
            packets_sent=sum(r.packets_sent for r in results),
            dropped_packets=dropped,
            rows={p.patient_id: rows[p.patient_id]
                  for p in self.cohort},
            shard_timings_s=[r.timings_s for r in
                             sorted(results,
                                    key=lambda r: r.shard_index)],
        )
