"""Seeded inputs and the three fleet workloads of the benchmark.

Every workload is driven only through the public ``repro.fleet`` API.
A single benchmark seed derives every input (cohort, AF training
corpus, impaired-link and governor seeds); the program under test only
ever sees the generated inputs.

Each workload's :func:`setup` returns a :class:`Workload` whose
:meth:`Workload.op` runs one closed-loop operation and returns its
``FleetSummary.to_json()``; the caller compares it with
:attr:`Workload.reference`.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.classification import AfDetector
from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    GatewayConfig,
    JournalConfig,
    JournalReplayer,
    JournalWriter,
    NodeProxyConfig,
    PerPatientLink,
    RemoteBoard,
    SchedulerConfig,
    ServeConfig,
    ShardHooks,
    TriageBoard,
    journal_meta,
    make_cohort,
    run_served_fleet,
)
from repro.power import (
    ACUITY_ALERT,
    ACUITY_OK,
    Battery,
    BatteryModel,
    EnergyGovernor,
    GovernorConfig,
    ModePowerTable,
)
from repro.scenarios import LinkSpec
from repro.scenarios.channel import ImpairedLink
from repro.signals import make_corpus

WORKLOADS = ("ward-default", "gateway-replay", "ward-served")

N_PATIENTS = 8
DURATION_S = 120.0
FS = 250.0
#: Training records of the AF detector.  With 3 records the trained
#: detector's false-alarm rate varies enough between seeds to move the
#: number of alert patients (and so the served gateway's load) 2-5 of 8.
AF_CORPUS_RECORDS = 8
#: Concurrent client connections of ward-served (``nproc`` here).
SERVED_CLIENTS = 2
#: Dense uplink schedule of gateway-replay and ward-served.
DENSE_EXCERPT_PERIOD_S = 4.0
#: Impairment of gateway-replay's per-patient links.
REPLAY_LINK = LinkSpec(loss_rate=0.05, duplicate_rate=0.05,
                       reorder_rate=0.10, reorder_delay_s=6.0,
                       jitter_s=1.0)
#: (rhythm, lead count, noise class) of each cohort slot: the default
#: ``CohortConfig`` proportions (15 % AF, 20 % paroxysmal AF, 20 %
#: ectopy; 25 % 1-lead nodes; 10 % clean, 27 % ambulatory) rounded to
#: 8 patients.
COHORT_MIX = (("af", 3, "resting"), ("paroxysmal_af", 3, "ambulatory"),
              ("paroxysmal_af", 1, "resting"), ("ectopy", 3, "resting"),
              ("ectopy", 1, "ambulatory"), ("nsr", 3, "clean"),
              ("nsr", 3, "resting"), ("nsr", 3, "resting"))
#: ``make_cohort``'s heart-rate range cut into one 5-bpm band per slot.
HR_BANDS = tuple((55.0 + 5.0 * k, 60.0 + 5.0 * k) for k in range(8))
#: Profiles drawn to fill :data:`COHORT_MIX` (the rarest slot-and-band
#: is ~0.17 % of draws: ~28 expected in a pool this size).
COHORT_POOL = 16384
#: Initial SoC of gateway-replay's governors, one per cohort slot:
#: evenly spread over the mode ladder.
REPLAY_SOCS = (0.9, 0.83, 0.76, 0.69, 0.62, 0.55, 0.48, 0.41)
#: State of charge of every ward-served node: below the single-lead
#: floor, so OK patients coast in events-only telemetry.
SERVED_SOC = 0.15
#: Rhythms whose nodes' governors are told the patient is on alert.
SCRIPTED_ALERT = ("af", "paroxysmal_af")


def sub_seed(seed: int, *names: object) -> int:
    """A 32-bit stream seed derived from the benchmark seed and a path."""
    text = "/".join([str(seed), *map(str, names)])
    digest = hashlib.blake2s(text.encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class Inputs:
    """Everything a workload feeds the program, derived from one seed."""

    seed: int
    cohort_seed: int
    af_corpus_seed: int
    link_seed: int
    governor_seed: int

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        """Derive every input stream of one benchmark seed."""
        return cls(seed=seed,
                   cohort_seed=sub_seed(seed, "cohort"),
                   af_corpus_seed=sub_seed(seed, "af-corpus"),
                   link_seed=sub_seed(seed, "link"),
                   governor_seed=sub_seed(seed, "governor"))

    def cohort(self):
        """The 8-patient cohort every workload runs.

        ``make_cohort`` draws rhythm, lead count, noise class and heart
        rate per patient, so 8 independent draws may hold anywhere from
        zero to eight 3-lead AF patients, and the node's delineation
        work follows the cohort's mean heart rate: both swing the
        workloads' cost from seed to seed.  The cohort is therefore a
        stratified sample from a pool drawn by ``make_cohort`` with the
        cohort seed: one profile per slot of :data:`COHORT_MIX` (the
        default config's expected proportions), each slot taking one of
        the heart-rate bands of :data:`HR_BANDS` in a seeded order.
        Noise level, AF burden and record seed stay as drawn.
        """
        pool = make_cohort(CohortConfig(n_patients=COHORT_POOL,
                                        seed=self.cohort_seed))
        bands = sorted(HR_BANDS, key=lambda band: sub_seed(
            self.cohort_seed, "hr", band))
        cohort = []
        for slot, (lo, hi) in zip(COHORT_MIX, bands):
            profile = next(p for p in pool if _slot_of(p) == slot
                           and lo <= p.mean_hr_bpm < hi)
            pool.remove(profile)
            cohort.append(profile)
        return cohort

    def af_detector(self) -> AfDetector:
        """An AF detector trained on the seed's ``af_mix`` corpus."""
        corpus = make_corpus("af_mix", n_records=AF_CORPUS_RECORDS,
                             duration_s=DURATION_S, fs=FS,
                             seed=self.af_corpus_seed)
        return AfDetector().fit(list(corpus))

    def replay_link(self) -> PerPatientLink:
        """gateway-replay's lossy, duplicating, reordering uplink."""
        return PerPatientLink(lambda pid: ImpairedLink(
            REPLAY_LINK, seed=sub_seed(self.link_seed, pid)))

    def replay_governors(self, cohort) -> Callable:
        """gateway-replay's governor factory: tiny batteries, no dwell.

        Slot ``k`` of the cohort starts at ``REPLAY_SOCS[k]``, so
        uplinks traverse raw, multi-lead and single-lead CS as the
        batteries drain.  The governor seed deals the SoCs among the
        slots that share a lead count and a scripted acuity.  A free
        deal let the uplink mode mix, and with it the op's FISTA work,
        change from seed to seed (op walls 3.5-4.7 s on one host); this
        one keeps the mode mix fixed.
        """
        socs = {}
        for stratum in {(p.n_leads, p.rhythm in SCRIPTED_ALERT)
                        for p in cohort}:
            slots = [k for k, p in enumerate(cohort)
                     if (p.n_leads, p.rhythm in SCRIPTED_ALERT) == stratum]
            dealt = sorted(slots, key=lambda k: sub_seed(
                self.governor_seed, cohort[k].patient_id))
            socs.update({cohort[k].patient_id: REPLAY_SOCS[slot]
                         for k, slot in zip(dealt, slots)})

        def factory(profile) -> EnergyGovernor:
            return EnergyGovernor(
                config=GovernorConfig(min_dwell_s=0.0),
                table=ModePowerTable(),
                battery=BatteryModel(cell=Battery(capacity_mah=0.05),
                                     soc=socs[profile.patient_id]))

        return factory


def _slot_of(profile) -> tuple[str, int, str]:
    """A profile's (rhythm, lead count, noise class)."""
    noise = ("clean" if profile.snr_db is None else
             "ambulatory" if profile.ambulatory else "resting")
    return profile.rhythm, profile.n_leads, noise


def _served_governor(profile) -> EnergyGovernor:
    """ward-served's low-battery governor (events-first ward).

    No dwell damping, so each node follows its patient's acuity from
    the first tick: events-only while OK, multi-lead CS on alert.
    """
    return EnergyGovernor(config=GovernorConfig(min_dwell_s=0.0),
                          battery=BatteryModel(soc=SERVED_SOC))


def _scripted_acuity(cohort) -> Callable[[str, float], str]:
    """The governors' acuity script: the AF-rhythm patients are on alert.

    Left to the triage board, the number of alert patients (and so of
    nodes forced to stream multi-lead CS) ranged from 2 to 5 of 8
    between seeds, with ectopy false alarms and missed paroxysmal
    episodes, and moved the served tick p95 by half.  Scripting it keeps
    the uplink mix's shape fixed from seed to seed.
    """
    alert = {p.patient_id for p in cohort if p.rhythm in SCRIPTED_ALERT}

    def acuity(patient_id: str, t_s: float) -> str:
        return ACUITY_ALERT if patient_id in alert else ACUITY_OK

    return acuity


def _served_hooks(profiles, master_seed: int) -> ShardHooks:
    """Per-patient hooks of ward-served."""
    return ShardHooks(governor_factory=_served_governor,
                      acuity_override=_scripted_acuity(profiles))


def count_sweeps(run_op: Callable[[], str]) -> tuple[str, int]:
    """Run one op; return its output and its number of scheduler sweeps.

    A sweep is one virtual time at which a triage board ticked (one
    ``TriageBoard.tick`` time, however many boards tick at it).
    """
    original = TriageBoard.__dict__["tick"]
    times: set[float] = set()

    def counted(board, now_s):
        times.add(now_s)
        return original(board, now_s)

    TriageBoard.tick = counted
    try:
        out = run_op()
    finally:
        TriageBoard.tick = original
    return out, len(times)


class Probe:
    """Client-observed tick round trips of ward-served.

    A sample is one ``RemoteBoard.tick``: the ``sweep`` command up over
    TCP and the ``feedback`` downlink back, the wait of one node tick.
    """

    def __init__(self) -> None:
        self.samples_s: list[float] = []
        self._original: Callable | None = None

    def install(self) -> None:
        """Time every ``RemoteBoard.tick`` call."""
        original = self._original = RemoteBoard.__dict__["tick"]
        samples = self.samples_s

        def timed(board, now_s):
            t0 = time.perf_counter()
            out = original(board, now_s)
            samples.append(time.perf_counter() - t0)
            return out

        RemoteBoard.tick = timed

    def uninstall(self) -> None:
        """Put ``RemoteBoard.tick`` back."""
        if self._original is not None:
            RemoteBoard.tick = self._original
            self._original = None


@dataclass
class Workload:
    """A prepared workload: inputs built, reference recorded, warm."""

    name: str
    inputs: Inputs
    reference: str
    #: Patient-seconds of ECG one op simulates or replays.
    patient_seconds: float
    #: Runs one operation and returns its ``FleetSummary.to_json()``.
    op: Callable[[], str]
    #: Directory the workload's journals live in (removed by close).
    workdir: Path | None = None
    #: Extra per-op outputs the tracer reads (e.g. served queue depth).
    last_stats: dict = field(default_factory=dict)
    #: Scheduler sweeps one op runs (in-process workloads only).
    sweeps: int = 0

    def close(self) -> None:
        """Remove the workload's scratch journals."""
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


def setup(name: str, seed: int, scratch: Path) -> Workload:
    """Build one workload's inputs and reference and run a warm-up op.

    Args:
        name: One of :data:`WORKLOADS`.
        seed: The benchmark seed every input derives from.
        scratch: Directory for journals (inside the checkout).
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {WORKLOADS}")
    inputs = Inputs.from_seed(seed)
    cohort = inputs.cohort()
    detector = inputs.af_detector()
    config = SchedulerConfig(duration_s=DURATION_S, fs=FS)
    patient_seconds = N_PATIENTS * DURATION_S
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))

    if name == "ward-default":
        def run_op() -> str:
            return FleetScheduler(cohort, config,
                                  af_detector=detector).run() \
                .summary.to_json()

        # The warm-up op is the reference.
        reference, sweeps = count_sweeps(run_op)
        return Workload(name, inputs, reference, patient_seconds, run_op,
                        workdir, sweeps=sweeps)

    dense = NodeProxyConfig(excerpt_period_s=DENSE_EXCERPT_PERIOD_S,
                            stream_telemetry=False)
    if name == "gateway-replay":
        journal = JournalConfig(dir=str(workdir), name="recorded")
        with JournalWriter(journal,
                           meta=journal_meta(DURATION_S, FS,
                                             GatewayConfig()),
                           resume=False) as writer:
            recorded = FleetScheduler(
                cohort, config, node_config=dense, af_detector=detector,
                link=inputs.replay_link(),
                governor_factory=inputs.replay_governors(cohort),
                acuity_override=_scripted_acuity(cohort),
                journal=writer).run()

        def run_op() -> str:
            return JournalReplayer(journal).run().summary.to_json()

        workload = Workload(name, inputs, recorded.summary.to_json(),
                            patient_seconds, run_op, workdir)
        _, workload.sweeps = count_sweeps(run_op)  # warm-up
        return workload

    reference = FleetScheduler(
        cohort, config, node_config=dense, af_detector=detector,
        governor_factory=_served_governor,
        acuity_override=_scripted_acuity(cohort)).run().summary.to_json()
    counter = itertools.count()

    def run_op() -> str:
        journal = JournalConfig(dir=str(workdir),
                                name=f"served{next(counter)}")
        try:
            report = run_served_fleet(
                cohort, config=config, node_config=dense,
                serve_config=ServeConfig(journal=journal),
                hook_factory=_served_hooks, af_detector=detector,
                client_workers=SERVED_CLIENTS)
        finally:
            for path in journal.segment_paths():
                path.unlink()
        workload.last_stats = report.server_stats
        return report.summary.to_json()

    workload = Workload(name, inputs, reference, patient_seconds, run_op,
                        workdir)
    run_op()  # warm-up
    return workload


def digest(text: str) -> str:
    """SHA-256 of a reference summary (the stored default-seed check)."""
    return hashlib.sha256(text.encode()).hexdigest()
