"""Tests for the sharded fleet runtime (`repro.fleet.sharding`)."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    NodeProxyConfig,
    PatientChannel,
    PatientTriage,
    PerPatientLink,
    SchedulerConfig,
    ServeMessage,
    ShardHooks,
    ShardedFleetRunner,
    WireFormatError,
    decode_message,
    encode_message,
    make_cohort,
    partition_cohort,
)
from repro.fleet.sharding import ShardResult, _run_shard, patient_row
from repro.power import Battery, BatteryModel
from repro.power.governor import (
    EnergyGovernor,
    GovernorConfig,
    ModePowerTable,
)
from repro.scenarios import LinkSpec, derive_seed
from repro.scenarios.channel import ImpairedLink

COHORT = make_cohort(CohortConfig(n_patients=5, seed=7))
RUN_KW = dict(
    config=SchedulerConfig(duration_s=60.0, fs=250.0),
    node_config=NodeProxyConfig(stream_telemetry=False),
    gateway_config=GatewayConfig(n_iter=50),
)

@pytest.fixture(scope="module")
def plain_run():
    """The single-process reference run over the shared cohort."""
    return FleetScheduler(
        COHORT, RUN_KW["config"], node_config=RUN_KW["node_config"],
        gateway=Gateway(RUN_KW["gateway_config"])).run()


@pytest.fixture(scope="module")
def one_shard_run():
    """The 1-shard run (single stripe, no process pool)."""
    return ShardedFleetRunner(COHORT, n_shards=1, **RUN_KW).run()


@pytest.fixture(scope="module")
def four_shard_run():
    """The 4-process run over the same cohort."""
    return ShardedFleetRunner(COHORT, n_shards=4, **RUN_KW).run()


class TestPartition:
    def test_round_robin_stripes(self):
        shards = partition_cohort(COHORT, 2)
        assert shards[0] == COHORT[0::2]
        assert shards[1] == COHORT[1::2]

    def test_capped_at_cohort_size(self):
        shards = partition_cohort(COHORT[:2], 8)
        assert len(shards) == 2
        assert [p for shard in shards for p in shard] \
            == sorted(COHORT[:2], key=COHORT.index)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            partition_cohort(COHORT, 0)
        with pytest.raises(ValueError, match="cohort"):
            partition_cohort([], 2)


class TestByteEquivalence:
    """The sharding determinism contract, end to end."""

    def test_one_shard_matches_plain_scheduler(self, plain_run,
                                               one_shard_run):
        assert one_shard_run.summary.to_json() \
            == plain_run.summary.to_json()

    def test_four_shards_match_one_shard(self, one_shard_run,
                                         four_shard_run):
        # The acceptance bar: byte-identical merged FleetSummary from
        # the same master seed under any shard layout.
        assert four_shard_run.summary.to_json() \
            == one_shard_run.summary.to_json()

    def test_packet_counts_merge(self, plain_run, one_shard_run,
                                 four_shard_run):
        assert one_shard_run.packets_sent == plain_run.packets_sent
        assert four_shard_run.packets_sent == plain_run.packets_sent

    def test_rows_in_cohort_order(self, four_shard_run):
        assert list(four_shard_run.rows) \
            == [p.patient_id for p in COHORT]

    def test_wire_loopback_matches_object_path(self, plain_run):
        config = SchedulerConfig(duration_s=60.0, fs=250.0,
                                 wire_loopback=True)
        looped = FleetScheduler(
            COHORT, config, node_config=RUN_KW["node_config"],
            gateway=Gateway(RUN_KW["gateway_config"])).run()
        assert looped.summary.to_json() == plain_run.summary.to_json()


def _impaired_governed_hooks(spec: LinkSpec, profiles,
                             master_seed: int) -> ShardHooks:
    """Module-level hook factory (picklable) for the equivalence test."""

    def link_for(patient_id: str):
        return ImpairedLink(spec, seed=derive_seed(master_seed, "link",
                                                   patient_id))

    def factory(profile):
        frac = derive_seed(master_seed, "soc",
                           profile.patient_id) % 1000 / 1000.0
        return EnergyGovernor(
            config=GovernorConfig(min_dwell_s=0.0),
            table=ModePowerTable(),
            battery=BatteryModel(cell=Battery(capacity_mah=0.05),
                                 soc=max(0.05, 0.9 - 0.5 * frac)))

    return ShardHooks(link=PerPatientLink(link_for),
                      governor_factory=factory)


class TestHookedRuns:
    def test_governed_impaired_shards_byte_identical(self):
        spec = LinkSpec(loss_rate=0.15, duplicate_rate=0.1,
                        reorder_rate=0.2, jitter_s=2.0,
                        reorder_delay_s=65.0)
        kw = dict(RUN_KW, master_seed=99,
                  hook_factory=functools.partial(
                      _impaired_governed_hooks, spec))
        one = ShardedFleetRunner(COHORT[:4], n_shards=1, **kw).run()
        three = ShardedFleetRunner(COHORT[:4], n_shards=3, **kw).run()
        assert three.summary.to_json() == one.summary.to_json()
        assert one.summary.governed
        assert any(row.link_stats for row in one.rows.values())


class TestPerPatientLink:
    def test_routes_by_patient_and_reports_stats(self):
        spec = LinkSpec(loss_rate=0.0, duplicate_rate=0.0,
                        reorder_rate=0.0)
        link = PerPatientLink(lambda pid: ImpairedLink(spec, seed=1))
        proxies = {}
        from repro.fleet import NodeProxy, PatientProfile, \
            synthesize_patient
        for pid in ("a", "b"):
            profile = PatientProfile(patient_id=pid, seed=3)
            record = synthesize_patient(profile, duration_s=60.0)
            proxy = NodeProxy(profile,
                              NodeProxyConfig(stream_telemetry=False))
            _, packets = proxy.run(record)
            proxies[pid] = packets
        for pid, packets in proxies.items():
            for packet in packets:
                delivered = link.send(packet, packet.timestamp_s)
                assert all(d.patient_id == pid for d in delivered)
        assert link.stats_for("a")["offered"] == len(proxies["a"])
        assert link.stats_for("missing") == {}
        assert link.stats["offered"] == sum(len(p) for p
                                            in proxies.values())
        assert link.due(1e9) == []
        assert link.drain() == []


def _report(**fields) -> ServeMessage:
    """A governed ``report`` message as the scheduler would build it."""
    base = {"n_sent": 4.0, "n_node_alarms": 2.0,
            "average_power_w": 1.5e-3, "battery_days": 12.5,
            "governor_switches": 3.0, "final_soc": 0.25,
            "projected_hours": 7.5}
    base.update(fields)
    return ServeMessage("report", "p0", t_s=60.0, fields=base,
                        info={"governed": "1"})


class TestPatientRow:
    """The single row constructor, driven by ``report`` messages."""

    TRIAGE = PatientTriage(patient_id="p0", state="watch", soc=0.5,
                           mode="raw")
    CHANNEL = PatientChannel(patient_id="p0", n_excerpts=3,
                             snrs=[18.5, 21.0, 19.25])

    def test_ungoverned_report_keeps_nan_governor_columns(self):
        msg = ServeMessage("report", "p0", t_s=60.0, fields={
            "n_sent": 4.0, "n_node_alarms": 1.0,
            "average_power_w": 1e-3, "battery_days": 9.0,
            "governor_switches": 0.0, "final_soc": float("nan"),
            "projected_hours": float("nan")}, info={"governed": "0"})
        row = patient_row(msg, None, self.TRIAGE, 3)
        assert not row.governed
        assert math.isnan(row.final_soc)
        assert math.isnan(row.projected_hours)
        assert row.mode_seconds == {} and row.link_stats == {}
        assert row.channel is None
        assert (row.n_sent, row.n_node_alarms, row.n_reconstructed) \
            == (4, 1, 3)
        assert type(row.n_sent) is int

    def test_mode_and_link_keys_become_maps(self):
        msg = _report(**{"mode:multi_lead_cs": 120.0, "mode:raw": 60.0,
                         "link:offered": 4.0, "link:lost": 1.0})
        row = patient_row(msg, self.CHANNEL, self.TRIAGE, 3)
        assert row.governed
        # Insertion order survives: the fleet fold sums in this order.
        assert list(row.mode_seconds.items()) \
            == [("multi_lead_cs", 120.0), ("raw", 60.0)]
        assert row.link_stats == {"offered": 4, "lost": 1}
        assert all(type(v) is int for v in row.link_stats.values())
        assert row.channel is self.CHANNEL and row.triage is self.TRIAGE

    def test_wire_round_trip_gives_the_same_row(self):
        msg = _report(**{"mode:raw": 60.0, "link:offered": 4.0})
        decoded = decode_message(encode_message(msg))
        assert patient_row(decoded, self.CHANNEL, self.TRIAGE, 3) \
            == patient_row(msg, self.CHANNEL, self.TRIAGE, 3)

    @pytest.mark.parametrize("key", ["n_sent", "n_node_alarms",
                                     "governor_switches", "link:lost"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), -1.0, 1.5])
    def test_bad_count_field_raises_wire_error(self, key, value):
        with pytest.raises(WireFormatError, match=key):
            patient_row(_report(**{key: value}), None, self.TRIAGE, 0)


def _failing_hooks(profiles, master_seed: int) -> ShardHooks:
    """Hook factory (picklable) that fails inside one shard's worker."""
    if any(p.patient_id == COHORT[1].patient_id for p in profiles):
        raise RuntimeError("shard hook failure")
    return ShardHooks()


class TestShardWorkers:
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_worker_failure_propagates(self, n_shards):
        # A failing worker must surface its own exception from run(),
        # inline or across the process pool, never a partial report.
        runner = ShardedFleetRunner(COHORT[:3], n_shards=n_shards,
                                    hook_factory=_failing_hooks,
                                    **RUN_KW)
        with pytest.raises(RuntimeError, match="shard hook failure"):
            runner.run()

    def test_worker_returns_a_shard_result_in_stripe_order(self):
        shard = partition_cohort(COHORT, 2)[1]
        result = _run_shard(1, shard, RUN_KW["config"],
                            RUN_KW["node_config"],
                            RUN_KW["gateway_config"], 2014, None, None,
                            n_shards=2)
        assert type(result) is ShardResult
        assert result.shard_index == 1
        assert [row.patient_id for row in result.rows] \
            == [p.patient_id for p in shard]

    def test_merged_channels_hold_owned_snrs(self, four_shard_run):
        channels = [row.channel for row in four_shard_run.rows.values()
                    if row.channel is not None]
        assert channels
        for channel in channels:
            assert type(channel.snrs) is list
            assert all(type(s) is float for s in channel.snrs)

    def test_transport_argument_removed(self):
        with pytest.raises(TypeError):
            ShardedFleetRunner(COHORT, n_shards=2, transport="pickle",
                               **RUN_KW)


class TestMergeGuards:
    def test_missing_patient_detected(self):
        runner = ShardedFleetRunner(COHORT[:2], n_shards=1, **RUN_KW)
        empty = ShardResult(shard_index=0, packets_sent=0, dropped=0,
                            timings_s={})
        with pytest.raises(WireFormatError, match="missing patients"):
            runner._merge([empty])


class TestThroughputAccounting:
    def test_report_shapes(self, four_shard_run):
        report = four_shard_run
        assert report.n_shards == 4
        assert len(report.shard_timings_s) == 4
        assert report.timings_s["total"] > 0
        assert np.isfinite(report.patients_per_second)
        assert report.summary.n_patients == len(COHORT)

    def test_sent_by_patient_splits_totals(self, plain_run):
        scheduler = FleetScheduler(
            COHORT, RUN_KW["config"],
            node_config=RUN_KW["node_config"],
            gateway=Gateway(RUN_KW["gateway_config"]))
        fleet = scheduler.run()
        assert sum(scheduler.sent_by_patient.values()) \
            == fleet.packets_sent
