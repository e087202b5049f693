"""Tests for the sharded fleet runtime (`repro.fleet.sharding`)."""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    NodeProxyConfig,
    PerPatientLink,
    SchedulerConfig,
    ShardHooks,
    ShardedFleetRunner,
    WireFormatError,
    make_cohort,
    partition_cohort,
)
from repro.fleet.sharding import (
    ShardPatientRow,
    ShardResult,
    _run_shard,
    decode_shard_result,
    encode_shard_result,
)
from repro.fleet.triage import PatientTriage
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


class TestShardResultCodec:
    def _result(self) -> ShardResult:
        from repro.fleet import PatientChannel

        triage = PatientTriage(patient_id="p0", state="watch",
                               since_s=60.0, last_event_s=60.0,
                               n_watches=1, soc=0.5, mode="raw")
        channel = PatientChannel(patient_id="p0", n_excerpts=3,
                                 snrs=[18.5, 21.0, 19.25])
        row = ShardPatientRow(
            patient_id="p0", n_sent=4, n_reconstructed=3,
            n_node_alarms=2, average_power_w=1.5e-3, battery_days=12.5,
            channel=channel, triage=triage, governed=True,
            mode_seconds={"raw": 60.0, "multi_lead_cs": 120.0},
            governor_switches=3, final_soc=0.25, projected_hours=7.5,
            link_stats={"offered": 4, "lost": 1})
        return ShardResult(shard_index=2, packets_sent=4, dropped=1,
                           timings_s={"synthesis+node": 0.5,
                                      "uplink+gateway": 0.25,
                                      "total": 0.75},
                           rows=[row])

    def test_round_trip(self):
        result = self._result()
        decoded = decode_shard_result(encode_shard_result(result))
        assert decoded.shard_index == result.shard_index
        assert decoded.packets_sent == result.packets_sent
        assert decoded.dropped == result.dropped
        assert decoded.timings_s == result.timings_s
        (row,) = decoded.rows
        original = result.rows[0]
        assert row.patient_id == original.patient_id
        assert row.mode_seconds == original.mode_seconds
        assert list(row.mode_seconds) == list(original.mode_seconds)
        assert row.link_stats == original.link_stats
        assert row.triage.state == "watch"
        assert row.triage.soc == 0.5
        assert row.final_soc == 0.25
        assert row.projected_hours == 7.5
        assert row.channel is not None
        assert row.channel.snrs == original.channel.snrs

    def test_every_truncation_raises_wire_error(self):
        # Every prefix cut — including mid-SNR-buffer cuts that are not
        # a multiple of the float64 item size — must surface as a
        # WireFormatError, never a raw numpy/struct exception.
        blob = encode_shard_result(self._result())
        for cut in range(len(blob)):
            with pytest.raises(WireFormatError):
                decode_shard_result(blob[:cut])

    def test_bad_magic_raises(self):
        blob = bytearray(encode_shard_result(self._result()))
        blob[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            decode_shard_result(bytes(blob))

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_decode_accepts_any_buffer(self, wrap):
        blob = encode_shard_result(self._result())
        decoded = decode_shard_result(wrap(blob))
        assert encode_shard_result(decoded) == blob

    def test_writable_source_is_copied(self):
        # Decoders alias only immutable bytes: wiping a bytearray
        # after decode must not reach the decoded SNRs.
        blob = bytearray(encode_shard_result(self._result()))
        decoded = decode_shard_result(blob)
        blob[:] = bytes(len(blob))
        assert decoded.rows[0].channel.snrs == [18.5, 21.0, 19.25]

    def test_readonly_view_over_writable_source_is_copied(self):
        source = bytearray(encode_shard_result(self._result()))
        decoded = decode_shard_result(memoryview(source).toreadonly())
        source[:] = bytes(len(source))
        assert decoded.rows[0].channel.snrs == [18.5, 21.0, 19.25]

    def test_snrs_are_owned_float_lists(self):
        decoded = decode_shard_result(encode_shard_result(self._result()))
        snrs = decoded.rows[0].channel.snrs
        assert type(snrs) is list
        assert all(type(s) is float for s in snrs)

    def test_round_trip_is_byte_stable(self):
        blob = encode_shard_result(self._result())
        assert encode_shard_result(decode_shard_result(blob)) == blob

    def test_empty_shard_round_trips(self):
        empty = ShardResult(shard_index=3, packets_sent=0, dropped=0,
                            timings_s={})
        decoded = decode_shard_result(encode_shard_result(empty))
        assert decoded.shard_index == 3
        assert decoded.rows == []
        assert decoded.obs_bundle is None

    def test_row_without_channel_round_trips(self):
        result = self._result()
        row = replace(result.rows[0], channel=None)
        decoded = decode_shard_result(encode_shard_result(
            replace(result, rows=[row])))
        assert decoded.rows[0].channel is None
        assert decoded.rows[0].triage.state == "watch"

    def test_obs_bundle_round_trips(self):
        bundle = {"metrics": {"fleet.packets": 4}, "trace": []}
        result = replace(self._result(), obs_bundle=bundle)
        decoded = decode_shard_result(encode_shard_result(result))
        assert decoded.obs_bundle == bundle

    def test_unknown_version_raises(self):
        blob = bytearray(encode_shard_result(self._result()))
        blob[4] += 1
        with pytest.raises(WireFormatError, match="version"):
            decode_shard_result(bytes(blob))

    def test_trailing_bytes_raise(self):
        blob = encode_shard_result(self._result()) + b"\x00"
        with pytest.raises(WireFormatError, match="trailing"):
            decode_shard_result(blob)

    def test_corrupt_obs_bundle_raises(self):
        head = encode_shard_result(replace(self._result(), obs_bundle={}))
        # An empty bundle encodes as "{}"; swap it for invalid JSON of
        # the same length.
        assert head.endswith(b"{}")
        with pytest.raises(WireFormatError, match="observability"):
            decode_shard_result(head[:-2] + b"{{")

    def test_non_utf8_patient_id_raises(self):
        blob = encode_shard_result(self._result())
        assert blob.count(b"\x02p0") == 1
        with pytest.raises(WireFormatError, match="UTF-8"):
            decode_shard_result(blob.replace(b"\x02p0", b"\x02\xff0"))

    @pytest.mark.parametrize("value,nth", [
        ("multi_lead_cs", 0), ("watch", 0), ("raw", 0),
        ("multi_lead_cs", 1), ("offered", 0)],
        ids=["last_mode", "triage_state", "triage_mode",
             "mode_seconds_key", "link_stats_key"])
    def test_non_utf8_row_string_raises(self, value, nth):
        # Row strings in encode order: channel last_mode, triage state
        # and mode, then the mode-seconds and link-stats keys.
        blob = encode_shard_result(self._result())
        field = bytes([len(value)]) + value.encode("utf-8")
        at = -1
        for _ in range(nth + 1):
            at = blob.index(field, at + 1)
        forged = blob[:at + 1] + b"\xff" + blob[at + 2:]
        with pytest.raises(WireFormatError, match="UTF-8"):
            decode_shard_result(forged)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_truncation_raises_for_any_buffer(self, wrap):
        blob = encode_shard_result(self._result())
        for cut in range(0, len(blob), 7):
            with pytest.raises(WireFormatError):
                decode_shard_result(wrap(blob[:cut]))


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

    def test_worker_returns_a_decodable_bytes_blob(self):
        shard = partition_cohort(COHORT, 2)[1]
        blob = _run_shard(1, shard, RUN_KW["config"],
                          RUN_KW["node_config"], RUN_KW["gateway_config"],
                          2014, None, None, n_shards=2)
        assert type(blob) is bytes
        result = decode_shard_result(blob)
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
