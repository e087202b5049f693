"""Self-tests of the benchmark's tracing and inputs.

Not part of the repository's test suite (the file name keeps pytest's
default collection away from it, because the count check runs every
workload twice, about three minutes on two cores).  Run it with::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import threading
import time

import pytest

import run

run.import_program()

from layertrace import LAYER_ENTRIES, Tracer, ledger  # noqa: E402
from workloads import WORKLOADS, Inputs, count_sweeps  # noqa: E402

from repro.fleet import (  # noqa: E402
    CohortConfig,
    FleetScheduler,
    NodeProxyConfig,
    SchedulerConfig,
    TriageBoard,
    make_cohort,
)

#: Seconds slept inside every ``compression.recover`` span when injected.
DELAY_S = 0.05


def _small_op() -> None:
    """A 2-patient, 24 s dense run: every layer of the in-process path."""
    cohort = make_cohort(CohortConfig(n_patients=2, seed=3))
    FleetScheduler(cohort, SchedulerConfig(duration_s=24.0, fs=250.0),
                   node_config=NodeProxyConfig(excerpt_period_s=4.0,
                                               stream_telemetry=False)
                   ).run()


def _traced_small_op(delays=None):
    """Self wall, self CPU (per span name) and counts of one traced op."""
    tracer = Tracer(delays)
    tracer.op = 0
    with tracer:
        t0 = time.perf_counter()
        _small_op()
        wall = time.perf_counter() - t0
    main = threading.main_thread().ident
    book = ledger(tracer.spans, 0, wall, main)[main]
    return book, tracer.counts[0]


def test_injected_delay_is_attributed_to_its_layer():
    _small_op()  # warm lazy caches
    base, counts = _traced_small_op()
    slowed, slowed_counts = _traced_small_op({"compression.recover":
                                              DELAY_S})
    calls = counts["compression.recover_calls"]
    assert calls > 0 and slowed_counts == counts
    injected = calls * DELAY_S
    gained = (slowed.self_wall["compression.recover"]
              - base.self_wall["compression.recover"])
    assert 0.9 * injected <= gained <= 1.2 * injected + 0.05
    # The sleep burns wall, not CPU: the layer's self wall exceeds its
    # self CPU by the injected time, and nowhere else does.
    idle = {name: slowed.self_wall[name] - slowed.self_cpu[name]
            for name in slowed.self_wall}
    assert idle["compression.recover"] >= 0.9 * injected
    for name, seconds in idle.items():
        if name != "compression.recover":
            assert seconds < 0.1 * injected, name
    # Parent (gateway drain) and neighbours do not absorb the delay.
    for name in base.self_wall:
        if name != "compression.recover":
            assert slowed.self_wall[name] - base.self_wall[name] \
                < 0.25 * injected, name
    for book in (base, slowed):
        assert book.closure_error < 1e-6
        assert 0.0 <= book.unattributed <= book.wall


def test_tracer_restores_every_binding():
    import sys

    def bindings():
        out = {}
        for owner, attr, _, _ in LAYER_ENTRIES:
            if isinstance(owner, type):
                out[(id(owner), attr)] = owner.__dict__[attr]
        for name, module in sys.modules.items():
            if name == "repro" or name.startswith("repro."):
                for key, value in vars(module).items():
                    out[(name, key)] = value
        return out

    before = bindings()
    with Tracer():
        assert bindings() != before
    assert bindings() == before


def test_count_sweeps_counts_tick_times_and_restores_the_board():
    original = TriageBoard.__dict__["tick"]
    out, sweeps = count_sweeps(lambda: "done")
    assert (out, sweeps) == ("done", 0)
    # 24 s at a 4 s uplink period: sweeps at 4, 8, ..., 24 s.
    _, sweeps = count_sweeps(_small_op)
    assert sweeps == 6
    assert TriageBoard.__dict__["tick"] is original


def test_inputs_derive_from_the_seed():
    assert Inputs.from_seed(5) == Inputs.from_seed(5)
    a, b = Inputs.from_seed(5), Inputs.from_seed(6)
    assert len({a.cohort_seed, a.af_corpus_seed, a.link_seed,
                a.governor_seed}) == 4
    assert a.cohort_seed != b.cohort_seed
    assert [p.patient_id for p in a.cohort()] == \
        [p.patient_id for p in Inputs.from_seed(5).cohort()]


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_exactly_across_traced_runs(name):
    first = run.measure_traced(name, run.DEFAULT_SEED, 0.0)
    second = run.measure_traced(name, run.DEFAULT_SEED, 0.0)
    assert first["correct"] and second["correct"]
    for key in run.LAYER_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["ledger.closure_error_s"]["value"] < 1e-6
    if name == "gateway-replay":
        for layer in ("signals", "delineation", "classification",
                      "pipeline"):
            assert first["metrics"][f"{layer}.cpu_s"]["value"] == 0.0
        for key in ("signals.synthesize_calls", "delineation.wavelet_calls",
                    "delineation.rpeak_calls",
                    "classification.af_predict_calls",
                    "pipeline.streaming_samples"):
            assert first["metrics"][key]["value"] == 0
