"""Benchmark-side tracing: spans around each layer's public entry points.

:class:`Tracer` wraps the entry points of every layer of the program
(see :data:`LAYER_ENTRIES`) for the length of a traced op and restores
them afterwards.  Module-level functions are re-bound in every
``repro`` module that looks them up by name; methods are wrapped on
their class.  Each call becomes a span — name, start, end, parent
span, op id, thread — kept in memory; :func:`ledger` turns the spans
of one op into per-layer self times (a span's duration minus the part
its child spans cover, per thread) and checks that they close on the
op's wall.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from repro.classification import AfDetector
from repro.compression import JointCsDecoder, MultiLeadCsEncoder
from repro.compression import encoder as encoder_module
from repro.delineation import RPeakDetector, WaveletDelineator
from repro.fleet import (
    BatchExcerptEncoder,
    EventKernel,
    Gateway,
    JournalReader,
    JournalReplayer,
    JournalWriter,
    RemoteBoard,
    RemoteGateway,
    TriageBoard,
    cohort as cohort_module,
    gateway as gateway_module,
    wire as wire_module,
)
from repro.fleet.journal import GatewaySession
from repro.pipeline import CardiacMonitorNode
from repro.pipeline.streaming import StreamingMonitor
from repro.power import EnergyGovernor


@dataclass(frozen=True)
class Span:
    """One call of a layer entry point."""

    index: int
    name: str
    start: float
    end: float
    cpu: float
    parent: int
    op: int
    thread: int

    @property
    def duration(self) -> float:
        """Wall seconds between entry and exit."""
        return self.end - self.start

    def to_json(self) -> dict:
        """JSON-ready form for the span dump."""
        return {"i": self.index, "name": self.name, "start": self.start,
                "end": self.end, "cpu": self.cpu, "parent": self.parent,
                "op": self.op, "thread": self.thread}


def layer_of(span_name: str) -> str:
    """The layer a span belongs to (its name minus the entry suffix)."""
    return span_name.rsplit(".", 1)[0]


# -- counters --------------------------------------------------------------
# A counter sees (tracer, result, args, kwargs) of a call and adds to the op's
# counts.  Re-entrant calls of the same entry (a span whose parent has
# the same name) are not counted again.

def _calls(key: str):
    def count(tracer, result, args, kwargs):
        tracer.add(key, 1)
    return count


def _beats(tracer, result, args, kwargs):
    tracer.add("delineation.wavelet_calls", 1)
    tracer.add("delineation.beats_out", len(result))


def _streamed(tracer, result, args, kwargs):
    samples = args[1] if len(args) > 1 else ()
    tracer.add("pipeline.streaming_samples", len(samples))


def _batch_encoded(tracer, result, args, kwargs):
    tracer.add("compression.encode_windows", len(result))


def _encoder_built(tracer, result, args, kwargs):
    tracer.add("compression.encoder_builds", 1)
    signature = inspect.signature(MultiLeadCsEncoder.__init__)
    params = signature.bind(*args, **kwargs)
    params.apply_defaults()
    geometry = tuple(params.arguments[key] for key in
                     ("n_leads", "n", "cr_percent", "d", "quant_bits",
                      "seed"))
    tracer.note_geometry(geometry)


def _recovered(tracer, result, args, kwargs):
    tracer.add("compression.recover_calls", 1)
    tracer.add("compression.recover_windows", len(result))


def _wire_frame(tracer, result, args, kwargs):
    tracer.add("fleet.wire.frames", 1)
    if isinstance(result, int):  # encode_packet_into: bytes appended
        n_bytes = result
    elif isinstance(result, bytes):  # encoders
        n_bytes = len(result)
    else:  # decoders: the frame they parsed
        n_bytes = len(args[0])
    tracer.add("fleet.wire.bytes", n_bytes)


def _drained(tracer, result, args, kwargs):
    tracer.add("fleet.gateway.drained", len(result))


def _kernel_run(tracer, result, args, kwargs):
    tracer.add("fleet.kernel.runs", 1)
    tracer.add("fleet.kernel.events", result)


def _journal_written(tracer, result, args, kwargs):
    tracer.add("fleet.journal.records_written", 1)
    writer = args[0]  # a fresh writer's n_bytes counts up from 0
    tracer.raise_to(f"fleet.journal.bytes_written#{id(writer)}",
                    writer.n_bytes)


def _journal_read(tracer, result, args, kwargs):
    tracer.add("fleet.journal.records_read", 1)


#: (owner, attribute, span name, counter) of every traced entry point.
#: A module owner means "the function of that name, in every module
#: that binds it"; a class owner means "the method on that class".
LAYER_ENTRIES: list[tuple[object, str, str, Callable | None]] = [
    (cohort_module, "synthesize_patient", "signals.synthesize",
     _calls("signals.synthesize_calls")),
    (WaveletDelineator, "delineate", "delineation.wavelet", _beats),
    (RPeakDetector, "detect", "delineation.rpeak",
     _calls("delineation.rpeak_calls")),
    (AfDetector, "predict_record", "classification.af_predict",
     _calls("classification.af_predict_calls")),
    (CardiacMonitorNode, "process", "pipeline.node_process", None),
    (CardiacMonitorNode, "process_governed", "pipeline.node_process",
     None),
    (StreamingMonitor, "push_block", "pipeline.streaming", _streamed),
    (StreamingMonitor, "flush", "pipeline.streaming", None),
    (BatchExcerptEncoder, "encode_batch", "compression.encode",
     _batch_encoded),
    (MultiLeadCsEncoder, "encode", "compression.encode",
     _calls("compression.encode_windows")),
    (MultiLeadCsEncoder, "__init__", "compression.build", _encoder_built),
    (encoder_module, "sparse_binary_matrix", "compression.matrix",
     _calls("compression.matrix_builds")),
    (JointCsDecoder, "recover_batch", "compression.recover", _recovered),
    (JointCsDecoder, "recover", "compression.recover",
     _calls("compression.recover_calls")),
    (wire_module, "encode_packet", "fleet.wire.encode", _wire_frame),
    (wire_module, "encode_packet_into", "fleet.wire.encode", _wire_frame),
    (wire_module, "encode_message", "fleet.wire.encode", _wire_frame),
    (wire_module, "decode_packet", "fleet.wire.decode", _wire_frame),
    (wire_module, "decode_message", "fleet.wire.decode", _wire_frame),
    (Gateway, "ingest", "fleet.gateway.ingest",
     _calls("fleet.gateway.ingest_calls")),
    (Gateway, "expire_reassembly", "fleet.gateway.reassembly", None),
    (Gateway, "flush_reassembly", "fleet.gateway.reassembly", None),
    (Gateway, "drain", "fleet.gateway.drain", _drained),
    (TriageBoard, "tick", "fleet.triage.tick",
     _calls("fleet.triage.calls")),
    (TriageBoard, "observe", "fleet.triage.observe",
     _calls("fleet.triage.calls")),
    (EventKernel, "run", "fleet.kernel.run", _kernel_run),
    (JournalWriter, "append_packet", "fleet.journal.write",
     _journal_written),
    (JournalWriter, "append_message", "fleet.journal.write",
     _journal_written),
    (JournalReader, "records", "fleet.journal.read", _journal_read),
    (JournalReplayer, "run", "fleet.journal.replay", None),
    (GatewaySession, "handle_frame", "fleet.serve.service",
     _calls("fleet.serve.service_calls")),
    (RemoteGateway, "ingest", "fleet.client.send", None),
    (RemoteGateway, "expire_reassembly", "fleet.client.send", None),
    (RemoteGateway, "drain", "fleet.client.send", None),
    (RemoteGateway, "flush_reassembly", "fleet.client.send", None),
    (RemoteBoard, "tick", "fleet.client.tick_wait", None),
    (EnergyGovernor, "step", "power.governor.step",
     _calls("power.governor.decisions")),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers.

    Args:
        delays: Span name -> seconds slept inside that span on every
            call.  A self-test seam for checking attribution; never set
            in a measured run.
    """

    def __init__(self, delays: dict[str, float] | None = None) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.geometries: dict[int, set[tuple]] = defaultdict(set)
        self.op = -1
        self.delays = dict(delays or {})
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        """Add to a counter of the current op (any thread)."""
        with self._lock:
            self.counts[self.op][key] += amount

    def note_geometry(self, geometry: tuple) -> None:
        """Record an encoder geometry built during the current op."""
        with self._lock:
            self.geometries[self.op].add(geometry)

    def raise_to(self, key: str, value: float) -> None:
        """Raise a high-water counter of the current op (any thread)."""
        with self._lock:
            counts = self.counts[self.op]
            counts[key] = max(counts[key], value)

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> tuple:
        stack = self._stack()
        parent, parent_name = stack[-1] if stack else (-1, "")
        index = next(self._ids)
        stack.append((index, name))
        return (index, parent, parent_name == name, self.op,
                time.perf_counter(), time.thread_time())

    def _exit(self, name: str, token: tuple) -> None:
        index, parent, _, op, start, cpu = token
        delay = self.delays.get(name)
        if delay:
            time.sleep(delay)
        end = time.perf_counter()
        cpu = time.thread_time() - cpu
        self._stack().pop()
        self.spans.append(Span(index, name, start, end, cpu, parent, op,
                               threading.get_ident()))

    def wrap(self, fn: Callable, name: str,
             counter: Callable | None) -> Callable:
        """A span-recording wrapper around ``fn``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, counter)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, token)
            if counter is not None and not token[2]:
                counter(self, result, args, kwargs)
            return result

        return traced

    def _wrap_generator(self, fn: Callable, name: str,
                        counter: Callable | None) -> Callable:
        """Time each resumption of a generator as one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                token = self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(name, token)
                if counter is not None:
                    counter(self, item, args, kwargs)
                yield item

        return traced

    # -- installation ------------------------------------------------

    def install(self) -> None:
        """Wrap every entry of :data:`LAYER_ENTRIES`."""
        # The gateway's alarm confirmation re-detects R peaks: gateway
        # work, not the node's delineation layer, so the gateway's
        # binding gets a subclass that keeps the untraced method.
        untraced_rpeak = type("RPeakDetector", (RPeakDetector,),
                              {"detect": RPeakDetector.detect})
        for owner, attr, name, counter in LAYER_ENTRIES:
            if inspect.ismodule(owner):
                self._patch_function(owner, attr, name, counter)
            else:
                original = owner.__dict__[attr]
                self._set(owner, attr, self.wrap(original, name, counter),
                          original)
        self._set(gateway_module, "RPeakDetector", untraced_rpeak,
                  gateway_module.RPeakDetector)

    def _patch_function(self, module, attr: str, name: str,
                        counter: Callable | None) -> None:
        """Re-bind a function in every ``repro`` module that binds it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, counter)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, attr, None) is original:
                self._set(mod, attr, traced, original)

    def _set(self, owner, attr: str, value, original) -> None:
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped binding (reverse order)."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


# -- the ledger ------------------------------------------------------------

@dataclass
class ThreadLedger:
    """One thread's share of one op."""

    wall: float
    self_wall: dict[str, float]
    self_cpu: dict[str, float]
    inclusive: dict[str, float]
    covered: float

    @property
    def attributed(self) -> float:
        """Sum of every layer's self time on this thread."""
        return sum(self.self_wall.values())

    @property
    def unattributed(self) -> float:
        """Wall not covered by any span (computed from the union)."""
        return self.wall - self.covered

    @property
    def closure_error(self) -> float:
        """|self times + unattributed - wall|: 0 when nesting is sound."""
        return abs(self.attributed + self.unattributed - self.wall)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def ledger(spans: list[Span], op: int, op_wall: float,
           main_thread: int) -> dict[int, ThreadLedger]:
    """Per-thread self-time ledger of one op.

    The main thread's wall is the op's wall; any other thread's wall is
    the stretch from its first span's start to its last span's end.
    """
    mine = [s for s in spans if s.op == op]
    names = {s.index: s.name for s in mine}
    child_wall: dict[int, float] = defaultdict(float)
    child_cpu: dict[int, float] = defaultdict(float)
    for s in mine:
        if s.parent >= 0:
            child_wall[s.parent] += s.duration
            child_cpu[s.parent] += s.cpu
    by_thread: dict[int, list[Span]] = defaultdict(list)
    for s in mine:
        by_thread[s.thread].append(s)
    out = {}
    for thread, items in by_thread.items():
        self_wall: dict[str, float] = defaultdict(float)
        self_cpu: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        for s in items:
            self_wall[s.name] += s.duration - child_wall[s.index]
            self_cpu[s.name] += s.cpu - child_cpu[s.index]
            if names.get(s.parent) != s.name:  # outermost of a nest
                inclusive[s.name] += s.duration
        wall = (op_wall if thread == main_thread else
                max(s.end for s in items) - min(s.start for s in items))
        covered = _union_length([(s.start, s.end) for s in items])
        out[thread] = ThreadLedger(wall, dict(self_wall),
                                   dict(self_cpu), dict(inclusive),
                                   covered)
    return out
