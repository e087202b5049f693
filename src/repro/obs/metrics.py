"""Deterministic metrics: counters, gauges and histograms with labels.

The fleet's accounting layer.  A :class:`MetricsRegistry` holds labeled
series of three types — integer :class:`Counter` families, float
:class:`Gauge` families and bucketed :class:`Histogram` families — and
can render them two ways: a Prometheus-style text exposition
(:meth:`MetricsRegistry.to_prometheus`) for scrape-shaped consumers,
and a canonical JSON snapshot (:meth:`MetricsRegistry.snapshot` /
:func:`canonical_metrics_json`) whose bytes are the determinism
contract.

Two design rules make snapshots mergeable *exactly* (no float drift):

* counters only accept **integer** increments and histograms record
  **integer bucket counts** (no float sum field), so folding N shard
  snapshots is pure integer addition — associative, commutative, and
  byte-identical to the single-process run that observed the same
  events;
* every series carries a **scope**: :data:`SCOPE_FLEET` series are
  per-entity (patient, mode, ...) and additive across any shard layout,
  while :data:`SCOPE_SHARD` series (batch shapes, wall clocks, queue
  depths) describe one process and are excluded from the canonical
  (layout-independent) snapshot.

Gauges hold floats (a state of charge is not a count) but stay
merge-safe by convention: a fleet-scope gauge must be labeled by the
entity that owns it (e.g. ``patient``), so exactly one shard ever sets
each series.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

#: Fleet-scope series are additive/per-entity across any shard layout
#: and form the canonical (layout-independent) snapshot.
SCOPE_FLEET = "fleet"
#: Shard-scope series describe one process (wall clocks, batch shapes);
#: they appear in full snapshots but never in the canonical one.
SCOPE_SHARD = "shard"

#: Serve-scope series describe the socket gateway service of
#: :mod:`repro.fleet.serve` (connections, stream frames, per-connection
#: queue depth).  Like shard scope they are deployment-shaped rather
#: than simulation-shaped, so they are excluded from the canonical
#: layout-independent snapshot.
SCOPE_SERVE = "serve"

_SCOPES = (SCOPE_FLEET, SCOPE_SHARD, SCOPE_SERVE)

#: Default histogram bucket upper bounds (generic positive magnitudes).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


class MetricsError(ValueError):
    """Inconsistent metric usage: type/scope/bucket mismatch, bad value."""


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """Canonical (sorted) hashable form of one label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """One labeled family of monotonically increasing integer counts."""

    name: str
    help: str
    scope: str
    series: dict[tuple[tuple[str, str], ...], int] = \
        field(default_factory=dict)

    def inc(self, amount: int = 1, **labels: str) -> None:
        """Add ``amount`` (a non-negative int) to one labeled series."""
        if not isinstance(amount, int) or isinstance(amount, bool) \
                or amount < 0:
            raise MetricsError(
                f"counter {self.name}: increments must be non-negative "
                f"integers (got {amount!r}) so shard merges stay exact")
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0) + amount

    def value(self, **labels: str) -> int:
        """Current count of one labeled series (0 if never touched)."""
        return self.series.get(_label_key(labels), 0)


@dataclass
class Gauge:
    """One labeled family of last-written float values."""

    name: str
    help: str
    scope: str
    series: dict[tuple[tuple[str, str], ...], float] = \
        field(default_factory=dict)

    def set(self, value: float, **labels: str) -> None:
        """Overwrite one labeled series with ``value`` (finite float)."""
        value = float(value)
        if not math.isfinite(value):
            raise MetricsError(
                f"gauge {self.name}: value must be finite, got {value}")
        self.series[_label_key(labels)] = value

    def value(self, **labels: str) -> float:
        """Current value of one labeled series (nan if never set)."""
        return self.series.get(_label_key(labels), float("nan"))


@dataclass
class Histogram:
    """One labeled family of bucketed integer observation counts.

    Buckets are cumulative-exclusive at storage time — each observation
    lands in exactly one bucket, the first whose upper bound is **>=**
    the value (Prometheus ``le`` semantics: a value exactly equal to a
    bound belongs to that bound's bucket; ``+Inf`` catches the rest) —
    and rendered cumulatively in the Prometheus exposition.  There is
    deliberately no float ``sum`` field — integer bucket counts merge
    exactly across shards.
    """

    name: str
    help: str
    scope: str
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    series: dict[tuple[tuple[str, str], ...], list[int]] = \
        field(default_factory=dict)

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into its bucket.

        Bucket upper bounds are inclusive: ``observe(5.0)`` against
        bounds ``(1, 5, 10)`` lands in the ``le=5`` bucket, matching
        the cumulative Prometheus rendering.

        Raises:
            MetricsError: NaN observation — NaN compares false against
                every bound, so it would otherwise fall through into
                ``+Inf`` and silently poison the tail count.  Guard
                the call site instead.
        """
        value = float(value)
        if math.isnan(value):
            raise MetricsError(
                f"histogram {self.name}: NaN is not bucketable; "
                f"guard the call site instead of observing it")
        key = _label_key(labels)
        counts = self.series.get(key)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
            self.series[key] = counts
        # bisect_left finds the first bound >= value: the inclusive
        # ``le`` bucket; values above every bound index the +Inf slot.
        counts[bisect.bisect_left(self.buckets, value)] += 1

    def count(self, **labels: str) -> int:
        """Total observations of one labeled series."""
        return sum(self.series.get(_label_key(labels), ()))


class MetricsRegistry:
    """A named collection of metric families with exact-merge snapshots.

    Families are get-or-create: asking for an existing name returns the
    existing family after checking that type, scope and (for
    histograms) buckets match — so instrumentation sites can declare
    what they need without coordinating a central catalog.
    """

    def __init__(self) -> None:
        self._families: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls, help: str, scope: str, **kwargs):
        """Get-or-create one family, validating consistency."""
        if scope not in _SCOPES:
            raise MetricsError(f"unknown scope {scope!r}; "
                               f"choose from {_SCOPES}")
        family = self._families.get(name)
        if family is None:
            family = cls(name=name, help=help, scope=scope, **kwargs)
            self._families[name] = family
            return family
        if not isinstance(family, cls) or family.scope != scope:
            raise MetricsError(
                f"metric {name!r} re-declared as {cls.__name__}/{scope} "
                f"but exists as {type(family).__name__}/{family.scope}")
        buckets = kwargs.get("buckets")
        if buckets is not None and tuple(buckets) != family.buckets:
            raise MetricsError(
                f"histogram {name!r} re-declared with different buckets")
        return family

    def counter(self, name: str, help: str = "",
                scope: str = SCOPE_FLEET) -> Counter:
        """Get-or-create one counter family."""
        return self._get(name, Counter, help, scope)

    def gauge(self, name: str, help: str = "",
              scope: str = SCOPE_FLEET) -> Gauge:
        """Get-or-create one gauge family."""
        return self._get(name, Gauge, help, scope)

    def histogram(self, name: str, help: str = "",
                  scope: str = SCOPE_FLEET,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  ) -> Histogram:
        """Get-or-create one histogram family."""
        return self._get(name, Histogram, help, scope,
                         buckets=tuple(buckets))

    def families(self) -> dict[str, Counter | Gauge | Histogram]:
        """Name -> family, for introspection and tests."""
        return dict(self._families)

    def snapshot(self, scope: str | None = None) -> dict:
        """Deterministic dict view of every series.

        Args:
            scope: Restrict to one scope (``None`` = everything).  Pass
                :data:`SCOPE_FLEET` for the canonical layout-independent
                snapshot the shard-equivalence contract compares.

        Returns:
            ``{"series": [...]}`` with entries sorted by
            ``(name, labels)`` — byte-stable under
            :func:`canonical_metrics_json`.
        """
        entries: list[dict] = []
        for name in sorted(self._families):
            family = self._families[name]
            if scope is not None and family.scope != scope:
                continue
            meta = {"name": name, "help": family.help,
                    "scope": family.scope}
            if isinstance(family, Counter):
                kind, render = "counter", lambda v: v
            elif isinstance(family, Gauge):
                kind, render = "gauge", float
            else:
                kind = "histogram"
                meta["buckets"] = list(family.buckets)

                def render(counts: list[int]) -> list[int]:
                    return list(counts)
            for key in sorted(family.series):
                entries.append({**meta, "type": kind,
                                "labels": dict(key),
                                "value": render(family.series[key])})
        return {"series": entries}

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every family (all scopes)."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            kind = {Counter: "counter", Gauge: "gauge",
                    Histogram: "histogram"}[type(family)]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(family.series):
                value = family.series[key]
                if isinstance(family, Histogram):
                    cumulative = 0
                    bounds = [*family.buckets, float("inf")]
                    for bound, count in zip(bounds, value):
                        cumulative += count
                        bound_s = ("+Inf" if math.isinf(bound)
                                   else format(bound, "g"))
                        lines.append(
                            f"{name}_bucket"
                            f"{_prom_labels(key, le=bound_s)} "
                            f"{cumulative}")
                    lines.append(
                        f"{name}_count{_prom_labels(key)} {cumulative}")
                else:
                    rendered = (format(value, "g")
                                if isinstance(family, Gauge) else value)
                    lines.append(f"{name}{_prom_labels(key)} {rendered}")
        return "\n".join(lines) + "\n"


def _prom_labels(key: tuple[tuple[str, str], ...], **extra: str) -> str:
    """Render one label set in Prometheus ``{k="v",...}`` syntax."""
    items = [*key, *sorted(extra.items())]
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def canonical_metrics_json(snapshot: dict) -> str:
    """Byte-stable serialization of one metrics snapshot.

    The comparison surface of the N-shard == 1-shard equivalence tests
    and ``benchmarks/test_fleet_obs_overhead.py``.
    """
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def merge_metric_snapshots(snapshots: list[dict]) -> dict:
    """Fold N metric snapshots into one, exactly.

    Counters and histogram buckets add (pure integer addition, so the
    fold is associative and order-independent); gauges last-write-win
    in input order (fleet-scope gauges are per-entity labeled, so at
    most one input carries each series).  Entries with the same
    ``(name, labels)`` must agree on type/scope/buckets.

    Raises:
        MetricsError: Conflicting declarations for one series key.
    """
    merged: dict[tuple, dict] = {}
    for snapshot in snapshots:
        for entry in snapshot.get("series", ()):
            key = (entry["name"],
                   _label_key(entry.get("labels", {})))
            prior = merged.get(key)
            if prior is None:
                merged[key] = {**entry,
                               "labels": dict(entry.get("labels", {}))}
                continue
            for attr in ("type", "scope", "buckets"):
                if prior.get(attr) != entry.get(attr):
                    raise MetricsError(
                        f"snapshot merge conflict on {entry['name']!r}: "
                        f"{attr} {prior.get(attr)!r} != "
                        f"{entry.get(attr)!r}")
            if entry["type"] == "counter":
                prior["value"] += entry["value"]
            elif entry["type"] == "histogram":
                prior["value"] = [a + b for a, b in
                                  zip(prior["value"], entry["value"])]
            else:  # gauge: last write wins (per-entity by convention)
                prior["value"] = entry["value"]
    order = sorted(merged, key=lambda k: (k[0], k[1]))
    return {"series": [merged[key] for key in order]}
