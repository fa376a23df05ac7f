"""Metric primitives: counters, gauges, histograms, and their registry.

Metrics are keyed by a dotted name (``exec.speculative.reexecuted``)
plus an optional label set (``executor="occ", cores=8``); the same
(name, labels) pair always resolves to the same metric object, so hot
paths can call ``registry.counter(...)`` repeatedly without allocating.

Two registry implementations share one interface:

* :class:`MetricsRegistry` — records everything, thread-safe;
* :class:`NoopMetricsRegistry` — the zero-cost default installed when
  instrumentation is disabled.  Every accessor returns a shared no-op
  metric whose mutators do nothing, so instrumented code paths cost a
  few attribute lookups and nothing else.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Mapping, Sequence

LabelItems = tuple[tuple[str, str], ...]


def label_key(labels: Mapping[str, object]) -> LabelItems:
    """Canonical, hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def render_metric_key(name: str, labels: LabelItems) -> str:
    """Flat string form used in snapshots: ``name{k=v,...}``."""
    if not labels:
        return name
    rendered = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{rendered}}}"


def percentile_of(ordered: Sequence[float], p: float) -> float:
    """Linearly interpolated percentile of *ordered* (sorted ascending),
    ``p`` in [0, 1]; 0.0 for no values."""
    if not ordered:
        return 0.0
    rank = p * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value (queue depth, pool weight, utilization)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A distribution with exact percentile summaries.

    Observations are retained in full (the simulation scale keeps these
    small); percentiles use linear interpolation between order
    statistics, so ``percentile(0.0)`` is the minimum, ``percentile(1.0)``
    the maximum, and ``percentile(0.5)`` of ``[1, 2, 3, 4]`` is ``2.5``.
    """

    __slots__ = ("name", "labels", "_values", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        values = self._values
        return sum(values) / len(values) if values else 0.0

    def percentile(self, p: float) -> float:
        """Interpolated percentile of the observations, ``p`` in [0, 1]."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("percentile must be in [0, 1]")
        with self._lock:
            ordered = sorted(self._values)
        return percentile_of(ordered, p)

    def summary(self) -> dict[str, float]:
        """Count, sum, extremes, and the standard percentile trio.

        An empty histogram reports only ``count``/``sum``: its extremes
        and percentiles are undefined, and exporting zeros for them
        would be indistinguishable from real zero observations.
        """
        with self._lock:
            values = list(self._values)
        if not values:
            return {"count": 0, "sum": 0.0}
        return {
            "count": len(values),
            "sum": sum(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
            "p50": self.percentile(0.5),
            "p90": self.percentile(0.9),
            "p99": self.percentile(0.99),
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Create-or-get store of metrics keyed by (name, labels).

    Thread-safe: registration takes a lock; the metric objects guard
    their own mutation.  ``enabled`` is True so instrumentation helpers
    can branch cheaply on it.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple[type, str, LabelItems], Metric] = {}
        self._lock = threading.Lock()

    def _get(self, kind: type, name: str,
             labels: Mapping[str, object]) -> Metric:
        key = (kind, name, label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(key, kind(name, key[2]))
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self._metrics)

    def iter_metrics(self) -> Iterator[Metric]:
        """All registered metrics, in registration order."""
        return iter(list(self._metrics.values()))

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Machine-readable dump: flat metric keys to values/summaries."""
        counters: dict[str, object] = {}
        gauges: dict[str, object] = {}
        histograms: dict[str, object] = {}
        for metric in self.iter_metrics():
            key = render_metric_key(metric.name, metric.labels)
            if isinstance(metric, Counter):
                counters[key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            else:
                histograms[key] = metric.summary()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def dump(self) -> list[dict[str, object]]:
        """Lossless, picklable dump for cross-process merging.

        Unlike :meth:`snapshot` (which summarises histograms), the dump
        retains raw histogram observations so a parent registry can
        merge a worker's recordings without losing percentile fidelity.
        One record per metric: ``{"kind", "name", "labels", ...}`` with
        ``value`` for counters/gauges and ``values`` for histograms.
        """
        records: list[dict[str, object]] = []
        for metric in self.iter_metrics():
            record: dict[str, object] = {
                "name": metric.name,
                "labels": list(metric.labels),
            }
            if isinstance(metric, Counter):
                record["kind"] = "counter"
                record["value"] = metric.value
            elif isinstance(metric, Gauge):
                record["kind"] = "gauge"
                record["value"] = metric.value
            else:
                record["kind"] = "histogram"
                with metric._lock:
                    record["values"] = list(metric._values)
            records.append(record)
        return records

    def merge_dump(self, records: Iterable[dict[str, object]]) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        Counters sum, histograms concatenate their observations, and
        gauges adopt the dumped value (last write wins — gauges are
        point-in-time readings, not accumulators).  Used to fold
        process-pool workers' recordings into the parent registry at
        join, closing the ``--backend process`` observability gap.
        """
        for record in records:
            labels = dict(record["labels"])  # type: ignore[arg-type]
            name = str(record["name"])
            kind = record["kind"]
            if kind == "counter":
                self.counter(name, **labels).inc(
                    float(record["value"])  # type: ignore[arg-type]
                )
            elif kind == "gauge":
                self.gauge(name, **labels).set(
                    float(record["value"])  # type: ignore[arg-type]
                )
            elif kind == "histogram":
                histogram = self.histogram(name, **labels)
                for value in record["values"]:  # type: ignore[union-attr]
                    histogram.observe(float(value))  # type: ignore[arg-type]
            else:
                raise ValueError(f"unknown metric kind {kind!r}")


class _NoopCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NoopGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NoopHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NOOP_COUNTER = _NoopCounter("noop")
_NOOP_GAUGE = _NoopGauge("noop")
_NOOP_HISTOGRAM = _NoopHistogram("noop")


class NoopMetricsRegistry(MetricsRegistry):
    """The disabled registry: every accessor returns a shared no-op.

    Nothing is ever stored, so leaving instrumentation calls in hot
    paths costs a method call returning a singleton — the
    zero-cost-when-disabled guarantee the tier-1 timings rely on.
    """

    enabled = False

    def counter(self, name: str, **labels: object) -> Counter:
        return _NOOP_COUNTER

    def gauge(self, name: str, **labels: object) -> Gauge:
        return _NOOP_GAUGE

    def histogram(self, name: str, **labels: object) -> Histogram:
        return _NOOP_HISTOGRAM

    def snapshot(self) -> dict[str, dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NOOP_REGISTRY = NoopMetricsRegistry()
