"""Metric primitives: counters, gauges, histogram percentile math,
label keying, registry snapshots, and the thread-safety smoke test."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import (
    NOOP_REGISTRY,
    Histogram,
    MetricsRegistry,
    NoopMetricsRegistry,
    label_key,
    render_metric_key,
)


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("a").inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(7)
        gauge.inc(3)
        assert gauge.value == 10.0

    def test_same_name_and_labels_resolve_to_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("exec.runs", executor="occ", cores=8)
        b = registry.counter("exec.runs", cores=8, executor="occ")
        assert a is b  # label order must not matter
        assert registry.counter("exec.runs", cores=4) is not a

    def test_same_name_different_kind_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.gauge("x").set(5)
        assert registry.counter("x").value == 1.0
        assert registry.gauge("x").value == 5.0


class TestLabelRendering:
    def test_label_key_sorts_and_stringifies(self):
        assert label_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))

    def test_render_metric_key(self):
        assert render_metric_key("n", ()) == "n"
        key = render_metric_key("n", (("a", "1"), ("b", "2")))
        assert key == "n{a=1,b=2}"


class TestHistogramPercentiles:
    def test_empty_histogram(self):
        hist = Histogram("h")
        assert hist.percentile(0.5) == 0.0
        assert hist.summary()["count"] == 0

    def test_single_value(self):
        hist = Histogram("h")
        hist.observe(42.0)
        for p in (0.0, 0.5, 1.0):
            assert hist.percentile(p) == 42.0

    def test_interpolated_percentiles(self):
        hist = Histogram("h")
        for value in (1, 2, 3, 4):
            hist.observe(value)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(1.0) == 4.0
        assert hist.percentile(0.5) == 2.5
        assert hist.percentile(0.25) == pytest.approx(1.75)

    def test_percentiles_are_order_independent(self):
        forward, backward = Histogram("f"), Histogram("b")
        for value in range(100):
            forward.observe(value)
            backward.observe(99 - value)
        for p in (0.1, 0.5, 0.9, 0.99):
            assert forward.percentile(p) == backward.percentile(p)

    def test_summary_fields(self):
        hist = Histogram("h")
        for value in range(1, 11):
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == 10
        assert summary["sum"] == 55.0
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0
        assert summary["mean"] == 5.5
        assert summary["p50"] == 5.5

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(1.5)


class TestSnapshot:
    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(3)
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c{k=v}": 3.0}
        assert snapshot["gauges"] == {"g": 2.0}
        assert snapshot["histograms"]["h"]["count"] == 1


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        per_thread, num_threads = 10_000, 8

        def work():
            for _ in range(per_thread):
                registry.counter("hits").inc()
                registry.histogram("obs").observe(1.0)

        threads = [threading.Thread(target=work)
                   for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("hits").value == per_thread * num_threads
        assert registry.histogram("obs").count == per_thread * num_threads

    def test_concurrent_registration_yields_one_metric(self):
        registry = MetricsRegistry()
        results = []

        def register():
            results.append(registry.counter("shared", a=1))

        threads = [threading.Thread(target=register) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(metric is results[0] for metric in results)


class TestNoopRegistry:
    def test_returns_shared_singletons_and_records_nothing(self):
        registry = NoopMetricsRegistry()
        a = registry.counter("anything", label="x")
        b = registry.counter("other")
        assert a is b
        a.inc(100)
        assert a.value == 0.0
        registry.gauge("g").set(9)
        registry.histogram("h").observe(1.0)
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_disabled_flag(self):
        assert NOOP_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True


class TestDumpAndMerge:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("exec.runs", executor="occ").inc(3)
        registry.gauge("mempool.size").set(10)
        for value in (1.0, 4.0, 9.0):
            registry.histogram("exec.wall_time").observe(value)
        return registry

    def test_dump_is_lossless_for_histograms(self):
        registry = self._populated()
        (hist,) = [
            r for r in registry.dump() if r["kind"] == "histogram"
        ]
        assert hist["values"] == [1.0, 4.0, 9.0]

    def test_merge_sums_counters_and_concatenates_histograms(self):
        parent = self._populated()
        worker = self._populated()
        worker.gauge("mempool.size").set(99)
        parent.merge_dump(worker.dump())
        snapshot = parent.snapshot()
        assert snapshot["counters"]["exec.runs{executor=occ}"] == 6.0
        assert snapshot["gauges"]["mempool.size"] == 99.0  # last wins
        merged = snapshot["histograms"]["exec.wall_time"]
        assert merged["count"] == 6
        assert merged["sum"] == 28.0
        # Percentile fidelity survives the merge (raw values, not
        # pre-aggregated summaries).
        assert parent.histogram("exec.wall_time").percentile(0.5) == 4.0

    def test_merge_into_empty_registry_reproduces_source(self):
        source = self._populated()
        target = MetricsRegistry()
        target.merge_dump(source.dump())
        assert target.snapshot() == source.snapshot()

    def test_dump_round_trips_through_pickle(self):
        import pickle

        dump = pickle.loads(pickle.dumps(self._populated().dump()))
        target = MetricsRegistry()
        target.merge_dump(dump)
        assert target.snapshot() == self._populated().snapshot()


class TestConcurrentMergeDump:
    def test_merges_from_many_threads_are_exact(self):
        """Thread-backend workers merge their dumps into the parent
        concurrently at join; totals must come out exact."""
        parent = MetricsRegistry()
        num_workers, per_worker = 8, 200

        def worker_dump():
            worker = MetricsRegistry()
            worker.counter("lifecycle.events").inc(per_worker)
            for value in range(per_worker):
                worker.histogram(
                    "lifecycle.stage.committed"
                ).observe(float(value))
            return worker.dump()

        dumps = [worker_dump() for _ in range(num_workers)]
        threads = [
            threading.Thread(target=parent.merge_dump, args=(dump,))
            for dump in dumps
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert parent.counter("lifecycle.events").value == \
            num_workers * per_worker
        hist = parent.histogram("lifecycle.stage.committed")
        assert hist.count == num_workers * per_worker
        assert hist.percentile(1.0) == float(per_worker - 1)

    def test_merge_while_recording_loses_nothing(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("lifecycle.events").inc(500)
        dump = worker.dump()
        stop = threading.Event()

        def record():
            while not stop.is_set():
                parent.counter("lifecycle.opened").inc()

        recorder = threading.Thread(target=record)
        recorder.start()
        try:
            mergers = [
                threading.Thread(target=parent.merge_dump, args=(dump,))
                for _ in range(4)
            ]
            for thread in mergers:
                thread.start()
            for thread in mergers:
                thread.join()
        finally:
            stop.set()
            recorder.join()
        assert parent.counter("lifecycle.events").value == 2000.0
        assert parent.counter("lifecycle.opened").value > 0
