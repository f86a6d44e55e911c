"""MetricsRegistry: labeled counters/histograms, stable export."""

import json

import pytest

from repro.obs import MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        m = MetricsRegistry()
        c = m.counter("hits")
        assert c.inc() == 1.0
        assert c.inc(2.5) == 3.5
        assert c.value() == 3.5

    def test_labeled_series_are_independent(self):
        c = MetricsRegistry().counter("hits")
        c.inc(labels={"key": "a"})
        c.inc(3, labels={"key": "b"})
        assert c.value(labels={"key": "a"}) == 1.0
        assert c.value(labels={"key": "b"}) == 3.0
        assert c.value() == 0.0

    def test_label_order_is_canonical(self):
        c = MetricsRegistry().counter("hits")
        c.inc(labels={"a": "1", "b": "2"})
        c.inc(labels={"b": "2", "a": "1"})
        assert c.value(labels={"a": "1", "b": "2"}) == 2.0

    def test_counters_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("hits").inc(-1)


class TestHistogram:
    def test_observe_buckets_and_summary(self):
        h = MetricsRegistry().histogram("lat", edges=[1.0, 2.0])
        for v in (0.5, 1.5, 1.7, 9.0):
            h.observe(v)
        snap = h.value()
        assert snap["counts"] == [1, 2, 1]  # <=1, <=2, overflow
        assert snap["count"] == 4
        assert snap["min"] == 0.5
        assert snap["max"] == 9.0

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", edges=[2.0, 1.0])

    def test_reregistering_with_other_edges_fails(self):
        m = MetricsRegistry()
        m.histogram("h", edges=[1.0, 2.0])
        with pytest.raises(ValueError):
            m.histogram("h", edges=[3.0])
        # Same edges (or unspecified) re-fetches the family.
        assert m.histogram("h", edges=[1.0, 2.0]) is m.histogram("h")


class TestRegistry:
    def test_kind_collision_raises(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError):
            m.histogram("x")

    def test_export_is_json_safe_and_sorted(self):
        m = MetricsRegistry()
        m.counter("b").inc(labels={"k": "1"})
        m.counter("a").inc(2)
        m.histogram("c").observe(0.5)
        out = m.export()
        assert list(out) == ["a", "b", "c"]
        json.dumps(out, sort_keys=True)  # must not raise

    def test_export_byte_stable(self):
        def build():
            m = MetricsRegistry()
            m.counter("hits").inc(labels={"z": "9", "a": "0"})
            m.counter("hits").inc(labels={"a": "0", "z": "9"})
            m.histogram("lat").observe(0.1)
            return json.dumps(m.export(), sort_keys=True)

        assert build() == build()
