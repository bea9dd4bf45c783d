"""Tests for result tables and the stats object."""

import pytest

from repro.metrics import SynthesisStats
from repro.metrics.reporting import (
    ResultTable,
    format_value,
    render_tables,
    safe_percent,
)


class TestResultTable:
    def test_text_rendering_alignment(self):
        table = ResultTable("Fig X", ["K", "time (s)"], note="a note")
        table.add(3, 0.1234567)
        table.add(11, 65.0)
        text = table.to_text()
        assert "== Fig X ==" in text
        assert "a note" in text
        assert "0.1235" in text
        assert "65.00" in text

    def test_wrong_arity_rejected(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_render_tables_joins(self):
        t1 = ResultTable("one", ["x"])
        t2 = ResultTable("two", ["y"])
        text = render_tables([t1, t2])
        assert "== one ==" in text and "== two ==" in text

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.5) == "0.5000"
        assert format_value(123.456) == "123.46"
        assert format_value("s") == "s"


class TestSafePercent:
    def test_normal_ratio(self):
        assert safe_percent(1.0, 4.0) == 25.0

    def test_zero_total_is_zero_not_nan(self):
        assert safe_percent(1.0, 0.0) == 0.0

    def test_negative_total_guarded(self):
        assert safe_percent(1.0, -3.0) == 0.0


class TestSynthesisStats:
    def test_timer_accumulates(self):
        stats = SynthesisStats()
        with stats.timer("ranking"):
            pass
        with stats.timer("ranking"):
            pass
        assert stats.ranking_time >= 0
        assert "ranking" in stats.timers

    def test_counters_and_sccs(self):
        stats = SynthesisStats()
        stats.bump("groups_added", 3)
        stats.record_sccs([4, 6], [10, 20])
        assert stats.counters["groups_added"] == 3
        assert stats.average_scc_size == 5.0
        assert stats.average_scc_bdd_size == 15.0
        assert "avg size 5.0" in stats.summary()

    def test_merge(self):
        a, b = SynthesisStats(), SynthesisStats()
        a.bump("x")
        b.bump("x", 2)
        b.record_sccs([3])
        b.bdd_nodes["total"] = 7
        a.merge(b)
        assert a.counters["x"] == 3
        assert a.scc_sizes == [3]
        assert a.bdd_nodes["total"] == 7

    def test_empty_averages(self):
        stats = SynthesisStats()
        assert stats.average_scc_size == 0.0
        assert stats.average_scc_bdd_size == 0.0
