"""Tests for the Gantt chart renderer (repro.viz.gantt)."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro.algorithms.liu import opt_min_mem
from repro.analysis.bounds import memory_bounds
from repro.datasets.synth import synth_instance
from repro.parallel import priority_from_schedule, simulate_parallel
from repro.viz import gantt_chart


def _report(processors=3, bandwidth=0.0):
    for seed in range(1, 60):
        tree = synth_instance(30, seed=seed)
        bounds = memory_bounds(tree)
        if bounds.has_io_regime:
            break
    order = opt_min_mem(tree)[0]
    return simulate_parallel(
        tree,
        bounds.mid,
        processors,
        priority_from_schedule(order),
        bandwidth=bandwidth,
    )


class TestGantt:
    def test_well_formed_svg(self):
        svg = gantt_chart(_report(), title="run")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_one_lane_label_per_processor(self):
        report = _report(processors=4)
        svg = gantt_chart(report)
        for p in range(4):
            assert f">P{p}<" in svg

    def test_one_bar_per_task(self):
        report = _report()
        svg = gantt_chart(report)
        bars = svg.count('fill-opacity="0.75"')
        assert bars == len(report.events)

    def test_footer_reports_metrics(self):
        report = _report()
        svg = gantt_chart(report)
        assert f"io {report.io_volume}" in svg
        assert "utilisation" in svg

    def test_read_stalls_shaded_when_bandwidth_positive(self):
        report = _report(processors=2, bandwidth=5.0)
        if all(e.read_volume == 0 for e in report.events):
            pytest.skip("no reads in this run")
        svg = gantt_chart(report)
        assert 'fill-opacity="0.25"' in svg

    def test_empty_report_rejected(self):
        from repro.parallel.engine import ParallelReport

        empty = ParallelReport(
            makespan=0.0, io_volume=0, peak_memory=0, events=(), busy_time=(0.0,)
        )
        with pytest.raises(ValueError):
            gantt_chart(empty)

    def test_title_escaped(self):
        svg = gantt_chart(_report(), title="a<b&c")
        assert "a&lt;b&amp;c" in svg
