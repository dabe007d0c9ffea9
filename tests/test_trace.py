"""Tests for execution traces (repro.core.trace).

The load-bearing property: for any valid traversal, exporting the event
stream and replaying it independently reproduces the traversal's I/O
volume and respects the memory bound — the exporter and the replayer
share no accounting code with each other or with `validate`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.trace import (
    ReplayResult,
    TraceError,
    TraceEvent,
    from_jsonl,
    replay,
    to_jsonl,
    traversal_trace,
)
from repro.core.traversal import Traversal
from repro.core.tree import chain_tree
from repro.datasets.instances import figure_2b
from repro.experiments.registry import get_algorithm

from .conftest import trees_with_memory


def _traversal(tree, memory):
    return get_algorithm("RecExpand")(tree, memory)


class TestRoundTrip:
    @given(tm=trees_with_memory(max_nodes=8, max_weight=9))
    @settings(max_examples=40)
    def test_jsonl_round_trip_identity(self, tm):
        tree, memory = tm
        events = traversal_trace(tree, _traversal(tree, memory))
        assert from_jsonl(to_jsonl(events)) == events

    def test_blank_lines_skipped(self):
        text = '{"k":"execute","n":0,"a":3}\n\n  \n'
        assert len(from_jsonl(text)) == 1

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"k":"levitate","n":0,"a":1}',
            '{"n":0,"a":1}',
            '{"k":"read","n":"x","a":1}',
        ],
    )
    def test_bad_lines_rejected_with_location(self, line):
        with pytest.raises(ValueError, match="bad trace line 1"):
            from_jsonl(line)


class TestReplayAgreement:
    @given(tm=trees_with_memory(max_nodes=8, max_weight=9))
    @settings(max_examples=50)
    def test_replay_reproduces_io_volume(self, tm):
        tree, memory = tm
        traversal = _traversal(tree, memory)
        events = traversal_trace(tree, traversal)
        result = replay(tree, events, memory)
        assert isinstance(result, ReplayResult)
        assert result.io_volume == traversal.io_volume
        assert result.schedule == traversal.schedule

    @given(tm=trees_with_memory(max_nodes=8, max_weight=9))
    @settings(max_examples=30)
    def test_replay_peak_within_bound(self, tm):
        tree, memory = tm
        events = traversal_trace(tree, _traversal(tree, memory))
        assert replay(tree, events, memory).peak_memory <= memory

    def test_replay_without_bound_reports_peak(self):
        tree = chain_tree([3, 5, 2, 6])
        traversal = _traversal(tree, 100)
        result = replay(tree, traversal_trace(tree, traversal))
        assert result.peak_memory >= max(tree.wbar)

        # figure 2(b), solved at M = 6: chain after chain, spilling the
        # left chain's top output (node 3, w=3) until the root reads it
        tree = figure_2b().tree
        traversal = Traversal(tuple(range(9)), (0, 0, 0, 3, 0, 0, 0, 0, 0))
        result = replay(tree, traversal_trace(tree, traversal))
        #      x0 x1 x2 x3 w3 x4 x5 x6 x7 r3 x8
        assert result.memory == (6, 6, 5, 5, 0, 6, 6, 5, 5, 6, 6)
        assert result.cumulative_io == (0, 0, 0, 0, 3, 3, 3, 3, 3, 3, 3)
        assert result.peak_memory == 6


class TestReplayCatchesViolations:
    def _tree(self):
        return chain_tree([3, 5, 2, 6])  # node 3 is the leaf, 0 the root

    def test_missing_execution_detected(self):
        tree = self._tree()
        with pytest.raises(TraceError, match="never executed"):
            replay(tree, [TraceEvent("execute", 3, 6)])

    def test_double_execution_detected(self):
        tree = self._tree()
        events = [TraceEvent("execute", 3, 6), TraceEvent("execute", 3, 6)]
        with pytest.raises(TraceError, match="twice"):
            replay(tree, events)

    def test_child_before_parent_enforced(self):
        tree = self._tree()
        with pytest.raises(TraceError, match="not executed"):
            replay(tree, [TraceEvent("execute", 2, 6)])

    def test_write_of_nonexistent_output(self):
        tree = self._tree()
        with pytest.raises(TraceError, match="does not exist"):
            replay(tree, [TraceEvent("write", 3, 1)])

    def test_overwrite_beyond_resident(self):
        tree = self._tree()
        events = [TraceEvent("execute", 3, 6), TraceEvent("write", 3, 7)]
        with pytest.raises(TraceError, match="only 6 resident"):
            replay(tree, events)

    def test_read_more_than_written(self):
        tree = self._tree()
        events = [
            TraceEvent("execute", 3, 6),
            TraceEvent("write", 3, 2),
            TraceEvent("read", 3, 3),
        ]
        with pytest.raises(TraceError, match="only 2 on disk"):
            replay(tree, events)

    def test_unrestored_input_detected(self):
        tree = self._tree()
        events = [
            TraceEvent("execute", 3, 6),
            TraceEvent("write", 3, 2),
            TraceEvent("execute", 2, 6),  # consumes node 3 with 2 still on disk
        ]
        with pytest.raises(TraceError, match="on disk"):
            replay(tree, events)

    def test_memory_bound_enforced(self):
        # Two chains under one root: peak (7) exceeds LB (6), so a no-IO
        # trace planned for ample memory must violate M = LB on replay.
        from repro.core.tree import TaskTree

        tree = TaskTree([-1, 0, 1, 0, 3], [1, 3, 4, 3, 4])
        traversal = _traversal(tree, 100)  # no I/O planned
        events = traversal_trace(tree, traversal)
        with pytest.raises(TraceError, match="> M="):
            replay(tree, events, memory=max(tree.wbar))

    def test_event_validation(self):
        with pytest.raises(ValueError, match="kind"):
            TraceEvent("compute", 0, 1)
        with pytest.raises(ValueError, match="negative"):
            TraceEvent("read", 0, -1)
