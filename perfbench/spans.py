"""The traced run's span recorder, and the wrappers that feed it.

Spans are recorded from benchmark code only: :func:`install_batch_wrappers`
replaces the names ``execute_batch`` looks up at call time with timing
wrappers, and only in the traced run, so the untraced run imports the
program unpatched.  Each span keeps its name, start, end, parent span
and request id; spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the time its direct
children cover.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable


class SpanRecorder:
    """In-memory spans of one single-threaded traced phase."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index (-1 = root), request id]``
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.request_id: Any = None

    def open(self, name: str) -> list[Any]:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.request_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list[Any]) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self, name: str, fn: Callable[..., Any], *, suffix_arg: int | None = None
    ) -> Callable[..., Any]:
        """``fn`` timed as a span; ``suffix_arg`` appends that argument to the name."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name if suffix_arg is None else f"{name}.{args[suffix_arg]}"
            span = self.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over every span."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span[2] - span[1]
            entry["self_s"] += own
        return out

    def subtree_self_s(self, root_name: str) -> tuple[float, float]:
        """``(total of root_name spans, self time of them and all below)``.

        The two agree when every child interval nests inside its parent,
        which is the check that the per-layer self times add up.
        """
        below = [False] * len(self.spans)
        total = covered = 0.0
        for i, ((name, start, end, parent, _), own) in enumerate(
            zip(self.spans, self.self_times())
        ):
            below[i] = name == root_name or (parent >= 0 and below[parent])
            if name == root_name and not (parent >= 0 and below[parent]):
                total += end - start
            if below[i]:
                covered += own
        return total, covered

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": rid,
                }) + "\n")


class _ForestBuilders:
    """Stands in for ``ArrayForest`` inside ``repro.api.execution``."""

    def __init__(self, cls: Any, recorder: SpanRecorder) -> None:
        self._cls = cls
        self.from_pairs = recorder.wrap("core.forest.build", cls.from_pairs)
        self.from_trees = recorder.wrap("core.forest.build", cls.from_trees)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cls, name)


def install_batch_wrappers(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer ``execute_batch`` calls; returns the undo function."""
    from repro.api import execution
    from repro.api.requests import CanonicalRequest
    from repro.core.forest import ArrayForest

    saved: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    patch(execution, "execute_batch",
          recorder.wrap("api.execution.execute_batch", execution.execute_batch))
    patch(execution, "forest_memory_bounds",
          recorder.wrap("core.forest_kernels.bounds", execution.forest_memory_bounds))
    patch(execution, "forest_traversals",
          recorder.wrap("core.forest_kernels.traversals", execution.forest_traversals,
                        suffix_arg=1))
    patch(execution, "validate",
          recorder.wrap("core.traversal.validate", execution.validate))
    patch(execution, "ArrayForest", _ForestBuilders(ArrayForest, recorder))
    patch(ArrayForest, "tree", recorder.wrap("core.forest.build", ArrayForest.tree))
    patch(CanonicalRequest, "key",
          recorder.wrap("api.requests.key", CanonicalRequest.key))

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def batch_layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """The ``batch`` per-layer numbers: self seconds and call counts."""
    s = recorder.summary()

    def self_s(name: str) -> float:
        return s.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(s.get(name, {}).get("calls", 0))

    return {
        "api.requests.key_s": self_s("api.requests.key"),
        "core.forest.build_s": self_s("core.forest.build"),
        "core.forest.tree_calls": calls("core.forest.build"),
        "core.forest_kernels.bounds_s": self_s("core.forest_kernels.bounds"),
        "core.forest_kernels.traversals_s.OptMinMem":
            self_s("core.forest_kernels.traversals.OptMinMem"),
        "core.forest_kernels.traversals_s.PostOrderMinIO":
            self_s("core.forest_kernels.traversals.PostOrderMinIO"),
        "core.traversal.validate_s": self_s("core.traversal.validate"),
        "core.traversal.validate_calls": calls("core.traversal.validate"),
        "api.execution.self_s": self_s("api.execution.execute_batch"),
        "api.execution.execute_batch_s":
            s.get("api.execution.execute_batch", {}).get("total_s", 0.0),
    }
