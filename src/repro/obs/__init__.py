"""``repro.obs`` — the observability layer: metrics, spans, traces.

The pieces shared by every execution surface:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  of counters, gauges and bounded histograms, rendered as the
  service's legacy JSON shape or Prometheus text exposition;
* :mod:`repro.obs.trace` — contextvar-propagated span tracing: a
  request-scoped stage-timing breakdown that crosses the wire and the
  worker-process boundary via an optional ``trace`` request field;
* :func:`repro.obs.schedule_trace` — per-request schedule traces: the
  memory hill-valley curve and cumulative I/O of a solved traversal,
  behind the ``trace_schedule`` flag.  It is a view of
  :func:`repro.core.trace.replay`'s walk, re-exported here.
"""

from ..core.trace import schedule_trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)
from .trace import (
    MAX_TRACE_ID,
    Trace,
    current_trace,
    current_trace_id,
    new_trace_id,
    span,
    trace_context,
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    # spans
    "MAX_TRACE_ID",
    "Trace",
    "current_trace",
    "current_trace_id",
    "new_trace_id",
    "span",
    "trace_context",
    # schedule traces
    "schedule_trace",
]
