"""``repro.obs``: deterministic tracing and metrics for every layer.

The observability subsystem is strictly *out-of-band*: it watches the
reproduction, it never feeds it.  Three modules:

* :mod:`repro.obs.trace` — spans.  Simulated-cycle spans record the
  serving layers' request lifecycle (queue wait, purge stall, execute,
  teardown) with timestamps taken from the event loop's integer
  cycle counter; wall-clock spans record engine work (store I/O, worker
  dispatch, HTTP handling) against the process clock.  The wall clock
  lives *here* — simulation packages never import ``time``; the
  determinism and obs-purity lint rules hold that line.
* :mod:`repro.obs.metrics` — a process-level metrics registry
  (counters, gauges, histograms; deterministic iteration order) with a
  Prometheus text-exposition renderer.  The daemon's ``/v1/metrics``
  and ``/v1/health`` surfaces both read it.
* :mod:`repro.obs.export` — the Chrome-trace-event (Perfetto) JSON
  exporter behind ``--trace out.json`` and ``repro trace summary``.

Inertness contract: outcomes, persisted store documents, and every
``*_cache_key`` digest are bit-identical with tracing on or off.  Spans
accumulate on a tracer object installed out-of-band
(:func:`~repro.obs.trace.tracing`); when no tracer is installed the
instrumentation sites reduce to one hoisted ``None`` check.
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace_document,
    load_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import (
    SIM_CATEGORY,
    WALL_CATEGORY,
    Span,
    Tracer,
    active_tracer,
    set_active_tracer,
    tracing,
    wall_span,
    wall_time,
)

__all__ = [
    "SIM_CATEGORY",
    "WALL_CATEGORY",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "active_tracer",
    "chrome_trace_document",
    "global_registry",
    "load_trace",
    "set_active_tracer",
    "tracing",
    "validate_chrome_trace",
    "wall_span",
    "wall_time",
    "write_chrome_trace",
]
