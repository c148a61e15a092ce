"""Process-level metrics: counters, gauges, histograms, Prometheus text.

A :class:`MetricsRegistry` owns metric *families* keyed by name; a
family with label names fans out into children keyed by their label
values.  Iteration order is deterministic everywhere — families sort by
name, children by label values — so a rendered exposition (and the
JSON snapshot) is byte-stable for a given set of values.

This is deliberately a separate concern from
:class:`repro.common.stats.StatsRegistry`: that registry counts events
*inside* one simulated machine (and is part of simulation results);
this one counts events in the *process* serving those simulations —
cache hits, simulations executed, HTTP requests, span counts — and is
never allowed to reach an outcome document or a cache-key digest (the
``obs-purity`` lint rule enforces the latter).

Rendering follows the Prometheus text exposition format version
0.0.4: ``# HELP``/``# TYPE`` headers, ``name{label="value"} value``
sample lines, and the ``_bucket``/``_sum``/``_count`` triplet with
cumulative ``le`` buckets for histograms.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

LabelValues = Tuple[str, ...]

#: Default histogram bucket upper bounds (wall milliseconds scale).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
)


def _format_value(value: float) -> str:
    """Prometheus sample-value formatting (integers without ``.0``)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(names: Tuple[str, ...], values: LabelValues) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A live callback read at collection time (0 until one is set)."""

    __slots__ = ("_function",)

    def __init__(self) -> None:
        self._function: Optional[Callable[[], float]] = None

    def set_function(self, function: Callable[[], float]) -> None:
        """Source the value from ``function()`` at every collection."""
        self._function = function

    @property
    def value(self) -> float:
        if self._function is not None:
            return float(self._function())
        return 0.0


class Histogram:
    """Cumulative-bucket histogram (Prometheus ``le`` semantics)."""

    __slots__ = ("buckets", "bucket_counts", "total", "count", "_lock")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.bucket_counts = [0] * len(buckets)
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.count += 1
            self.total += value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[index] += 1


class MetricFamily:
    """One named metric and its per-label-value children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.label_names = label_names
        self.bucket_bounds = buckets
        self._children: Dict[LabelValues, Any] = {}
        self._callback: Optional[Callable[[], Mapping[LabelValues, float]]] = None
        self._lock = threading.Lock()

    def _make_child(self) -> Any:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.bucket_bounds)

    def labels(self, **label_values: Any) -> Any:
        """The child for these label values (created on first use)."""
        if set(label_values) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key: LabelValues = tuple(str(label_values[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _default_child(self) -> Any:
        if self.label_names:
            raise ValueError(f"metric {self.name!r} is labeled; call .labels() first")
        with self._lock:
            child = self._children.get(())
            if child is None:
                child = self._make_child()
                self._children[()] = child
            return child

    # Unlabeled conveniences ------------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set_function(self, function: Callable[[], float]) -> None:
        self._default_child().set_function(function)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    # Labeled callback ------------------------------------------------------

    def set_callback(
        self, callback: Callable[[], Mapping[LabelValues, float]]
    ) -> None:
        """Source every child value from one collection-time callback.

        The callback returns ``{label_values_tuple: value}``; only valid
        for gauges (live views over external state, e.g. job counts by
        status or disk entries by kind).
        """
        if self.kind != "gauge":
            raise ValueError("set_callback is only supported on gauges")
        self._callback = callback

    # Collection ------------------------------------------------------------

    def samples(self) -> Iterator[Tuple[str, LabelValues, float]]:
        """Deterministic ``(suffix, label_values, value)`` sample stream."""
        if self._callback is not None:
            live = dict(self._callback())
            for key in sorted(live):
                yield "", key, float(live[key])
            return
        with self._lock:
            if not self._children and not self.label_names:
                # Unlabeled families expose a zero sample before first
                # use, so registered-but-idle counters still render.
                self._children[()] = self._make_child()
            children = sorted(self._children.items())
        for key, child in children:
            if self.kind == "histogram":
                cumulative = 0
                for bound, bucket_count in zip(
                    child.buckets, child.bucket_counts
                ):
                    cumulative += bucket_count
                    yield "_bucket", key + (_format_value(bound),), cumulative
                yield "_bucket", key + ("+Inf",), child.count
                yield "_sum", key, child.total
                yield "_count", key, child.count
            else:
                yield "", key, child.value


class MetricsRegistry:
    """A deterministic registry of metric families.

    Re-registering an existing name returns the existing family when
    the kind and labels match (so module-level registration is
    idempotent) and raises otherwise.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.label_names != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.label_names}"
                    )
                return existing
            family = MetricFamily(name, kind, help_text, labels, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", *, labels: Tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(name, "counter", help_text, labels)

    def gauge(
        self, name: str, help_text: str = "", *, labels: Tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(name, "gauge", help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        labels: Tuple[str, ...] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._register(name, "histogram", help_text, labels, buckets)

    # ------------------------------------------------------------------
    # Reading

    def families(self) -> List[MetricFamily]:
        """Families sorted by name (the deterministic iteration order)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def value(self, name: str, **label_values: Any) -> float:
        """The current value of one counter/gauge sample."""
        with self._lock:
            family = self._families[name]
        if family._callback is not None:
            key = tuple(str(label_values[n]) for n in family.label_names)
            return float(family._callback()[key])
        return float(family.labels(**label_values).value)

    def values(self, name: str) -> Dict[LabelValues, float]:
        """Every ``{label_values: value}`` sample of one family."""
        with self._lock:
            family = self._families[name]
        return {
            key: float(value)
            for suffix, key, value in family.samples()
            if suffix == ""
        }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready value snapshot of every family.

        Unlabeled counters/gauges map to their scalar; labeled families
        map to ``{"label=value,...": value}``; histograms map to their
        ``{"sum": ..., "count": ...}`` summary.
        """
        document: Dict[str, Any] = {}
        for family in self.families():
            if family.kind == "histogram":
                summary: Dict[str, Any] = {}
                for suffix, key, value in family.samples():
                    if suffix in ("_sum", "_count"):
                        label = ",".join(key)
                        entry = summary.setdefault(label or "total", {})
                        entry["sum" if suffix == "_sum" else "count"] = value
                document[family.name] = summary
                continue
            samples = {
                ",".join(
                    f"{n}={v}" for n, v in zip(family.label_names, key)
                ): value
                for suffix, key, value in family.samples()
                if suffix == ""
            }
            if family.label_names:
                document[family.name] = samples
            else:
                document[family.name] = samples.get("", 0)
        return document

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for family in self.families():
            if family.help_text:
                lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for suffix, key, value in family.samples():
                if suffix == "_bucket":
                    label_names = family.label_names + ("le",)
                else:
                    label_names = family.label_names
                labels_text = _labels_text(label_names, key)
                lines.append(
                    f"{family.name}{suffix}{labels_text} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The process-global registry (cross-cutting counters)

_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry.

    Cross-cutting counters live here — simulations executed, store
    hits/misses, spans recorded — so one snapshot or exposition covers
    the whole process.  Subsystem-local surfaces (the daemon) keep their
    own :class:`MetricsRegistry` instances.
    """
    return _GLOBAL
