"""Spans: simulated-cycle and wall-clock, collected out-of-band.

Two span domains share one :class:`Tracer`:

* **sim spans** (:data:`SIM_CATEGORY`) — timestamps are *integer
  simulated cycles* taken from an event loop's ``now``.  They are a
  pure function of the request parameters, so the span set of a traced
  run is deterministic: serial and parallel executions of the same
  requests produce the same sim spans (worker processes collect spans
  locally and ship them back with the outcome payload).
* **wall spans** (:data:`WALL_CATEGORY`) — timestamps are process
  wall-clock seconds (:func:`wall_time`).  They cover engine work:
  store I/O, worker dispatch, daemon HTTP handling.  Wall spans are
  *not* deterministic and comparisons must exclude them.

This module is the only sanctioned owner of the wall clock on the
serving path: simulation packages (``service``, ``fleet``, ``daemon``,
...) must not import ``time`` (determinism lint rule), and the
``obs-purity`` rule additionally forbids the wall-clock helpers here
from appearing in ``service``/``fleet`` code or in any ``*_cache_key``
function — that is what keeps tracing provably inert.

Overhead when disabled: instrumented loops hoist
``tracer = active_tracer()`` once and guard each site with a plain
``is not None`` check; :func:`wall_span` returns a shared no-op context
manager without allocating.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

#: Category of spans measured in simulated cycles.
SIM_CATEGORY = "sim"
#: Category of spans measured in wall-clock seconds.
WALL_CATEGORY = "wall"


def wall_time() -> float:
    """The process wall clock (monotonic seconds; arbitrary epoch).

    The single sanctioned wall-clock read for code that is otherwise
    barred from ``import time`` — the daemon logs and wall spans go
    through here so the lint rules can pin the clock to this module.
    """
    return time.perf_counter()


@dataclass(frozen=True)
class Span:
    """One completed span (or instant event, when ``duration`` is 0).

    Attributes:
        name: Phase name (``"queue"``, ``"execute"``, ``"store-read"``…).
        category: :data:`SIM_CATEGORY` or :data:`WALL_CATEGORY`.
        track: Timeline the span renders on (``"shard-0/core-1"``,
            ``"engine"``, ``"daemon"``…).
        start: Start timestamp — integer cycles for sim spans,
            :func:`wall_time` seconds for wall spans.
        duration: Span length in the same unit (0 for instant events).
        args: Tags as a sorted tuple of ``(key, value)`` pairs
            (tenant, shard, mitigation spec, …) — tuple-of-pairs so
            spans are hashable and compare deterministically.
    """

    name: str
    category: str
    track: str
    start: float
    duration: float
    args: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible encoding (worker -> parent transport)."""
        return {
            "name": self.name,
            "category": self.category,
            "track": self.track,
            "start": self.start,
            "duration": self.duration,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            category=data["category"],
            track=data["track"],
            start=data["start"],
            duration=data["duration"],
            args=tuple(sorted(data.get("args", {}).items())),
        )

    def sort_key(self) -> Tuple[str, str, float, float, str, str]:
        """Deterministic total order (sim before wall, then timeline)."""
        return (
            self.category,
            self.track,
            self.start,
            self.duration,
            self.name,
            repr(self.args),
        )


class Tracer:
    """Accumulates spans for one traced run.

    Thread-safe for recording (the daemon's handler threads and the
    engine's absorb path may interleave); iteration snapshots.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    # ------------------------------------------------------------------
    # Recording

    def sim_span(
        self, name: str, track: str, start: int, end: int, **args: Any
    ) -> None:
        """Record a simulated-cycle span ``[start, end]``."""
        span = Span(
            name=name,
            category=SIM_CATEGORY,
            track=track,
            start=start,
            duration=end - start,
            args=tuple(sorted(args.items())),
        )
        with self._lock:
            self._spans.append(span)

    def wall_span(
        self, name: str, track: str, start: float, end: float, **args: Any
    ) -> None:
        """Record a wall-clock span (``start``/``end`` from :func:`wall_time`)."""
        span = Span(
            name=name,
            category=WALL_CATEGORY,
            track=track,
            start=start,
            duration=end - start,
            args=tuple(sorted(args.items())),
        )
        with self._lock:
            self._spans.append(span)

    def absorb(self, span_dicts: List[Dict[str, Any]]) -> None:
        """Adopt spans shipped back from a worker process."""
        spans = [Span.from_dict(data) for data in span_dicts]
        with self._lock:
            self._spans.extend(spans)

    # ------------------------------------------------------------------
    # Inspection

    @property
    def spans(self) -> List[Span]:
        """Snapshot of every recorded span, in recording order."""
        with self._lock:
            return list(self._spans)

    def sorted_spans(self) -> List[Span]:
        """Spans in their deterministic total order (see :meth:`Span.sort_key`)."""
        return sorted(self.spans, key=Span.sort_key)

    def span_dicts(self) -> List[Dict[str, Any]]:
        """JSON-ready encoding of every span (worker transport)."""
        return [span.to_dict() for span in self.spans]

    def sim_spans(self) -> List[Span]:
        """The deterministic subset: sim spans only, sorted."""
        return [span for span in self.sorted_spans() if span.category == SIM_CATEGORY]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ----------------------------------------------------------------------
# The ambient tracer

_ACTIVE: Optional[Tracer] = None
_ACTIVE_LOCK = threading.Lock()


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off.

    Hot loops call this once, bind the result to a local, and guard
    each instrumentation site with ``if tracer is not None``.
    """
    return _ACTIVE


def set_active_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` (or ``None`` to disable); returns the previous one."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = tracer
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of the block.

    >>> with tracing() as tracer:
    ...     session.run(request)          # doctest: +SKIP
    >>> write_chrome_trace(path, tracer.spans)   # doctest: +SKIP
    """
    installed = tracer if tracer is not None else Tracer()
    previous = set_active_tracer(installed)
    try:
        yield installed
    finally:
        set_active_tracer(previous)


# ----------------------------------------------------------------------
# Wall-span context managers (engine / store / daemon instrumentation)


class _NullSpan:
    """Shared no-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NULL_SPAN = _NullSpan()


@dataclass
class _WallSpan:
    """Times a block against :func:`wall_time` and records on exit."""

    tracer: Tracer
    name: str
    track: str
    args: Dict[str, Any]
    _start: float = field(default=0.0)

    def __enter__(self) -> "_WallSpan":
        self._start = wall_time()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self.tracer.wall_span(
            self.name, self.track, self._start, wall_time(), **self.args
        )
        return False


def wall_span(name: str, track: str, **args: Any) -> Any:
    """Context manager recording a wall span on the active tracer.

    Returns a shared no-op object when tracing is disabled, so call
    sites may use it unconditionally (``with wall_span(...):``) at
    near-zero disabled cost.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return _WallSpan(tracer, name, track, args)
