"""Admission control for the bounded per-shard request queues.

Every arrival at a shard passes through an admission policy before it
may join the queue.  The policy sees a small deterministic snapshot of
the shard's dispatch state (:class:`AdmissionContext`) and either admits
the request or rejects it with a reason — the two shipped reasons are
the fleet outcome's ``dropped_queue_full`` and ``rejected_deadline``
counters.

=================  ====================================================
``drop_on_full``   Admit while the queue has room; drop otherwise (the
                   classic bounded-buffer server).
``deadline``       ``drop_on_full`` plus an SLO check: reject requests
                   whose estimated queue wait plus own service time
                   would already blow the latency SLO — shedding load
                   early instead of serving requests that miss their
                   deadline anyway.
=================  ====================================================

:data:`ADMISSION_POLICIES` is the fixed table of them.  Each is a pure
function of the context, the determinism contract the engine's
content-hash cache keys rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.registry import Registry

#: Rejection reason: the bounded queue is full.
REJECT_QUEUE_FULL = "queue_full"
#: Rejection reason: the request would miss the latency SLO.
REJECT_DEADLINE = "deadline"


@dataclass(frozen=True)
class AdmissionContext:
    """Dispatch-state snapshot an admission policy decides on.

    Attributes:
        now: Current simulation time (cycles).
        queue_length: Requests currently pending in the shard queue.
        queue_depth: Bound on the shard queue.
        service_cycles: Service demand of the arriving request.
        estimated_wait_cycles: Deterministic queue-wait estimate (time
            until a core frees plus the mean backlog ahead).
        slo_cycles: The fleet's latency SLO (admission-to-completion).
    """

    now: int
    queue_length: int
    queue_depth: int
    service_cycles: int
    estimated_wait_cycles: int
    slo_cycles: int


#: ``context -> None`` to admit, or a rejection-reason string.
AdmissionPolicy = Callable[[AdmissionContext], Optional[str]]


def _drop_on_full(context: AdmissionContext) -> Optional[str]:
    if context.queue_length >= context.queue_depth:
        return REJECT_QUEUE_FULL
    return None


def _deadline(context: AdmissionContext) -> Optional[str]:
    if context.queue_length >= context.queue_depth:
        return REJECT_QUEUE_FULL
    if context.estimated_wait_cycles + context.service_cycles > context.slo_cycles:
        return REJECT_DEADLINE
    return None


ADMISSION_POLICIES: Registry[AdmissionPolicy] = Registry(
    "admission policy",
    (
        (
            "drop_on_full",
            _drop_on_full,
            "admit while the bounded queue has room, drop otherwise",
        ),
        (
            "deadline",
            _deadline,
            "drop on full, and reject requests whose estimated wait would blow the SLO",
        ),
    ),
)
