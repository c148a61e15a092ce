"""Pluggable scheduling policies for the enclave-serving simulation.

A policy decides, each time a core goes idle, which queued request that
core serves next — and with it how often the fleet pays MI6's enclave
boundary costs (a ``purge`` on schedule *and* deschedule under FLUSH).
Three policies ship by default, spanning the obvious cost/fairness
trade-off:

=============  ========================================================
``fifo``       Strict arrival order; the core is handed back to the OS
               after every request (eager release), so *every* request
               pays a schedule purge and a deschedule purge.
``affinity``   Partition-aware affinity: the enclave stays installed on
               its core between requests (lazy release), and an idle
               core first serves queued requests of the tenant it
               already hosts — back-to-back requests of one tenant pay
               no purge at all.
``batch``      Affinity plus a fairness bound: a core drains up to
               :data:`BATCH_LIMIT` consecutive requests of its installed
               tenant (amortising one purge pair over the whole batch),
               then must switch to the oldest other tenant if one is
               waiting.
=============  ========================================================

:data:`SCHEDULING_POLICIES` is the fixed table of them.  A policy keeps
no state of its own: its choice is a function of the dispatch state it
is shown, so the table holds one shared instance of each.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.registry import Registry

#: Fairness bound of the ``batch`` policy: consecutive requests of one
#: tenant a core may serve while another tenant waits.
BATCH_LIMIT = 8


class QueueView:
    """Read-only dispatch state a policy sees when picking a request.

    Attributes:
        pending: Queued requests in arrival (seq) order; each exposes
            ``tenant`` and ``seq``.
        in_service: Tenants with a request currently executing (a tenant
            is single-threaded: one enclave, one execution context).
        installed_core: Tenant -> core id where its enclave is currently
            installed (lazy-release policies leave enclaves resident).
    """

    def __init__(
        self,
        pending: List[Any],
        in_service: set,
        installed_core: Dict[int, int],
    ) -> None:
        self.pending = pending
        self.in_service = in_service
        self.installed_core = installed_core

    def claimable(self, tenant: int, core_id: int) -> bool:
        """Whether ``core_id`` may start serving ``tenant`` now.

        A tenant already executing is never claimable, and a tenant
        whose enclave sits installed on a *different* (idle) core is
        left for that core — it will claim the request itself in the
        same dispatch pass, without an extra deschedule/schedule pair.
        """
        if tenant in self.in_service:
            return False
        where = self.installed_core.get(tenant)
        return where is None or where == core_id


class SchedulingPolicy:
    """Base policy: subclasses override :meth:`pick`.

    Attributes:
        eager_release: True when the core is descheduled (handed back to
            the OS, paying the deschedule purge) after every request.
    """

    eager_release = False

    def pick(self, core: Any, view: QueueView) -> Optional[Any]:
        """The pending request ``core`` should serve next, or ``None``.

        ``core`` exposes ``core_id``, ``installed`` (tenant id or None)
        and ``streak`` (consecutive requests of the installed tenant).
        """
        raise NotImplementedError


class FifoPolicy(SchedulingPolicy):
    """Strict arrival order with eager core release."""

    eager_release = True

    def pick(self, core: Any, view: QueueView) -> Optional[Any]:
        for request in view.pending:
            if view.claimable(request.tenant, core.core_id):
                return request
        return None


class AffinityPolicy(SchedulingPolicy):
    """Serve the installed tenant first; otherwise oldest claimable."""

    def pick(self, core: Any, view: QueueView) -> Optional[Any]:
        if core.installed is not None:
            for request in view.pending:
                if request.tenant == core.installed:
                    return request
        for request in view.pending:
            if view.claimable(request.tenant, core.core_id):
                return request
        return None


class BatchPolicy(SchedulingPolicy):
    """Affinity bounded by :data:`BATCH_LIMIT`: amortise purges, stay fair."""

    def pick(self, core: Any, view: QueueView) -> Optional[Any]:
        same = None
        if core.installed is not None:
            for request in view.pending:
                if request.tenant == core.installed:
                    same = request
                    break
        other = None
        for request in view.pending:
            if request.tenant != core.installed and view.claimable(
                request.tenant, core.core_id
            ):
                other = request
                break
        if same is not None and (core.streak < BATCH_LIMIT or other is None):
            return same
        return other


SCHEDULING_POLICIES: Registry[SchedulingPolicy] = Registry(
    "scheduling policy",
    (
        (
            "fifo",
            FifoPolicy(),
            "strict arrival order, core released after every request (max purges)",
        ),
        (
            "affinity",
            AffinityPolicy(),
            "enclaves stay resident; idle cores serve their installed tenant first",
        ),
        (
            "batch",
            BatchPolicy(),
            f"affinity with a {BATCH_LIMIT}-request fairness bound per tenant batch",
        ),
    ),
)
