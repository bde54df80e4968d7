"""The guest side of a virtual machine: work items and the guest kernel.

CPU work inside a VM is modelled as *work items* — service demands in
nanoseconds, tagged ``user`` or ``sys`` so guest-visible utilisation splits
(user / system / iowait) can be reported the way the paper's Figure 5
discussion does. The guest kernel serves work FIFO whenever the hypervisor
gives one of its VCPUs processor time; with several VCPUs, items are
*claimed* so two VCPUs never serve the same item.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Event, Simulator


class WorkItem:
    """One burst of CPU demand inside a guest."""

    __slots__ = ("demand", "remaining", "kind", "done", "enqueued_at", "started_at", "owner")

    def __init__(self, sim: Simulator, demand: int, kind: str):
        if demand < 0:
            raise ValueError(f"negative CPU demand {demand}")
        if kind not in ("user", "sys"):
            raise ValueError(f"work kind must be 'user' or 'sys', got {kind!r}")
        self.demand = demand
        self.remaining = demand
        self.kind = kind
        #: Fires when the item has received its full demand.
        self.done: Event = Event(sim)
        self.enqueued_at = sim.now
        self.started_at: Optional[int] = None
        #: Name of the VCPU currently serving this item (None = unclaimed).
        self.owner: Optional[str] = None

    def __repr__(self) -> str:
        return f"<WorkItem {self.kind} {self.remaining}/{self.demand}ns owner={self.owner}>"


class GuestAccounting:
    """Guest-visible time accounting for one VM.

    ``user``/``sys`` accumulate while VCPUs run those work kinds; ``iowait``
    accumulates while the VM is idle *and* has outstanding I/O (tracked by
    :meth:`GuestKernel.io_begin` / :meth:`GuestKernel.io_end`); ``steal``
    accumulates while runnable but not running.
    """

    __slots__ = ("user", "sys", "iowait", "steal")

    def __init__(self):
        self.user = 0
        self.sys = 0
        self.iowait = 0
        self.steal = 0

    @property
    def busy(self) -> int:
        """Total CPU time consumed (user + sys)."""
        return self.user + self.sys

    def snapshot(self) -> dict[str, int]:
        """Copy of all counters, for windowed sampling."""
        return {"user": self.user, "sys": self.sys, "iowait": self.iowait, "steal": self.steal}


class GuestKernel:
    """Work queue of a VM plus idle/I/O bookkeeping."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self._items: list[WorkItem] = []
        self.accounting = GuestAccounting()
        self._outstanding_io = 0
        self._idle_since: Optional[int] = sim.now
        #: Invoked with no arguments whenever work arrives at an empty
        #: queue; the hypervisor hooks this to wake the VM's VCPUs.
        self.on_work_available: Optional[Callable[[], None]] = None

    # -- work submission ---------------------------------------------------

    def submit(self, demand: int, kind: str = "user") -> WorkItem:
        """Queue ``demand`` ns of CPU work; returns the item (await .done)."""
        item = WorkItem(self.sim, demand, kind)
        self._items.append(item)
        self._leave_idle()
        if self.on_work_available is not None:
            self.on_work_available()
        return item

    # -- service interface used by the hypervisor ---------------------------

    def acquire_work(self, owner: str) -> Optional[WorkItem]:
        """The item ``owner`` should serve next.

        Preference order: the item this owner already claimed (resuming
        after preemption), then the oldest unclaimed *sys* item, then the
        oldest unclaimed user item. Kernel work (softirq, socket
        processing) preempting queued user work is what keeps a busy
        guest's packet intake alive while it crunches application bursts.
        """
        oldest_sys = None
        oldest_user = None
        for item in self._items:
            if item.owner == owner:
                return item
            if item.owner is None:
                if item.kind == "sys":
                    if oldest_sys is None:
                        oldest_sys = item
                elif oldest_user is None:
                    oldest_user = item
        chosen = oldest_sys if oldest_sys is not None else oldest_user
        if chosen is not None:
            chosen.owner = owner
        return chosen

    def charge(self, item: WorkItem, ran: int, consumed: Optional[int] = None) -> None:
        """Account ``ran`` wall-ns of service against ``item``.

        ``consumed`` is the demand retired, which differs from wall time
        under DVFS (a core at speed 0.5 retires half a nanosecond of
        nominal demand per wall nanosecond); it defaults to ``ran``.
        """
        if consumed is None:
            consumed = ran
        if item.started_at is None:
            item.started_at = self.sim.now - ran
        item.remaining -= consumed
        if item.kind == "user":
            self.accounting.user += ran
        else:
            self.accounting.sys += ran
        if item.remaining <= 0:
            self._items.remove(item)
            if not self._items:
                self._enter_idle()
            item.done.succeed(item)

    @property
    def has_work(self) -> bool:
        """Whether any work item is queued."""
        return bool(self._items)

    @property
    def has_unclaimed_work(self) -> bool:
        """Whether a VCPU waking up now would find an item to serve."""
        return any(item.owner is None for item in self._items)

    @property
    def queue_length(self) -> int:
        """Number of queued work items (including those in service)."""
        return len(self._items)

    # -- I/O-wait bookkeeping ------------------------------------------------

    def io_begin(self) -> None:
        """Note that a guest-side flow is now blocked on I/O."""
        self._flush_idle()
        self._outstanding_io += 1

    def io_end(self) -> None:
        """Note that one outstanding I/O wait completed."""
        if self._outstanding_io <= 0:
            raise RuntimeError(f"io_end without io_begin on guest {self.name!r}")
        self._flush_idle()
        self._outstanding_io -= 1

    @property
    def outstanding_io(self) -> int:
        """Number of flows currently blocked on I/O."""
        return self._outstanding_io

    # -- idle/iowait accounting ----------------------------------------------

    def _enter_idle(self) -> None:
        self._idle_since = self.sim.now

    def _leave_idle(self) -> None:
        self._flush_idle()
        self._idle_since = None

    def _flush_idle(self) -> None:
        """Attribute the idle interval so far to iowait when I/O is pending."""
        if self._idle_since is not None:
            if self._outstanding_io > 0:
                self.accounting.iowait += self.sim.now - self._idle_since
            self._idle_since = self.sim.now
