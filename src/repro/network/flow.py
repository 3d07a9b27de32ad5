"""Flow-level (fluid) modeling of steady-state bulk transfers.

The exact data path decomposes every bulk write into ``chunk_bytes``
pieces, and each piece pays a full RPC round, a portals pull, a fabric
transfer, and a disk controller hold — kernel event count scales as
``clients × (bytes / chunk_bytes)``.  For the steady-state *middle* of a
checkpoint that per-chunk churn buys no fidelity: every chunk sees the
same bottleneck, so the aggregate timeline is captured exactly as well
by a *fluid flow* whose fair-share rate changes only when flows arrive
or depart (burst-buffer and object-store studies model bulk phases the
same way).

:class:`FlowNetwork` implements that: each :class:`Flow` holds a set of
:class:`FluidResource` capacities (sender tx pipe, receiver rx pipe,
disk bandwidth) fractionally, rates are the progressive-filling max-min
fair allocation, and the only scheduled event is the earliest flow
completion — recomputed (with a cheap lazy-cancelled timer) at every
arrival/departure.  ``O(chunks × events)`` collapses to
``O(flows × rate-changes)``.

A flow may weight each resource with a coefficient: a collapsed
representative (symmetric-client collapsing, PR 3) transfers its own
share on its tx pipe (coefficient 1) while the receiver's rx pipe and
disk serve the whole equivalence class (coefficient ``mult``), mirroring
the fabric's asymmetric weighted holds.

The engine is strictly opt-in: clients take the flow path only when
``SimConfig.flow`` is set, which the harness does from the resolved
``RunOptions.flow`` (``--flow`` on the CLI, ``REPRO_FLOW`` when the
field is unset).  Otherwise the exact chunked path runs, and it stays
the bit-identical reference.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from ..simkernel import Environment, Event

__all__ = ["FluidResource", "Flow", "FlowNetwork", "fluid_of"]

#: Bytes of slack below which a flow counts as complete.  Float roundoff
#: across advance/recompute cycles is ~1e-7 B at simulation scale; real
#: remainders are at least a byte.
_DONE_TOL = 1e-3

#: Relative capacity slack below which a resource counts as saturated
#: during progressive filling.
_SAT_TOL = 1e-9

#: Relative time slack within which an independent component's completion
#: may ride the current fast-forward step (float-roundoff ulps between a
#: heap entry's closed-form time and the armed timer's fire time).
_T_SLOP = 1e-12


class FluidResource:
    """A capacity shared fractionally by the flows that traverse it."""

    __slots__ = ("capacity", "name")

    def __init__(self, capacity: float, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError(f"fluid resource {name!r} needs positive capacity")
        self.capacity = float(capacity)
        self.name = name


def fluid_of(pipe) -> FluidResource:
    """The (cached) fluid view of a NIC pipe or any ``.bandwidth`` holder."""
    fluid = getattr(pipe, "_fluid", None)
    if fluid is None:
        fluid = FluidResource(pipe.bandwidth, name=getattr(pipe, "name", ""))
        pipe._fluid = fluid
    return fluid


class Flow:
    """One bulk stream in flight.

    ``nbytes`` / ``remaining`` / ``rate`` are per-share quantities (one
    class member's bytes); each ``(resource, coeff)`` share consumes
    ``coeff × rate`` of that resource's capacity.
    """

    __slots__ = ("nbytes", "remaining", "rate", "shares", "done", "tag",
                 "src", "dst", "wire_bytes", "t_open", "seq", "t_last", "gen")

    def __init__(
        self,
        env: Environment,
        nbytes: float,
        shares: Sequence[Tuple[FluidResource, float]],
        tag: str,
        src: Optional[int],
        dst: Optional[int],
        wire_bytes: float,
    ) -> None:
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.shares = tuple(shares)
        self.done: Event = env.event()
        self.tag = tag
        self.src = src
        self.dst = dst
        self.wire_bytes = wire_bytes
        self.t_open = env._now
        #: Deterministic identity (flows_opened at open time) — used to
        #: order component members so fast-forward float sums are
        #: reproducible across runs.
        self.seq = 0
        #: Last time this flow's ``remaining`` was drained (fast-forward
        #: advances lazily, per component, instead of globally).
        self.t_last = env._now
        #: Bumped whenever the flow's rate changes; stale completion-heap
        #: entries carry an older gen and are skipped on pop.
        self.gen = 0


class FlowNetwork:
    """Max-min fair fluid flows over shared resources, one env-wide.

    Two interchangeable engines compute the same max-min allocation:

    * the **reference** engine re-runs global progressive filling over
      every active flow at each arrival/departure — ``O(flows²)`` per
      event once per-device jitter makes every saturation level
      distinct, the pre-fast-forward arithmetic, kept bit-identical;
    * the **fast-forward** engine exploits the fact that max-min
      fairness decomposes exactly over connected components of the
      flow↔resource bipartite graph: an event only re-fair-shares the
      touched component, per-flow completion times are kept in closed
      form on a lazily-invalidated heap, and untouched components keep
      their rates — ``O(component)`` per event.

    Fast-forward is the default when the environment opts in
    (``env.fastforward``, wired from ``RunOptions.fastforward``); it
    disengages automatically whenever a fault injector is installed,
    because capacity perturbations (crash/stall/degrade) invalidate the
    steady-state assumption — chaos timelines therefore ride the
    reference arithmetic bit-identically.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._flows: List[Flow] = []
        self._last = env._now
        self._timer = None
        # Counters surfaced through repro.trace.stats.kernel_stats.
        self.flows_opened = 0
        self.flows_active = 0
        self.flows_peak = 0
        self.rate_recomputes = 0
        #: Wire bytes of every completed flow (both engines); the moving
        #: half of :meth:`bytes_moved`.
        self.bytes_completed = 0.0
        #: Fast-forward engine state: resource -> insertion-ordered dict
        #: of active flows (dict-as-ordered-set keeps component walks
        #: deterministic), plus the closed-form completion heap.
        self._res_flows: Dict[FluidResource, Dict[Flow, None]] = {}
        self._ff_heap: list = []  # (t_done, flow.seq, gen, flow)
        self._armed_at = float("inf")
        self._ff = env.fastforward and env.faults is None
        env._flow_network = self  # type: ignore[attr-defined]

    @classmethod
    def of(cls, env: Environment) -> "FlowNetwork":
        """The environment's flow network, created on first use."""
        existing = getattr(env, "_flow_network", None)
        return existing if existing is not None else cls(env)

    # -- public -------------------------------------------------------------
    def open(
        self,
        nbytes: float,
        shares: Sequence[Tuple[FluidResource, float]],
        tag: str = "flow",
        src: Optional[int] = None,
        dst: Optional[int] = None,
        wire_bytes: Optional[float] = None,
    ) -> Flow:
        """Start a flow; ``yield flow.done`` to wait for its completion.

        All active rates are re-fair-shared immediately; the flow
        completes (its ``done`` event fires) once its per-share bytes
        have drained at whatever rates the fair share gave it over time.
        """
        if nbytes <= 0:
            raise ValueError("flow needs positive nbytes")
        if not shares:
            raise ValueError("flow needs at least one resource share")
        flow = Flow(
            self.env, nbytes, shares, tag, src, dst,
            nbytes if wire_bytes is None else wire_bytes,
        )
        if self._ff and self.env.faults is not None:
            # A fault injector appeared after the network was created:
            # leave fast-forward at a rate-change boundary, where both
            # engines agree on every flow's remaining bytes.
            self._leave_fastforward()
        self.flows_opened += 1
        flow.seq = self.flows_opened
        self.flows_active += 1
        if self.flows_active > self.flows_peak:
            self.flows_peak = self.flows_active
        if self._ff:
            self._ff_open(flow)
        else:
            self._advance()
            self._flows.append(flow)
            self._recompute()
            self._reschedule()
        return flow

    def bytes_moved(self) -> Tuple[float, float]:
        """``(wire bytes moved so far, current aggregate drain rate)``.

        The metrics probe behind the ``flow.bytes``
        :class:`~repro.metrics.registry.LinearGauge`: completed flows
        contribute their full ``wire_bytes``; live flows contribute
        their drained fraction of it, extrapolated from the engine's
        last drain point to *now* (rates are exactly constant between
        events, so the extrapolation is closed-form, not an estimate).
        Both engines agree to float-association noise — far inside the
        1e-9 fast-forward equivalence tolerance.  Read-only: draining
        stays lazy.
        """
        now = self.env._now
        moved = self.bytes_completed
        slope = 0.0
        if self._ff:
            live: Dict[Flow, None] = {}
            for members in self._res_flows.values():
                live.update(members)
            flows = sorted(live, key=_flow_seq)
            for f in flows:
                remaining = f.remaining - f.rate * (now - f.t_last)
                if remaining < 0.0:
                    remaining = 0.0
                moved += (f.nbytes - remaining) / f.nbytes * f.wire_bytes
                slope += f.rate / f.nbytes * f.wire_bytes
        else:
            dt = now - self._last
            for f in self._flows:
                remaining = f.remaining - f.rate * dt
                if remaining < 0.0:
                    remaining = 0.0
                moved += (f.nbytes - remaining) / f.nbytes * f.wire_bytes
                slope += f.rate / f.nbytes * f.wire_bytes
        return moved, slope

    # -- internals ----------------------------------------------------------
    def _advance(self) -> None:
        """Drain bytes through every active flow up to the current time."""
        now = self.env._now
        dt = now - self._last
        if dt > 0.0:
            for f in self._flows:
                f.remaining -= f.rate * dt
        self._last = now

    def _recompute(self) -> None:
        """Progressive-filling max-min fair shares with coefficients.

        Raise every unfrozen flow's rate uniformly until some resource
        saturates; freeze the flows crossing it; repeat.  Each round
        freezes at least one flow, so this is ``O(flows × resources)``
        per arrival/departure — independent of chunk count.
        """
        self.rate_recomputes += 1
        flows = self._flows
        if not flows:
            return
        self._fill(flows)

    def _fill(self, flows: Sequence[Flow]) -> None:
        """One progressive-filling pass over *flows*.

        The flow set must be closed over its resources (the whole network
        on the reference path, one connected component under
        fast-forward); given that, the arithmetic — and therefore the
        floats — is identical for both callers.
        """
        cap = {}
        load = {}
        for f in flows:
            f.rate = 0.0
            for res, coeff in f.shares:
                if res not in cap:
                    cap[res] = res.capacity
                    load[res] = 0.0
                load[res] += coeff
        unfrozen = list(flows)
        while unfrozen:
            inc = min(cap[r] / load[r] for r in cap if load[r] > 0.0)
            saturated = set()
            for r in cap:
                if load[r] > 0.0:
                    cap[r] -= inc * load[r]
                    if cap[r] <= _SAT_TOL * r.capacity:
                        saturated.add(r)
            for f in unfrozen:
                f.rate += inc
            if not saturated:  # pragma: no cover - numerical safety net
                break
            frozen = [f for f in unfrozen
                      if any(res in saturated for res, _ in f.shares)]
            for f in frozen:
                for res, coeff in f.shares:
                    if res in load:
                        load[res] -= coeff
            # Drop saturated resources from the pool entirely: every flow
            # touching them is frozen, and a roundoff residual in their
            # load (1e-16 instead of 0) against their residual cap
            # (-1e-7 instead of 0) would otherwise poison the next
            # round's min with a huge negative increment.
            for r in saturated:
                del cap[r]
                del load[r]
            if not frozen:  # pragma: no cover - numerical safety net
                break
            dead = set(frozen)
            unfrozen = [f for f in unfrozen if f not in dead]

    def _reschedule(self) -> None:
        """Re-arm the single completion timer at the earliest finish."""
        timer = self._timer
        if timer is not None:
            timer.cancel()
            self._timer = None
        if not self._flows:
            return
        dt = min(f.remaining / f.rate for f in self._flows)
        if dt < 0.0:
            dt = 0.0
        timer = self.env.timeout(dt)
        timer.callbacks.append(self._on_timer)
        self._timer = timer

    def _on_timer(self, event) -> None:
        if event is not self._timer:  # pragma: no cover - stale-timer guard
            return
        self._timer = None
        self._advance()
        finished = [f for f in self._flows if f.remaining <= _DONE_TOL]
        if finished:
            self._flows = [f for f in self._flows if f.remaining > _DONE_TOL]
            self.flows_active -= len(finished)
            tracer = self.env.tracer
            for f in finished:
                f.remaining = 0.0
                self.bytes_completed += f.wire_bytes
                if tracer is not None:
                    tracer.record(
                        f"xfer-flow:{f.tag}" if f.tag else "xfer-flow",
                        start=f.t_open, kind="xfer",
                        node=f.src, op=f.tag or None, dst=f.dst,
                        bytes=int(f.wire_bytes),
                    )
                f.done.succeed(f)
        self._recompute()
        self._reschedule()

    # -- fast-forward engine -------------------------------------------------
    # Max-min fairness decomposes exactly over connected components of
    # the flow↔resource bipartite graph: a resource's fair share depends
    # only on the flows crossing it, transitively.  Arrivals and
    # departures therefore re-fair-share one component; everything else
    # keeps its rate, its (lazily drained) remaining bytes, and its
    # closed-form completion time on the heap.

    def _ff_open(self, flow: Flow) -> None:
        for res, _ in flow.shares:
            members = self._res_flows.get(res)
            if members is None:
                self._res_flows[res] = members = {}
            members[flow] = None
        comp = self._component(flow)
        self._advance_component(comp)
        self._refresh_component(comp)
        self.env.events_fast_forwarded += 1
        self._arm()

    def _component(self, flow: Flow) -> List[Flow]:
        """The connected component containing *flow*, in ``seq`` order.

        Float sums in :meth:`_fill` depend on iteration order, so the
        component is always presented in deterministic open order —
        repeated runs produce bit-identical timelines.
        """
        seen = {flow}
        stack = [flow]
        while stack:
            f = stack.pop()
            for res, _ in f.shares:
                for g in self._res_flows.get(res, ()):
                    if g not in seen:
                        seen.add(g)
                        stack.append(g)
        return sorted(seen, key=_flow_seq)

    def _advance_component(self, comp: Sequence[Flow]) -> None:
        """Drain component members from their own last-advance times."""
        now = self.env._now
        for f in comp:
            dt = now - f.t_last
            if dt > 0.0:
                f.remaining -= f.rate * dt
            f.t_last = now

    def _refresh_component(self, comp: Sequence[Flow]) -> None:
        """Re-fair-share one component; refresh its completion times."""
        self.rate_recomputes += 1
        self._fill(comp)
        now = self.env._now
        heap = self._ff_heap
        for f in comp:
            f.gen += 1
            heapq.heappush(heap, (now + f.remaining / f.rate, f.seq, f.gen, f))

    def _arm(self) -> None:
        """Point the single completion timer at the earliest live entry."""
        heap = self._ff_heap
        while heap and heap[0][2] != heap[0][3].gen:
            heapq.heappop(heap)
        timer = self._timer
        if not heap:
            if timer is not None:
                timer.cancel()
                self._timer = None
            self._armed_at = float("inf")
            return
        t = heap[0][0]
        if timer is not None:
            if t == self._armed_at:
                return
            timer.cancel()
        dt = t - self.env._now
        if dt < 0.0:
            dt = 0.0
        timer = self.env.timeout(dt)
        timer.callbacks.append(self._on_ff_timer)
        self._timer = timer
        self._armed_at = t

    def _on_ff_timer(self, event) -> None:
        if event is not self._timer:  # pragma: no cover - stale-timer guard
            return
        self._timer = None
        armed, self._armed_at = self._armed_at, float("inf")
        env = self.env
        now = env._now
        heap = self._ff_heap
        slop = _T_SLOP * (1.0 if now < 1.0 else now)
        due: List[Flow] = []
        while heap:
            t, _seq, gen, f = heap[0]
            if gen != f.gen:
                heapq.heappop(heap)
                continue
            # Entries an ulp past the armed instant (timer float roundoff,
            # or a sibling component finishing "just after") complete in
            # this step too — but only when the steady-state detector
            # confirms the control lane is quiet up to their time, so the
            # jump cannot reorder foreign events.
            if t > armed and not (t - now <= slop and env.quiet_before(t)):
                break
            heapq.heappop(heap)
            due.append(f)
        if not due:  # pragma: no cover - everything invalidated since arming
            self._arm()
            return
        finished: List[Flow] = []
        for f in due:
            dt = now - f.t_last
            f.remaining -= f.rate * dt
            f.t_last = now
            if f.remaining > _DONE_TOL:  # pragma: no cover - safety net
                f.gen += 1
                heapq.heappush(
                    heap, (now + f.remaining / f.rate, f.seq, f.gen, f))
                continue
            f.remaining = 0.0
            f.gen = -1  # invalidates every heap entry for this flow
            finished.append(f)
            for res, _ in f.shares:
                members = self._res_flows.get(res)
                if members is not None:
                    members.pop(f, None)
                    if not members:
                        del self._res_flows[res]
        self.flows_active -= len(finished)
        env.events_fast_forwarded += len(finished)
        # Re-fair-share every component that lost a member (insertion
        # order of `touched` is deterministic: finished flows arrive in
        # heap order, resource members in open order).
        touched: Dict[Flow, None] = {}
        for f in finished:
            for res, _ in f.shares:
                for g in self._res_flows.get(res, ()):
                    touched[g] = None
        seen: set = set()
        for g in touched:
            if g in seen:
                continue
            comp = self._component(g)
            seen.update(comp)
            self._advance_component(comp)
            self._refresh_component(comp)
        tracer = env.tracer
        for f in finished:
            self.bytes_completed += f.wire_bytes
            if tracer is not None:
                tracer.record(
                    f"xfer-flow:{f.tag}" if f.tag else "xfer-flow",
                    start=f.t_open, kind="xfer",
                    node=f.src, op=f.tag or None, dst=f.dst,
                    bytes=int(f.wire_bytes),
                )
            f.done.succeed(f)
        self._arm()

    def _leave_fastforward(self) -> None:
        """Migrate live fast-forward state onto the reference engine.

        Only happens at a rate-change boundary (an ``open``), where both
        engines agree on every flow's rate and remaining bytes, so the
        hand-off is exact.
        """
        self._ff = False
        live = sorted(
            {f for members in self._res_flows.values() for f in members},
            key=_flow_seq,
        )
        now = self.env._now
        for f in live:
            dt = now - f.t_last
            if dt > 0.0:
                f.remaining -= f.rate * dt
            f.t_last = now
        self._flows = live
        self._last = now
        self._res_flows.clear()
        self._ff_heap.clear()
        self._armed_at = float("inf")


def _flow_seq(flow: Flow) -> int:
    return flow.seq
