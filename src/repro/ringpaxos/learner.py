"""Per-ring learner: in-order delivery of decided instances.

A learner in Ring Paxos observes values (from the Phase 2 message circulating
along the ring, or carried by a decision) and decisions, and must hand
instances to the application strictly in instance order with no gaps.  The
:class:`RingLearner` below tracks both and emits ``(instance, value)`` pairs
through a callback as soon as they become contiguously deliverable.

In Multi-Ring Paxos the callback feeds the deterministic merger
(:mod:`repro.multiring.merge`) instead of the application directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..paxos.instance import InstanceLedger
from ..paxos.messages import SKIP, ProposalValue
from ..paxos.runs import RunMap

__all__ = ["RingLearner"]

DeliveryCallback = Callable[[int, int, ProposalValue], None]
RunCallback = Callable[[int, int, int, ProposalValue], None]


class RingLearner:
    """Orders decided instances of one ring and emits them contiguously.

    Parameters
    ----------
    ring_id:
        Ring this learner listens to.
    on_ordered:
        Callback ``(ring_id, instance, value)`` invoked in strict instance
        order (skips included — the merger needs them to advance its
        round-robin counters).
    on_ordered_run:
        Callback ``(ring_id, first, last, value)`` for a decided range that
        is emitted as one run (a rate-leveling skip range).  Defaults to
        calling ``on_ordered`` once per instance of the run.
    """

    def __init__(
        self,
        ring_id: int,
        on_ordered: DeliveryCallback,
        on_ordered_run: Optional[RunCallback] = None,
    ) -> None:
        self.ring_id = ring_id
        self._on_ordered = on_ordered
        self._on_ordered_run = on_ordered_run or self._emit_run_per_instance
        self._ledger = InstanceLedger()
        self._pending_values: Dict[int, ProposalValue] = {}
        #: values observed for whole ranges, disjoint from ``_pending_values``
        self._pending_runs = RunMap()
        self._undeliv: set = set()
        self._next_to_emit = 0
        self._emitted = 0
        self._skipped = 0

    # --------------------------------------------------------------- inputs
    def observe_value(self, instance: int, value: ProposalValue) -> None:
        """Remember the value proposed in ``instance`` (from the Phase 2 message)."""
        runs = self._pending_runs
        if instance <= runs.high:
            runs.remove(instance, instance)
        self._pending_values[instance] = value
        self._ledger.observe_instance(instance)

    def observe_value_run(self, first: int, last: int, value: ProposalValue) -> None:
        """Remember the value proposed for a whole range (one skip-range message)."""
        if first == last:
            self.observe_value(first, value)
            return
        pending = self._pending_values
        for instance in [i for i in pending if first <= i <= last]:
            del pending[instance]
        runs = self._pending_runs
        if first <= runs.high:
            runs.remove(first, last)
        runs.add(first, last, value)
        self._ledger.observe_instance(last)

    def observe_decision(self, instance: int, value: Optional[ProposalValue]) -> None:
        """Record that ``instance`` was decided.

        ``value`` may be ``None`` when the decision message did not carry the
        value (the learner then uses the value it observed earlier); a learner
        that knows neither cannot advance and waits for retransmission.
        """
        resolved = value
        if resolved is None:
            resolved = self._pending_values.get(instance)
            if resolved is None and self._pending_runs:
                resolved = self._pending_runs.get(instance)
        if resolved is None:
            # Keep the decision pending until the value shows up.
            self._ledger.observe_instance(instance)
            self._undeliv.add(instance)
            return
        if self._ledger.decide(instance, resolved):
            self._drain()

    def observe_decision_run(self, first: int, last: int, value: Optional[ProposalValue]) -> None:
        """Record that every instance of ``[first, last]`` decided ``value``."""
        if value is None or first == last:
            # Bare decisions resolve instance by instance from observed values.
            for instance in range(first, last + 1):
                self.observe_decision(instance, value)
            return
        if self._ledger.decide_run(first, last, value):
            self._drain()

    def supply_missing_value(self, instance: int, value: ProposalValue) -> None:
        """Provide the value of an instance whose decision arrived first."""
        runs = self._pending_runs
        if instance <= runs.high:
            runs.remove(instance, instance)
        self._pending_values[instance] = value
        if instance in self._undeliv:
            self._undeliv.discard(instance)
            if self._ledger.decide(instance, value):
                self._drain()

    # -------------------------------------------------------------- recovery
    def fast_forward(self, to_instance: int) -> None:
        """Skip delivery of everything up to ``to_instance`` (checkpoint install).

        Used by a recovering replica after installing a checkpoint whose
        identifier covers instances up to ``to_instance`` for this ring.
        """
        if to_instance + 1 > self._next_to_emit:
            self._next_to_emit = to_instance + 1
            self._ledger.observe_instance(to_instance)
        self._ledger.forget_up_to(to_instance)
        stale = [i for i in self._pending_values if i <= to_instance]
        for i in stale:
            del self._pending_values[i]
        self._pending_runs.trim(to_instance)
        self._undeliv = {i for i in self._undeliv if i > to_instance}

    def inject_decided(self, instance: int, value: ProposalValue) -> None:
        """Feed a decision obtained through retransmission (recovery path)."""
        self.observe_value(instance, value)
        self.observe_decision(instance, value)

    # --------------------------------------------------------------- output
    def _drain(self) -> None:
        # Inner loop of every delivery: read the ledger's decisions directly
        # and hoist the loop-invariant lookups.  A decided range is emitted
        # as one run.  State attributes are updated per emission so
        # reentrant callbacks (checkpointing reads ``next_to_emit``) observe
        # consistent intermediate states.
        decided = self._ledger.decided_map
        runs = self._ledger.decided_runs
        pending = self._pending_values
        on_ordered = self._on_ordered
        ring_id = self.ring_id
        while True:
            nxt = self._next_to_emit
            value = decided.get(nxt)
            if value is not None:
                self._emitted += 1
                if value.payload is SKIP:
                    self._skipped += 1
                on_ordered(ring_id, nxt, value)
                pending.pop(nxt, None)
                self._next_to_emit = nxt + 1
                continue
            k = runs.find(nxt) if nxt <= runs.high else -1
            if k < 0:
                return
            last, value = runs.run(k)[1:]
            count = last - nxt + 1
            self._emitted += count
            if value.payload is SKIP:
                self._skipped += count
            self._on_ordered_run(ring_id, nxt, last, value)
            if pending:
                for instance in [i for i in pending if nxt <= i <= last]:
                    del pending[instance]
            if nxt <= self._pending_runs.high:
                self._pending_runs.remove(nxt, last)
            self._next_to_emit = last + 1

    def _emit_run_per_instance(self, ring_id: int, first: int, last: int, value: ProposalValue) -> None:
        on_ordered = self._on_ordered
        for instance in range(first, last + 1):
            on_ordered(ring_id, instance, value)

    # ------------------------------------------------------------ inspection
    @property
    def next_to_emit(self) -> int:
        """The next instance number that will be emitted."""
        return self._next_to_emit

    @property
    def emitted_count(self) -> int:
        """Total instances emitted (including skips)."""
        return self._emitted

    @property
    def skipped_count(self) -> int:
        """How many of the emitted instances were skips."""
        return self._skipped

    @property
    def highest_decided(self) -> int:
        """Highest instance this learner knows to be decided."""
        return max(
            self._ledger.highest_contiguous_decided,
            max(self._undeliv, default=-1),
        )

    def gaps(self) -> List[int]:
        """Instances below the highest decided one still missing a decision."""
        return self._ledger.undecided_below(self._ledger.highest_contiguous_decided + 1)
