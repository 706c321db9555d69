"""Single-instance Paxos state machines.

:class:`AcceptorInstance` is the acceptor-side state of one consensus
instance (promised ballot, accepted ballot, accepted value) with the two
classic transition rules; :class:`InstanceLedger` tracks the proposer /
coordinator view of a window of instances — which are open, which are decided
— and hands out fresh instance numbers.

Keeping these rules in plain, simulation-free classes makes the safety
properties easy to unit- and property-test (see ``tests/paxos``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .messages import ProposalValue
from .runs import RunMap

__all__ = ["AcceptorInstance", "Promise", "Accepted", "InstanceLedger"]


@dataclass(slots=True)
class Promise:
    """Result of processing a Phase 1A message for one instance."""

    granted: bool
    ballot: int
    accepted_ballot: int = -1
    accepted_value: Optional[ProposalValue] = None


@dataclass(slots=True)
class Accepted:
    """Result of processing a Phase 2A message for one instance.

    ``slots=True``: one is allocated per vote on the ring hot path.
    """

    accepted: bool
    ballot: int


class AcceptorInstance:
    """Acceptor-side state for one consensus instance.

    Implements the two Paxos acceptor rules:

    * a Phase 1A with ballot ``b`` is promised iff ``b`` is greater than any
      ballot already promised or voted in;
    * a Phase 2A with ballot ``b`` is accepted iff ``b`` is at least the
      highest promised ballot.
    """

    __slots__ = ("instance", "promised_ballot", "accepted_ballot", "accepted_value")

    def __init__(self, instance: int) -> None:
        self.instance = instance
        self.promised_ballot = -1
        self.accepted_ballot = -1
        self.accepted_value: Optional[ProposalValue] = None

    # ---------------------------------------------------------------- phase 1
    def receive_phase1a(self, ballot: int) -> Promise:
        """Process a prepare request for ``ballot``."""
        if ballot > self.promised_ballot and ballot > self.accepted_ballot:
            self.promised_ballot = ballot
            return Promise(
                granted=True,
                ballot=ballot,
                accepted_ballot=self.accepted_ballot,
                accepted_value=self.accepted_value,
            )
        return Promise(granted=False, ballot=max(self.promised_ballot, self.accepted_ballot))

    # ---------------------------------------------------------------- phase 2
    def receive_phase2a(self, ballot: int, value: ProposalValue) -> Accepted:
        """Process an accept request for ``ballot`` carrying ``value``."""
        if ballot >= self.promised_ballot:
            self.promised_ballot = ballot
            self.accepted_ballot = ballot
            self.accepted_value = value
            return Accepted(accepted=True, ballot=ballot)
        return Accepted(accepted=False, ballot=self.promised_ballot)

    @property
    def has_accepted(self) -> bool:
        """Whether the acceptor voted in this instance."""
        return self.accepted_ballot >= 0


class InstanceLedger:
    """Coordinator/learner bookkeeping over a sequence of consensus instances.

    Tracks the next unused instance number, which instances are decided and
    with what value, and the highest contiguously decided instance (the point
    up to which a learner can deliver in order).  A range decided with one
    value (a skip range) is stored as one run.
    """

    def __init__(self) -> None:
        self._next_instance = 0
        self._decided: Dict[int, ProposalValue] = {}
        #: decided ranges, disjoint from ``_decided``
        self._runs = RunMap()
        #: upper bound of the ``_decided`` keys (a fast-path filter)
        self._decided_high = -1
        self._contiguous = -1

    # ------------------------------------------------------------ allocation
    def allocate(self) -> int:
        """Reserve and return the next instance number."""
        instance = self._next_instance
        self._next_instance += 1
        return instance

    def allocate_range(self, count: int) -> Tuple[int, int]:
        """Reserve ``count`` consecutive instances; returns ``(first, last)``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        first = self._next_instance
        self._next_instance += count
        return first, first + count - 1

    def allocate_many(self, count: int) -> List[int]:
        """Reserve ``count`` consecutive instance numbers."""
        first, last = self.allocate_range(count)
        return list(range(first, last + 1))

    @property
    def next_instance(self) -> int:
        """The next instance number that would be allocated."""
        return self._next_instance

    def observe_instance(self, instance: int) -> None:
        """Make sure future allocations are beyond ``instance``.

        Used by acceptors/learners that see instances created by the
        coordinator, and by a new coordinator taking over.
        """
        if instance >= self._next_instance:
            self._next_instance = instance + 1

    # -------------------------------------------------------------- decisions
    def decide(self, instance: int, value: ProposalValue) -> bool:
        """Record a decision; returns ``False`` if it was already known."""
        decided = self._decided
        if instance in decided:
            return False
        runs = self._runs
        if instance <= runs.high and runs.find(instance) >= 0:
            return False
        decided[instance] = value
        if instance > self._decided_high:
            self._decided_high = instance
        # Inlined observe_instance(): decide runs once per learned instance.
        if instance >= self._next_instance:
            self._next_instance = instance + 1
        contiguous = self._contiguous
        while (contiguous + 1) in decided:
            contiguous += 1
        self._contiguous = contiguous
        if contiguous < runs.high:
            self._advance_contiguous()
        return True

    def decide_run(self, first: int, last: int, value: ProposalValue) -> bool:
        """Record one decided value for ``[first, last]`` (a skip range).

        Instances already decided keep their earlier decision, as with
        :meth:`decide`; returns ``False`` if every instance was known.
        """
        if first == last or first <= self._decided_high or first <= self._runs.high:
            # Overlaps earlier decisions (rare): decide instance by instance.
            decided = [self.decide(instance, value) for instance in range(first, last + 1)]
            return any(decided)
        self._runs.add(first, last, value)
        self.observe_instance(last)
        self._advance_contiguous()
        return True

    def _advance_contiguous(self) -> None:
        decided = self._decided
        runs = self._runs
        nxt = self._contiguous + 1
        while True:
            if nxt in decided:
                nxt += 1
                continue
            k = runs.find(nxt) if nxt <= runs.high else -1
            if k < 0:
                break
            nxt = runs.run(k)[1] + 1
        self._contiguous = nxt - 1

    def is_decided(self, instance: int) -> bool:
        """Whether a decision is known for ``instance``."""
        return self.decision(instance) is not None

    @property
    def decided_map(self) -> Dict[int, ProposalValue]:
        """Read-only view of the single-instance decisions for hot loops.

        Callers must not mutate it; :class:`~repro.ringpaxos.learner.RingLearner`
        drains contiguous decisions from it and :attr:`decided_runs` without
        a method call per probe.
        """
        return self._decided

    @property
    def decided_runs(self) -> RunMap:
        """Read-only view of the decided ranges (disjoint from :attr:`decided_map`)."""
        return self._runs

    def decision(self, instance: int) -> Optional[ProposalValue]:
        """The decided value of ``instance`` (``None`` when unknown)."""
        value = self._decided.get(instance)
        if value is None and self._runs:
            value = self._runs.get(instance)
        return value

    @property
    def highest_contiguous_decided(self) -> int:
        """Highest instance such that all instances up to it are decided."""
        return self._contiguous

    @property
    def decided_count(self) -> int:
        """Number of decided instances currently retained."""
        return len(self._decided) + self._runs.instance_count

    def undecided_below(self, instance: int) -> List[int]:
        """Instance numbers smaller than ``instance`` that lack a decision."""
        return [i for i in range(0, instance) if not self.is_decided(i)]

    def decisions_in_order(self) -> Iterator[Tuple[int, ProposalValue]]:
        """Iterate decided ``(instance, value)`` pairs in instance order."""
        pieces = [(i, i, v) for i, v in self._decided.items()] + list(self._runs)
        pieces.sort(key=lambda piece: piece[0])
        for first, last, value in pieces:
            for instance in range(first, last + 1):
                yield instance, value

    def forget_up_to(self, instance: int) -> int:
        """Drop retained decisions up to ``instance`` (learner-side trimming)."""
        to_drop = [i for i in self._decided if i <= instance]
        for i in to_drop:
            del self._decided[i]
        return len(to_drop) + self._runs.trim(instance)
