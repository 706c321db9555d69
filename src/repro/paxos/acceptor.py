"""Acceptor-side state: instances, durable log and retransmission service.

An acceptor in Ring Paxos must log its Phase 1B / Phase 2B responses to stable
storage before replying (Section 5.1) so that it can serve retransmission
requests from recovering replicas.  :class:`AcceptorState` bundles:

* the per-instance Paxos state (:class:`~repro.paxos.instance.AcceptorInstance`),
* the write-ahead log charging the configured storage mode,
* the bounded in-memory slot buffer of decided values used to serve
  retransmissions quickly,
* trimming, driven by the coordinator's :class:`~repro.paxos.messages.TrimCommand`.

Skip ranges (rate leveling) are voted on and decided as one run each, not
one state object per instance.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.actor import Environment
from ..sim.disk import Disk, StorageMode
from ..storage.slots import SlotBuffer, SlotFullError
from ..storage.wal import WriteAheadLog
from .instance import Accepted, AcceptorInstance, Promise
from .messages import SKIP, ProposalValue
from .runs import RunMap

__all__ = ["AcceptorState"]


def _instance_key(entry: Tuple[int, Any]) -> int:
    return entry[0]


class AcceptorState:
    """All consensus state owned by one acceptor for one ring.

    A range vote (a rate-leveling skip range) and its decision are stored as
    one run each (see :mod:`repro.paxos.runs`): every instance of the run
    shares one ``(promised, accepted ballot, accepted value)`` state.  A
    single-instance vote landing inside a run — takeover or hole repair —
    carves that instance out into its own :class:`AcceptorInstance`.  Every
    query answers per instance exactly as if each instance of a run had its
    own state.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        ring_id: int,
        storage_mode: StorageMode = StorageMode.IN_MEMORY,
        slot_count: int = SlotBuffer.DEFAULT_SLOTS,
        disk: Optional[Disk] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.ring_id = ring_id
        self.storage_mode = storage_mode
        self.log = WriteAheadLog(
            env, mode=storage_mode, name=f"{name}.r{ring_id}.wal", disk=disk
        )
        self.slots = SlotBuffer(slot_count=slot_count)
        self._instances: Dict[int, AcceptorInstance] = {}
        #: range votes: ``(promised, accepted_ballot, accepted_value)`` per
        #: run, disjoint from ``_instances``
        self._vote_runs = RunMap()
        #: upper bound of the ``_instances`` keys (a fast-path filter)
        self._instances_high = -1
        self._decided: Dict[int, ProposalValue] = {}
        #: decided ranges, disjoint from ``_decided``
        self._decided_runs = RunMap()
        #: upper bound of the ``_decided`` keys (a fast-path filter)
        self._decided_high = -1
        self._trimmed_up_to = -1
        #: ballot promised for every instance not yet individually touched —
        #: this is how Phase 1 pre-execution over a huge window (2^20
        #: instances, Section 4) is represented without materialising
        #: per-instance state.
        self._range_promised = -1

    # -------------------------------------------------------------- instances
    def _instance(self, instance: int) -> AcceptorInstance:
        """Per-instance state, carved out of a range vote covering it."""
        inst = self._instances.get(instance)
        if inst is not None:
            return inst
        inst = AcceptorInstance(instance)
        pieces = self._vote_runs.remove(instance, instance)
        if pieces:
            inst.promised_ballot, inst.accepted_ballot, inst.accepted_value = pieces[0][2]
        else:
            inst.promised_ballot = self._range_promised
        self._instances[instance] = inst
        if instance > self._instances_high:
            self._instances_high = instance
        return inst

    def promised_ballot(self, instance: int) -> int:
        """Highest ballot promised for ``instance`` (-1 when untouched)."""
        inst = self._instances.get(instance)
        if inst is not None:
            return inst.promised_ballot
        state = self._vote_runs.get(instance)
        return state[0] if state is not None else self._range_promised

    # ---------------------------------------------------------------- phase 1
    def receive_phase1a(self, from_instance: int, to_instance: int, ballot: int) -> bool:
        """Pre-execute Phase 1 for a window of instances.

        The promise covers the whole window at once (the coordinator
        pre-executes Phase 1 for 2^20 instances, so per-instance bookkeeping
        would be prohibitive); instances that already hold individual state
        are promoted individually, and runs are split at the window's edges.
        Returns whether the promise was granted.
        """
        if ballot <= self._range_promised:
            return False
        self._range_promised = ballot
        for instance, state in self._instances.items():
            if from_instance <= instance <= to_instance:
                state.receive_phase1a(ballot)

        def promote(state: Tuple[int, int, Any]) -> Tuple[int, int, Any]:
            promised, accepted, value = state
            if ballot > promised and ballot > accepted:
                return (ballot, accepted, value)
            return state

        self._vote_runs.map_between(from_instance, to_instance, promote)
        return True

    # ---------------------------------------------------------------- phase 2
    def receive_phase2(
        self,
        instance: int,
        ballot: int,
        value: ProposalValue,
        on_durable: Optional[Callable[..., None]] = None,
        on_durable_args: tuple = (),
    ) -> Accepted:
        """Vote on ``value`` for ``instance`` and log the vote.

        The durable-write callback ``on_durable(*on_durable_args)`` fires when
        the vote is on stable storage; with synchronous storage the caller
        must defer forwarding its Phase 2B until then (this is what puts the
        device on the critical path).  Passing the arguments separately lets
        the per-hop ring path reuse one bound method instead of closing over
        the message.
        """
        if instance <= self._trimmed_up_to:
            # The instance was already trimmed; it is necessarily decided, so
            # refuse the vote — recovering replicas must use checkpoints.
            return Accepted(accepted=False, ballot=ballot)
        inst = self._instances.get(instance)
        if inst is None:
            if instance <= self._vote_runs.high:
                inst = self._instance(instance)
            else:
                # Inlined _instance(): on the hot path nearly every vote
                # touches a fresh instance past every range vote.
                inst = AcceptorInstance(instance)
                inst.promised_ballot = self._range_promised
                self._instances[instance] = inst
                if instance > self._instances_high:
                    self._instances_high = instance
        result = inst.receive_phase2a(ballot, value)
        if result.accepted and value.payload is not SKIP:
            self.log.append(
                instance,
                ballot,
                value,
                value.size_bytes,
                on_durable,
                on_durable_args,
            )
        elif on_durable is not None:
            # Skip votes carry no application data, so they never sit on the
            # synchronous-durability critical path.
            self.env.simulator._post(0.0, on_durable, on_durable_args)
        return result

    def receive_phase2_range(
        self,
        from_instance: int,
        to_instance: int,
        ballot: int,
        value: ProposalValue,
        on_durable: Optional[Callable[..., None]] = None,
        on_durable_args: tuple = (),
    ) -> bool:
        """Vote on a contiguous range of instances sharing one value.

        Used for skip ranges (rate leveling): the coordinator proposes one
        message that skips many instances, and the acceptor logs a single
        small record for the whole range.  A range over instances nobody
        voted on yet is stored as one run; one that overlaps earlier votes
        is voted instance by instance.  Returns ``True`` when every instance
        in the range was accepted.
        """
        all_accepted = True
        first = from_instance
        if first <= self._trimmed_up_to:
            all_accepted = False
            first = self._trimmed_up_to + 1
        if first <= to_instance:
            if first > self._instances_high and not self._vote_runs.overlaps(first, to_instance):
                if ballot >= self._range_promised:
                    state = (ballot, ballot, value)
                else:
                    state = (self._range_promised, -1, None)
                    all_accepted = False
                self._vote_runs.add(first, to_instance, state)
            else:
                for instance in range(first, to_instance + 1):
                    result = self._instance(instance).receive_phase2a(ballot, value)
                    all_accepted = all_accepted and result.accepted
        if all_accepted and not value.is_skip():
            self.log.append(
                instance=to_instance,
                ballot=ballot,
                value=value,
                size_bytes=value.size_bytes,
                on_durable=on_durable,
                on_durable_args=on_durable_args,
            )
        elif on_durable is not None:
            # Skip ranges (rate leveling) never wait for the device: they
            # carry no application payload that could be lost.
            self.env.simulator._post(0.0, on_durable, on_durable_args)
        return all_accepted

    def accepted_value(self, instance: int) -> Optional[ProposalValue]:
        """Value this acceptor voted for in ``instance`` (``None`` if none)."""
        inst = self._instances.get(instance)
        if inst is not None:
            return inst.accepted_value
        state = self._vote_runs.get(instance)
        return state[2] if state is not None else None

    def accepted_in_range(self, from_instance: int, to_instance: int) -> List[Tuple[int, int, ProposalValue]]:
        """``(instance, ballot, value)`` triples this acceptor voted for in the range.

        Reported back in Phase 1B so that a new coordinator learns which
        instances were already used and does not reuse their numbers.
        """
        accepted = [
            (i, inst.accepted_ballot, inst.accepted_value)
            for i, inst in self._instances.items()
            if from_instance <= i <= to_instance and inst.has_accepted
        ]
        for first, last, (_, ballot, value) in self._vote_runs.between(from_instance, to_instance):
            if ballot >= 0:
                accepted.extend((i, ballot, value) for i in range(first, last + 1))
        accepted.sort(key=_instance_key)
        return accepted

    # --------------------------------------------------------------- decisions
    def record_decision(self, instance: int, value: ProposalValue) -> None:
        """Remember a decided value so it can be retransmitted later."""
        if instance <= self._trimmed_up_to:
            return
        if instance <= self._decided_runs.high:
            self._decided_runs.remove(instance, instance)
        self._decided[instance] = value
        if instance > self._decided_high:
            self._decided_high = instance
        if value.payload is not SKIP:
            try:
                self.slots.put(instance, value, value.size_bytes)
            except SlotFullError:
                # The buffer is full: the value stays only in the WAL (or is
                # lost for in-memory mode).  Retransmission falls back to the
                # log, mirroring the real system's back-pressure behaviour.
                pass

    def record_decision_range(self, from_instance: int, to_instance: int, value: ProposalValue) -> None:
        """Remember one decided value for a contiguous range (a skip range).

        Stored as one run; application values keep one retransmission slot
        per instance, so they are recorded instance by instance.  A later
        decision overrides an earlier one, as with :meth:`record_decision`.
        """
        first = max(from_instance, self._trimmed_up_to + 1)
        if (
            value.payload is not SKIP
            or first >= to_instance
            or first <= self._decided_high
            or first <= self._decided_runs.high
        ):
            # Application values, and ranges over earlier decisions (rare).
            for instance in range(first, to_instance + 1):
                self.record_decision(instance, value)
            return
        self._decided_runs.add(first, to_instance, value)

    def is_decided(self, instance: int) -> bool:
        """Whether this acceptor knows the decision of ``instance``."""
        if instance in self._decided:
            return True
        return bool(self._decided_runs) and self._decided_runs.find(instance) >= 0

    def first_undecided(self, instance: int) -> int:
        """Lowest instance at or after ``instance`` with no known decision."""
        decided = self._decided
        runs = self._decided_runs
        while True:
            if instance in decided:
                instance += 1
                continue
            k = runs.find(instance) if instance <= runs.high else -1
            if k < 0:
                return instance
            instance = runs.run(k)[1] + 1

    def _decided_pairs(self, from_instance: int, to_instance: int) -> List[Tuple[int, ProposalValue]]:
        pairs = [(i, v) for i, v in self._decided.items() if from_instance <= i <= to_instance]
        for first, last, value in self._decided_runs.between(from_instance, to_instance):
            pairs.extend((i, value) for i in range(first, last + 1))
        pairs.sort(key=_instance_key)
        return pairs

    def decided_between(self, from_instance: int, to_instance: int) -> List[Tuple[int, ProposalValue]]:
        """Decided ``(instance, value)`` pairs in the closed range requested.

        Used to serve :class:`~repro.paxos.messages.RetransmitRequest`s from
        recovering replicas; instances already trimmed are not returned.
        """
        return self._decided_pairs(max(from_instance, self._trimmed_up_to + 1), to_instance)

    def decided_from(self, from_instance: int) -> List[Tuple[int, ProposalValue]]:
        """Every decided ``(instance, value)`` at or after ``from_instance``.

        Unlike :meth:`decided_between` this does not need an upper bound, so a
        recovering replica that does not know the current highest instance can
        simply ask for "everything newer than my checkpoint".
        """
        return self._decided_pairs(from_instance, self.highest_decided)

    @property
    def highest_decided(self) -> int:
        """Highest instance this acceptor saw a decision for (-1 when none)."""
        return max(max(self._decided, default=-1), self._decided_runs.high)

    # ------------------------------------------------------------------- trim
    def trim(self, up_to_instance: int) -> int:
        """Discard state for all instances up to ``up_to_instance``."""
        if up_to_instance <= self._trimmed_up_to:
            return 0
        removed = 0
        removed += self.log.trim(up_to_instance)
        self.slots.trim(up_to_instance)
        for container in (self._decided, self._instances):
            stale = [i for i in container if i <= up_to_instance]
            for i in stale:
                del container[i]
            removed += len(stale)
        removed += self._decided_runs.trim(up_to_instance)
        removed += self._vote_runs.trim(up_to_instance)
        self._trimmed_up_to = up_to_instance
        return removed

    @property
    def trimmed_up_to(self) -> int:
        """Highest instance removed by trimming (-1 when never trimmed)."""
        return self._trimmed_up_to

    # ------------------------------------------------------------------ crash
    def crash(self) -> None:
        """Lose volatile state; the WAL keeps whatever its mode guarantees."""
        self.log.crash()
        self.slots.clear()
        self._instances.clear()
        self._vote_runs.clear()
        self._instances_high = -1
        self._decided.clear()
        self._decided_runs.clear()
        self._decided_high = -1

    def recover_from_log(self) -> int:
        """Rebuild accepted-value state from the durable log after a crash.

        Returns the number of instances restored.  Only votes, not decisions,
        are recoverable this way — decisions are re-learned from the ring or
        not needed because the instance was trimmed.
        """
        restored = 0
        for instance in self.log.instances():
            record = self.log.get(instance)
            if record is None:
                continue
            inst = self._instance(instance)
            inst.promised_ballot = record.ballot
            inst.accepted_ballot = record.ballot
            inst.accepted_value = record.value
            restored += 1
        return restored
