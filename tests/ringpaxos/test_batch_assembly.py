"""Differential test: coordinator batch assembly against the drain-and-requeue oracle.

``CoordinatorState.next_assignments`` decides the size-or-timeout hold from
a running pending-byte count and never takes a held value out of the queue.
The oracle below is the earlier implementation, kept verbatim: on every call
it popped the whole pending queue into groups and pushed a trailing partial
group back.  Both are driven through the same hypothesis sequences of
enqueues (oversize values included), flushes with and without ``force`` and
the Phase 1 promise arriving late, with batching enabled and disabled.
After every step the emitted instances and the queue state must be equal.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.paxos.messages import ProposalValue
from repro.ringpaxos.coordinator import CoordinatorState, InstanceBatchPolicy, PackedValues

MAX_BYTES = 256


class DrainRequeueCoordinator(CoordinatorState):
    """``CoordinatorState`` with the drain-and-requeue assembly loop."""

    def next_assignments(self, force: bool = True) -> List[Tuple[int, ProposalValue]]:
        if not self.phase1_ready:
            return []
        assignments: List[Tuple[int, ProposalValue]] = []
        if not self.batch_policy.enabled:
            while self._pending:
                value = self._pending.popleft()
                assignments.append((self.ledger.allocate(), value))
        else:
            max_bytes = self.batch_policy.max_bytes
            while self._pending:
                group: List[ProposalValue] = []
                size = 0
                while self._pending and (
                    size + self._pending[0].size_bytes <= max_bytes or not group
                ):
                    value = self._pending.popleft()
                    group.append(value)
                    size += value.size_bytes
                if not force and not self._pending and size < max_bytes:
                    # Partial trailing batch: hold it for the delay trigger.
                    self._pending.extendleft(reversed(group))
                    break
                if len(group) == 1:
                    packed = group[0]
                else:
                    packed = ProposalValue(
                        payload=PackedValues(values=list(group)),
                        size_bytes=size,
                        proposer=group[0].proposer,
                        proposal_id=group[0].proposal_id,
                        created_at=min(v.created_at for v in group),
                    )
                assignments.append((self.ledger.allocate(), packed))
        self._proposed_in_interval += len(assignments)
        self._total_proposed += len(assignments)
        return assignments


def _shape(assignments: List[Tuple[int, ProposalValue]]):
    """Everything an emitted instance carries that a receiver can observe."""
    shaped = []
    for instance, value in assignments:
        payload = value.payload
        ids = payload.proposal_ids if isinstance(payload, PackedValues) else None
        shaped.append(
            (instance, value.size_bytes, value.created_at,
             value.proposer, value.proposal_id, ids)
        )
    return shaped


steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("enqueue"),
            # Sizes that land exactly on ``max_bytes`` decide the hold boundary.
            st.one_of(
                st.sampled_from([1, MAX_BYTES // 4, MAX_BYTES // 2, MAX_BYTES - 1,
                                 MAX_BYTES, MAX_BYTES + 1, 2 * MAX_BYTES]),
                st.integers(min_value=1, max_value=2 * MAX_BYTES),
            ),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        ),
        st.tuples(st.just("flush"), st.booleans()),
        st.tuples(st.just("promise")),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(enabled=st.booleans(), steps=steps)
def test_assembly_matches_drain_and_requeue(enabled, steps):
    def make(cls):
        policy = InstanceBatchPolicy(enabled=enabled, max_bytes=MAX_BYTES, max_delay=0.001)
        return cls(ring_id=0, batch_policy=policy)

    state, oracle = make(CoordinatorState), make(DrainRequeueCoordinator)
    proposal_id = 0
    for step in steps:
        if step[0] == "enqueue":
            _, size, created_at = step
            proposal_id += 1
            value = ProposalValue(
                payload=f"v{proposal_id}", size_bytes=size,
                proposer=f"p{proposal_id % 3}", proposal_id=proposal_id,
                created_at=created_at,
            )
            state.enqueue(value)
            oracle.enqueue(value)
        elif step[0] == "flush":
            force = step[1]
            assert _shape(state.next_assignments(force=force)) == _shape(
                oracle.next_assignments(force=force)
            )
        else:
            state.record_promise("a0", quorum=1)
            oracle.record_promise("a0", quorum=1)
        assert state.pending_count == oracle.pending_count
        assert state.total_proposed == oracle.total_proposed
        assert state._pending_bytes == sum(v.size_bytes for v in state._pending)
    assert list(state._pending) == list(oracle._pending)


class CountingDeque(deque):
    """A deque that counts the values taken from its head."""

    pops = 0

    def popleft(self):
        self.pops += 1
        return super().popleft()


def test_unforced_flush_leaves_a_held_batch_in_place():
    """Enqueue-then-flush below ``max_bytes`` never takes a value out of the queue."""
    policy = InstanceBatchPolicy(enabled=True, max_bytes=MAX_BYTES, max_delay=0.001)
    state = CoordinatorState(ring_id=0, batch_policy=policy)
    state.record_promise("a0", quorum=1)
    state._pending = pending = CountingDeque()
    values = [ProposalValue(payload=i, size_bytes=1, proposal_id=i) for i in range(MAX_BYTES)]
    for value in values[:-1]:
        state.enqueue(value)
        assert state.next_assignments(force=False) == []
    assert pending.pops == 0
    assert list(pending) == values[:-1]
    # The value that fills ``max_bytes`` releases the batch; each value moves once.
    state.enqueue(values[-1])
    [(_, packed)] = state.next_assignments(force=False)
    assert packed.payload.values == values
    assert pending.pops == MAX_BYTES
    assert state._pending_bytes == 0
