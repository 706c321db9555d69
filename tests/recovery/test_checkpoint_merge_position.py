"""Checkpoints of a multi-ring replica record the merge's own position.

A replica subscribed to several rings checkpoints at round boundaries of
the deterministic merge (Section 5.2).  The recorded positions must be those
the merger has consumed — skips included — at a boundary the merger has
actually reached, so that a merger fast-forwarded to them resumes exactly
where the checkpointed one stood.  These tests drive a real dLog replica's
merger by hand (two log rings, ``M = 1``) and take checkpoints through the
replica's own wiring.
"""

import pytest

from repro.core import AtomicMulticast, MultiRingConfig, PackedValues
from repro.core.client import Command
from repro.dlog import DLogService
from repro.multiring import DeterministicMerger
from repro.paxos.messages import SKIP, ProposalValue


def started_replica():
    config = MultiRingConfig(
        messages_per_round=1,
        rate_interval=None,
        checkpoint_interval=None,
        trim_interval=None,
    )
    system = AtomicMulticast(seed=3, config=config)
    service = DLogService(system, log_ids=[0, 1], replica_count=1)
    system.start()
    replica = service.replicas[0]
    assert replica.merger.groups == [0, 1]
    return replica


def append(group):
    return ProposalValue(Command(op="append", args=(100,), group_id=group), 100)


def skip():
    return ProposalValue(SKIP, 0)


def log_lengths(state):
    return {group: log["next_position"] for group, log in state.items()}


@pytest.mark.parametrize("packed", [False, True], ids=["plain", "packed"])
def test_deferred_checkpoint_is_taken_once_the_merger_finishes_the_round(packed):
    replica = started_replica()
    merger, checkpointer = replica.merger, replica.checkpointer
    merger.offer(0, 0, append(0))
    # Mid-round (ring 1 still owes instance 0): the request is deferred.
    assert not checkpointer.request_checkpoint()
    merger.offer(1, 0, append(1))
    # The next round opens with one instance of ring 0 — a packed one
    # delivers two appends under that instance.
    third = ProposalValue(PackedValues([append(0), append(0)]), 200) if packed else append(0)
    merger.offer(0, 1, third)

    assert checkpointer.checkpoints_taken == 1
    latest = checkpointer.latest()
    assert latest.checkpoint_id.as_dict() == {0: 0, 1: 0}
    assert log_lengths(latest.state) == {0: 1, 1: 1}
    # The live replica moved on; the checkpoint did not.
    assert replica.log_for(0).next_position == (3 if packed else 2)


def test_deferred_checkpoint_is_taken_when_only_skips_finish_the_round():
    """After the last client command only skips flow: the deferred checkpoint
    must not wait for a delivery that never comes."""
    replica = started_replica()
    merger, checkpointer = replica.merger, replica.checkpointer
    merger.offer(0, 0, append(0))
    assert not checkpointer.request_checkpoint()
    merger.offer(1, 0, skip())
    assert checkpointer.checkpoints_taken == 1
    assert checkpointer.latest().checkpoint_id.as_dict() == {0: 0, 1: 0}


def test_checkpoint_positions_count_skips_and_resume_the_merge():
    streams = {
        0: [append(0), append(0), append(0), append(0)],
        1: [append(1), skip(), append(1)],
    }
    replica = started_replica()
    merger, checkpointer = replica.merger, replica.checkpointer
    for instance in range(2):
        for group in (0, 1):
            merger.offer(group, instance, streams[group][instance])
    assert merger.is_round_boundary()
    assert checkpointer.request_checkpoint()
    positions = checkpointer.latest().checkpoint_id.as_dict()
    assert positions == {0: 1, 1: 1}

    # Everything the uninterrupted merge delivers after the checkpoint ...
    order = []
    reference = DeterministicMerger(
        [0, 1], messages_per_round=1, on_deliver=lambda g, i, v: order.append((g, i))
    )
    for group, stream in streams.items():
        for instance, value in enumerate(stream):
            reference.offer(group, instance, value)
    expected = order[merger.delivered_count:]

    # ... is what a merger restored from the checkpoint delivers.
    restored_order = []
    restored = DeterministicMerger(
        [0, 1], messages_per_round=1, on_deliver=lambda g, i, v: restored_order.append((g, i))
    )
    restored.fast_forward(positions)
    assert restored.positions() == positions
    for group in (0, 1):
        for instance in range(positions[group] + 1, len(streams[group])):
            restored.offer(group, instance, streams[group][instance])
    assert restored_order == expected == [(0, 2), (1, 2), (0, 3)]
