"""The shared leaf walk against a recursive reference, for arbitrary pack shapes.

``iter_values`` and ``iter_payloads`` walk a flat pack in one loop and recurse
only into an inner pack.  Hypothesis builds plain values, flat packs, packs
of packs and skips nested at any depth; every walker (and the command and
proposal-id views built on them) must return what the straightforward
recursive definition below returns, and the merger must deliver and skip
exactly the leaves that definition names.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.client import Command, CommandBatch
from repro.core.packing import (
    PackedValues,
    iter_commands,
    iter_payloads,
    iter_values,
    packed_proposal_ids,
)
from repro.multiring.merge import DeterministicMerger
from repro.paxos.messages import SKIP, ProposalValue
from repro.ringpaxos import coordinator


def reference_values(value):
    if isinstance(value.payload, PackedValues):
        return [leaf for inner in value.payload.values for leaf in reference_values(inner)]
    return [value]


def reference_payloads(payload):
    if payload is SKIP:
        return []
    if isinstance(payload, PackedValues):
        return [leaf for inner in payload.values for leaf in reference_payloads(inner.payload)]
    return [payload]


def reference_commands(payload):
    commands = []
    for leaf in reference_payloads(payload):
        if isinstance(leaf, CommandBatch):
            commands.extend(leaf.commands)
        elif isinstance(leaf, Command):
            commands.append(leaf)
    return commands


_ids = iter(range(1, 1 << 30))


def _leaf(payload):
    proposal_id = next(_ids)
    return ProposalValue(
        payload=payload, size_bytes=8, proposer=f"p{proposal_id % 4}", proposal_id=proposal_id
    )


def _pack(values):
    return ProposalValue(
        payload=PackedValues(values=values), size_bytes=sum(v.size_bytes for v in values)
    )


_commands = st.builds(
    Command, op=st.sampled_from(["get", "put"]), args=st.tuples(st.text(max_size=3))
)

leaf_values = st.one_of(
    st.text(max_size=4),
    st.just(SKIP),
    _commands,
    st.lists(_commands, min_size=1, max_size=3).map(
        lambda commands: CommandBatch(group_id=0, commands=commands)
    ),
).map(_leaf)

#: Plain values, flat packs and packs of packs, skips at any depth.
decided_values = st.recursive(
    leaf_values, lambda children: st.lists(children, max_size=6).map(_pack), max_leaves=30
)


def test_one_implementation_of_the_walk():
    assert iter_values is coordinator.iter_values
    assert iter_payloads is coordinator.iter_payloads


@settings(max_examples=300, deadline=None)
@given(value=decided_values)
def test_walkers_match_recursive_reference(value):
    leaves = iter_values(value)
    expected = reference_values(value)
    assert len(leaves) == len(expected)
    assert all(a is b for a, b in zip(leaves, expected))
    assert iter_payloads(value.payload) == reference_payloads(value.payload)
    assert iter_commands(value.payload) == reference_commands(value.payload)
    assert packed_proposal_ids(value) == [(v.proposer, v.proposal_id) for v in expected]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(decided_values, max_size=8), m=st.integers(min_value=1, max_value=3))
def test_merger_delivers_exactly_the_non_skip_leaves(values, m):
    delivered = []
    merger = DeterministicMerger(
        [0, 1], messages_per_round=m,
        on_deliver=lambda group, instance, value: delivered.append((group, instance, value)),
    )
    # Ring 1 only ever skips, so ring 0's instances flow through the round-robin;
    # padding ring 0 to whole turns lets the merge consume every instance.
    values = values + [_leaf(SKIP)] * (-len(values) % m)
    for instance, value in enumerate(values):
        merger.offer(0, instance, value)
        merger.offer(1, instance, _leaf(SKIP))
    leaves = [(instance, leaf) for instance, value in enumerate(values)
              for leaf in reference_values(value)]
    expected = [(0, instance, leaf) for instance, leaf in leaves if leaf.payload is not SKIP]
    skipped = len(leaves) - len(expected) + len(values)
    assert [(g, i) for g, i, _ in delivered] == [(g, i) for g, i, _ in expected]
    assert all(a[2] is b[2] for a, b in zip(delivered, expected))
    assert merger.delivered_count == len(expected)
    assert merger.skipped_count == skipped
