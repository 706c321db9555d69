"""Tests of the compact cross-shard wire codec (`repro.sim.network`).

The codec's contract: ``decode_wire(encode_wire(x)) == x`` for every payload
the barrier plane ships — registered protocol dataclasses in positional tuple
form, the ``RingSegment`` columnar run form, and arbitrary unregistered
objects via pickle's default path — while never aliasing distinct mutable
instances on the receiving side and always preserving the ``SKIP`` sentinel's
identity.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import Command
from repro.multiring.merge import RingSegment
from repro.net.message import Batch, ClientRequest, Message
from repro.paxos.messages import SKIP, Decision, ProposalValue
from repro.ringpaxos.coordinator import PackedValues
from repro.sim.network import decode_wire, encode_wire, wire_fields


# ---------------------------------------------------------------------------
# Hypothesis strategies building the nested payload shapes barrier traffic
# actually carries: Command leaves wrapped in ProposalValue / PackedValues,
# rides inside RingSegments and RemoteMessage tuples.
# ---------------------------------------------------------------------------

_names = st.text(alphabet="abcdefgh0123", max_size=8)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
_ints = st.integers(min_value=0, max_value=2**31)


def _commands():
    return st.builds(
        Command,
        op=st.sampled_from(["append", "update", "scan", "read"]),
        args=st.tuples(_ints),
        group_id=st.integers(min_value=0, max_value=7),
        size_bytes=_ints,
        client=_names,
        command_id=_ints,
        created_at=_floats,
        response_size=_ints,
    )


def _skip_values():
    return st.builds(
        ProposalValue,
        payload=st.just(SKIP),
        size_bytes=st.just(0),
        proposer=st.just(""),
        proposal_id=st.just(0),
        created_at=st.just(0.0),
    )


def _value_payloads():
    packed = st.builds(
        PackedValues,
        values=st.lists(
            st.builds(
                ProposalValue,
                payload=_commands(),
                size_bytes=_ints,
                proposer=_names,
                proposal_id=_ints,
                created_at=_floats,
            ),
            max_size=3,
        ),
    )
    return st.one_of(st.just(SKIP), _commands(), packed)


def _proposal_values():
    return st.builds(
        ProposalValue,
        payload=_value_payloads(),
        size_bytes=_ints,
        proposer=_names,
        proposal_id=_ints,
        created_at=_floats,
    )


def _segments():
    # Mix consecutive and arbitrary instance numbering, skip bursts included.
    entries = st.lists(st.tuples(_ints, st.one_of(_proposal_values(), _skip_values())))
    return st.builds(
        RingSegment,
        incarnation=st.integers(min_value=0, max_value=3),
        start=_ints,
        entries=entries,
    )


def _remote_messages():
    message = st.one_of(
        _proposal_values(),
        st.builds(Batch, messages=st.lists(st.builds(ClientRequest), max_size=3)),
        st.builds(Decision, ring_id=_ints, instance=_ints, value=_proposal_values()),
    )
    return st.tuples(_floats, _names, _names, message)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        _segments(),
        st.lists(_remote_messages(), max_size=4),
        st.dictionaries(st.integers(0, 7), st.lists(_remote_messages(), max_size=3), max_size=3),
    )
)
def test_roundtrip_equals_original(payload):
    assert decode_wire(encode_wire(payload)) == payload


@settings(max_examples=60, deadline=None)
@given(_segments())
def test_segment_wire_form_roundtrip(segment):
    decoded = decode_wire(encode_wire(segment))
    assert decoded == segment
    # Decoding must never alias: distinct runs stay distinct objects, safe
    # for consumers that mutate delivered values in place.
    ids = {id(value) for _, _, value in decoded.entries.runs}
    assert len(ids) == len(decoded.entries.runs)


def test_skip_identity_survives_the_wire():
    segment = RingSegment(
        entries=[(i, ProposalValue(SKIP, 0, "", 0, 0.0)) for i in range(8)]
    )
    decoded = decode_wire(encode_wire(segment))
    assert all(value.payload is SKIP for _, value in decoded.entries)
    assert all(value.is_skip() for _, value in decoded.entries)


def test_equal_instances_intern_without_aliasing():
    # Distinct-but-equal hashable-field instances (the rate-leveled skip
    # stream shape) must encode compactly — interned argument tuples — yet
    # decode to fresh objects.
    values = [ProposalValue(SKIP, 0, "", 0, 0.0) for _ in range(500)]
    wire = encode_wire(values)
    legacy = pickle.dumps(values)
    assert len(wire) < len(legacy) / 2
    decoded = decode_wire(wire)
    assert decoded == values
    assert len({id(v) for v in decoded}) == len(values)


def test_identical_objects_stay_interned():
    shared = ProposalValue(Command(op="append", args=(1,)), 64, "p", 9, 1.5)
    wire = encode_wire([shared] * 100)
    assert len(wire) < len(encode_wire([shared])) + 400  # memo back-references


def test_segment_consecutive_instances_compress():
    dense = RingSegment(
        entries=[(i, ProposalValue(SKIP, 0, "", 0, 0.0)) for i in range(1000)]
    )
    # A skip run ships as one run, not as the per-instance list it stands for.
    assert len(encode_wire(dense)) < len(pickle.dumps(list(dense.entries))) / 10
    # Non-consecutive numbering still round-trips exactly.
    sparse = RingSegment(
        entries=[(i * 3 + 1, ProposalValue(SKIP, 0, "", 0, 0.0)) for i in range(10)]
    )
    assert decode_wire(encode_wire(sparse)) == sparse


def test_unregistered_payloads_pass_through():
    payload = {"arbitrary": [1, 2.5, ("nested", None)], "set": frozenset({1, 2})}
    assert decode_wire(encode_wire(payload)) == payload


def test_protocol_classes_are_registered():
    for cls in (Message, Batch, ClientRequest, Command, ProposalValue, Decision, PackedValues):
        names = wire_fields(cls)
        assert names, f"{cls.__name__} is not wire-registered"
        # The frozen field order must cover cached derived fields too, so
        # positional rebuild restores them without re-running __post_init__.
        assert all(isinstance(name, str) for name in names)


def test_cached_sizes_survive_positional_rebuild():
    batch = Batch(messages=[ClientRequest(client="c0"), ClientRequest(client="c1")])
    decoded = decode_wire(encode_wire(batch))
    assert decoded.size_bytes == batch.size_bytes
    assert decoded.payload_bytes == batch.payload_bytes
