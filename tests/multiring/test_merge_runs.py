"""The run-based merge stage against a per-instance reference.

Skip ranges travel from the learner to the merge as ``(first, last)`` runs:
:class:`DeterministicMerger` consumes a skip run in O(1) per ring (whole
rounds at once when every ring's head is a skip run), and
:class:`RunEntries`/:class:`MergeCursor` carry runs across the barrier.  The
property tests drive them and a per-instance merger defined here with the
same streams, split into runs and interleaved at random, and require equal
deliveries and equal merge state after every step — including the state a
delivery callback observes, which is what round-boundary checkpointing reads.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.multiring.merge import (
    DeterministicMerger,
    MergeCursor,
    MergeDivergenceError,
    RingSegment,
    RunEntries,
)
from repro.paxos.messages import SKIP, ProposalValue
from repro.sim.network import decode_wire, encode_wire


class ReferenceMerger:
    """The paper's round-robin merge, one instance at a time."""

    def __init__(self, groups, m, on_deliver):
        self.groups = sorted(groups)
        self.m = m
        self.on_deliver = on_deliver
        self.queues = {g: deque() for g in self.groups}
        self.index = 0
        self.consumed = 0
        self.skipped = 0

    def offer(self, group, instance, value):
        self.queues[group].append((instance, value))
        while True:
            queue = self.queues[self.groups[self.index]]
            if not queue:
                return
            instance, value = queue.popleft()
            if value.payload is SKIP:
                self.skipped += 1
            else:
                self.on_deliver(self.groups[self.index], instance, value)
            self.consumed += 1
            if self.consumed >= self.m:
                self.consumed = 0
                self.index = (self.index + 1) % len(self.groups)

    def pending(self, group):
        return len(self.queues[group])

    def is_round_boundary(self):
        return self.index == 0 and self.consumed == 0

    def fast_forward(self, positions):
        for group, up_to in positions.items():
            queue = self.queues[group]
            while queue and queue[0][0] <= up_to:
                queue.popleft()
        self.index = 0
        self.consumed = 0


def _skip():
    return ProposalValue(payload=SKIP, size_bytes=0)


@st.composite
def ring_streams(draw):
    """Per ring: its stream as ``(first, last, value)`` pieces, in order."""
    rings = draw(st.integers(1, 4))
    streams = {}
    for ring in range(rings):
        pieces, instance = [], 0
        for _ in range(draw(st.integers(0, 12))):
            if draw(st.booleans()):
                span = draw(st.integers(1, 9))
                # Split a skip range at random points, as a ring learner
                # emitting consecutive rate-leveling ranges would.
                pieces.append((instance, instance + span - 1, _skip()))
                instance += span
            else:
                pieces.append((instance, instance, ProposalValue(f"r{ring}i{instance}", 8)))
                instance += 1
        streams[ring] = pieces
    return streams


@st.composite
def merge_scenarios(draw):
    streams = draw(ring_streams())
    m = draw(st.integers(1, 3))
    # Interleave the rings' pieces at random, keeping each ring in order.
    cursors = {ring: 0 for ring in streams}
    steps = []
    while any(cursors[r] < len(streams[r]) for r in streams):
        ring = draw(st.sampled_from(sorted(r for r in streams if cursors[r] < len(streams[r]))))
        steps.append((ring, streams[ring][cursors[ring]], draw(st.booleans())))
        cursors[ring] += 1
    fast_forward_at = draw(st.integers(0, len(steps)))
    positions = {ring: draw(st.integers(-1, 20)) for ring in streams}
    return streams, m, steps, fast_forward_at, positions


@settings(max_examples=150, deadline=None)
@given(merge_scenarios())
def test_run_merger_matches_per_instance_reference(scenario):
    streams, m, steps, fast_forward_at, positions = scenario
    got, want = [], []
    merger = DeterministicMerger(
        list(streams), m,
        on_deliver=lambda g, i, v: got.append((g, i, v.payload, merger.is_round_boundary())),
    )
    reference = ReferenceMerger(
        list(streams), m,
        on_deliver=lambda g, i, v: want.append((g, i, v.payload, reference.is_round_boundary())),
    )
    for step, (ring, (first, last, value), as_run) in enumerate(steps):
        if step == fast_forward_at:
            merger.fast_forward(positions)
            reference.fast_forward(positions)
        if as_run:
            merger.offer_run(ring, first, last, value)
        else:
            for instance in range(first, last + 1):
                merger.offer(ring, instance, value)
        for instance in range(first, last + 1):
            reference.offer(ring, instance, value)
        assert got == want
        assert merger.skipped_count == reference.skipped
        assert merger.is_round_boundary() == reference.is_round_boundary()
        for ring_id in streams:
            assert merger.pending(ring_id) == reference.pending(ring_id)


@settings(max_examples=100, deadline=None)
@given(ring_streams(), st.integers(1, 3), st.data())
def test_cursor_over_run_segments_matches_reference(streams, m, data):
    want = []
    reference = ReferenceMerger(list(streams), m, on_deliver=lambda g, i, v: want.append((g, i, v)))
    for ring in sorted(streams):
        for first, last, value in streams[ring]:
            for instance in range(first, last + 1):
                reference.offer(ring, instance, value)
    cursor = MergeCursor(list(streams), messages_per_round=m)
    # Per ring, how many of its pieces each barrier ships (possibly none).
    cuts = {
        ring: data.draw(st.lists(st.integers(0, 4), min_size=len(pieces), max_size=len(pieces)))
        for ring, pieces in streams.items()
    }
    remaining = {ring: list(pieces) for ring, pieces in streams.items()}
    positions = {ring: 0 for ring in streams}
    for barrier in range(max((len(c) for c in cuts.values()), default=0) + 1):
        segments = {}
        for ring in sorted(streams):
            take = cuts[ring][barrier] if barrier < len(cuts[ring]) else len(remaining[ring])
            entries = RunEntries()
            for piece in remaining[ring][:take]:
                entries.append_run(*piece)
            del remaining[ring][:take]
            segment = RingSegment(incarnation=0, start=positions[ring], entries=entries)
            positions[ring] += len(entries)
            # Ship every segment through the barrier codec.
            segments[ring] = decode_wire(encode_wire(segment))
        cursor.feed_segments(segments, watermark=float(barrier + 1))
    assert [(g, i, v.payload) for g, i, v in cursor.merged] == [
        (g, i, v.payload) for g, i, v in want]
    assert cursor.skipped_count == reference.skipped
    for ring in streams:
        assert cursor.pending(ring) == reference.pending(ring)


class TestRunEntries:
    def test_consecutive_equal_skips_fold_into_one_run(self):
        entries = RunEntries([(i, _skip()) for i in range(5)])
        entries.append_run(5, 5, ProposalValue("v", 8))
        entries.append_run(6, 9, _skip())
        assert [(f, l) for f, l, _ in entries.runs] == [(0, 4), (5, 5), (6, 9)]
        assert len(entries) == 10
        assert [i for i, _ in entries] == list(range(10))

    def test_reads_as_the_per_instance_list(self):
        pairs = [(0, ProposalValue("a", 8))] + [(i, _skip()) for i in range(1, 7)]
        entries = RunEntries(pairs)
        assert entries == pairs
        assert entries[2:5] == pairs[2:5]
        assert entries[5:] == pairs[5:]
        assert RunEntries() == []

    def test_application_values_never_fold(self):
        entries = RunEntries()
        entries.append_run(0, 2, ProposalValue("v", 8))
        assert [(f, l) for f, l, _ in entries.runs] == [(0, 0), (1, 1), (2, 2)]

    def test_wire_form_keeps_runs_without_aliasing(self):
        entries = RunEntries()
        entries.append_run(0, 39, _skip())
        entries.append_run(40, 40, ProposalValue("v", 8))
        entries.append_run(41, 80, ProposalValue(SKIP, 0, "other"))
        decoded = decode_wire(encode_wire(RingSegment(1, 7, entries)))
        assert decoded == RingSegment(1, 7, entries)
        assert len({id(v) for _, _, v in decoded.entries.runs}) == 3


class TestCursorRestartRuns:
    def test_reemitted_run_overlapping_the_dedup_floor_is_trimmed(self):
        cursor = MergeCursor([0])
        first = RunEntries([(0, ProposalValue("a", 8))])
        first.append_run(1, 9, _skip())
        cursor.feed(0, first, incarnation=0, start=0)
        again = RunEntries([(0, ProposalValue("a", 8))])
        again.append_run(1, 15, _skip())
        again.append_run(16, 16, ProposalValue("b", 8))
        cursor.feed(0, again, incarnation=1, start=0)
        assert cursor.duplicates_dropped == 10
        assert cursor.skipped_count == 15
        assert [(i, v.payload) for _, i, v in cursor.merged] == [(0, "a"), (16, "b")]

    def test_reemitted_skip_over_a_decided_value_diverges(self):
        cursor = MergeCursor([0])
        cursor.feed(0, [(0, _skip()), (1, ProposalValue("a", 8)), (2, _skip())],
                    incarnation=0, start=0)
        again = RunEntries()
        again.append_run(0, 2, _skip())
        with pytest.raises(MergeDivergenceError, match="instance 1"):
            cursor.feed(0, again, incarnation=1, start=0)
