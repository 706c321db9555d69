"""Acceptor state for skip ranges stored as runs.

A range vote (a rate-leveling skip range) and its decision are one run each
inside :class:`AcceptorState`; every query must still answer per instance
exactly as if each instance had its own state.  The unit tests pin the run
edge cases (splits, windows, trims, crashes); the property test drives the
acceptor and a per-instance reference model with the same random operations.
"""

from hypothesis import given, settings, strategies as st

from repro.paxos.acceptor import AcceptorState
from repro.paxos.messages import SKIP, ProposalValue
from repro.paxos.runs import RunMap
from repro.sim.actor import Environment


def value(payload):
    return ProposalValue(payload=payload, size_bytes=100)


def skip():
    return ProposalValue(payload=SKIP, size_bytes=0)


def acceptor():
    return AcceptorState(Environment(), "a0", ring_id=0)


class TestRunMap:
    def test_remove_splits_straddling_runs(self):
        runs = RunMap()
        runs.add(0, 9, "a")
        runs.add(20, 29, "b")
        assert runs.remove(5, 24) == [(5, 9, "a"), (20, 24, "b")]
        assert list(runs) == [(0, 4, "a"), (25, 29, "b")]
        assert runs.instance_count == 10

    def test_add_below_stored_runs_keeps_order_and_rejects_overlap(self):
        runs = RunMap()
        runs.add(10, 19, "a")
        runs.add(0, 4, "b")
        assert list(runs) == [(0, 4, "b"), (10, 19, "a")]
        assert runs.get(3) == "b" and runs.get(7) is None
        try:
            runs.add(15, 25, "c")
        except ValueError:
            pass
        else:
            raise AssertionError("overlapping run accepted")


class TestVoteRuns:
    def test_skip_range_is_one_run(self):
        state = acceptor()
        assert state.receive_phase2_range(0, 39, 1, skip())
        assert len(state._vote_runs) == 1 and not state._instances
        assert state.accepted_value(17).payload is SKIP
        assert state.promised_ballot(39) == 1

    def test_higher_ballot_revote_inside_run_splits_it(self):
        state = acceptor()
        state.receive_phase2_range(0, 9, 1, skip())
        # Takeover / hole repair: one instance re-proposed at a higher ballot.
        assert state.receive_phase2(5, 2, value("v")).accepted
        assert list(state._vote_runs)[0][:2] == (0, 4)
        assert list(state._vote_runs)[1][:2] == (6, 9)
        assert state.accepted_value(4).payload is SKIP
        assert state.accepted_value(5).payload == "v"
        assert state.accepted_value(6).payload is SKIP
        assert state.promised_ballot(5) == 2 and state.promised_ballot(6) == 1
        ballots = {i: b for i, b, _ in state.accepted_in_range(0, 9)}
        assert ballots == {i: (2 if i == 5 else 1) for i in range(10)}

    def test_lower_ballot_revote_inside_run_is_refused(self):
        state = acceptor()
        state.receive_phase2_range(0, 9, 3, skip())
        assert not state.receive_phase2(5, 2, value("stale")).accepted
        assert state.accepted_value(5).payload is SKIP
        assert state.promised_ballot(5) == 3

    def test_phase1a_window_over_run_promotes_only_the_inside(self):
        state = acceptor()
        state.receive_phase2_range(0, 9, 1, skip())
        assert state.receive_phase1a(5, 100, ballot=3)
        assert state.promised_ballot(4) == 1
        assert state.promised_ballot(5) == 3
        assert state.receive_phase2(4, 2, value("in")).accepted
        assert not state.receive_phase2(6, 2, value("out")).accepted
        # The votes themselves survive the promise.
        assert [i for i, _, _ in state.accepted_in_range(0, 9)] == list(range(10))

    def test_vote_inside_a_promoted_run_tail_still_splits_it(self):
        state = acceptor()
        state.receive_phase2_range(0, 9, 1, skip())
        state.receive_phase1a(5, 100, ballot=3)
        assert state.receive_phase2(8, 3, value("v")).accepted
        assert state.accepted_value(8).payload == "v"
        assert state.accepted_value(9).payload is SKIP
        assert state.promised_ballot(9) == 3
        assert [(i, b) for i, b, _ in state.accepted_in_range(0, 9)] == [
            (i, 3 if i == 8 else 1) for i in range(10)]

    def test_range_over_earlier_votes_is_voted_per_instance(self):
        state = acceptor()
        state.receive_phase2(3, 5, value("v"))
        assert not state.receive_phase2_range(0, 9, 1, skip())
        assert state.accepted_value(3).payload == "v"
        assert state.accepted_value(2).payload is SKIP

    def test_refused_range_keeps_the_promise(self):
        state = acceptor()
        state.receive_phase1a(0, 1 << 20, ballot=4)
        assert not state.receive_phase2_range(0, 9, 2, skip())
        assert state.accepted_value(3) is None
        assert state.accepted_in_range(0, 9) == []
        assert state.promised_ballot(3) == 4


class TestDecidedRuns:
    def _mixed(self):
        """Decisions: values 0-2, skip run 3-7, value 8, skip run 9-12."""
        state = acceptor()
        for i in range(3):
            state.receive_phase2(i, 1, value(i))
            state.record_decision(i, value(i))
        state.receive_phase2_range(3, 7, 1, skip())
        state.record_decision_range(3, 7, skip())
        state.receive_phase2(8, 1, value(8))
        state.record_decision(8, value(8))
        state.receive_phase2_range(9, 12, 1, skip())
        state.record_decision_range(9, 12, skip())
        return state

    def test_queries_across_run_boundaries(self):
        state = self._mixed()
        between = state.decided_between(2, 10)
        assert [i for i, _ in between] == list(range(2, 11))
        assert [v.payload is SKIP for _, v in between] == [
            False, True, True, True, True, True, False, True, True]
        assert [i for i, _ in state.decided_from(6)] == list(range(6, 13))
        assert state.highest_decided == 12
        assert [i for i, _, _ in state.accepted_in_range(6, 10)] == [6, 7, 8, 9, 10]
        assert state.first_undecided(0) == 13
        assert state.is_decided(5) and not state.is_decided(13)

    def test_trim_mid_run(self):
        state = self._mixed()
        removed = state.trim(5)
        # Counted per instance: decisions 0-5, votes 0-5 and the three
        # logged value votes 0-2.
        assert removed == 6 + 6 + 3
        assert not state.is_decided(5) and state.is_decided(6)
        assert [i for i, _ in state.decided_between(0, 8)] == [6, 7, 8]
        assert state.accepted_value(5) is None
        assert state.accepted_value(6).payload is SKIP
        assert not state.receive_phase2(4, 9, value("late")).accepted

    def test_single_decision_inside_run_overrides_its_instance(self):
        state = self._mixed()
        state.record_decision(4, value("repair"))
        assert state.decided_between(4, 4)[0][1].payload == "repair"
        assert [i for i, _ in state.decided_between(3, 7)] == [3, 4, 5, 6, 7]

    def test_crash_clears_runs(self):
        state = self._mixed()
        state.crash()
        assert not state.is_decided(4)
        assert state.accepted_value(4) is None
        assert state.accepted_in_range(0, 20) == []
        assert state.decided_from(0) == []
        assert state.highest_decided == -1
        assert state.receive_phase2_range(3, 7, 1, skip())


class _Reference:
    """Per-instance acceptor model: the semantics runs must reproduce."""

    def __init__(self):
        self.instances = {}
        self.range_promised = -1
        self.trimmed = -1
        self.decided = {}

    def phase2(self, instance, ballot, val):
        if instance <= self.trimmed:
            return False
        state = self.instances.setdefault(instance, [self.range_promised, -1, None])
        if ballot >= state[0]:
            state[:] = [ballot, ballot, val]
            return True
        return False

    def phase2_range(self, first, last, ballot, val):
        accepted = True
        for instance in range(first, last + 1):
            accepted = self.phase2(instance, ballot, val) and accepted
        return accepted

    def phase1a(self, first, last, ballot):
        if ballot <= self.range_promised:
            return False
        self.range_promised = ballot
        for instance, state in self.instances.items():
            if first <= instance <= last and ballot > state[0] and ballot > state[1]:
                state[0] = ballot
        return True

    def decide(self, instance, val):
        if instance > self.trimmed:
            self.decided[instance] = val

    def trim(self, up_to):
        if up_to <= self.trimmed:
            return
        self.decided = {i: v for i, v in self.decided.items() if i > up_to}
        self.instances = {i: s for i, s in self.instances.items() if i > up_to}
        self.trimmed = up_to


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("range"), st.integers(0, 40), st.integers(0, 12), st.integers(0, 4)),
        st.tuples(st.just("single"), st.integers(0, 50), st.integers(0, 4)),
        st.tuples(st.just("phase1a"), st.integers(0, 50), st.integers(0, 50), st.integers(0, 6)),
        st.tuples(st.just("decide_range"), st.integers(0, 40), st.integers(0, 12)),
        st.tuples(st.just("decide"), st.integers(0, 50)),
        st.tuples(st.just("trim"), st.integers(0, 30)),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_runs_answer_like_per_instance_state(ops):
    state, reference = acceptor(), _Reference()
    the_skip = skip()
    for op in ops:
        kind = op[0]
        if kind == "range":
            _, first, span, ballot = op
            last = first + span
            assert state.receive_phase2_range(first, last, ballot, the_skip) == \
                reference.phase2_range(first, last, ballot, the_skip)
        elif kind == "single":
            _, instance, ballot = op
            val = value(f"v{instance}b{ballot}")
            assert state.receive_phase2(instance, ballot, val).accepted == \
                reference.phase2(instance, ballot, val)
        elif kind == "phase1a":
            _, first, span, ballot = op
            assert state.receive_phase1a(first, first + span, ballot) == \
                reference.phase1a(first, first + span, ballot)
        elif kind == "decide_range":
            _, first, span = op
            state.record_decision_range(first, first + span, the_skip)
            for instance in range(first, first + span + 1):
                reference.decide(instance, the_skip)
        elif kind == "decide":
            _, instance = op
            val = value(f"d{instance}")
            state.record_decision(instance, val)
            reference.decide(instance, val)
        else:
            state.trim(op[1])
            reference.trim(op[1])
    for instance in range(0, 70):
        ref_state = reference.instances.get(instance)
        promised = ref_state[0] if ref_state else reference.range_promised
        assert state.promised_ballot(instance) == promised, instance
        assert state.accepted_value(instance) == (ref_state[2] if ref_state else None)
        assert state.is_decided(instance) == (instance in reference.decided)
    expected_votes = sorted(
        (i, s[1], s[2]) for i, s in reference.instances.items() if s[1] >= 0
    )
    assert state.accepted_in_range(0, 70) == expected_votes
    expected_decided = sorted(reference.decided.items())
    assert state.decided_between(0, 70) == expected_decided
    assert state.decided_from(0) == expected_decided
    assert state.highest_decided == max(reference.decided, default=-1)
    assert state.first_undecided(0) == next(i for i in range(100) if i not in reference.decided)
