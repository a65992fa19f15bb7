import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convstate.errors import ValidationError
from convstate.metrics import EvaluationReport, evaluate, tpe


def brute_force_tpe(predicted, actual):
    """Counting oracle: walk the positions and divide at the end."""
    wrong = 0
    for p, a in zip(predicted, actual):
        if p != a:
            wrong += 1
    return 100.0 * wrong / len(predicted)


def brute_force_epps(predicted, actual, state):
    hits = 0
    misses = 0
    for p, a in zip(predicted, actual):
        if a == state:
            hits += 1
            if p != a:
                misses += 1
    return None if hits == 0 else 100.0 * misses / hits


@st.composite
def sequence_pairs(draw, max_states=5, max_len=200):
    n_states = draw(st.integers(1, max_states))
    length = draw(st.integers(1, max_len))
    predicted = draw(
        st.lists(st.integers(0, n_states - 1), min_size=length, max_size=length)
    )
    actual = draw(
        st.lists(st.integers(0, n_states - 1), min_size=length, max_size=length)
    )
    return predicted, actual, n_states


def per_state_loop_evaluate(predicted, actual, n_states):
    """Reference: the per-state evaluate loop from before the bincount counters."""
    pred = np.asarray(list(predicted), dtype=np.int64)
    act = np.asarray(list(actual), dtype=np.int64)
    per_state, occurrences = {}, {}
    for state in range(n_states):
        at_state = act == state
        occ = int(np.count_nonzero(at_state))
        occurrences[state] = occ
        if occ > 0:
            missed = int(np.count_nonzero(at_state & (pred != act)))
            per_state[state] = 100.0 * missed / occ
    total = 100.0 * float(np.count_nonzero(pred != act)) / pred.size
    return EvaluationReport(total, per_state, int(pred.size), occurrences)


class TestTpe:
    def test_equal_sequences(self):
        assert tpe([0, 1, 2, 1], [0, 1, 2, 1]) == 0.0

    def test_one_mismatch_in_four(self):
        assert tpe([0, 1, 2, 0], [0, 1, 1, 0]) == 25.0

    def test_fully_disjoint(self):
        assert tpe([0, 0, 0], [1, 1, 1]) == 100.0

    def test_length_mismatch_reports_both(self):
        with pytest.raises(ValidationError, match="3.*4|4.*3"):
            tpe([0, 1, 0], [0, 1, 0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            tpe([], [])


class TestEpps:
    def test_half_missed(self):
        assert evaluate([0, 1, 1, 1], [0, 0, 1, 1], 2).epps.get(0) == 50.0

    def test_absent_state_is_none(self):
        assert evaluate([0, 0], [0, 0], 2).epps.get(1) is None

    def test_perfect_prediction(self):
        assert evaluate([2, 0, 2], [2, 0, 2], 3).epps.get(2) == 0.0


class TestEvaluate:
    def test_hand_counted_report(self):
        report = evaluate([0, 1, 1, 1, 2, 0], [0, 0, 1, 1, 2, 2], 3)
        assert report.tpe == pytest.approx(100.0 * 2 / 6)
        assert report.epps == pytest.approx({0: 50.0, 1: 0.0, 2: 50.0})
        assert report.per_state_occurrences == {0: 2, 1: 2, 2: 2}

    def test_equal_sequences_all_zero(self):
        report = evaluate([1, 0, 1], [1, 0, 1], 2)
        assert report.tpe == 0.0
        assert set(report.epps.values()) == {0.0}

    def test_single_state_actual(self):
        report = evaluate([1, 0, 1], [1, 1, 1], 2)
        assert report.tpe == pytest.approx(100.0 / 3)
        assert report.epps == pytest.approx({1: 100.0 / 3})
        assert 0 not in report.epps

    @given(
        st.integers(1, 120).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-3, 9), min_size=n, max_size=n),
                st.lists(st.integers(-3, 9), min_size=n, max_size=n),
            )
        ),
        st.integers(-1, 7),
    )
    def test_matches_per_state_loop(self, pair, n_states):
        """Labels outside 0..n_states-1, negative ones too, count only in TPE."""
        predicted, actual = pair
        got = evaluate(predicted, actual, n_states)
        expected = per_state_loop_evaluate(predicted, actual, n_states)
        assert got == expected
        assert json.dumps(vars(got)) == json.dumps(vars(expected))
        assert all(type(v) is int for v in got.per_state_occurrences.values())
        assert all(type(v) is float for v in got.epps.values())

    def test_report_rejects_out_of_range_percent(self):
        with pytest.raises(ValidationError):
            EvaluationReport(tpe=120.0, epps={}, compared_length=1, per_state_occurrences={})


class TestProperties:
    @given(sequence_pairs())
    def test_matches_brute_force_oracle(self, case):
        predicted, actual, n_states = case
        assert tpe(predicted, actual) == pytest.approx(brute_force_tpe(predicted, actual))
        report = evaluate(predicted, actual, n_states)
        for state in range(n_states):
            expected = brute_force_epps(predicted, actual, state)
            got = report.epps.get(state)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected)

    @given(sequence_pairs())
    def test_weighted_mean_identity(self, case):
        predicted, actual, n_states = case
        report = evaluate(predicted, actual, n_states)
        weighted = sum(
            report.epps[state] * report.per_state_occurrences[state]
            for state in report.epps
        )
        total = sum(
            report.per_state_occurrences[state] for state in report.epps
        )
        assert report.tpe == pytest.approx(weighted / total, abs=1e-9)

    @given(sequence_pairs())
    def test_swapping_preserves_tpe(self, case):
        predicted, actual, _ = case
        assert tpe(predicted, actual) == tpe(actual, predicted)

    @given(sequence_pairs(max_states=4), st.permutations(range(4)))
    def test_tpe_invariant_under_joint_relabeling(self, case, perm):
        predicted, actual, _ = case
        table = list(perm)
        relabeled_pred = [table[p] for p in predicted]
        relabeled_act = [table[a] for a in actual]
        assert tpe(predicted, actual) == tpe(relabeled_pred, relabeled_act)
