import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convstate import controller
from convstate.controller import (
    Decision,
    FallbackPreviousWindow,
    FixedEvery,
    ProceedNextWindow,
    RandomBernoulli,
    SessionConfig,
    Thresholds,
    check_iteration,
    decide,
    evaluator_step,
    matrix_diff,
    row_diff_check,
    run_session,
)
from convstate.errors import ValidationError
from convstate.harness import chain_oracle
from convstate.markov import Argmax, Sampled, estimate_transition, normalize
from convstate.metrics import EvaluationReport


def report_of(tpe_value, epps_map):
    occurrences = {state: 10 for state in epps_map}
    return EvaluationReport(
        tpe=tpe_value,
        epps=epps_map,
        compared_length=100,
        per_state_occurrences=occurrences,
    )


CYCLE = normalize(np.array([[0, 8, 0], [0, 0, 8], [8, 0, 0]]))
ANTI_CYCLE = normalize(np.array([[0, 0, 8], [8, 0, 0], [0, 8, 0]]))


class TestDecide:
    def test_below_both_thresholds_accepts(self):
        report = report_of(9.58, {0: 8.57, 1: 7.14, 2: 20.0})
        assert decide(report, Thresholds()) is Decision.ACCEPT

    def test_single_high_state_replaces(self):
        report = report_of(12.0, {0: 33.33, 1: 0.0, 2: 10.0})
        assert decide(report, Thresholds()) is Decision.REPLACE_WITH_ORACLE

    def test_tpe_alone_replaces(self):
        report = report_of(25.0, {0: 0.0, 1: 0.0})
        assert decide(report, Thresholds()) is Decision.REPLACE_WITH_ORACLE

    def test_boundary_is_strict(self):
        assert decide(report_of(20.0, {0: 0.0}), Thresholds()) is Decision.REPLACE_WITH_ORACLE
        assert decide(report_of(19.999, {0: 30.0}), Thresholds()) is Decision.REPLACE_WITH_ORACLE
        assert decide(report_of(19.999, {0: 29.999}), Thresholds()) is Decision.ACCEPT

    def test_absent_epps_never_counts(self):
        no_states = EvaluationReport(
            tpe=5.0, epps={}, compared_length=10, per_state_occurrences={0: 0}
        )
        assert decide(no_states, Thresholds()) is Decision.ACCEPT

    @given(
        st.floats(0, 100, allow_nan=False),
        st.dictionaries(st.integers(0, 4), st.floats(0, 100, allow_nan=False), max_size=5),
    )
    def test_decision_is_pure(self, tpe_value, epps_map):
        thresholds = Thresholds()
        first = decide(report_of(tpe_value, epps_map), thresholds)
        second = decide(report_of(tpe_value, epps_map), thresholds)
        assert first is second
        expected = (
            tpe_value < thresholds.tpe_threshold
            and all(v < thresholds.epps_threshold for v in epps_map.values())
        )
        assert (first is Decision.ACCEPT) == expected


class TestCheckIteration:
    def test_attaches_report(self):
        verdict = check_iteration([0, 1, 1], [0, 1, 0], Thresholds(), 2)
        assert verdict.decision is Decision.REPLACE_WITH_ORACLE
        assert verdict.report.tpe == pytest.approx(100.0 / 3)

    def test_length_mismatch_propagates(self):
        with pytest.raises(ValidationError):
            check_iteration([0], [0, 1], Thresholds(), 2)


class TestMatrixDiff:
    def test_identical_models(self):
        model = estimate_transition([0, 1, 0, 1], 2)
        assert matrix_diff(model, model) == (0.0, True)

    def test_gap_above_threshold_fails(self):
        full = normalize(np.array([[10, 0], [5, 5]]))
        windowed = normalize(np.array([[8, 2], [5, 5]]))
        gap, ok = matrix_diff(full, windowed)
        assert gap == pytest.approx(0.2)
        assert not ok

    def test_gap_at_threshold_passes(self):
        full = normalize(np.array([[6, 4], [5, 5]]))
        windowed = normalize(np.array([[5, 5], [5, 5]]))
        gap, ok = matrix_diff(full, windowed)
        assert gap == pytest.approx(0.1)
        assert ok

    def test_dimension_mismatch(self):
        a = normalize(np.array([[1, 1], [1, 1]]))
        b = normalize(np.ones((3, 3), dtype=int))
        with pytest.raises(ValidationError):
            matrix_diff(a, b)


class TestRowDiffCheck:
    def test_tied_row_fails(self):
        model = normalize(np.array([[1, 1], [3, 1]]))
        passes, all_pass = row_diff_check(model)
        assert passes == [False, False]
        assert not all_pass

    def test_degenerate_row_passes(self):
        model = normalize(np.array([[4, 0], [0, 4]]))
        assert row_diff_check(model) == ([True, True], True)

    def test_three_state_margins(self):
        model = normalize(np.array([[7, 2, 1], [7, 2, 1], [7, 2, 1]]))
        passes, all_pass = row_diff_check(model)
        assert all_pass
        assert passes == [True, True, True]


class TestEvaluatorStep:
    def test_stable_alternation_proceeds(self):
        labels = [0, 1] * 20
        full = estimate_transition(labels, 2)
        outcome = evaluator_step(labels[:8], 8, full, Thresholds())
        assert isinstance(outcome, ProceedNextWindow)
        assert outcome.max_abs_diff == pytest.approx(0.0)

    def test_drifted_tail_falls_back(self):
        labels = [0, 1] * 10 + [0] * 8
        full = estimate_transition(labels, 2)
        offset = len(labels) - 8
        outcome = evaluator_step(labels[: offset + 8], 8, full, Thresholds())
        assert isinstance(outcome, FallbackPreviousWindow)
        # Tail window is all zeros: its row 0 is [1, 0] against the blended
        # full row 0 of [7/17, 10/17]; the gap is 10/17.
        assert outcome.max_abs_diff == pytest.approx(10 / 17)
        previous = estimate_transition(labels[offset - 8 : offset], 2)
        assert outcome.model.probs.tolist() == previous.probs.tolist()

    def test_fallback_at_offset_zero_clamps(self):
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        full = estimate_transition(labels, 2)
        outcome = evaluator_step(labels[:4], 4, full, Thresholds())
        assert isinstance(outcome, FallbackPreviousWindow)
        window_zero = estimate_transition(labels[0:4], 2)
        assert outcome.model.probs.tolist() == window_zero.probs.tolist()

    def test_fallback_model_is_stochastic(self):
        labels = [0, 1] * 10 + [0] * 8
        full = estimate_transition(labels, 2)
        outcome = evaluator_step(labels, 8, full, Thresholds())
        assert np.abs(outcome.model.probs.sum(axis=1) - 1.0).max() < 1e-9

    @given(st.data())
    def test_reads_only_the_last_two_windows(self, data):
        n_states = data.draw(st.integers(1, 4))
        labels = data.draw(st.lists(st.integers(0, n_states - 1), min_size=1, max_size=80))
        window_len = data.draw(st.integers(1, len(labels)))
        full = estimate_transition(data.draw(st.permutations(labels)), n_states)
        thresholds = Thresholds(matrix_diff_max=data.draw(st.sampled_from([0.05, 0.15, 0.9])))
        outcome = evaluator_step(labels, window_len, full, thresholds)
        tail = evaluator_step(labels[-2 * window_len :], window_len, full, thresholds)
        assert type(tail) is type(outcome)
        assert tail.max_abs_diff == outcome.max_abs_diff
        assert tail.model.counts.tolist() == outcome.model.counts.tolist()
        # The window a fallback uses starts one window earlier, clamped at 0.
        start = len(labels) - window_len
        if isinstance(outcome, FallbackPreviousWindow):
            start = max(start - window_len, 0)
        window = estimate_transition(labels[start : start + window_len], n_states)
        assert outcome.model.counts.tolist() == window.counts.tolist()


class TestRunSession:
    def test_cycle_chain_accepts_everything(self):
        oracle = chain_oracle(CYCLE, length=30, initial=0, seed=5, iterations=6)
        report = run_session(oracle, SessionConfig(mode=Argmax(), seed=5, iterations=5))
        assert len(report.iterations) == 5
        for record in report.iterations:
            assert record.decision.decision is Decision.ACCEPT
            assert record.decision.report.tpe == 0.0

    def test_chain_switch_triggers_replace(self):
        def switching():
            yield from chain_oracle(CYCLE, length=30, initial=0, seed=5, iterations=3)
            yield from chain_oracle(ANTI_CYCLE, length=30, initial=0, seed=6, iterations=3)

        report = run_session(switching(), SessionConfig(mode=Argmax(), seed=5, iterations=5))
        decisions = [rec.decision.decision for rec in report.iterations]
        assert Decision.REPLACE_WITH_ORACLE in decisions[2:]
        # The replacement re-estimates from oracle labels, so the session recovers.
        assert decisions[-1] is Decision.ACCEPT

    def test_fixed_interval_checks_even_iterations(self):
        oracle = chain_oracle(CYCLE, length=30, initial=0, seed=5, iterations=7)
        thresholds = Thresholds(checker_interval=FixedEvery(2))
        report = run_session(
            oracle, SessionConfig(thresholds=thresholds, mode=Argmax(), seed=5, iterations=6)
        )
        for record in report.iterations:
            assert record.checked == (record.index % 2 == 0)
            assert (record.decision is not None) == record.checked

    def test_bernoulli_interval_is_seeded(self):
        thresholds = Thresholds(checker_interval=RandomBernoulli(0.5))
        runs = []
        for _ in range(2):
            oracle = chain_oracle(CYCLE, length=30, initial=0, seed=5, iterations=7)
            report = run_session(
                oracle,
                SessionConfig(thresholds=thresholds, mode=Argmax(), seed=5, iterations=6),
            )
            runs.append([rec.checked for rec in report.iterations])
        assert runs[0] == runs[1]

    def test_oracle_exhaustion_gives_partial_report(self):
        oracle = chain_oracle(CYCLE, length=30, initial=0, seed=5, iterations=3)
        report = run_session(oracle, SessionConfig(mode=Argmax(), seed=5, iterations=10))
        assert len(report.iterations) == 2

    def test_empty_oracle_rejected(self):
        with pytest.raises(ValidationError, match="bootstrap"):
            run_session([], SessionConfig())

    def test_windowed_evaluator_recorded(self):
        oracle = chain_oracle(CYCLE, length=30, initial=0, seed=5, iterations=4)
        report = run_session(
            oracle, SessionConfig(mode=Argmax(), seed=5, iterations=3, window_len=9)
        )
        for record in report.iterations:
            assert record.evaluator is not None

    @pytest.mark.parametrize("window_len", [4, 9])
    def test_window_must_stay_below_the_observed_length(self, window_len):
        config = SessionConfig(mode=Argmax(), window_len=window_len)
        with pytest.raises(ValidationError) as excinfo:
            run_session([[0, 1, 2, 0], [1, 2]], config, n_states=3)
        assert str(excinfo.value) == (
            f"window_len {window_len} must stay below the observed sequence length 4"
        )

    def test_window_one_below_the_observed_length_runs(self):
        report = run_session(
            [[0, 1, 2, 0], [1, 2], [0, 1]], SessionConfig(mode=Argmax(), window_len=3)
        )
        assert [rec.evaluator is not None for rec in report.iterations] == [True, True]

    def test_evaluator_gets_at_most_two_windows(self, monkeypatch):
        lengths = []

        def recording_step(labels, window_len, full_model, thresholds):
            lengths.append(len(labels))
            return evaluator_step(labels, window_len, full_model, thresholds)

        monkeypatch.setattr(controller, "evaluator_step", recording_step)
        oracle = chain_oracle(CYCLE, length=30, initial=0, seed=5, iterations=7)
        run_session(oracle, SessionConfig(mode=Sampled(0), seed=5, iterations=6, window_len=9))
        assert lengths == [18] * 6

    def test_sampled_sessions_reproducible(self):
        truth = normalize(np.array([[8, 1, 1], [1, 8, 1], [1, 1, 8]]))
        reports = []
        for _ in range(2):
            oracle = chain_oracle(truth, length=50, initial=0, seed=7, iterations=5)
            reports.append(
                run_session(oracle, SessionConfig(mode=Sampled(0), seed=7, iterations=4))
            )
        first, second = reports
        for a, b in zip(first.iterations, second.iterations):
            assert a.predicted.labels == b.predicted.labels
        assert first.final_model.counts.tolist() == second.final_model.counts.tolist()


class TestThresholdsValidation:
    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            Thresholds(tpe_threshold=0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValidationError):
            RandomBernoulli(0.0)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValidationError):
            FixedEvery(0)
