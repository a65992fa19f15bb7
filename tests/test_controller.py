from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convstate import controller, markov, storage
from convstate.controller import (
    Decision,
    EvaluatorOutcome,
    FixedEvery,
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
from convstate.harness import chain_oracle, matched_chain_oracle
from convstate.markov import Argmax, Sampled, StateSequence, estimate_transition, normalize, walk
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
        assert type(outcome) is EvaluatorOutcome and outcome.proceeded
        assert outcome.max_abs_diff == pytest.approx(0.0)

    def test_drifted_tail_falls_back(self):
        labels = [0, 1] * 10 + [0] * 8
        full = estimate_transition(labels, 2)
        offset = len(labels) - 8
        outcome = evaluator_step(labels[: offset + 8], 8, full, Thresholds())
        assert outcome.proceeded is False
        # Tail window is all zeros: its row 0 is [1, 0] against the blended
        # full row 0 of [7/17, 10/17]; the gap is 10/17.
        assert outcome.max_abs_diff == pytest.approx(10 / 17)
        previous = estimate_transition(labels[offset - 8 : offset], 2)
        assert outcome.model.probs.tolist() == previous.probs.tolist()

    def test_fallback_at_offset_zero_clamps(self):
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        full = estimate_transition(labels, 2)
        outcome = evaluator_step(labels[:4], 4, full, Thresholds())
        assert outcome.proceeded is False
        window_zero = estimate_transition(labels[0:4], 2)
        assert outcome.model.probs.tolist() == window_zero.probs.tolist()

    def test_fallback_model_is_stochastic(self):
        labels = [0, 1] * 10 + [0] * 8
        full = estimate_transition(labels, 2)
        outcome = evaluator_step(labels, 8, full, Thresholds())
        assert np.abs(outcome.model.probs.sum(axis=1) - 1.0).max() < 1e-9

    @pytest.mark.parametrize(
        "proceeded, name", [(True, "ProceedNextWindow"), (False, "FallbackPreviousWindow")]
    )
    def test_report_names_the_outcome(self, proceeded, name):
        model = estimate_transition([0, 1, 0], 2)
        labels = StateSequence(labels=[0, 1], n_states=2)
        outcome = EvaluatorOutcome(model, 0.25, proceeded)
        record = controller.IterationRecord(0, labels, False, None, outcome)
        document = storage.session_to_document(controller.SessionReport(labels, (record,), model))
        assert document["iterations"][0]["evaluator"] == {"outcome": name, "max_abs_diff": 0.25}

    @given(st.data())
    def test_reads_only_the_last_two_windows(self, data):
        n_states = data.draw(st.integers(1, 4))
        labels = data.draw(st.lists(st.integers(0, n_states - 1), min_size=1, max_size=80))
        window_len = data.draw(st.integers(1, len(labels)))
        full = estimate_transition(data.draw(st.permutations(labels)), n_states)
        thresholds = Thresholds(matrix_diff_max=data.draw(st.sampled_from([0.05, 0.15, 0.9])))
        outcome = evaluator_step(labels, window_len, full, thresholds)
        tail = evaluator_step(labels[-2 * window_len :], window_len, full, thresholds)
        assert tail.proceeded == outcome.proceeded
        assert tail.max_abs_diff == outcome.max_abs_diff
        assert tail.model.counts.tolist() == outcome.model.counts.tolist()
        # The window a fallback uses starts one window earlier, clamped at 0.
        start = len(labels) - window_len
        if not outcome.proceeded:
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

    @pytest.mark.parametrize(
        "oracle, n_states, message",
        [
            ([[], [0]], None, "oracle sequence 0 is empty"),
            ([[], [0]], 2, "oracle sequence 0 is empty"),
            ([[0, 1], [0, 1], []], None, "oracle sequence 2 is empty"),
            ([[0, 1], [0, 1], [0, 5]], None, "oracle sequence 2: label 5 at index 1 outside 0..1"),
            ([[0, 1], [-1]], None, "oracle sequence 1: label -1 at index 0 outside 0..1"),
            ([[0, 2, 1]], 2, "oracle sequence 0: label 2 at index 1 outside 0..1"),
        ],
    )
    def test_bad_oracle_sequence_is_named(self, oracle, n_states, message):
        with pytest.raises(ValidationError) as excinfo:
            run_session(oracle, SessionConfig(mode=Sampled(0)), n_states=n_states)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_wider_oracle_sequence_is_range_checked(self, index):
        """A sequence checked against 5 states is checked again against the session's 3."""
        oracle = [StateSequence(labels=(0, 1, 2), n_states=3)] * 3
        oracle[index] = StateSequence(labels=(0, 1, 4, 2), n_states=5)
        with pytest.raises(ValidationError) as excinfo:
            run_session(oracle, SessionConfig(mode=Sampled(0)), n_states=3)
        assert str(excinfo.value) == f"oracle sequence {index}: label 4 at index 2 outside 0..2"

    @pytest.mark.parametrize("n_states", [None, 3])
    def test_empty_sequence_bootstrap_is_rejected(self, n_states):
        oracle = [StateSequence(labels=(), n_states=3), StateSequence(labels=(0,), n_states=3)]
        with pytest.raises(ValidationError) as excinfo:
            run_session(oracle, SessionConfig(mode=Sampled(0)), n_states=n_states)
        assert str(excinfo.value) == "oracle sequence 0 is empty"

    @pytest.mark.parametrize("make_oracle", [chain_oracle, matched_chain_oracle])
    def test_length_one_chain_oracle_checks_its_initial(self, make_oracle):
        """Chunk 0 of a length-1 oracle is not walked, so its initial is checked alone."""
        with pytest.raises(ValidationError) as excinfo:
            next(make_oracle(CYCLE, 1, 5, 0, iterations=1))
        assert str(excinfo.value) == "initial 5 outside 0..2"
        with pytest.raises(ValidationError):
            run_session(make_oracle(CYCLE, 1, 5, 0, iterations=3), SessionConfig(mode=Sampled(0)))

    def test_narrower_oracle_sequences_equal_plain_labels(self):
        """Sequences over 2 states in a 3-state session run as the same labels as lists."""
        labels = [[0, 1, 1, 0, 1], [1, 1, 0], [0, 0, 1, 1], [1, 0]]
        config = SessionConfig(mode=Sampled(3), seed=3)
        plain = run_session(labels, config, n_states=3)
        boxed = run_session([StateSequence(labels=x, n_states=2) for x in labels], config, n_states=3)
        assert boxed.bootstrap == plain.bootstrap == StateSequence(labels=labels[0], n_states=3)
        assert [r.predicted for r in boxed.iterations] == [r.predicted for r in plain.iterations]
        assert [r.decision for r in boxed.iterations] == [r.decision for r in plain.iterations]
        assert boxed.final_model.counts.tolist() == plain.final_model.counts.tolist()

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


def full_walk_argmin(basis, anchor, actual, seed, iteration, count):
    """Reference candidate choice: walk every candidate whole, then argmin."""
    walks = [
        walk(basis, anchor, len(actual), np.random.default_rng([seed, iteration, j]))
        for j in range(count)
    ]
    misses = np.count_nonzero(np.array(walks) != np.array(actual), axis=1)
    return np.array(walks[int(misses.argmin())], dtype=np.int64)


@st.composite
def chain_models(draw, n_states):
    """Random count rows, or one-hot rows that make every walk deterministic."""
    if draw(st.booleans()):
        targets = draw(st.lists(st.integers(0, n_states - 1), min_size=n_states, max_size=n_states))
        return normalize(np.eye(n_states, dtype=np.int64)[targets])
    cells = draw(st.lists(st.integers(0, 4), min_size=n_states**2, max_size=n_states**2))
    return normalize(np.array(cells).reshape(n_states, n_states))


@st.composite
def oracle_labels(draw, model, anchor, seed, iteration, count):
    """Labels the candidates are scored against, `length` 1-300 (chunk edges 16, 48, 112).

    Random labels; a walk of an independent chain; or candidate j's own walk
    with a few labels changed, so that later candidates win and ties occur.
    """
    n_states = model.n_states
    length = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["random", "independent", "candidate"]))
    if kind == "random":
        return draw(st.lists(st.integers(0, n_states - 1), min_size=length, max_size=length))
    if kind == "independent":
        other = draw(chain_models(n_states))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return walk(other, draw(st.integers(0, n_states - 1)), length, rng)
    j = draw(st.integers(0, count - 1))
    labels = walk(model, anchor, length, np.random.default_rng([seed, iteration, j]))
    for position in draw(st.lists(st.integers(0, length - 1), max_size=4)):
        labels[position] = (labels[position] + 1) % n_states
    return labels


class TestCandidateChoice:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_full_walk_argmin(self, data):
        n_states = data.draw(st.integers(1, 5))
        model = data.draw(chain_models(n_states))
        anchor = data.draw(st.integers(0, n_states - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        iteration = data.draw(st.integers(1, 50))
        count = data.draw(st.integers(1, 6))
        actual = data.draw(oracle_labels(model, anchor, seed, iteration, count))
        args = (model, anchor, actual, seed, iteration, count)
        chosen = controller._closest_walk(*args)
        assert chosen.dtype == np.int64
        assert chosen.tolist() == full_walk_argmin(*args).tolist()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_session_report_equals_full_walk_argmin(self, data):
        n_states = data.draw(st.integers(1, 5))
        truth = data.draw(chain_models(n_states))
        seed = data.draw(st.integers(0, 2**32 - 1))
        count = data.draw(st.integers(1, 6))
        interval = data.draw(st.one_of(
            st.builds(FixedEvery, st.integers(1, 3)),
            st.builds(RandomBernoulli, st.sampled_from([0.25, 0.5, 1.0])),
        ))
        bootstrap = walk(
            truth, data.draw(st.integers(0, n_states - 1)), data.draw(st.integers(1, 40)),
            np.random.default_rng(seed),
        )
        # Candidate walks are drawn from the bootstrap estimate, which is the
        # session's basis on its first iteration and drifts from it later.
        estimate = estimate_transition(bootstrap, n_states)
        oracle = [bootstrap]
        for iteration in range(1, data.draw(st.integers(1, 4)) + 1):
            oracle.append(
                data.draw(oracle_labels(estimate, oracle[-1][-1], seed, iteration, count))
            )
        config = SessionConfig(
            thresholds=Thresholds(checker_interval=interval),
            mode=Sampled(0),
            seed=seed,
            candidate_count=count,
        )

        def session():
            report = run_session(oracle, config, n_states=n_states)
            return storage.json_text(storage.session_to_document(report)), report

        counts = []

        def counted_full_walk_argmin(*args):
            counts.append(args[-1])
            return full_walk_argmin(*args)

        chosen, report = session()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(controller, "_closest_walk", counted_full_walk_argmin)
            assert chosen == session()[0]
        # An unchecked iteration walks candidate 0 alone, whole.
        assert counts == [count if rec.checked else 1 for rec in report.iterations]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_candidates_stop_at_the_first_chunk_reaching_the_fewest(self, data):
        """Candidate j draws chunks of b, 2b, 4b, ... uniforms, b = max(16,
        fewest mismatches before it), cut at len(actual), and stops after the
        first chunk whose mismatches reach that fewest. One sampling table
        serves every candidate."""
        n_states = data.draw(st.integers(1, 5))
        model = data.draw(chain_models(n_states))
        anchor = data.draw(st.integers(0, n_states - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        iteration = data.draw(st.integers(1, 50))
        count = data.draw(st.integers(1, 6))
        actual = data.draw(oracle_labels(model, anchor, seed, iteration, count))

        expected, fewest = [], len(actual) + 1
        for j in range(count):
            if fewest == 0:
                break  # an exact match builds no later candidate
            whole = walk(model, anchor, len(actual), np.random.default_rng([seed, iteration, j]))
            misses = np.cumsum(np.array(whole) != np.array(actual))
            # Chunks of b, 2b, 4b, ... steps end at b, 3b, 7b, ...
            first = max(16, fewest)
            edges = [e for e in (first * (2**k - 1) for k in range(1, 10)) if e < len(actual)]
            edges.append(len(actual))
            stop = next(i for i, e in enumerate(edges) if misses[e - 1] >= fewest or
                        e == len(actual))
            expected.append(np.diff([0, *edges[: stop + 1]]).tolist())
            fewest = min(fewest, int(misses[-1]))

        real_default_rng, real_table = np.random.default_rng, markov._table
        draws, tables = [], []

        class RecordedGenerator:
            def __init__(self, seed):
                self.rng, self.sizes = real_default_rng(seed), []
                draws.append(self.sizes)

            def random(self, size):
                self.sizes.append(size)
                return self.rng.random(size)

        def counted_table(rows):
            tables.append(rows)
            return real_table(rows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.random, "default_rng", RecordedGenerator)
            patch.setattr(markov, "_table", counted_table)
            controller._closest_walk(model, anchor, actual, seed, iteration, count)
        assert len(tables) == 1
        assert draws == expected

    def test_one_mismatch_does_not_end_the_search(self):
        """Only an exact match stops sampling: a later exact candidate still wins."""
        model = normalize(np.array([[1, 1], [1, 1]]))
        for iteration in range(1, 100):
            first, second = (
                walk(model, 0, 1, np.random.default_rng([3, iteration, j])) for j in (0, 1)
            )
            if first != second:
                break
        assert controller._closest_walk(model, 0, second, 3, iteration, 2).tolist() == second

    def test_exact_match_samples_no_further_candidate(self, monkeypatch):
        model = normalize(np.array([[6, 2, 2], [1, 8, 1], [3, 3, 4]]))
        actual = walk(model, 0, 200, np.random.default_rng([9, 1, 0]))
        generators = []
        real_default_rng = np.random.default_rng

        def counting_default_rng(seed):
            generators.append(seed)
            assert len(generators) == 1, f"candidate {seed} sampled after an exact match"
            return real_default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        # A count far too large to list: only candidate 0 is ever built.
        assert controller._closest_walk(model, 0, actual, 9, 1, 10**12).tolist() == actual


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

    @pytest.mark.parametrize(
        "value, message",
        [(1.5, "checker interval 1.5 is not an integer"),
         ("2", "checker interval '2' is not an integer")],
    )
    def test_rejects_non_integer_interval(self, value, message):
        with pytest.raises(ValidationError) as excinfo:
            FixedEvery(value)
        assert str(excinfo.value) == message

    def test_interval_is_stored_as_an_int(self):
        assert type(FixedEvery(np.int64(3)).every) is int

    @given(
        value=st.one_of(
            st.text(), st.none(), st.complex_numbers(), st.binary(), st.decimals(),
            st.lists(st.floats(), max_size=2), st.dictionaries(st.text(), st.floats(), max_size=1),
        ),
        field=st.sampled_from(["p", "tpe_threshold", "epps_threshold", "matrix_diff_max",
                               "row_diff_min"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_real_numbers_name_their_field(self, value, field):
        assume(not (value is None and field == "row_diff_min"))  # None: the default rule
        name = "checker probability" if field == "p" else field
        with pytest.raises(ValidationError) as excinfo:
            RandomBernoulli(value) if field == "p" else Thresholds(**{field: value})
        assert str(excinfo.value) == f"{name} must be a real number, got {value!r}"

    @pytest.mark.parametrize("value", [np.float32(0.5), np.int64(1), Fraction(1, 2), True])
    def test_real_numbers_of_any_type_are_kept(self, value):
        assert RandomBernoulli(value).p is value
        assert Thresholds(tpe_threshold=value, row_diff_min=value).row_diff_min is value


class TestSessionConfigValidation:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", -1, "seed must be >= 0, got -1"),
            ("seed", None, "seed None is not an integer"),
            ("seed", 1.0, "seed 1.0 is not an integer"),
            ("candidate_count", 2.5, "candidate_count 2.5 is not an integer"),
            ("candidate_count", 0, "candidate_count must be >= 1, got 0"),
            ("window_len", 2.5, "window_len 2.5 is not an integer"),
            ("window_len", 1, "window_len must be >= 2, got 1"),
            ("iterations", 1.5, "iterations 1.5 is not an integer"),
            ("iterations", -1, "iterations must be >= 0, got -1"),
        ],
    )
    def test_rejects_at_construction(self, field, value, message):
        with pytest.raises(ValidationError) as excinfo:
            SessionConfig(**{field: value})
        assert str(excinfo.value) == message

    def test_integers_are_stored_as_ints(self):
        config = SessionConfig(seed=np.uint8(3), candidate_count=np.int64(2),
                               window_len=np.int32(4), iterations=np.int16(5))
        assert config == SessionConfig(seed=3, candidate_count=2, window_len=4, iterations=5)
        for field in ("seed", "candidate_count", "window_len", "iterations"):
            assert type(getattr(config, field)) is int
