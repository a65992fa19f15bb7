import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convstate.errors import ConvergenceError, UnseenStateError, ValidationError
from convstate.markov import (
    Argmax,
    Sampled,
    StateSequence,
    TransitionModel,
    UnseenRowPolicy,
    count_transitions,
    estimate_transition,
    normalize,
    predict_next,
    predict_sequence,
    stationary_distribution,
    _query_row,
    update_online,
    walk,
    windowed_transition,
)


@st.composite
def label_sequences(draw, min_len=1, max_len=60, max_states=5):
    n_states = draw(st.integers(1, max_states))
    labels = draw(st.lists(st.integers(0, n_states - 1), min_size=min_len, max_size=max_len))
    return labels, n_states


class TestStateSequence:
    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValidationError, match="index 2"):
            StateSequence(labels=(0, 1, 3), n_states=3)

    def test_rejects_overlapping_times(self):
        with pytest.raises(ValidationError, match="overlaps"):
            StateSequence(
                labels=(0, 1), n_states=2, times=((0.0, 1.0), (0.5, 1.5))
            )

    def test_times_length_must_match(self):
        with pytest.raises(ValidationError):
            StateSequence(labels=(0,), n_states=1, times=((0.0, 1.0), (1.0, 2.0)))


class TestCountTransitions:
    def test_alternating_pairs(self):
        assert count_transitions([0, 1, 0, 1], 2).tolist() == [[0, 2], [1, 0]]

    def test_self_loops(self):
        assert count_transitions([0, 0, 0], 2).tolist() == [[2, 0], [0, 0]]

    def test_single_label_has_no_pairs(self):
        assert count_transitions([0], 3).tolist() == [[0] * 3] * 3

    def test_label_out_of_range_names_index(self):
        with pytest.raises(ValidationError, match="index 1"):
            count_transitions([0, 5, 1], 3)

    @given(label_sequences())
    def test_cell_total_is_pair_count(self, case):
        labels, n_states = case
        counts = count_transitions(labels, n_states)
        assert counts.sum() == max(len(labels) - 1, 0)


class TestNormalize:
    def test_alternating_counts(self):
        model = normalize(np.array([[0, 2], [1, 0]]))
        assert model.probs.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_zero_row_uniform_policy(self):
        model = normalize(np.array([[2, 0], [0, 0]]), UnseenRowPolicy.UNIFORM)
        assert model.probs.tolist() == [[1.0, 0.0], [0.5, 0.5]]

    def test_plain_division(self):
        model = normalize(np.array([[1, 1], [3, 1]]))
        assert model.probs.tolist() == [[0.5, 0.5], [0.75, 0.25]]

    def test_error_policy_keeps_zero_rows(self):
        model = normalize(np.array([[2, 0], [0, 0]]), UnseenRowPolicy.ERROR_ON_QUERY)
        assert model.probs[1].tolist() == [0.0, 0.0]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            normalize(np.array([[1, -1], [0, 0]]))


class TestEstimateTransition:
    def test_strict_alternation(self):
        model = estimate_transition([0, 1, 0, 1, 0, 1], 2)
        assert model.probs.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_unseen_state_goes_uniform(self):
        model = estimate_transition([0, 0, 1], 2)
        assert model.probs.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_deterministic_cycle(self):
        model = estimate_transition([0, 1, 2, 0, 1, 2, 0], 3)
        assert model.probs.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


class TestUpdateOnline:
    def test_updates_one_row(self):
        model = normalize(np.array([[1, 0], [0, 0]]))
        updated = update_online(model, 0, 1)
        assert updated.counts.tolist() == [[1, 1], [0, 0]]
        assert updated.probs[0].tolist() == [0.5, 0.5]
        assert updated.probs[1].tolist() == model.probs[1].tolist()

    def test_out_of_range_state(self):
        model = normalize(np.array([[1, 0], [0, 1]]))
        with pytest.raises(ValidationError):
            update_online(model, 2, 0)

    def test_original_model_untouched(self):
        model = normalize(np.array([[1, 0], [0, 1]]))
        update_online(model, 0, 1)
        assert model.counts.tolist() == [[1, 0], [0, 1]]

    @given(label_sequences(min_len=2), st.integers(0, 4))
    def test_incremental_equals_batch(self, case, raw_next):
        labels, n_states = case
        next_label = raw_next % n_states
        incremental = update_online(
            estimate_transition(labels, n_states), labels[-1], next_label
        )
        batch = estimate_transition(labels + [next_label], n_states)
        assert incremental.counts.tolist() == batch.counts.tolist()
        assert incremental.probs.tolist() == batch.probs.tolist()


class TestPredictNext:
    def test_argmax_picks_row_maximum(self):
        model = TransitionModel(2, np.ones((2, 2), dtype=int), np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert predict_next(model, 0, Argmax()) == 0
        assert predict_next(model, 1, Argmax()) == 1

    def test_argmax_tie_breaks_low(self):
        model = TransitionModel(2, np.ones((2, 2), dtype=int), np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert predict_next(model, 0, Argmax()) == 0

    def test_sampled_degenerate_row(self):
        model = normalize(np.array([[0, 3], [3, 0]]))
        for seed in (0, 1, 99):
            assert predict_next(model, 0, Sampled(seed)) == 1

    def test_error_policy_unseen_row(self):
        model = normalize(np.array([[2, 0], [0, 0]]), UnseenRowPolicy.ERROR_ON_QUERY)
        with pytest.raises(UnseenStateError, match="state 1"):
            predict_next(model, 1, Argmax())

    @given(st.integers(0, 2**32 - 1))
    def test_argmax_scale_invariance(self, multiplier_seed):
        rng = np.random.default_rng(multiplier_seed)
        counts = rng.integers(0, 10, (3, 3))
        counts[counts.sum(axis=1) == 0, 0] = 1
        base = normalize(counts)
        scaled_counts = counts.copy()
        scaled_counts[1] *= int(rng.integers(2, 9))
        scaled = normalize(scaled_counts)
        assert predict_next(base, 1, Argmax()) == predict_next(scaled, 1, Argmax())


class TestPredictSequence:
    def test_cycle_rollout(self):
        model = estimate_transition([0, 1, 2] * 4, 3)
        assert predict_sequence(model, 0, 6, Argmax()).labels == (0, 1, 2, 0, 1, 2)

    def test_length_one_is_initial(self):
        model = normalize(np.array([[1, 1], [1, 1]]))
        assert predict_sequence(model, 1, 1).labels == (1,)

    def test_argmax_absorbs(self):
        model = TransitionModel(2, np.ones((2, 2), dtype=int), np.array([[0.6, 0.4], [0.3, 0.7]]))
        assert predict_sequence(model, 0, 4, Argmax()).labels == (0, 0, 0, 0)

    def test_sampled_reproducible(self):
        model = normalize(np.array([[5, 5], [5, 5]]))
        a = predict_sequence(model, 0, 200, Sampled(42))
        b = predict_sequence(model, 0, 200, Sampled(42))
        c = predict_sequence(model, 0, 200, Sampled(43))
        assert a.labels == b.labels
        assert a.labels != c.labels

    def test_bad_length(self):
        model = normalize(np.array([[1, 1], [1, 1]]))
        with pytest.raises(ValidationError):
            predict_sequence(model, 0, 0)


def per_step_walk(model, start, steps, rng):
    """Reference: one row query and one scalar draw per step, as before walk."""
    path, state = [], start
    for _ in range(steps):
        row = _query_row(model, state)
        if rng is None:
            state = int(np.argmax(row))
        else:
            u = rng.random()
            idx = int(np.searchsorted(np.cumsum(row), u, side="right"))
            state = min(idx, model.n_states - 1)
        path.append(state)
    return path


class TestWalk:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_step_loop(self, data):
        n = data.draw(st.integers(1, 5))
        cells = data.draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
        observed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        counts = np.array(cells).reshape(n, n) * np.array(observed)[:, None]
        policy = data.draw(st.sampled_from(UnseenRowPolicy))
        model = normalize(counts, policy)
        start = data.draw(st.integers(0, n - 1))
        steps = data.draw(st.integers(0, 60))
        seed = data.draw(st.none() | st.integers(0, 2**32 - 1))

        def run(walker):
            rng = None if seed is None else np.random.default_rng(seed)
            try:
                path = walker(model, start, steps, rng)
            except UnseenStateError:
                return "unseen"
            return path, None if rng is None else rng.bit_generator.state

        assert run(walk) == run(per_step_walk)

    def test_out_of_range_start(self):
        model = normalize(np.array([[1, 1], [1, 1]]))
        with pytest.raises(ValidationError, match="state 2"):
            walk(model, 2, 1)
        assert walk(model, 2, 0) == []


class TestWindowedTransition:
    def test_prefix_window(self):
        model = windowed_transition([0, 1, 0, 1, 1, 1], 4, 0, 2)
        assert model.counts.tolist() == [[0, 2], [1, 0]]
        assert model.probs.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_full_window_equals_estimate(self):
        labels = [0, 1, 1, 0, 1, 0, 0]
        full = estimate_transition(labels, 2)
        window = windowed_transition(labels, len(labels), 0, 2)
        assert window.probs.tolist() == full.probs.tolist()

    def test_offset_beyond_end(self):
        with pytest.raises(ValidationError, match="out of bounds"):
            windowed_transition([0, 1, 0], 2, 5, 2)

    @given(label_sequences(min_len=3), st.data())
    def test_window_matches_slice_estimate(self, case, data):
        labels, n_states = case
        window_len = data.draw(st.integers(1, len(labels)))
        offset = data.draw(st.integers(0, len(labels) - window_len))
        window = windowed_transition(labels, window_len, offset, n_states)
        direct = estimate_transition(labels[offset : offset + window_len], n_states)
        assert window.probs.tolist() == direct.probs.tolist()


class TestStationaryDistribution:
    def test_alternator_is_half_half(self):
        model = normalize(np.array([[0, 4], [4, 0]]))
        assert stationary_distribution(model) == pytest.approx([0.5, 0.5])

    def test_identity_reports_non_unique(self):
        model = TransitionModel(2, np.zeros((2, 2), dtype=int), np.eye(2))
        with pytest.warns(RuntimeWarning, match="not unique"):
            pi = stationary_distribution(model)
        assert pi == pytest.approx([0.5, 0.5])

    def test_doubly_stochastic(self):
        model = normalize(np.array([[1, 1], [1, 1]]))
        assert stationary_distribution(model) == pytest.approx([0.5, 0.5])

    def test_iteration_cap_raises_with_residual(self):
        model = normalize(np.array([[999, 1], [1, 999]]))
        with pytest.raises(ConvergenceError) as info:
            stationary_distribution(model, tol=1e-14, max_iter=2)
        assert info.value.residual is not None

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_fixed_point_property(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 20, (4, 4))
        model = normalize(counts)
        pi = stationary_distribution(model)
        assert np.abs(pi @ model.probs - pi).max() < 1e-8
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= 0).all()


class TestInvariants:
    @given(label_sequences(), st.lists(st.integers(0, 4), max_size=10))
    def test_rows_stay_stochastic_through_updates(self, case, extra):
        labels, n_states = case
        model = estimate_transition(labels, n_states)
        previous = labels[-1]
        for raw in extra:
            nxt = raw % n_states
            model = update_online(model, previous, nxt)
            previous = nxt
        assert np.abs(model.probs.sum(axis=1) - 1.0).max() < 1e-9

    @given(label_sequences(min_len=2), st.lists(st.integers(0, 4), max_size=10))
    def test_count_conservation(self, case, extra):
        labels, n_states = case
        model = estimate_transition(labels, n_states)
        previous = labels[-1]
        for raw in extra:
            nxt = raw % n_states
            model = update_online(model, previous, nxt)
            previous = nxt
        assert model.counts.sum() == len(labels) - 1 + len(extra)

    def test_estimator_consistency_at_scale(self):
        from convstate.harness import generate_synthetic_sequence

        truth = normalize(
            np.array([[12, 6, 2], [4, 10, 6], [5, 5, 10]])
        )
        assert np.allclose(
            truth.probs, [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]]
        )
        sample = generate_synthetic_sequence(truth, 20_000, 0, seed=42)
        estimate = estimate_transition(sample, 3)
        assert np.abs(estimate.probs - truth.probs).max() <= 0.03


class TestStationaryEdges:
    def test_error_policy_zero_row_rejected(self):
        model = normalize(np.array([[2, 0], [0, 0]]), UnseenRowPolicy.ERROR_ON_QUERY)
        with pytest.raises(ValidationError, match="stochastic"):
            stationary_distribution(model)

    def test_reducible_chain_with_unique_target(self):
        model = TransitionModel(
            2, np.array([[4, 0], [2, 2]]), np.array([[1.0, 0.0], [0.5, 0.5]])
        )
        pi = stationary_distribution(model)
        assert pi == pytest.approx([1.0, 0.0], abs=1e-6)
