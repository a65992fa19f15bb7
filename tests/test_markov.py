import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convstate.clustering import EmbeddingSet
from convstate.errors import ValidationError
from convstate.frontend import AudioBuffer
from convstate.markov import (
    Argmax,
    Sampled,
    StateSequence,
    TransitionModel,
    count_transitions,
    estimate_transition,
    normalize,
    predict_next,
    predict_sequence,
    _as_labels,
    update_online,
    walk,
)


def timed(owner, spans):
    """A StateSequence or an EmbeddingSet of len(spans) items carrying `spans`."""
    if owner == "labels":
        return StateSequence(labels=(0,) * len(spans), n_states=1, times=spans)
    return EmbeddingSet(np.eye(len(spans)), times=spans)


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

    @pytest.mark.parametrize(
        "spans, message",
        [
            (((0.0, 1.0), (0.5, 1.5), (2.0, 3.0)), "times[1] overlaps its predecessor"),
            (((0.0, 1.0), (1.0, 2.0), (1.5, 3.0)), "times[2] overlaps its predecessor"),
            (((1.0, 1.0), (2.0, 3.0), (3.0, 4.0)), "times[0]: end 1.0 <= start 1.0"),
            (((0.0, 1.0), (3.0, 2.0), (4.0, 5.0)), "times[1]: end 2.0 <= start 3.0"),
        ],
        ids=["overlap", "later-overlap", "empty-span", "reversed-span"],
    )
    @pytest.mark.parametrize("owner", ["labels", "embeddings"])
    def test_labels_and_embeddings_share_the_span_rule(self, owner, spans, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            timed(owner, spans)

    @given(
        owner=st.sampled_from(["labels", "embeddings"]),
        lengths=st.lists(st.integers(1, 40), min_size=2, max_size=8),
        at=st.integers(0, 7),
        side=st.integers(0, 1),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_finite_times_are_rejected_by_index(self, owner, lengths, at, side, bad):
        # Quarter seconds, so the adjacent spans meet exactly.
        ends = np.cumsum(lengths) / 4
        spans = [[end - length / 4, end] for end, length in zip(ends, lengths)]
        at %= len(spans)
        spans[at][side] = bad
        message = f"times[{at}]: start and end must be finite"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            timed(owner, spans)

    @pytest.mark.parametrize("owner", ["labels", "embeddings"])
    def test_adjacent_spans_are_kept_as_float_pairs(self, owner):
        spans = ((0, 1), (1, 2.5), (3, 4))
        assert timed(owner, spans).times == ((0.0, 1.0), (1.0, 2.5), (3.0, 4.0))

    def test_times_length_must_match(self):
        with pytest.raises(ValidationError):
            StateSequence(labels=(0,), n_states=1, times=((0.0, 1.0), (1.0, 2.0)))

    @pytest.mark.parametrize(
        "labels, index",
        [((1.7,), 0), ((0, "2"), 1), ((0, 1, 1.0), 2), ((np.float64(2.0),), 0), ([0, None], 1)],
    )
    def test_rejects_non_integer_labels(self, labels, index):
        with pytest.raises(ValidationError, match=f" at index {index} is not an integer$"):
            StateSequence(labels=labels, n_states=3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "n_states, message",
        [
            (0, "n_states must be >= 1, got 0"),
            (-1, "n_states must be >= 1, got -1"),
            (2.5, "n_states 2.5 is not an integer"),
        ],
        ids=["0", "-1", "2.5"],
    )
    def test_rejects_n_states_below_one(self, n_states, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            StateSequence(labels=(), n_states=n_states)

    def test_n_states_is_stored_as_a_python_int(self):
        for n_states in (True, np.int64(1)):
            assert type(StateSequence([0], n_states).n_states) is int
        assert StateSequence([0], True).n_states == 1

    def test_integer_kinds_are_stored_as_python_ints(self):
        labels = (True, np.int64(2), np.uint8(0), np.int32(1), 2)
        seq = StateSequence(labels=labels, n_states=3)
        assert seq.labels == (1, 2, 0, 1, 2)
        assert all(type(x) is int for x in seq.labels)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "n_states, message",
        [(2.5, "n_states 2.5 is not an integer"), (0, "n_states must be >= 1, got 0")],
    )
    def test_state_count_must_be_a_positive_integer(self, n_states, message):
        for count in (count_transitions, estimate_transition):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                count([0, 1], n_states)

    @given(label_sequences())
    def test_cell_total_is_pair_count(self, case):
        labels, n_states = case
        counts = count_transitions(labels, n_states)
        assert counts.sum() == max(len(labels) - 1, 0)

    @given(label_sequences(min_len=0, max_len=200, max_states=8))
    def test_matches_add_at_counter(self, case):
        labels, n_states = case
        counts = count_transitions(labels, n_states)
        assert counts.dtype == np.int64
        assert counts.tolist() == add_at_counts(labels, n_states).tolist()


def add_at_counts(labels, n_states):
    """Reference: the np.add.at counter count_transitions used before bincount."""
    labels = np.asarray(list(labels), dtype=np.int64)
    counts = np.zeros((n_states, n_states), dtype=np.int64)
    if labels.size >= 2:
        np.add.at(counts, (labels[:-1], labels[1:]), 1)
    return counts


def list_as_labels(seq):
    """Reference: the _as_labels that boxed every input through list()."""
    if isinstance(seq, StateSequence):
        return np.asarray(seq.labels, dtype=np.int64)
    return np.asarray(list(seq), dtype=np.int64)


def loop_validate_labels(labels, n_states):
    """Reference: the per-label range check, as before the min/max fast path."""
    for i, lab in enumerate(labels):
        if not 0 <= lab < n_states:
            raise ValidationError(f"label {lab} at index {i} outside 0..{n_states - 1}")


def outcome(check, *args):
    try:
        check(*args)
    except ValidationError as exc:
        return str(exc)
    return None


class TestLabelIngestion:
    @given(label_sequences(min_len=0, max_len=100), st.sampled_from(
        ["ndarray", "list", "tuple", "generator", "sequence", "int32", "uint8"]
    ), st.booleans())
    def test_as_labels_matches_list_conversion(self, case, kind, ranged):
        labels, n_states = case
        make = {
            "ndarray": lambda: np.array(labels, dtype=np.int64),
            "int32": lambda: np.array(labels, dtype=np.int32),
            "uint8": lambda: np.array(labels, dtype=np.uint8),
            "list": lambda: list(labels),
            "tuple": lambda: tuple(labels),
            "generator": lambda: (x for x in labels),
            "sequence": lambda: StateSequence(labels=tuple(labels), n_states=n_states),
        }[kind]
        got = _as_labels(make(), n_states if ranged else None)
        expected = list_as_labels(make())
        assert got.dtype == expected.dtype == np.int64
        assert got.shape == expected.shape
        assert got.tolist() == expected.tolist()

    @given(
        st.lists(st.integers(-3, 8), max_size=40),
        st.integers(-1, 6),
        st.sampled_from([list, tuple, lambda x: np.array(x, dtype=np.int64)]),
    )
    def test_as_labels_range_check_matches_per_label_loop(self, labels, n_states, container):
        assert outcome(_as_labels, container(labels), n_states) == outcome(
            loop_validate_labels, container(labels), n_states
        )


class TestNormalize:
    def test_alternating_counts(self):
        model = normalize(np.array([[0, 2], [1, 0]]))
        assert model.probs.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_zero_row_uniform_policy(self):
        model = normalize(np.array([[2, 0], [0, 0]]))
        assert model.probs.tolist() == [[1.0, 0.0], [0.5, 0.5]]

    def test_plain_division(self):
        model = normalize(np.array([[1, 1], [3, 1]]))
        assert model.probs.tolist() == [[0.5, 0.5], [0.75, 0.25]]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            normalize(np.array([[1, -1], [0, 0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "counts, message",
        [
            ([[1.7, 0.3], [0.5, 0.5]], "counts must be a non-empty integer matrix, got float64"),
            (np.zeros((0, 0), dtype=int), "counts must be a non-empty integer matrix, got int64"),
            ([[2**62, 3 * 2**61], [1, 1]], f"counts must be at most {2**62 - 1}, so row"),
            ([[2**64 - 1]], f"counts must be at most {2**63 - 1}, so row totals fit int64"),
            ([[2**64]], "counts must be a non-empty integer matrix, got object"),
            ([[1, 2, 3]], r"counts must be square, got shape \(1, 3\)"),
        ],
    )
    def test_bad_count_matrices_rejected(self, counts, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            normalize(counts)


def reference_normalize(counts):
    """`normalize`'s body from when it built the probabilities for the model."""
    counts = counts.astype(np.int64)
    n = counts.shape[0]
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=np.full((n, n), 1.0 / n), where=totals > 0)


class TestTransitionModel:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_derives_the_reference_probabilities(self, data):
        n = data.draw(st.integers(1, 6))
        cells = data.draw(st.lists(st.integers(0, 10**6), min_size=n * n, max_size=n * n))
        observed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        counts = np.array(cells).reshape(n, n) * np.array(observed)[:, None]
        model = TransitionModel(counts)
        assert model.n_states == n
        assert model.probs.tobytes() == reference_normalize(counts).tobytes()
        assert not model.counts.flags.writeable and not model.probs.flags.writeable
        assert counts.flags.writeable  # the model holds a copy

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TransitionModel(np.ones((2, 2), dtype=int)),
            lambda: EmbeddingSet(np.eye(2)),
            lambda: AudioBuffer(np.zeros(4), 16000),
        ],
    )
    def test_compares_by_identity_and_hashes(self, build):
        a, b = build(), build()
        assert a == a and a != b
        assert hash(a) == hash(a) and isinstance(hash(b), int)


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

    def test_non_integer_state(self):
        model = normalize(np.array([[1, 0], [0, 1]]))
        with pytest.raises(ValidationError, match=r"^to_state 1\.0 is not an integer$"):
            update_online(model, 0, 1.0)

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


def per_row_normalized(count_row):
    """The per-row normalization loop body from before `normalize` was one division."""
    total = count_row.sum()
    if total > 0:
        return count_row / total
    return np.full(count_row.shape, 1.0 / count_row.shape[0])


@st.composite
def count_matrices(draw):
    """Square int64 counts, n in 1..8, with some rows forced to zero."""
    n = draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(0, 1000), min_size=n * n, max_size=n * n))
    observed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(cells, dtype=np.int64).reshape(n, n) * np.array(observed)[:, None]


class TestNormalizeReference:
    @given(count_matrices())
    @settings(max_examples=300, deadline=None)
    def test_normalize_matches_per_row_loop(self, counts):
        expected = np.stack([per_row_normalized(row) for row in counts])
        assert normalize(counts).probs.tobytes() == expected.tobytes()

    @given(count_matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_update_online_matches_one_row_update(self, counts, data):
        n = counts.shape[0]
        from_state = data.draw(st.integers(0, n - 1))
        to_state = data.draw(st.integers(0, n - 1))
        probs = np.stack([per_row_normalized(row) for row in counts])
        counts_after = counts.copy()
        counts_after[from_state, to_state] += 1
        probs[from_state] = per_row_normalized(counts_after[from_state])

        updated = update_online(normalize(counts), from_state, to_state)
        assert updated.counts.tolist() == counts_after.tolist()
        assert updated.probs.tobytes() == probs.tobytes()


class TestPredictNext:
    def test_argmax_picks_row_maximum(self):
        model = normalize(np.array([[9, 1], [2, 8]]))
        assert predict_next(model, 0, Argmax()) == 0
        assert predict_next(model, 1, Argmax()) == 1

    def test_argmax_tie_breaks_low(self):
        model = normalize(np.array([[1, 1], [1, 1]]))
        assert predict_next(model, 0, Argmax()) == 0

    def test_sampled_degenerate_row(self):
        model = normalize(np.array([[0, 3], [3, 0]]))
        for seed in (0, 1, 99):
            assert predict_next(model, 0, Sampled(seed)) == 1

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
        model = normalize(np.array([[6, 4], [3, 7]]))
        assert predict_sequence(model, 0, 4, Argmax()).labels == (0, 0, 0, 0)

    def test_sampled_reproducible(self):
        model = normalize(np.array([[5, 5], [5, 5]]))
        a = predict_sequence(model, 0, 200, Sampled(42))
        b = predict_sequence(model, 0, 200, Sampled(42))
        c = predict_sequence(model, 0, 200, Sampled(43))
        assert a.labels == b.labels
        assert a.labels != c.labels

    @pytest.mark.filterwarnings("error")
    def test_bad_length(self):
        model = normalize(np.array([[1, 1], [1, 1]]))
        with pytest.raises(ValidationError, match="^length must be >= 1, got 0$"):
            predict_sequence(model, 0, 0)

    @pytest.mark.parametrize("mode", [Argmax(), Sampled(0)], ids=["argmax", "sampled"])
    @pytest.mark.parametrize("length", [2.5, 2.0, "2"])
    def test_non_integer_length_names_its_field(self, mode, length):
        model = normalize(np.array([[1, 1], [1, 1]]))
        with pytest.raises(ValidationError, match=f"^length {re.escape(repr(length))} is not"):
            predict_sequence(model, 0, length, mode)


def query_row(model, state):
    """Reference: the per-state row query walk made before the comprehension kernel."""
    if not 0 <= state < model.n_states:
        raise ValidationError(f"state {state} outside 0..{model.n_states - 1}")
    return model.probs[state]


def per_step_walk(model, start, steps, rng):
    """Reference: one row query and one scalar draw per step, as before walk."""
    path, state = [], start
    for _ in range(steps):
        row = query_row(model, state)
        if rng is None:
            state = int(np.argmax(row))
        else:
            u = rng.random()
            idx = int(np.searchsorted(np.cumsum(row), u, side="right"))
            state = min(idx, model.n_states - 1)
        path.append(state)
    return path


def run_walker(walker, model, start, steps, seed):
    """Path and final generator state."""
    rng = None if seed is None else np.random.default_rng(seed)
    path = walker(model, start, steps, rng)
    return path, None if rng is None else rng.bit_generator.state


class TestWalk:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_step_loop(self, data):
        n = data.draw(st.integers(1, 5))
        cells = data.draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
        observed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        counts = np.array(cells).reshape(n, n) * np.array(observed)[:, None]
        model = normalize(counts)
        start = data.draw(st.integers(0, n - 1))
        steps = data.draw(st.integers(0, 60))
        seed = data.draw(st.none() | st.integers(0, 2**32 - 1))

        assert run_walker(walk, model, start, steps, seed) == run_walker(
            per_step_walk, model, start, steps, seed
        )

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_sub_stochastic_rows_end_on_last_state(self, data):
        """A draw above a row's cumulative total lands on the last state.

        The rows are scaled below 1 so that draws regularly land above the
        total, where the table without its last cumsum entry must agree
        with the clamped bisect of the full cumsum.
        """
        n = data.draw(st.integers(1, 5))
        cells = data.draw(st.lists(st.integers(1, 4), min_size=n * n, max_size=n * n))
        scale = data.draw(st.floats(0.3, 0.999))
        counts = np.array(cells).reshape(n, n)
        probs = scale * counts / counts.sum(axis=1, keepdims=True)
        # Rows summing below 1 come from no count matrix; walk reads only these two.
        model = SimpleNamespace(n_states=n, probs=probs)
        start = data.draw(st.integers(0, n - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        got = run_walker(walk, model, start, 80, seed)
        assert got == run_walker(per_step_walk, model, start, 80, seed)
        path = got[0]
        draws = np.random.default_rng(seed).random(80)
        totals = np.cumsum(probs, axis=1)[:, -1][[start, *path[:-1]]]
        assert all(p == n - 1 for p, u, t in zip(path, draws, totals) if u >= t)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_walks_in_pieces_continue_one_stream(self, data):
        """Drawing `steps` uniforms in pieces equals one ``random(steps)``.

        The session's candidate choice walks a candidate chunk by chunk on
        one generator, so each piece's walk from the carried state must
        join into the walk one call would give.
        """
        n = data.draw(st.integers(1, 5))
        cells = data.draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
        model = normalize(np.array(cells).reshape(n, n))
        start = data.draw(st.integers(0, n - 1))
        steps = data.draw(st.integers(0, 300))
        cuts = sorted(data.draw(st.lists(st.integers(0, steps), max_size=8)))
        seed = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
        bounds = list(zip([0, *cuts], [*cuts, steps]))

        rng = np.random.default_rng(seed)
        pieces = [rng.random(stop - begin) for begin, stop in bounds]
        whole = np.random.default_rng(seed)
        assert np.concatenate(pieces).tolist() == whole.random(steps).tolist()
        assert rng.bit_generator.state == whole.bit_generator.state

        rng, path, state = np.random.default_rng(seed), [], start
        for begin, stop in bounds:
            piece = walk(model, state, stop - begin, rng)
            path += piece
            state = path[-1] if path else start
        assert path == walk(model, start, steps, np.random.default_rng(seed))

    def test_out_of_range_start(self):
        model = normalize(np.array([[1, 1], [1, 1]]))
        with pytest.raises(ValidationError, match="state 2"):
            walk(model, 2, 1)
        assert walk(model, 2, 0) == []

    @pytest.mark.parametrize("start", [1.0, np.float64(1.0), "1", None])
    def test_non_integer_start_is_rejected(self, start):
        model = normalize(np.array([[1, 1], [1, 1]]))
        calls = [
            (lambda: walk(model, start, 3), "state"),
            (lambda: predict_sequence(model, start, 3), "initial"),
            (lambda: predict_sequence(model, start, 3, Sampled(0)), "initial"),
        ]
        for call, name in calls:
            with pytest.raises(ValidationError) as excinfo:
                call()
            assert str(excinfo.value) == f"{name} {start!r} is not an integer"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [None, 5], ids=["argmax", "sampled"])
    @pytest.mark.parametrize(
        "steps, message",
        [
            (-3, "steps must be >= 0, got -3"),
            (-1, "steps must be >= 0, got -1"),
            (2.0, "steps 2.0 is not an integer"),
            ("2", "steps '2' is not an integer"),
            (None, "steps None is not an integer"),
        ],
    )
    def test_steps_must_be_a_non_negative_integer(self, seed, steps, message):
        model = normalize(np.array([[1, 1], [1, 1]]))
        rng = None if seed is None else np.random.default_rng(seed)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            walk(model, 0, steps, rng)

    @pytest.mark.parametrize("seed", [None, 5], ids=["argmax", "sampled"])
    def test_zero_steps_walk_nowhere(self, seed):
        model = normalize(np.array([[1, 1], [1, 1]]))
        rng = None if seed is None else np.random.default_rng(seed)
        assert walk(model, 0, 0, rng) == []
        assert walk(model, 0, np.int64(0), rng) == []

    def test_integer_kinds_start_a_walk(self):
        model = normalize(np.array([[0, 1], [1, 0]]))
        for start in (1, True, np.int64(1), np.uint8(1)):
            assert walk(model, start, 3) == [0, 1, 0]
            assert predict_sequence(model, start, 3).labels == (1, 0, 1)


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

