import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convstate.controller import FixedEvery, SessionConfig, Thresholds, run_session
from convstate.errors import ValidationError
from convstate.harness import (
    align_labels,
    chain_oracle,
    generate_synthetic_embeddings,
    generate_synthetic_sequence,
    matched_chain_oracle,
    sequence_with_exact_counts,
)
from convstate.markov import (
    Argmax,
    Sampled,
    StateSequence,
    count_transitions,
    estimate_transition,
    normalize,
    predict_sequence,
    walk,
)

CYCLE = normalize(np.array([[0, 9, 0], [0, 0, 9], [9, 0, 0]]))
STICKY = normalize(np.array([[86, 7, 7], [7, 86, 7], [7, 7, 86]]))


class TestGenerateSyntheticSequence:
    def test_deterministic_chain_rollout(self):
        seq = generate_synthetic_sequence(CYCLE, 6, 0, seed=0)
        assert seq.labels == (0, 1, 2, 0, 1, 2)

    def test_long_run_frequencies_match_stationary(self):
        seq = generate_synthetic_sequence(STICKY, 20_000, 0, seed=13)
        pi = np.linalg.matrix_power(STICKY.probs, 1000)[0]
        labels = np.asarray(seq.labels)
        observed = np.array([(labels == s).mean() for s in range(3)])
        assert np.abs(observed - pi).max() <= 0.02

    def test_same_seed_identical(self):
        a = generate_synthetic_sequence(STICKY, 500, 1, seed=21)
        b = generate_synthetic_sequence(STICKY, 500, 1, seed=21)
        assert a.labels == b.labels

    def test_bad_initial(self):
        with pytest.raises(ValidationError):
            generate_synthetic_sequence(CYCLE, 5, 7, seed=0)


class TestChainOracles:
    def test_sequences_continue_one_trajectory(self):
        pieces = list(chain_oracle(CYCLE, length=6, initial=0, seed=0, iterations=3))
        joined = [label for piece in pieces for label in piece.labels]
        expected = [(0 + i) % 3 for i in range(18)]
        assert joined == expected

    def test_matched_oracle_reuses_candidate_stream(self):
        pieces = list(
            matched_chain_oracle(STICKY, length=10, initial=2, seed=5, iterations=3)
        )
        assert pieces[0].labels[0] == 2
        rng = np.random.default_rng([5, 1, 0])
        replayed = walk(STICKY, pieces[0].labels[-1], 10, rng)
        assert list(pieces[1].labels) == replayed

    @pytest.mark.parametrize("iterations", [0, 1, 3])
    @pytest.mark.parametrize("make_oracle", [chain_oracle, matched_chain_oracle])
    def test_explicit_bootstrap_is_first(self, make_oracle, iterations):
        # `iterations` counts the bootstrap, as it counts the sampled first sequence.
        bootstrap = sequence_with_exact_counts(STICKY.counts)
        pieces = list(make_oracle(STICKY, length=10, initial=0, seed=5, iterations=iterations,
                                  bootstrap=bootstrap))
        unbootstrapped = list(make_oracle(STICKY, length=10, initial=0, seed=5,
                                          iterations=iterations))
        assert len(pieces) == len(unbootstrapped) == iterations
        assert pieces[:1] == [bootstrap][:iterations]

    @pytest.mark.parametrize("make_oracle", [chain_oracle, matched_chain_oracle])
    def test_bootstrap_alphabet_must_match(self, make_oracle):
        bootstrap = sequence_with_exact_counts(np.array([[1, 1], [1, 1]]))
        with pytest.raises(ValidationError, match="bootstrap alphabet does not match the chain"):
            next(make_oracle(STICKY, 10, 0, seed=5, iterations=3, bootstrap=bootstrap))

    @pytest.mark.parametrize("length", [1, 3])
    @pytest.mark.parametrize("initial", [1.0, np.float64(1.0), "1"])
    def test_non_integer_initial_rejected(self, length, initial):
        for make_oracle in (chain_oracle, matched_chain_oracle):
            with pytest.raises(ValidationError) as excinfo:
                next(make_oracle(STICKY, length, initial, seed=1, iterations=2))
            assert str(excinfo.value) == f"initial {initial!r} is not an integer"

    @pytest.mark.parametrize("length", [2.5, 2.0, "2"])
    def test_non_integer_length_names_its_field(self, length):
        for make_oracle in (chain_oracle, matched_chain_oracle):
            with pytest.raises(ValidationError) as excinfo:
                next(make_oracle(STICKY, length, 0, seed=1, iterations=2))
            assert str(excinfo.value) == f"length {length!r} is not an integer"
            # iterations has no lower bound: at or below 0 it yields nothing.
            with pytest.raises(ValidationError) as excinfo:
                next(make_oracle(STICKY, 10, 0, seed=1, iterations=length))
            assert str(excinfo.value) == f"iterations {length!r} is not an integer"

    @pytest.mark.parametrize("length", [0, -3])
    def test_length_below_one_rejected(self, length):
        bootstrap = sequence_with_exact_counts(STICKY.counts)
        oracles = [
            chain_oracle(STICKY, length, 0, seed=1, iterations=2),
            matched_chain_oracle(STICKY, length, 0, seed=1, iterations=2),
            matched_chain_oracle(STICKY, length, 0, seed=1, iterations=2, bootstrap=bootstrap),
            chain_oracle(STICKY, length, 0, seed=1, iterations=2, bootstrap=bootstrap),
        ]
        for oracle in oracles:
            # Before a bootstrap is yielded.
            with pytest.raises(ValidationError, match=f"length must be >= 1, got {length}"):
                next(oracle)


def flatnonzero_exact_counts(counts):
    """Reference: the Hierholzer walk that searched each row with np.flatnonzero."""
    matrix = np.asarray(counts, dtype=np.int64)
    if (matrix.sum(axis=1) != matrix.sum(axis=0)).any() or matrix.sum() == 0:
        raise ValidationError("unbalanced or empty")
    remaining = matrix.copy()
    stack = [int(np.flatnonzero(matrix.sum(axis=1))[0])]
    circuit = []
    while stack:
        node = stack[-1]
        successors = np.flatnonzero(remaining[node])
        if successors.size:
            nxt = int(successors[0])
            remaining[node, nxt] -= 1
            stack.append(nxt)
        else:
            circuit.append(stack.pop())
    if remaining.sum() != 0:
        raise ValidationError("bigram graph is not connected; no single circuit")
    circuit.reverse()
    return StateSequence(labels=tuple(circuit), n_states=matrix.shape[0])


@st.composite
def closed_walk_counts(draw):
    """Bigram counts of one or more closed walks: balanced, maybe disconnected."""
    n = draw(st.integers(1, 6))
    counts = np.zeros((n, n), dtype=np.int64)
    for _ in range(draw(st.integers(1, 3))):
        walk = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40))
        counts += count_transitions([*walk, walk[0]], n)
    return counts


class TestSequenceWithExactCounts:
    @given(closed_walk_counts())
    @settings(max_examples=200)
    def test_matches_flatnonzero_walk(self, counts):
        def run(build):
            try:
                return build(counts)
            except ValidationError as exc:
                return str(exc)

        assert run(sequence_with_exact_counts) == run(flatnonzero_exact_counts)

    def test_reproduces_counts(self):
        counts = np.array([[86, 7, 7], [7, 86, 7], [7, 7, 86]])
        seq = sequence_with_exact_counts(counts)
        assert count_transitions(seq, 3).tolist() == counts.tolist()
        assert estimate_transition(seq, 3).probs == pytest.approx(STICKY.probs)

    def test_rejects_unbalanced(self):
        with pytest.raises(ValidationError, match="in-counts"):
            sequence_with_exact_counts(np.array([[0, 2], [1, 0]]))

    @pytest.mark.filterwarnings("error")
    def test_rejects_fractional_counts(self):
        with pytest.raises(ValidationError, match="integer matrix, got float64"):
            sequence_with_exact_counts([[1.6, 1.2], [1.4, 0.0]])

    @pytest.mark.parametrize("n", [1, 3])
    def test_rejects_all_zero_counts(self, n):
        with pytest.raises(ValidationError, match="^counts are all zero; nothing to traverse$"):
            sequence_with_exact_counts(np.zeros((n, n), dtype=int))

    def test_rejects_disconnected(self):
        disconnected = np.array(
            [[2, 0, 0], [0, 0, 0], [0, 0, 2]]
        )
        with pytest.raises(ValidationError, match="connected"):
            sequence_with_exact_counts(disconnected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_random_balanced_matrices_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.integers(1, 9, (3, 3))
        balanced = base + base.T  # symmetric counts are always balanced
        seq = sequence_with_exact_counts(balanced)
        assert count_transitions(seq, 3).tolist() == balanced.tolist()


def assert_boxed_once(seq):
    """`seq` equals its checked rebuild and holds a tuple of Python ints."""
    assert seq == StateSequence(labels=seq.labels, n_states=seq.n_states)
    assert type(seq.labels) is tuple
    assert all(type(x) is int for x in seq.labels)


@st.composite
def walked_cases(draw):
    """A random chain over 1-5 states, a length 1-300, a start of any integer kind."""
    n = draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
    model = normalize(np.array(cells).reshape(n, n))
    start = draw(st.sampled_from([int, np.int64, np.uint8]))(draw(st.integers(0, n - 1)))
    length = draw(st.integers(1, 300))
    return model, start, length, draw(st.integers(0, 2**32 - 1))


class TestUncheckedProducers:
    """Walks and Euler circuits skip StateSequence's checks; their output must pass them."""

    @given(walked_cases(), st.booleans())
    @settings(deadline=None)
    def test_predict_sequence(self, case, sampled):
        model, start, length, seed = case
        assert_boxed_once(predict_sequence(model, start, length, Sampled(seed) if sampled else Argmax()))

    @given(walked_cases(), st.data())
    @settings(deadline=None)
    def test_chain_oracles_and_exact_counts(self, case, data):
        model, start, length, seed = case
        circuit = data.draw(st.lists(st.integers(0, model.n_states - 1), min_size=1, max_size=300))
        bootstrap = sequence_with_exact_counts(count_transitions([*circuit, circuit[0]], model.n_states))
        assert_boxed_once(bootstrap)
        oracles = [
            chain_oracle(model, length, start, seed, iterations=3),
            matched_chain_oracle(model, length, start, seed, iterations=3),
            matched_chain_oracle(model, length, start, seed, iterations=3, bootstrap=bootstrap),
            chain_oracle(model, length, start, seed, iterations=3, bootstrap=bootstrap),
        ]
        for oracle in oracles:
            for piece in oracle:
                assert_boxed_once(piece)

    @given(walked_cases(), st.booleans(), st.booleans(), st.data())
    @settings(deadline=None)
    def test_one_oracle_continues_one_trajectory(self, case, matched, with_bootstrap, data):
        """Sequence 0 is the bootstrap or starts at `start`; chunk i walks on from
        chunk i - 1's last label, with default_rng([seed, i, 0]) when matched
        and one threaded default_rng(seed) otherwise."""
        model, start, length, seed = case
        bootstrap = None
        if with_bootstrap:
            circuit = data.draw(st.lists(st.integers(0, model.n_states - 1), min_size=1, max_size=50))
            bootstrap = sequence_with_exact_counts(count_transitions([*circuit, circuit[0]], model.n_states))
        make_oracle = matched_chain_oracle if matched else chain_oracle
        pieces = list(make_oracle(model, length, start, seed, iterations=4, bootstrap=bootstrap))
        assert len(pieces) == 4
        threaded = np.random.default_rng(seed)

        def rng_for(i):
            return np.random.default_rng([seed, i, 0]) if matched else threaded

        if bootstrap is None:
            assert list(pieces[0].labels) == [int(start), *walk(model, start, length - 1, rng_for(0))]
        else:
            assert pieces[0] is bootstrap
        for i in range(1, 4):
            assert list(pieces[i].labels) == walk(model, pieces[i - 1].labels[-1], length, rng_for(i))

    @given(walked_cases(), st.booleans(), st.integers(1, 2))
    @settings(deadline=None)
    def test_run_session_records_and_bootstrap(self, case, sampled, check_every):
        model, start, length, seed = case
        config = SessionConfig(
            thresholds=Thresholds(checker_interval=FixedEvery(check_every)),
            mode=Sampled(seed) if sampled else Argmax(), seed=seed, iterations=2,
        )
        first, *_ = oracle = list(matched_chain_oracle(model, length, start, seed, iterations=3))
        report = run_session(oracle, config)
        assert_boxed_once(report.bootstrap)
        assert report.bootstrap.labels == first.labels
        for record in report.iterations:
            assert_boxed_once(record.predicted)


class TestGenerateSyntheticEmbeddings:
    def test_means_pairwise_separation(self):
        embeddings, labels = generate_synthetic_embeddings(3, 50, 8, 4.0, 1e-12, 0)
        vectors = embeddings.vectors
        centers = [vectors[np.array(labels) == c].mean(axis=0) for c in range(3)]
        for a, b in itertools.combinations(centers, 2):
            assert np.linalg.norm(a - b) == pytest.approx(4.0, abs=1e-6)

    def test_label_layout(self):
        _, labels = generate_synthetic_embeddings(3, 20, 16, 5.0, 1.0, 7)
        assert labels == [0] * 20 + [1] * 20 + [2] * 20

    def test_tiny_noise_means_tiny_variance(self):
        embeddings, labels = generate_synthetic_embeddings(2, 30, 4, 3.0, 1e-12, 1)
        vectors = embeddings.vectors
        within = vectors[:30] - vectors[:30].mean(axis=0)
        assert np.abs(within).max() < 1e-9

    @pytest.mark.parametrize(
        "n_clusters, per_cluster, message",
        [
            (0, 10, "n_clusters must be >= 1, got 0"),
            (2, 0, "per_cluster must be >= 1, got 0"),
            (-1, 5, "n_clusters must be >= 1, got -1"),
            (2.5, 3, "n_clusters 2.5 is not an integer"),
            (2, 2.5, "per_cluster 2.5 is not an integer"),
        ],
        ids=["0-10", "2-0", "-1-5", "2.5-3", "2-2.5"],
    )
    def test_counts_below_one_rejected(self, n_clusters, per_cluster, message):
        with pytest.raises(ValidationError) as excinfo:
            generate_synthetic_embeddings(n_clusters, per_cluster, 4, 2.0, 0.1, 0)
        assert str(excinfo.value) == message

    def test_dim_must_fit_clusters(self):
        with pytest.raises(ValidationError, match="dim"):
            generate_synthetic_embeddings(5, 10, 3, 2.0, 0.1, 0)

    def test_deterministic(self):
        a, _ = generate_synthetic_embeddings(2, 10, 4, 3.0, 0.5, 3)
        b, _ = generate_synthetic_embeddings(2, 10, 4, 3.0, 0.5, 3)
        assert np.array_equal(a.vectors, b.vectors)


class TestAlignLabels:
    def test_recovers_swap(self):
        truth = [0, 1, 2, 0, 1, 2]
        swapped = [1, 0, 2, 1, 0, 2]
        perm, aligned = align_labels(swapped, truth)
        assert aligned == truth
        assert perm[1] == 0 and perm[0] == 1

    def test_identity_when_equal(self):
        truth = [0, 1, 0, 2]
        perm, aligned = align_labels(truth, truth)
        assert perm == (0, 1, 2)
        assert aligned == truth

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_matches_exhaustive_minimum(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 3, 30).tolist()
        truth = rng.integers(0, 3, 30).tolist()
        _, aligned = align_labels(pred, truth)
        achieved = sum(1 for a, t in zip(aligned, truth) if a != t)
        best = min(
            sum(1 for p, t in zip(pred, truth) if perm[p] != t)
            for perm in itertools.permutations(range(3))
        )
        assert achieved == best
        identity_score = sum(1 for p, t in zip(pred, truth) if p != t)
        assert achieved <= identity_score

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_scan_per_permutation(self, data):
        # The reference is the earlier search: one pass over every label per
        # permutation, keeping the first with the fewest mismatches.
        def scanned(pred, truth, n_states):
            p, t = np.asarray(pred, np.int64), np.asarray(truth, np.int64)
            best_perm, best_mismatches = None, p.size + 1
            for perm in itertools.permutations(range(n_states)):
                mismatches = int(np.count_nonzero(np.asarray(perm)[p] != t))
                if mismatches < best_mismatches:
                    best_perm, best_mismatches = perm, mismatches
            return best_perm, [int(best_perm[x]) for x in p]

        k = data.draw(st.integers(1, 8), "k")
        # Few labels over a large alphabet leave many permutations tied.
        n = data.draw(st.integers(0, 24), "n")
        pred = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), "pred")
        truth = data.draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n), "truth")
        wrap_pred = data.draw(st.booleans(), "wrap pred")
        wrap_truth = -1 not in truth and data.draw(st.booleans(), "wrap truth")
        n_states = k if wrap_pred or wrap_truth else max(pred + truth, default=0) + 1
        result = align_labels(
            StateSequence(pred, k) if wrap_pred else pred,
            StateSequence(truth, k) if wrap_truth else truth,
        )
        assert result == scanned(pred, truth, n_states)
        assert all(type(x) is int for x in result[0] + tuple(result[1]))

    def test_rejects_large_alphabet(self):
        with pytest.raises(ValidationError, match="8"):
            align_labels(list(range(9)), list(range(9)))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            align_labels([0, 1], [0, 1, 2])
