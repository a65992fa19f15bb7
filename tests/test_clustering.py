import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convstate import clustering
from convstate.clustering import (
    PERCENTILE_GRID,
    EmbeddingSet,
    affinity,
    auto_percentile,
    diffuse,
    eigen_gap_k,
    gaussian_blur,
    kmeans,
    refine,
    row_normalize,
    row_threshold,
    spectral_cluster,
    symmetric_eigh,
    symmetrize,
)
from convstate.errors import ValidationError
from convstate.harness import align_labels, generate_synthetic_embeddings


def direct_blur_oracle(values, sigma=1.0):
    """Nested-loop convolution with in-bounds renormalization.

    The centre weight is 1; off-centre weights are 0 once 2 sigma^2 underflows.
    """
    radius = math.ceil(2 * sigma)
    two_var = 2 * sigma * sigma
    n, m = values.shape
    out = np.zeros_like(values)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            weight_sum = 0.0
            for di in range(-radius, radius + 1):
                for dj in range(-radius, radius + 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < n and 0 <= jj < m:
                        d2 = di * di + dj * dj
                        if d2 == 0:
                            w = 1.0
                        elif two_var == 0.0:
                            w = 0.0
                        else:
                            w = math.exp(-d2 / two_var)
                        acc += w * values[ii, jj]
                        weight_sum += w
            out[i, j] = acc / weight_sum
    return out


def convolve2d_blur(values, sigma=1.0):
    """The blur as two scipy.signal.convolve2d calls over the full 2-D kernel."""
    convolve2d = pytest.importorskip("scipy.signal").convolve2d
    radius = math.ceil(2.0 * sigma)
    if radius == 0:
        return values.copy()
    offsets = np.arange(-radius, radius + 1)
    line = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel = np.outer(line, line)
    kernel /= kernel.sum()
    smoothed = convolve2d(values, kernel, mode="same", boundary="fill")
    coverage = convolve2d(np.ones_like(values), kernel, mode="same", boundary="fill")
    return smoothed / coverage


class TestAffinity:
    def test_identical_vectors_give_ones(self):
        emb = EmbeddingSet(np.tile([1.0, 2.0, 3.0], (4, 1)))
        assert np.allclose(affinity(emb), 1.0)

    def test_orthogonal_pair(self):
        emb = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        a = affinity(emb)
        assert a[0, 1] == pytest.approx(0.5)
        assert a[0, 0] == 1.0

    def test_antiparallel_pair(self):
        emb = EmbeddingSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert affinity(emb)[0, 1] == pytest.approx(0.0)

    def test_zero_norm_names_index(self):
        emb = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="embedding 1"):
            affinity(emb)


class TestGaussianBlur:
    def test_taps_are_the_unit_gaussian_cut_at_two(self):
        assert clustering._BLUR_TAPS == pytest.approx([math.exp(-0.5), math.exp(-2.0)], rel=1e-15)

    def test_constant_matrix_fixed_point(self):
        constant = np.full((7, 7), 0.3)
        assert np.abs(gaussian_blur(constant) - 0.3).max() < 1e-12

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, (9, 9))
        ours = gaussian_blur(values)
        oracle = direct_blur_oracle(values)
        assert np.abs(ours - oracle).max() < 1e-12

    def test_single_spike_spreads(self):
        values = np.zeros((9, 9))
        values[4, 4] = 1.0
        blurred = gaussian_blur(values)
        oracle = direct_blur_oracle(values)
        assert np.abs(blurred - oracle).max() < 1e-12
        assert blurred[4, 4] < 1.0
        assert blurred[4, 5] > 0.0

    def test_preserves_symmetry(self):
        rng = np.random.default_rng(4)
        raw = rng.uniform(0, 1, (8, 8))
        symmetric = 0.5 * (raw + raw.T)
        blurred = gaussian_blur(symmetric)
        assert np.abs(blurred - blurred.T).max() < 1e-12

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    # n = 1, 2, 3: the taps are capped at n - 1, so 0, 1 and 2 of them.
    @example(seed=0, n=1)
    @example(seed=0, n=2)
    @example(seed=0, n=3)
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_convolution_on_any_square(self, seed, n):
        values = np.random.default_rng(seed).uniform(-1, 1, (n, n))
        blurred = gaussian_blur(values)
        assert np.isfinite(blurred).all()
        assert np.abs(blurred - direct_blur_oracle(values)).max() < 1e-12


class TestRowThreshold:
    def test_identical_row_unchanged(self):
        values = np.full((3, 3), 0.4)
        assert np.array_equal(row_threshold(values), values)

    def test_nearest_rank_example(self):
        values = np.array([[1.0, 0.1, 0.1, 0.1]] * 4)
        out = row_threshold(values, percentile=75.0)
        assert out[0].tolist() == [1.0, 0.001, 0.001, 0.001]

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValidationError):
            row_threshold(np.ones((2, 2)), percentile=0.0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        levels=st.integers(1, 6),
        percentile=st.floats(0.01, 99.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_nearest_rank_loop(self, seed, n, levels, percentile):
        # Few distinct levels, so cutoffs often fall on ties.
        values = np.random.default_rng(seed).integers(0, levels, (n, n)) / levels
        expected = values.copy()
        for row in expected:
            ordered = np.sort(row)
            cutoff = ordered[min(int(row.size * percentile / 100.0 + 1e-9), row.size - 1)]
            row[row < cutoff] *= 0.01
        out = row_threshold(values, percentile)
        assert np.array_equal(out, expected)


class TestSymmetrize:
    def test_symmetric_fixed_point(self):
        values = np.array([[1.0, 0.2], [0.2, 1.0]])
        assert np.array_equal(symmetrize(values), values)

    def test_max_rule(self):
        assert symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]])).tolist() == [
            [0.0, 1.0],
            [1.0, 0.0],
        ]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_output_always_symmetric(self, seed):
        values = np.random.default_rng(seed).uniform(0, 1, (6, 6))
        out = symmetrize(values)
        assert np.array_equal(out, out.T)


class TestDiffuse:
    def test_identity_fixed_point(self):
        assert np.array_equal(diffuse(np.eye(3)), np.eye(3))

    def test_hand_product(self):
        assert diffuse(np.array([[1.0, 0.0], [1.0, 1.0]])).tolist() == [
            [1.0, 1.0],
            [1.0, 2.0],
        ]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_output_positive_semidefinite(self, seed):
        values = np.random.default_rng(seed).uniform(-1, 1, (6, 6))
        out = diffuse(values)
        eigenvalues = np.linalg.eigvalsh(0.5 * (out + out.T))
        assert eigenvalues.min() > -1e-9


class TestRowNormalize:
    def test_hand_division(self):
        out = row_normalize(np.array([[2.0, 4.0], [1.0, 1.0]]))
        assert out.tolist() == [[0.5, 1.0], [1.0, 1.0]]

    def test_normalized_fixed_point(self):
        values = np.array([[0.5, 1.0], [1.0, 0.25]])
        assert np.array_equal(row_normalize(values), values)

    def test_zero_row_rejected(self):
        with pytest.raises(ValidationError, match="row 1"):
            row_normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_row_max_becomes_one(self, seed):
        values = np.random.default_rng(seed).uniform(0.1, 1, (5, 5))
        out = row_normalize(values)
        assert out.max(axis=1) == pytest.approx(np.ones(5))


STAGES = {
    "gaussian_blur": gaussian_blur,
    "row_threshold": row_threshold,
    "symmetrize": symmetrize,
    "diffuse": diffuse,
    "row_normalize": row_normalize,
}


class TestStageInputs:
    @pytest.mark.parametrize("stage", sorted(STAGES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, stage, bad):
        values = np.ones((4, 4))
        values[1, 2] = bad
        with pytest.raises(ValidationError, match="affinity contains NaN or Inf"):
            STAGES[stage](values)

    @pytest.mark.parametrize("stage", sorted(STAGES))
    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_rejected(self, stage, shape):
        with pytest.raises(ValidationError, match="affinity must be square"):
            STAGES[stage](np.ones(shape))

    def test_diffuse_rejects_an_overflowing_product(self):
        values = np.array([[1e200, 1e200], [1.0, 1.0]])
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="NaN or Inf"):
            diffuse(values)

    def test_row_normalize_rejects_an_overflowing_quotient(self):
        values = np.array([[1e-300, -1e300], [1.0, 1.0]])
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="NaN or Inf"):
            row_normalize(values)

    def test_affinity_rejects_vectors_whose_products_overflow(self):
        embeddings = EmbeddingSet(np.array([[1e200, 1e200], [1e200, 0.0]]))
        with np.errstate(all="ignore"), pytest.raises(ValidationError, match="NaN or Inf"):
            affinity(embeddings)


class TestSymmetricEigh:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_numpy_eigh(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(0, 1, (8, 8))
        matrix = 0.5 * (raw + raw.T)
        values, vectors = symmetric_eigh(matrix)
        expected = np.sort(np.linalg.eigvalsh(matrix))[::-1]
        assert np.abs(values - expected).max() < 1e-8
        reconstructed = vectors @ np.diag(values) @ vectors.T
        assert np.abs(reconstructed - matrix).max() < 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            symmetric_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_one_by_one(self):
        values, vectors = symmetric_eigh(np.array([[4.0]]))
        assert values.tolist() == [4.0]
        assert vectors.tolist() == [[1.0]]


class TestEigenGap:
    def test_three_blocks(self):
        blocks = np.zeros((12, 12))
        for start in (0, 4, 8):
            blocks[start : start + 4, start : start + 4] = 1.0
        expected = np.sort(np.linalg.eigvalsh(blocks))[::-1]
        assert expected[2] == pytest.approx(4.0)
        assert eigen_gap_k(blocks) == 3

    def test_identity_degenerate(self):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            assert eigen_gap_k(np.eye(5)) == 1

    def test_rank_one(self):
        vector = np.ones((4, 1))
        assert eigen_gap_k(vector @ vector.T) == 1


class TestKmeans:
    def test_single_cluster(self):
        points = np.random.default_rng(0).normal(0, 1, (10, 2))
        assert kmeans(points, 1, seed=0).tolist() == [0] * 10

    def test_separated_blobs_match_distance_oracle(self):
        rng = np.random.default_rng(1)
        blob_a = rng.normal(0, 1, (25, 2))
        blob_b = rng.normal(10, 1, (25, 2))
        points = np.vstack([blob_a, blob_b])
        labels = kmeans(points, 2, seed=1)
        means = [points[labels == c].mean(axis=0) for c in (0, 1)]
        oracle = [
            int(np.argmin([np.linalg.norm(p - m) for m in means])) for p in points
        ]
        assert labels.tolist() == oracle
        assert set(labels[:25]) != set(labels[25:]) or len(set(labels)) == 2
        assert labels[:25].tolist() == [labels[0]] * 25

    def test_k_equals_point_count(self):
        points = np.arange(10, dtype=float).reshape(5, 2)
        assert sorted(kmeans(points, 5, seed=2).tolist()) == [0, 1, 2, 3, 4]

    def test_k_larger_than_points_rejected(self):
        with pytest.raises(ValidationError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_k_above_distinct_points_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            kmeans(np.ones((5, 2)), 3, seed=0)

    def test_first_occurrence_label_order(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0], [0.1, 0.0], [10.1, 0.0]])
        labels = kmeans(points, 2, seed=9)
        assert labels[0] == 0
        assert labels.tolist() == [0, 1, 0, 1]

    def test_deterministic(self):
        points = np.random.default_rng(3).normal(0, 1, (30, 4))
        assert np.array_equal(kmeans(points, 3, seed=5), kmeans(points, 3, seed=5))


FIXTURE = generate_synthetic_embeddings(3, 20, 16, 5.0, 1.0, 7)


class TestSpectralCluster:
    def test_three_cluster_fixture(self):
        embeddings, truth = FIXTURE
        predicted = spectral_cluster(embeddings, seed=7)
        assert predicted.n_states == 3
        _, aligned = align_labels(list(predicted.labels), truth)
        assert np.mean(np.array(aligned) == np.array(truth)) >= 0.99

    def test_eigengap_at_selected_percentile(self):
        embeddings, _ = FIXTURE
        percentile = auto_percentile(embeddings)
        refined = refine(embeddings, percentile=percentile)
        sym = 0.5 * (refined + refined.T)
        assert eigen_gap_k(sym) == 3

    def test_identical_embeddings_single_state(self):
        same = EmbeddingSet(np.tile([0.3, 0.3, 0.1], (6, 1)))
        predicted = spectral_cluster(same, seed=0)
        assert predicted.n_states == 1
        assert set(predicted.labels) == {0}

    def test_forced_k_matches_direct_kmeans_when_separated(self):
        embeddings, _ = generate_synthetic_embeddings(2, 15, 8, 6.0, 1.0, 5)
        spectral = spectral_cluster(embeddings, k=2, seed=3)
        direct = kmeans(embeddings.vectors, 2, seed=3)
        assert list(spectral.labels) == [int(x) for x in direct]

    def test_deterministic_per_seed(self):
        embeddings, _ = FIXTURE
        first = spectral_cluster(embeddings, seed=7)
        second = spectral_cluster(embeddings, seed=7)
        assert first.labels == second.labels

    def test_permutation_equivariance_without_blur(self, monkeypatch):
        # The blur couples neighbouring indices on purpose; without it every
        # other stage must commute with a reordering of the segments.
        monkeypatch.setattr(clustering, "gaussian_blur", lambda a: a)
        embeddings, truth = FIXTURE
        base = spectral_cluster(embeddings, seed=7, percentile=80.0)
        rng = np.random.default_rng(11)
        for _ in range(2):
            order = rng.permutation(len(embeddings.vectors))
            shuffled = EmbeddingSet(embeddings.vectors[order])
            relabeled = spectral_cluster(shuffled, seed=7, percentile=80.0)
            expected = [base.labels[i] for i in order]
            _, aligned = align_labels(list(relabeled.labels), expected)
            assert aligned == expected

    def test_times_carried_through(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.1], [-1.0, 0.0], [-1.0, 0.1]])
        times = ((0.0, 0.4), (0.4, 0.8), (0.8, 1.2), (1.2, 1.6))
        embeddings = EmbeddingSet(vectors, times=times)
        predicted = spectral_cluster(embeddings, k=2, seed=0)
        assert predicted.times == times


# (clusters, per_cluster, dim, separation, noise_sigma, seed): overlapping
# clusters, where the blur decides some labels.
BLUR_CORPORA = [
    (2, 30, 8, 2.0, 1.0, 1), (3, 20, 16, 2.5, 1.0, 2), (3, 25, 6, 2.5, 1.2, 3),
    (4, 12, 8, 3.0, 1.0, 4), (5, 10, 12, 3.5, 1.0, 5), (3, 60, 10, 2.0, 1.0, 6),
]


class TestSeparableBlur:
    @pytest.mark.parametrize("corpus", BLUR_CORPORA)
    def test_labels_equal_the_convolve2d_blur(self, monkeypatch, corpus):
        embeddings, _ = generate_synthetic_embeddings(*corpus)
        labels = spectral_cluster(embeddings, seed=corpus[-1])
        monkeypatch.setattr(clustering, "gaussian_blur", convolve2d_blur)
        reference = spectral_cluster(embeddings, seed=corpus[-1])
        assert labels == reference

    @pytest.mark.parametrize("corpus", BLUR_CORPORA)
    def test_blurred_affinity_equals_the_convolve2d_blur(self, corpus):
        values = affinity(generate_synthetic_embeddings(*corpus)[0])
        assert np.abs(gaussian_blur(values) - convolve2d_blur(values)).max() < 1e-12


def reference_sweep(embeddings):
    """The sweep as a full symmetric_eigh per percentile, last best score winning."""
    best = None
    for percentile in PERCENTILE_GRID:
        refined = refine(embeddings, percentile)
        values, vectors = symmetric_eigh(0.5 * (refined + refined.T))
        score = clustering._gap_ratios(values).max()
        if best is None or score >= best[0]:
            best = (score, percentile, values, vectors)
    return best[1:]


class TestPercentileSweep:
    @pytest.mark.parametrize("blurred", [True, False], ids=["blur", "no-blur"])
    def test_spectra_equal_per_percentile_refinement(self, monkeypatch, blurred):
        if not blurred:
            monkeypatch.setattr(clustering, "gaussian_blur", lambda a: a)
        embeddings, _ = generate_synthetic_embeddings(3, 12, 6, 4.0, 1.5, 21)
        references = []
        for percentile in PERCENTILE_GRID:
            refined = refine(embeddings, percentile)
            references.append(0.5 * (refined + refined.T))
        ranked, decomposed = [], []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(matrices):
            ranked.append(matrices.copy())
            return eigvalsh(matrices)

        def recording_eigh(matrix):
            decomposed.append((matrix.copy(), symmetric_eigh(matrix)))
            return decomposed[-1][1]

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        monkeypatch.setattr(clustering, "symmetric_eigh", recording_eigh)
        percentile, values, vectors = clustering._sweep_percentiles(embeddings, PERCENTILE_GRID)
        assert len(ranked) == 1 and len(ranked[0]) == len(references)
        for matrix, reference in zip(ranked[0], references):
            assert np.array_equal(matrix, reference)
        [(matrix, (seen_values, seen_vectors))] = decomposed
        winner = references[PERCENTILE_GRID.index(percentile)]
        reference_values, reference_vectors = symmetric_eigh(winner)
        assert np.array_equal(matrix, winner)
        for got in ((values, vectors), (seen_values, seen_vectors)):
            assert np.array_equal(got[0], reference_values)
            assert np.array_equal(got[1], reference_vectors)

    def test_pinned_percentile_decomposes_once_without_ranking(self, monkeypatch):
        embeddings, _ = FIXTURE
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        percentile, values, vectors = clustering._sweep_percentiles(embeddings, (80.0,))
        refined = refine(embeddings, 80.0)
        reference_values, reference_vectors = symmetric_eigh(0.5 * (refined + refined.T))
        assert percentile == 80.0
        assert np.array_equal(values, reference_values)
        assert np.array_equal(vectors, reference_vectors)

    @given(
        clusters=st.integers(1, 6),
        points=st.integers(2, 120),
        separation=st.floats(0.3, 8.0),
        noise=st.sampled_from([0.5, 1.5]),
        duplicates=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweep_picks_as_a_full_decomposition_per_percentile(
        self, clusters, points, separation, noise, duplicates, seed
    ):
        per_cluster = max(1, points // clusters)
        embeddings, _ = generate_synthetic_embeddings(
            clusters, per_cluster, clusters + 2, separation, noise, seed
        )
        if duplicates:
            # Repeated points give identical rows, so eigenvalues repeat.
            embeddings = EmbeddingSet(np.repeat(embeddings.vectors, duplicates + 1, axis=0)[:120])
        expected = reference_sweep(embeddings)
        got = clustering._sweep_percentiles(embeddings, PERCENTILE_GRID)
        assert got[0] == expected[0]
        assert np.array_equal(got[1], expected[1])
        assert np.array_equal(got[2], expected[2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            k = clustering._eigen_gap_from_values(expected[1])
            try:
                expected_labels = kmeans(expected[2][:, :k], k, seed % 1000).tolist()
            except ValidationError as error:
                with pytest.raises(ValidationError, match=re.escape(str(error))):
                    spectral_cluster(embeddings, seed=seed % 1000)
                return
            labels = spectral_cluster(embeddings, seed=seed % 1000).labels
        assert list(labels) == expected_labels

    @pytest.mark.parametrize("percentile", [None, 80.0])
    def test_affinity_and_blur_run_once(self, monkeypatch, percentile):
        embeddings, _ = FIXTURE
        calls = []
        for name in ("affinity", "gaussian_blur"):
            original = getattr(clustering, name)
            monkeypatch.setattr(
                clustering, name,
                lambda *args, _name=name, _fn=original: calls.append(_name) or _fn(*args),
            )
        spectral_cluster(embeddings, seed=7, percentile=percentile)
        assert calls == ["affinity", "gaussian_blur"]


class TestRefinePipeline:
    def test_embedding_set_validations(self):
        with pytest.raises(ValidationError):
            EmbeddingSet(np.zeros((1, 4)))
        with pytest.raises(ValidationError):
            EmbeddingSet(np.array([[np.nan, 1.0], [0.0, 1.0]]))
