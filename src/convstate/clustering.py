"""Spectral clustering of segment embeddings into speaker-state labels.

Pipeline: cosine affinity, Gaussian blur, row-wise thresholding,
symmetrization, diffusion, row-wise max normalization, eigendecomposition,
cluster-count selection by eigengap ratio, then k-means over the spectral
embedding rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve2d

from .errors import ValidationError
from .markov import StateSequence


@dataclass(frozen=True)
class EmbeddingSet:
    """Fixed-dimension real vectors, one per audio segment.

    `times` optionally carries the segment bounds so labels can be emitted
    time-aligned.
    """

    vectors: np.ndarray
    times: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValidationError(f"vectors must be 2-D, got shape {vectors.shape}")
        if vectors.shape[0] < 2:
            raise ValidationError("need at least 2 vectors to cluster")
        if not np.isfinite(vectors).all():
            raise ValidationError("vectors contain NaN or Inf")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        if self.times is not None and len(self.times) != vectors.shape[0]:
            raise ValidationError("times length does not match vector count")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return int(self.vectors.shape[0])


@dataclass(frozen=True)
class AffinityMatrix:
    """Square pairwise-similarity matrix plus the refinement stages applied."""

    values: np.ndarray
    stages: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"affinity must be square, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValidationError("affinity contains NaN or Inf")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def with_stage(self, values: np.ndarray, stage: str) -> "AffinityMatrix":
        return AffinityMatrix(values=values, stages=self.stages + (stage,))

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


def _as_matrix(a: AffinityMatrix | np.ndarray) -> np.ndarray:
    return a.values if isinstance(a, AffinityMatrix) else np.asarray(a, dtype=np.float64)


def affinity(embeddings: EmbeddingSet) -> AffinityMatrix:
    """Cosine similarity mapped to [0, 1], diagonal pinned to 1."""
    v = embeddings.vectors
    norms = np.linalg.norm(v, axis=1)
    for i, norm in enumerate(norms):
        if norm == 0.0:
            raise ValidationError(f"embedding {i} has zero norm")
    cos = (v @ v.T) / np.outer(norms, norms)
    a = (1.0 + cos) / 2.0
    np.fill_diagonal(a, 1.0)
    a = np.clip(a, 0.0, 1.0)
    return AffinityMatrix(values=a, stages=("affinity",))


def gaussian_blur(a: AffinityMatrix | np.ndarray, sigma: float = 1.0) -> AffinityMatrix:
    """2-D Gaussian smoothing, kernel renormalized over in-bounds taps.

    The matrix is smoothed as an image, which deliberately couples
    neighbouring segment indices (adjacent segments tend to share a
    speaker). ``sigma=0`` degenerates to the identity.
    """
    if sigma < 0:
        raise ValidationError(f"sigma must be non-negative, got {sigma}")
    values = _as_matrix(a)
    radius = math.ceil(2.0 * sigma)
    if radius == 0:
        blurred = values.copy()
    else:
        offsets = np.arange(-radius, radius + 1)
        line = np.exp(-(offsets**2) / (2.0 * sigma**2))
        kernel = np.outer(line, line)
        kernel /= kernel.sum()
        smoothed = convolve2d(values, kernel, mode="same", boundary="fill")
        coverage = convolve2d(np.ones_like(values), kernel, mode="same", boundary="fill")
        blurred = smoothed / coverage
    if isinstance(a, AffinityMatrix):
        return a.with_stage(blurred, "blur")
    return AffinityMatrix(values=blurred, stages=("blur",))


def row_threshold(
    a: AffinityMatrix | np.ndarray,
    percentile: float = 95.0,
    soft_multiplier: float = 0.01,
) -> AffinityMatrix:
    """Attenuate each row's entries below its nearest-rank percentile.

    Entries at or above the percentile value are kept; the rest are scaled
    by `soft_multiplier` rather than zeroed, so no row gets disconnected.
    """
    if not 0.0 < percentile < 100.0:
        raise ValidationError(f"percentile must be in (0, 100), got {percentile}")
    values = _as_matrix(a).copy()
    width = values.shape[1]
    rank = min(int(width * percentile / 100.0 + 1e-9), width - 1)
    cutoffs = np.sort(values, axis=1)[:, rank : rank + 1]
    values[values < cutoffs] *= soft_multiplier
    if isinstance(a, AffinityMatrix):
        return a.with_stage(values, "row_threshold")
    return AffinityMatrix(values=values, stages=("row_threshold",))


def symmetrize(a: AffinityMatrix | np.ndarray) -> AffinityMatrix:
    """Elementwise max of the matrix and its transpose."""
    values = _as_matrix(a)
    result = np.maximum(values, values.T)
    if isinstance(a, AffinityMatrix):
        return a.with_stage(result, "symmetrize")
    return AffinityMatrix(values=result, stages=("symmetrize",))


def diffuse(a: AffinityMatrix | np.ndarray) -> AffinityMatrix:
    """Gram-matrix diffusion: A @ A.T."""
    values = _as_matrix(a)
    result = values @ values.T
    if isinstance(a, AffinityMatrix):
        return a.with_stage(result, "diffuse")
    return AffinityMatrix(values=result, stages=("diffuse",))


def row_normalize(a: AffinityMatrix | np.ndarray) -> AffinityMatrix:
    """Divide each row by its maximum so every row max becomes 1."""
    values = _as_matrix(a)
    maxes = values.max(axis=1)
    for i, m in enumerate(maxes):
        if m <= 0.0:
            raise ValidationError(f"row {i} has no positive entry to normalize by")
    result = values / maxes[:, None]
    if isinstance(a, AffinityMatrix):
        return a.with_stage(result, "row_normalize")
    return AffinityMatrix(values=result, stages=("row_normalize",))


def symmetric_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Returns eigenvalues in descending order (stable on ties) and the
    matching eigenvector columns.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-8):
        raise ValidationError("matrix is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], eigenvectors[:, order]


# Former name of symmetric_eigh; the benchmark's layer tracer still looks it up.
jacobi_eigh = symmetric_eigh


def _gap_ratios(eigenvalues: np.ndarray, max_k: int) -> np.ndarray:
    """Ratios of consecutive top-`max_k` eigenvalues; entry i scores k = i + 1."""
    top = eigenvalues[: max(max_k, 1)]
    return top[:-1] / np.maximum(top[1:], 1e-12)


def _eigen_gap_from_values(eigenvalues: np.ndarray, max_k: int) -> int:
    ratios = _gap_ratios(eigenvalues, max_k)
    if ratios.size == 0:
        return 1
    if ratios.max() <= 1.0 + 1e-9:
        warnings.warn(
            "degenerate eigenvalue spectrum; defaulting to a single cluster",
            RuntimeWarning,
            stacklevel=3,
        )
        return 1
    return int(np.argmax(ratios)) + 1


def eigen_gap_k(a: AffinityMatrix | np.ndarray, max_k: int = 8) -> int:
    """Cluster count at the largest ratio between consecutive eigenvalues."""
    values = _as_matrix(a)
    eigenvalues, _ = symmetric_eigh(values)
    return _eigen_gap_from_values(eigenvalues, max_k)


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> np.ndarray:
    """Lloyd's k-means with k-means++ seeding and first-occurrence label ids.

    An empty cluster is re-seeded at the point farthest from its assigned
    centroid (lowest index on ties), keeping the run deterministic.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValidationError(f"points must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in 1..{n}, got {k}")
    distinct = np.unique(pts, axis=0).shape[0]
    if k > distinct:
        raise ValidationError(f"k={k} exceeds the {distinct} distinct points")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    closest_sq = np.sum((pts - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            choice = int(rng.integers(n))
        else:
            u = rng.random()
            choice = int(np.searchsorted(np.cumsum(closest_sq / total), u, side="right"))
            choice = min(choice, n - 1)
        centroids[c] = pts[choice]
        closest_sq = np.minimum(closest_sq, np.sum((pts - centroids[c]) ** 2, axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        distances = np.linalg.norm(pts[:, None, :] - centroids[None, :, :], axis=2)
        labels = np.argmin(distances, axis=1)
        for c in range(k):
            if not (labels == c).any():
                per_point = distances[np.arange(n), labels]
                farthest = int(np.argmax(per_point))
                centroids[c] = pts[farthest]
                labels[farthest] = c
        new_centroids = np.stack([pts[labels == c].mean(axis=0) for c in range(k)])
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift < tol:
            break

    remap: dict[int, int] = {}
    for lab in labels:
        if int(lab) not in remap:
            remap[int(lab)] = len(remap)
    return np.asarray([remap[int(lab)] for lab in labels], dtype=np.int64)


def refine(
    embeddings: EmbeddingSet,
    sigma: float = 1.0,
    percentile: float = 95.0,
    soft_multiplier: float = 0.01,
) -> AffinityMatrix:
    """Run the full affinity refinement chain."""
    blurred = gaussian_blur(affinity(embeddings), sigma)
    return _refine_blurred(blurred, percentile, soft_multiplier)


def _refine_blurred(
    blurred: AffinityMatrix, percentile: float, soft_multiplier: float
) -> AffinityMatrix:
    """The refinement stages from the row threshold on, the ones `percentile` sets."""
    a = row_threshold(blurred, percentile, soft_multiplier)
    a = symmetrize(a)
    a = diffuse(a)
    return row_normalize(a)


PERCENTILE_GRID = (50.0, 60.0, 70.0, 80.0, 90.0, 95.0)


def _sweep_percentiles(
    embeddings: EmbeddingSet,
    sigma: float,
    soft_multiplier: float,
    max_k: int,
    grid: tuple[float, ...],
) -> tuple[float, np.ndarray, np.ndarray]:
    """Return (percentile, eigenvalues, eigenvectors) with the sharpest eigengap.

    A fixed percentile keeps a fixed fraction of each row, which is too
    sparse for small segment counts and too dense for large ones; sweeping
    a grid and keeping the sharpest spectrum adapts to the data. Ties
    break toward the sparsest (highest) percentile. Affinity and blur do
    not depend on the percentile, so they run once per sweep.
    """
    blurred = gaussian_blur(affinity(embeddings), sigma)
    best: tuple[float, float, np.ndarray, np.ndarray] | None = None
    for p in grid:
        refined = _refine_blurred(blurred, p, soft_multiplier).values
        # Row scaling breaks symmetry; the spectral step uses the symmetric average.
        eigenvalues, eigenvectors = symmetric_eigh(0.5 * (refined + refined.T))
        ratios = _gap_ratios(eigenvalues, max_k)
        score = ratios.max() if ratios.size else 0.0
        if best is None or score >= best[0]:
            best = (score, p, eigenvalues, eigenvectors)
    assert best is not None
    return best[1], best[2], best[3]


def auto_percentile(
    embeddings: EmbeddingSet,
    sigma: float = 1.0,
    soft_multiplier: float = 0.01,
    max_k: int = 8,
    grid: tuple[float, ...] = PERCENTILE_GRID,
) -> float:
    """Thresholding percentile that maximizes the top eigengap ratio."""
    percentile, _, _ = _sweep_percentiles(embeddings, sigma, soft_multiplier, max_k, grid)
    return percentile


def spectral_cluster(
    embeddings: EmbeddingSet,
    k: int | None = None,
    seed: int = 0,
    sigma: float = 1.0,
    percentile: float | None = None,
    soft_multiplier: float = 0.01,
    max_k: int = 8,
) -> StateSequence:
    """Refine, eigendecompose, pick k by eigengap, and k-means the rows.

    `percentile` of None selects the thresholding percentile by eigengap
    sweep (auto_percentile); pass a value to pin it.
    """
    grid = PERCENTILE_GRID if percentile is None else (percentile,)
    _, eigenvalues, eigenvectors = _sweep_percentiles(
        embeddings, sigma, soft_multiplier, max_k, grid
    )
    if k is None:
        k = _eigen_gap_from_values(eigenvalues, max_k)
    if not 1 <= k <= len(embeddings):
        raise ValidationError(f"k must be in 1..{len(embeddings)}, got {k}")
    spectral = eigenvectors[:, :k]
    labels = kmeans(spectral, k, seed)
    return StateSequence(
        labels=tuple(int(x) for x in labels),
        n_states=int(k),
        times=embeddings.times,
    )
