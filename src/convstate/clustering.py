"""Spectral clustering of segment embeddings into speaker-state labels.

Pipeline: cosine affinity, Gaussian blur (separable: a 1-D blur along
each axis), row-wise thresholding, symmetrization, diffusion, row-wise max
normalization, eigendecomposition, cluster-count selection by eigengap
ratio, then k-means over the spectral embedding rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .markov import StateSequence, _as_spans


@dataclass(frozen=True)
class EmbeddingSet:
    """Fixed-dimension real vectors, one per audio segment.

    `times` optionally carries the segment bounds so labels can be emitted
    time-aligned; they follow the span rule of `StateSequence`.
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
        if self.times is not None:
            object.__setattr__(self, "times", _as_spans(self.times))
            if len(self.times) != vectors.shape[0]:
                raise ValidationError("times length does not match vector count")

    def __len__(self) -> int:
        return int(self.vectors.shape[0])


def _checked(a: np.ndarray) -> np.ndarray:
    """`a` as float64; anything but a square matrix of finite values is rejected."""
    values = np.asarray(a, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"affinity must be square, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValidationError("affinity contains NaN or Inf")
    return values


def affinity(embeddings: EmbeddingSet) -> np.ndarray:
    """Cosine similarity mapped to [0, 1], diagonal pinned to 1."""
    v = embeddings.vectors
    # A vector whose squared norm overflows turns its cosines into NaN, which
    # _checked rejects; numpy's overflow warnings would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(v, axis=1)
        for i, norm in enumerate(norms):
            if norm == 0.0:
                raise ValidationError(f"embedding {i} has zero norm")
        cos = (v @ v.T) / np.outer(norms, norms)
    a = (1.0 + cos) / 2.0
    np.fill_diagonal(a, 1.0)
    return _checked(np.clip(a, 0.0, 1.0))


# Off-centre taps exp(-k^2 / 2) of a unit-width Gaussian at offsets k = 1, 2
# beside a centre tap of 1: the kernel is cut at two segments.
_BLUR_TAPS = np.exp(-np.arange(1, 3) ** 2 / 2.0)


def _blur_axis(values: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Zero-filled 1-D blur along `axis` by symmetric off-centre `taps`."""
    radius, n = taps.size, values.shape[axis]
    shape = list(values.shape)
    shape[axis] += 2 * radius
    padded = np.moveaxis(np.zeros(shape), axis, 0)
    padded[radius : radius + n] = np.moveaxis(values, axis, 0)
    out = values.copy()
    lines = np.moveaxis(out, axis, 0)
    for k, tap in enumerate(taps, start=1):
        lines += tap * (padded[radius - k : radius - k + n] + padded[radius + k : radius + k + n])
    return out


def gaussian_blur(a: np.ndarray) -> np.ndarray:
    """2-D unit-width Gaussian smoothing, kernel renormalized over in-bounds taps.

    The matrix is smoothed as an image, which deliberately couples
    neighbouring segment indices (adjacent segments tend to share a
    speaker). The kernel is the outer product of one 1-D Gaussian, and so
    is its in-bounds weight, so the blur runs as a renormalized 1-D blur
    down the columns and then along the rows. Taps past the matrix never
    touch it, so a matrix of n rows uses at most n - 1 of them.
    """
    values = _checked(a)
    taps = _BLUR_TAPS[: len(values) - 1]
    coverage = _blur_axis(np.ones(len(values)), taps, 0)
    down = _blur_axis(values, taps, 0) / coverage[:, None]
    return _blur_axis(down, taps, 1) / coverage


# Scale of the entries below a row's percentile: attenuated, not zeroed,
# so no row gets disconnected.
SOFT_MULTIPLIER = 0.01


def row_threshold(a: np.ndarray, percentile: float = 95.0) -> np.ndarray:
    """Scale each row's entries below its nearest-rank percentile by SOFT_MULTIPLIER.

    Entries at or above the percentile value are kept.
    """
    if not 0.0 < percentile < 100.0:
        raise ValidationError(f"percentile must be in (0, 100), got {percentile}")
    values = _checked(a).copy()
    width = values.shape[1]
    rank = min(int(width * percentile / 100.0 + 1e-9), width - 1)
    cutoffs = np.sort(values, axis=1)[:, rank : rank + 1]
    values[values < cutoffs] *= SOFT_MULTIPLIER
    return values


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Elementwise max of the matrix and its transpose."""
    values = _checked(a)
    return np.maximum(values, values.T)


def diffuse(a: np.ndarray) -> np.ndarray:
    """Gram-matrix diffusion: A @ A.T; a product that overflows is rejected."""
    values = _checked(a)
    return _checked(values @ values.T)


def row_normalize(a: np.ndarray) -> np.ndarray:
    """Divide each row by its maximum so every row max becomes 1.

    A quotient that overflows (a tiny positive max beside a large negative
    entry) is rejected.
    """
    values = _checked(a)
    maxes = values.max(axis=1)
    for i, m in enumerate(maxes):
        if m <= 0.0:
            raise ValidationError(f"row {i} has no positive entry to normalize by")
    return _checked(values / maxes[:, None])


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


# Largest cluster count the eigengap may pick.
MAX_K = 8


def _gap_ratios(eigenvalues: np.ndarray) -> np.ndarray:
    """Ratios of consecutive top-`MAX_K` eigenvalues; entry i scores k = i + 1."""
    top = eigenvalues[:MAX_K]
    return top[:-1] / np.maximum(top[1:], 1e-12)


def _eigen_gap_from_values(eigenvalues: np.ndarray) -> int:
    ratios = _gap_ratios(eigenvalues)
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


def eigen_gap_k(a: np.ndarray) -> int:
    """Cluster count at the largest ratio between consecutive eigenvalues."""
    eigenvalues, _ = symmetric_eigh(a)
    return _eigen_gap_from_values(eigenvalues)


def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
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
    for _ in range(100):
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
        if shift < 1e-6:
            break

    remap: dict[int, int] = {}
    for lab in labels:
        if int(lab) not in remap:
            remap[int(lab)] = len(remap)
    return np.asarray([remap[int(lab)] for lab in labels], dtype=np.int64)


def refine(embeddings: EmbeddingSet, percentile: float = 95.0) -> np.ndarray:
    """Run the full affinity refinement chain."""
    blurred = gaussian_blur(affinity(embeddings))
    return _refine_blurred(blurred, percentile)


def _refine_blurred(blurred: np.ndarray, percentile: float) -> np.ndarray:
    """The refinement stages from the row threshold on, the ones `percentile` sets."""
    a = row_threshold(blurred, percentile)
    a = symmetrize(a)
    a = diffuse(a)
    return row_normalize(a)


PERCENTILE_GRID = (50.0, 60.0, 70.0, 80.0, 90.0, 95.0)


def _sweep_percentiles(
    embeddings: EmbeddingSet, grid: tuple[float, ...]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Return (percentile, eigenvalues, eigenvectors) with the sharpest eigengap.

    A fixed percentile keeps a fixed fraction of each row, which is too
    sparse for small segment counts and too dense for large ones; sweeping
    a grid and keeping the sharpest spectrum adapts to the data. Ties
    break toward the sparsest (highest) percentile. Affinity and blur do
    not depend on the percentile, so they run once per sweep. The ranking
    needs eigenvalues only, so one batched ``eigvalsh`` scores the whole
    grid and ``symmetric_eigh`` decomposes the winner alone.
    """
    blurred = gaussian_blur(affinity(embeddings))
    refined = np.stack([_refine_blurred(blurred, p) for p in grid])
    # Row scaling breaks symmetry; the spectral step uses the symmetric average.
    matrices = 0.5 * (refined + refined.transpose(0, 2, 1))
    best = 0
    if len(grid) > 1:
        scores = [_gap_ratios(values[::-1]).max() for values in np.linalg.eigvalsh(matrices)]
        best = max(range(len(grid)), key=lambda i: (scores[i], i))
    eigenvalues, eigenvectors = symmetric_eigh(matrices[best])
    return grid[best], eigenvalues, eigenvectors


def auto_percentile(embeddings: EmbeddingSet) -> float:
    """Thresholding percentile that maximizes the top eigengap ratio."""
    percentile, _, _ = _sweep_percentiles(embeddings, PERCENTILE_GRID)
    return percentile


def spectral_cluster(
    embeddings: EmbeddingSet,
    k: int | None = None,
    seed: int = 0,
    percentile: float | None = None,
) -> StateSequence:
    """Refine, eigendecompose, pick k by eigengap, and k-means the rows.

    `percentile` of None selects the thresholding percentile by eigengap
    sweep (auto_percentile); pass a value to pin it.
    """
    grid = PERCENTILE_GRID if percentile is None else (percentile,)
    _, eigenvalues, eigenvectors = _sweep_percentiles(embeddings, grid)
    if k is None:
        k = _eigen_gap_from_values(eigenvalues)
    if not 1 <= k <= len(embeddings):
        raise ValidationError(f"k must be in 1..{len(embeddings)}, got {k}")
    spectral = eigenvectors[:, :k]
    labels = kmeans(spectral, k, seed)
    return StateSequence(labels=labels, n_states=int(k), times=embeddings.times)
