"""Synthetic fixtures and label alignment for desk-scale verification.

The real recordings and embedding extractor behind the original experiment
are not available, so sessions are exercised against sampled chains and
Gaussian cluster embeddings with known ground truth.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from . import markov
from .clustering import EmbeddingSet
from .errors import ValidationError
from .markov import Sampled, StateSequence, TransitionModel, _as_labels, _count_matrix


def generate_synthetic_sequence(
    truth_chain: TransitionModel, length: int, initial: int, seed: int
) -> StateSequence:
    """Sample a label sequence from a chain, deterministically per seed."""
    return markov.predict_sequence(truth_chain, initial, length, Sampled(seed))


def _chain_chunks(
    truth_chain: TransitionModel,
    length: int,
    current: int,
    iterations: int | None,
    bootstrap: StateSequence | None,
    rng_for: Callable[[int], np.random.Generator],
) -> Iterator[StateSequence]:
    """Continue one trajectory in chunks; chunk `count` draws from ``rng_for(count)``.

    Chunk 0 is `bootstrap`, when given, or starts at `current` itself; every
    later chunk starts at the successor of the previous chunk's last label.
    `iterations` counts chunk 0 too. Each walked chunk holds `length` labels,
    walked states, so they are boxed without a second check.
    """
    length = markov._integer(length, "length", least=1)
    iterations = None if iterations is None else markov._integer(iterations, "iterations")
    count = 0
    if bootstrap is not None:
        if bootstrap.n_states != truth_chain.n_states:
            raise ValidationError("bootstrap alphabet does not match the chain")
        if iterations is not None and iterations < 1:
            return
        current, count = bootstrap.labels[-1], 1
        yield bootstrap
    n_states = truth_chain.n_states
    current = markov._integer(current, "initial", n_states)
    while iterations is None or count < iterations:
        labels = [current] if count == 0 else []
        labels += markov.walk(truth_chain, current, length - len(labels), rng_for(count))
        current = labels[-1]
        count += 1
        yield StateSequence._known(tuple(labels), n_states)


def chain_oracle(
    truth_chain: TransitionModel,
    length: int,
    initial: int,
    seed: int,
    iterations: int | None = None,
    bootstrap: StateSequence | None = None,
) -> Iterator[StateSequence]:
    """Yield sequences that continue one sampled trajectory of the chain.

    The first sequence is `bootstrap` (see matched_chain_oracle) or starts
    at `initial`; each later one picks up from the state following the
    previous sequence's last label. With a bootstrap, `initial` has no
    effect: the chain continues from the bootstrap's last label. One
    generator is threaded across the whole trajectory.
    """
    rng = np.random.default_rng(seed)
    yield from _chain_chunks(truth_chain, length, initial, iterations, bootstrap, lambda _: rng)


def matched_chain_oracle(
    truth_chain: TransitionModel,
    length: int,
    initial: int,
    seed: int,
    iterations: int | None = None,
    bootstrap: StateSequence | None = None,
) -> Iterator[StateSequence]:
    """Chain oracle whose draws replay the session's candidate-0 stream.

    Iteration ``i`` samples with ``default_rng([seed, i, 0])``, the same
    derivation ``run_session`` uses for its first candidate, so a session
    run with the same seed predicts this oracle exactly whenever its
    estimated matrix agrees with the truth chain. Useful for verifying the
    whole loop is self-consistent; the residual TPE measures estimation
    error only.

    An explicit `bootstrap` sequence (for example one built by
    sequence_with_exact_counts, which makes the session's initial estimate
    equal the truth chain) replaces the sampled first sequence; the chain
    then continues from its last label.
    """
    yield from _chain_chunks(
        truth_chain, length, initial, iterations, bootstrap,
        lambda i: np.random.default_rng([seed, i, 0]),
    )


def sequence_with_exact_counts(counts: np.ndarray) -> StateSequence:
    """Build a sequence whose bigram counts equal `counts` exactly.

    Walks an Eulerian circuit of the bigram multigraph (Hierholzer), so the
    maximum-likelihood estimate of the result reproduces
    ``counts / row_sums`` with no sampling error. Requires every state's
    in-count to equal its out-count and the graph to be connected.
    """
    matrix = _count_matrix(counts)
    out_deg = matrix.sum(axis=1)
    in_deg = matrix.sum(axis=0)
    if (out_deg != in_deg).any():
        raise ValidationError(
            "in-counts must equal out-counts for every state to close a circuit"
        )
    if matrix.sum() == 0:
        raise ValidationError("counts are all zero; nothing to traverse")
    # Each state's outgoing edges, smallest target last so pop() takes it first.
    successors = [np.repeat(np.arange(row.size), row)[::-1].tolist() for row in matrix]
    stack = [int(np.flatnonzero(out_deg)[0])]
    circuit: list[int] = []
    while stack:
        edges = successors[stack[-1]]
        if edges:
            stack.append(edges.pop())
        else:
            circuit.append(stack.pop())
    if len(circuit) != matrix.sum() + 1:
        raise ValidationError("bigram graph is not connected; no single circuit")
    circuit.reverse()
    return StateSequence._known(tuple(circuit), matrix.shape[0])


# The largest separation or noise_sigma generate_synthetic_embeddings accepts.
# A coordinate then stays below about 1e151, so every squared norm and dot
# product the cosine affinity forms (about dim * 1e302) stays finite.
MAX_SCALE = 1e150


def generate_synthetic_embeddings(
    n_clusters: int,
    per_cluster: int,
    dim: int,
    separation: float,
    noise_sigma: float,
    seed: int,
) -> tuple[EmbeddingSet, list[int]]:
    """Gaussian blobs at simplex corners with the given pairwise separation.

    Cluster means sit at ``(separation / sqrt(2)) * e_i``, which makes every
    pair of means exactly `separation` apart. Labels come back grouped:
    ``[0] * per_cluster + [1] * per_cluster + ...``. Both scales must be
    positive and at most MAX_SCALE.
    """
    n_clusters = markov._integer(n_clusters, "n_clusters", least=1)
    per_cluster = markov._integer(per_cluster, "per_cluster", least=1)
    if not (0 < separation < math.inf and 0 < noise_sigma < math.inf):
        raise ValidationError("separation and noise_sigma must be positive and finite, "
                              f"got {separation} and {noise_sigma}")
    for name, value in (("separation", separation), ("noise_sigma", noise_sigma)):
        if value > MAX_SCALE:
            raise ValidationError(f"{name} must be at most {MAX_SCALE:g}, got {value}")
    if dim < n_clusters:
        raise ValidationError(
            f"dim {dim} too small to place {n_clusters} simplex corners"
        )
    rng = np.random.default_rng(seed)
    means = np.zeros((n_clusters, dim))
    scale = separation / np.sqrt(2.0)
    for i in range(n_clusters):
        means[i, i] = scale
    labels = [c for c in range(n_clusters) for _ in range(per_cluster)]
    points = means[labels] + rng.normal(0.0, noise_sigma, (len(labels), dim))
    return EmbeddingSet(vectors=points), labels


def align_labels(
    pred: StateSequence | Sequence[int], truth: StateSequence | Sequence[int]
) -> tuple[tuple[int, ...], list[int]]:
    """Best relabeling of `pred` onto `truth`'s label ids.

    Cluster ids are arbitrary, so a brute-force search over permutations of
    the label alphabet finds the one minimizing mismatches (ties break to
    the lexicographically smallest permutation), each scored on one k × k
    matrix of match counts rather than on the labels. Returns the
    permutation and the relabeled sequence. Alphabets above 8 states are
    rejected; the factorial search is the point, not a bottleneck to
    engineer around.
    A truth may hold -1 for a span no speaker owns; a prediction may not.
    """
    p = _as_labels(pred)
    t = _as_labels(truth)
    if p.size != t.size:
        raise ValidationError(f"length mismatch: {p.size} vs {t.size}")
    if p.min(initial=0) < 0:
        i = int(np.argmax(p < 0))
        raise ValidationError(f"predicted label {p[i]} at index {i} is negative")
    n_states = int(max(p.max(initial=0), t.max(initial=0))) + 1
    if isinstance(pred, StateSequence):
        n_states = max(n_states, pred.n_states)
    if isinstance(truth, StateSequence):
        n_states = max(n_states, truth.n_states)
    if n_states > 8:
        raise ValidationError(
            f"alignment supports at most 8 states, got {n_states}"
        )
    # counts[a, b]: positions where pred says a and truth b. A truth below 0
    # matches no relabeling, so a permutation's matches are its k counts.
    owned = t >= 0
    counts = np.bincount(
        p[owned] * n_states + t[owned], minlength=n_states * n_states
    ).reshape(n_states, n_states)
    best_perm = _best_permutation(counts)
    aligned = [best_perm[x] for x in p.tolist()]
    return best_perm, aligned


def _best_permutation(scores: np.ndarray) -> tuple[int, ...]:
    """The permutation `perm` of range(k) maximizing the sum of
    ``scores[i, perm[i]]`` over a k × k matrix, ties broken to the
    lexicographically smallest, found by trying all k! of them."""
    k = len(scores)
    # permutations() of a sorted range runs in lexicographic order, and
    # argmax takes the first of the tied best.
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(k))), np.intp
    ).reshape(-1, k)
    totals = scores[np.arange(k), perms].sum(axis=1)
    return tuple(perms[int(np.argmax(totals))].tolist())
