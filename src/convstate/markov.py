"""First-order Markov transition models over integer speaker states.

States are dense integers ``0..n_states-1``; any external label alphabet is
mapped at ingestion. A model stores raw bigram counts next to the
row-stochastic probability matrix derived from them, so online updates and
batch re-estimation stay exactly equivalent.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, UnseenStateError, ValidationError


class UnseenRowPolicy(Enum):
    """Behaviour for states that were never observed leaving."""

    UNIFORM = "uniform"
    ERROR_ON_QUERY = "error"


@dataclass(frozen=True)
class Argmax:
    """Deterministic emission: most probable next state, lowest index on ties."""


@dataclass(frozen=True)
class Sampled:
    """Stochastic emission from the row distribution, reproducible per seed."""

    seed: int


PredictionMode = Argmax | Sampled


@dataclass(frozen=True)
class StateSequence:
    """Ordered speaker-state labels, optionally time-aligned.

    Attributes:
        labels: state ids, each in ``0..n_states-1``.
        n_states: size of the state alphabet.
        times: optional per-label ``(start_s, end_s)`` bounds; must be
            non-overlapping and increasing.
    """

    labels: tuple[int, ...]
    n_states: int
    times: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.n_states < 1:
            raise ValidationError(f"n_states must be >= 1, got {self.n_states}")
        object.__setattr__(self, "labels", tuple(int(x) for x in self.labels))
        _validate_labels(self.labels, self.n_states)
        if self.times is not None:
            times = tuple((float(a), float(b)) for a, b in self.times)
            object.__setattr__(self, "times", times)
            if len(times) != len(self.labels):
                raise ValidationError(
                    f"times length {len(times)} != labels length {len(self.labels)}"
                )
            prev_end = -np.inf
            for i, (start, end) in enumerate(times):
                if end <= start:
                    raise ValidationError(f"times[{i}]: end {end} <= start {start}")
                if start < prev_end:
                    raise ValidationError(f"times[{i}] overlaps its predecessor")
                prev_end = end

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)


@dataclass(frozen=True)
class TransitionModel:
    """Bigram counts plus the row-stochastic matrix estimated from them.

    ``probs[i][j]`` is the probability that state ``j`` follows state ``i``.
    Rows with zero observations are uniform under ``UnseenRowPolicy.UNIFORM``
    and all-zero (query raises) under ``ERROR_ON_QUERY``.
    """

    n_states: int
    counts: np.ndarray
    probs: np.ndarray
    policy: UnseenRowPolicy = UnseenRowPolicy.UNIFORM

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if counts.shape != (self.n_states, self.n_states):
            raise ValidationError(
                f"counts shape {counts.shape} != ({self.n_states}, {self.n_states})"
            )
        if probs.shape != counts.shape:
            raise ValidationError(f"probs shape {probs.shape} != counts shape")
        if (counts < 0).any():
            raise ValidationError("counts must be non-negative")
        counts.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "probs", probs)

    def row_observed(self, state: int) -> bool:
        """True when `state` has at least one outgoing observation."""
        return bool(self.counts[state].sum() > 0)


def _as_labels(seq: StateSequence | Sequence[int] | Iterable[int]) -> np.ndarray:
    if isinstance(seq, StateSequence):
        return np.asarray(seq.labels, dtype=np.int64)
    return np.asarray(list(seq), dtype=np.int64)


def _validate_labels(labels: Sequence[int], n_states: int) -> None:
    for i, lab in enumerate(labels):
        if not 0 <= lab < n_states:
            raise ValidationError(
                f"label {lab} at index {i} outside 0..{n_states - 1}"
            )


def _normalized_row(count_row: np.ndarray, policy: UnseenRowPolicy) -> np.ndarray:
    total = count_row.sum()
    if total > 0:
        return count_row / total
    if policy is UnseenRowPolicy.UNIFORM:
        return np.full(count_row.shape, 1.0 / count_row.shape[0])
    return np.zeros(count_row.shape, dtype=np.float64)


def count_transitions(seq: StateSequence | Sequence[int], n_states: int) -> np.ndarray:
    """Count adjacent bigrams: result[i][j] = number of i -> j pairs.

    The cell total equals ``max(len(seq) - 1, 0)``.
    """
    labels = _as_labels(seq)
    _validate_labels(labels, n_states)
    counts = np.zeros((n_states, n_states), dtype=np.int64)
    if labels.size >= 2:
        np.add.at(counts, (labels[:-1], labels[1:]), 1)
    return counts


def normalize(
    counts: np.ndarray, policy: UnseenRowPolicy = UnseenRowPolicy.UNIFORM
) -> TransitionModel:
    """Divide each row of a count matrix by its sum.

    Zero-sum rows become uniform under the UNIFORM policy; under
    ERROR_ON_QUERY they stay zero and the error surfaces at prediction time.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValidationError(f"counts must be square, got shape {counts.shape}")
    if (counts < 0).any():
        raise ValidationError("counts must be non-negative")
    counts = counts.astype(np.int64)
    n = counts.shape[0]
    probs = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        probs[i] = _normalized_row(counts[i], policy)
    return TransitionModel(n_states=n, counts=counts, probs=probs, policy=policy)


def estimate_transition(
    seq: StateSequence | Sequence[int],
    n_states: int,
    policy: UnseenRowPolicy = UnseenRowPolicy.UNIFORM,
) -> TransitionModel:
    """Maximum-likelihood bigram estimate of the transition matrix."""
    return normalize(count_transitions(seq, n_states), policy)


def update_online(model: TransitionModel, from_state: int, to_state: int) -> TransitionModel:
    """Record one observed transition and renormalize only the affected row.

    Exactly equivalent to re-estimating from the raw sequence extended by
    one label.
    """
    n = model.n_states
    for name, state in (("from_state", from_state), ("to_state", to_state)):
        if not 0 <= state < n:
            raise ValidationError(f"{name} {state} outside 0..{n - 1}")
    counts = model.counts.copy()
    counts[from_state, to_state] += 1
    probs = model.probs.copy()
    probs[from_state] = _normalized_row(counts[from_state], model.policy)
    return TransitionModel(n_states=n, counts=counts, probs=probs, policy=model.policy)


def _query_row(model: TransitionModel, state: int) -> np.ndarray:
    if not 0 <= state < model.n_states:
        raise ValidationError(f"state {state} outside 0..{model.n_states - 1}")
    if model.policy is UnseenRowPolicy.ERROR_ON_QUERY and not model.row_observed(state):
        raise UnseenStateError(f"state {state} has no outgoing observations")
    return model.probs[state]


def walk(
    model: TransitionModel,
    start: int,
    steps: int,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """The `steps` states after `start`: row argmax, or inverse CDF with `rng`.

    Argmax breaks ties toward the lowest state index. Sampling spends one
    uniform per step, all drawn by a single ``rng.random(steps)`` call, which
    advances the generator exactly as `steps` scalar draws would, so equal
    generators yield equal paths even across models whose rows differ only
    slightly. Each state's row is queried before the walk first leaves it,
    so range and unseen-row errors fire at the step that reaches the state.
    """
    if rng is None:
        table, draws = np.argmax(model.probs, axis=1).tolist(), None
    else:
        table = np.cumsum(model.probs, axis=1).tolist()
        draws = rng.random(steps).tolist()
    last = model.n_states - 1
    queried: set[int] = set()
    path: list[int] = []
    state = start
    for step in range(steps):
        if state not in queried:
            _query_row(model, state)
            queried.add(state)
        if draws is None:
            state = table[state]
        else:
            state = min(bisect_right(table[state], draws[step]), last)
        path.append(state)
    return path


def sample_next(model: TransitionModel, current: int, rng: np.random.Generator) -> int:
    """Draw the successor of `current` by inverse-CDF over the row."""
    return walk(model, current, 1, rng)[0]


def predict_next(
    model: TransitionModel,
    current: int,
    mode: PredictionMode = Argmax(),
    rng: np.random.Generator | None = None,
) -> int:
    """Emit the next state from `current` under the given mode.

    Sampled mode draws from `rng` when given, otherwise from a fresh
    generator seeded from the mode.
    """
    if isinstance(mode, Argmax):
        return walk(model, current, 1)[0]
    if rng is None:
        rng = np.random.default_rng(mode.seed)
    return walk(model, current, 1, rng)[0]


def predict_sequence(
    model: TransitionModel,
    initial: int,
    length: int,
    mode: PredictionMode = Argmax(),
) -> StateSequence:
    """Roll the chain forward: output[0] = initial, then `length - 1` steps."""
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    if not 0 <= initial < model.n_states:
        raise ValidationError(f"initial {initial} outside 0..{model.n_states - 1}")
    rng = None if isinstance(mode, Argmax) else np.random.default_rng(mode.seed)
    labels = [initial, *walk(model, initial, length - 1, rng)]
    return StateSequence(labels=tuple(labels), n_states=model.n_states)


def windowed_transition(
    seq: StateSequence | Sequence[int],
    window_len: int,
    offset: int,
    n_states: int,
    policy: UnseenRowPolicy = UnseenRowPolicy.UNIFORM,
) -> TransitionModel:
    """Estimate a model from the slice ``labels[offset : offset + window_len]``."""
    labels = _as_labels(seq)
    if window_len < 1:
        raise ValidationError(f"window_len must be >= 1, got {window_len}")
    if offset < 0 or offset + window_len > labels.size:
        raise ValidationError(
            f"window [{offset}, {offset + window_len}) out of bounds for "
            f"sequence of length {labels.size}"
        )
    return estimate_transition(labels[offset : offset + window_len], n_states, policy)


def stationary_distribution(
    model: TransitionModel, tol: float = 1e-10, max_iter: int = 100_000
) -> np.ndarray:
    """Long-run state frequencies pi with pi @ probs = pi.

    Power iteration on the half-lazy chain (P + I)/2, which shares the
    stationary set with P but converges even for periodic chains. When the
    stationary distribution is not unique (detected by a second start
    vector disagreeing), a RuntimeWarning is issued and the uniform vector
    is returned.
    """
    probs = model.probs
    n = model.n_states
    row_sums = probs.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-9):
        raise ValidationError("model rows are not stochastic (unseen rows under error policy?)")
    if n == 1:
        return np.array([1.0])

    lazy = 0.5 * (probs + np.eye(n))

    def iterate(start: np.ndarray) -> np.ndarray:
        x = start
        for _ in range(max_iter):
            x_next = x @ lazy
            x_next = x_next / x_next.sum()
            residual = float(np.abs(x_next @ probs - x_next).sum())
            x = x_next
            if residual <= tol:
                return x
        raise ConvergenceError(
            f"power iteration did not converge in {max_iter} iterations "
            f"(residual {residual:.3e})",
            residual=residual,
        )

    pi = iterate(np.full(n, 1.0 / n))
    probe = iterate(np.eye(n)[0])
    if np.abs(pi - probe).max() > 1e-6:
        warnings.warn(
            "stationary distribution is not unique; returning uniform",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.full(n, 1.0 / n)
    return pi
