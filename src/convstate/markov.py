"""First-order Markov transition models over integer speaker states.

States are dense integers ``0..n_states-1``; any external label alphabet is
mapped at ingestion. A model stores raw bigram counts next to the
row-stochastic probability matrix derived from them, so online updates and
batch re-estimation stay exactly equivalent.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import UnseenStateError, ValidationError


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
        object.__setattr__(self, "labels", tuple(map(int, self.labels)))
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
    if not isinstance(seq, (np.ndarray, list, tuple)):
        seq = list(seq)  # a StateSequence iterates its labels
    return np.asarray(seq, dtype=np.int64)


def _validate_labels(labels: Sequence[int], n_states: int) -> None:
    """Range-check with C-speed min/max; walk the labels only to name a bad one."""
    low, high = (np.min, np.max) if isinstance(labels, np.ndarray) else (min, max)
    if len(labels) == 0 or 0 <= low(labels) and high(labels) < n_states:
        return
    for i, lab in enumerate(labels):
        if not 0 <= lab < n_states:
            raise ValidationError(
                f"label {lab} at index {i} outside 0..{n_states - 1}"
            )


def count_transitions(seq: StateSequence | Sequence[int], n_states: int) -> np.ndarray:
    """Count adjacent bigrams: result[i][j] = number of i -> j pairs.

    The cell total equals ``max(len(seq) - 1, 0)``.
    """
    labels = _as_labels(seq)
    _validate_labels(labels, n_states)
    pairs = labels[:-1] * n_states + labels[1:]
    return np.bincount(pairs, minlength=n_states * n_states).reshape(n_states, n_states)


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
    totals = counts.sum(axis=1, keepdims=True)
    unseen = 1.0 / n if policy is UnseenRowPolicy.UNIFORM else 0.0
    probs = np.divide(counts, totals, out=np.full((n, n), unseen), where=totals > 0)
    return TransitionModel(n_states=n, counts=counts, probs=probs, policy=policy)


def estimate_transition(
    seq: StateSequence | Sequence[int],
    n_states: int,
    policy: UnseenRowPolicy = UnseenRowPolicy.UNIFORM,
) -> TransitionModel:
    """Maximum-likelihood bigram estimate of the transition matrix."""
    return normalize(count_transitions(seq, n_states), policy)


def update_online(model: TransitionModel, from_state: int, to_state: int) -> TransitionModel:
    """Record one observed transition and renormalize.

    Exactly equivalent to re-estimating from the raw sequence extended by
    one label.
    """
    n = model.n_states
    for name, state in (("from_state", from_state), ("to_state", to_state)):
        if not 0 <= state < n:
            raise ValidationError(f"{name} {state} outside 0..{n - 1}")
    counts = model.counts.copy()
    counts[from_state, to_state] += 1
    return normalize(counts, model.policy)


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
    slightly. The sampling table holds each row's cumulative sum without its
    last entry, so a draw above the row's rounded total lands on the last
    state. Under ERROR_ON_QUERY the states the walk leaves are queried in
    first-visit order, so an unseen-row error names the first such state
    the walk reaches.
    """
    if steps > 0 and not 0 <= start < model.n_states:
        raise ValidationError(f"state {start} outside 0..{model.n_states - 1}")
    if rng is None:
        # Argmax is the same walk over one-hot rows with every draw at 0.5.
        rows, draws = np.eye(model.n_states)[np.argmax(model.probs, axis=1)], [0.5] * steps
    else:
        rows, draws = model.probs, rng.random(steps).tolist()
    table = np.cumsum(rows, axis=1)[:, :-1].tolist()
    state = start
    path = [state := bisect_right(table[state], u) for u in draws]
    if path and model.policy is UnseenRowPolicy.ERROR_ON_QUERY:
        for visited in dict.fromkeys([start, *path[:-1]]):
            if not model.row_observed(visited):
                raise UnseenStateError(f"state {visited} has no outgoing observations")
    return path


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

