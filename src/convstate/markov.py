"""First-order Markov transition models over integer speaker states.

States are dense integers ``0..n_states-1``; any external label alphabet is
mapped at ingestion. A model stores raw bigram counts next to the
row-stochastic probability matrix derived from them, so online updates and
batch re-estimation stay exactly equivalent.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Argmax:
    """Deterministic emission: most probable next state, lowest index on ties."""


@dataclass(frozen=True)
class Sampled:
    """Stochastic emission from the row distribution, reproducible per seed."""

    seed: int


PredictionMode = Argmax | Sampled


def _as_spans(times) -> tuple[tuple[float, float], ...]:
    """`times` as ``(start_s, end_s)`` finite float pairs, each non-empty and
    none starting before its predecessor ends."""
    spans = tuple((float(a), float(b)) for a, b in times)
    prev_end = -np.inf
    for i, (start, end) in enumerate(spans):
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValidationError(f"times[{i}]: start and end must be finite")
        if end <= start:
            raise ValidationError(f"times[{i}]: end {end} <= start {start}")
        if start < prev_end:
            raise ValidationError(f"times[{i}] overlaps its predecessor")
        prev_end = end
    return spans


@dataclass(frozen=True)
class StateSequence:
    """Ordered speaker-state labels, optionally time-aligned.

    The constructor takes the labels by `_as_labels`, so each is stored as
    a Python int in range (a float or a string is rejected).

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
        labels = tuple(_as_labels(self.labels, self.n_states).tolist())
        object.__setattr__(self, "labels", labels)
        if self.times is not None:
            object.__setattr__(self, "times", _as_spans(self.times))
            if len(self.times) != len(self.labels):
                raise ValidationError(
                    f"times length {len(self.times)} != labels length {len(self.labels)}"
                )

    @classmethod
    def _known(cls, labels: tuple[int, ...], n_states: int) -> StateSequence:
        """Untimed labels the program produced itself, stored with no check.

        The caller guarantees a tuple of Python ints in ``0..n_states-1``.
        """
        seq = object.__new__(cls)
        object.__setattr__(seq, "labels", labels)
        object.__setattr__(seq, "n_states", n_states)
        object.__setattr__(seq, "times", None)
        return seq

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)


@dataclass(frozen=True)
class TransitionModel:
    """Bigram counts plus the row-stochastic matrix estimated from them.

    ``probs[i][j]`` is the probability that state ``j`` follows state ``i``.
    A row with zero observations (a state never seen leaving) is uniform.
    """

    n_states: int
    counts: np.ndarray
    probs: np.ndarray

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


def _as_labels(
    seq: StateSequence | Sequence[int] | Iterable[int], n_states: int | None = None
) -> np.ndarray:
    """`seq` as a 1-D int64 array: the one rule for what counts as a label.

    Each label must pass ``operator.index`` (a bool or NumPy integer does; a
    float, string, None or nested sequence is named by its index) and fit
    int64; with `n_states` it must lie in ``0..n_states-1``. A StateSequence
    whose alphabet fits was checked when it was built, so it is not checked
    again.
    """
    if isinstance(seq, StateSequence):
        if n_states is None or seq.n_states <= n_states:
            return np.fromiter(seq.labels, np.int64, len(seq))
        seq = seq.labels
    elif not isinstance(seq, (np.ndarray, list, tuple)):
        seq = list(seq)
    try:
        labels = np.asarray(seq)
    except ValueError:  # ragged nesting
        labels = None
    if labels is None or labels.ndim != 1 or labels.dtype.kind not in "biu":
        # Python ints, as object: numpy would turn [0, 2**63] into floats.
        labels = np.array([_label(v, i) for i, v in enumerate(seq)], dtype=object)
    if n_states is None:
        kind = labels.dtype.kind
        if kind in "bi" or kind == "u" and labels.itemsize < 8:  # fits int64 by its dtype
            return labels.astype(np.int64, copy=False)
        low, high = -(2**63), 2**63 - 1
    else:
        low, high = 0, min(n_states, 2**63) - 1
    if labels.size and not (low <= labels.min() and labels.max() <= high):
        # C-speed min/max above; walk the labels only to name the bad one.
        for i, value in enumerate(map(operator.index, seq)):
            if not low <= value <= high:
                raise ValidationError(f"label {value} at index {i} outside {low}..{high}")
    return labels.astype(np.int64, copy=False)


def _label(value, i: int) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"label {value!r} at index {i} is not an integer") from None


def _integer(value, name: str, n_states: int | None = None) -> int:
    """`value` as a Python int by ``operator.index``, in 0..n_states-1 when `n_states` is given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} {value!r} is not an integer") from None
    if n_states is not None and not 0 <= value < n_states:
        raise ValidationError(f"{name} {value} outside 0..{n_states - 1}")
    return value


def count_transitions(seq: StateSequence | Sequence[int], n_states: int) -> np.ndarray:
    """Count adjacent bigrams: result[i][j] = number of i -> j pairs.

    The cell total equals ``max(len(seq) - 1, 0)``.
    """
    labels = _as_labels(seq, n_states)
    pairs = labels[:-1] * n_states + labels[1:]
    return np.bincount(pairs, minlength=n_states * n_states).reshape(n_states, n_states)


def normalize(counts: np.ndarray) -> TransitionModel:
    """Divide each row of a count matrix by its sum; a zero-sum row is uniform."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValidationError(f"counts must be square, got shape {counts.shape}")
    if (counts < 0).any():
        raise ValidationError("counts must be non-negative")
    counts = counts.astype(np.int64)
    n = counts.shape[0]
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.divide(counts, totals, out=np.full((n, n), 1.0 / n), where=totals > 0)
    return TransitionModel(n_states=n, counts=counts, probs=probs)


def estimate_transition(seq: StateSequence | Sequence[int], n_states: int) -> TransitionModel:
    """Maximum-likelihood bigram estimate of the transition matrix."""
    return normalize(count_transitions(seq, n_states))


def update_online(model: TransitionModel, from_state: int, to_state: int) -> TransitionModel:
    """Record one observed transition and renormalize.

    Exactly equivalent to re-estimating from the raw sequence extended by
    one label.
    """
    n = model.n_states
    from_state, to_state = _integer(from_state, "from_state", n), _integer(to_state, "to_state", n)
    counts = model.counts.copy()
    counts[from_state, to_state] += 1
    return normalize(counts)


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
    state.
    """
    start = _integer(start, "state", model.n_states if steps > 0 else None)
    if rng is None:
        # Argmax is the same walk over one-hot rows with every draw at 0.5.
        rows, draws = np.eye(model.n_states)[np.argmax(model.probs, axis=1)], [0.5] * steps
    else:
        rows, draws = model.probs, rng.random(steps).tolist()
    return _steps(_table(rows), start, draws)


def _table(rows: np.ndarray) -> list[list[float]]:
    """The sampling table: each row's cumulative sum without its last entry."""
    return np.cumsum(rows, axis=1)[:, :-1].tolist()


def _steps(table: list[list[float]], state: int, draws: list[float]) -> list[int]:
    """The inverse-CDF walk from `state`, one step per uniform in `draws`."""
    return [state := bisect_right(table[state], u) for u in draws]


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
    initial = _integer(initial, "initial", model.n_states)
    rng = None if isinstance(mode, Argmax) else np.random.default_rng(mode.seed)
    labels = (initial, *walk(model, initial, length - 1, rng))
    return StateSequence._known(labels, model.n_states)

