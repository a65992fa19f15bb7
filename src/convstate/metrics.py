"""Prediction-error metrics: total percentage error and per-state error.

TPE is the percent of positions where the predicted label differs from the
actual label. EPPS, computed per state, is the percent of that state's
occurrences in the actual sequence that were mispredicted. TPE is always
the occurrence-weighted mean of the per-state values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .markov import StateSequence, _as_labels, _integer


@dataclass(frozen=True)
class EvaluationReport:
    """TPE plus per-state EPPS for one predicted/actual comparison.

    ``epps`` holds only states that occur in the actual sequence; a state
    with zero occurrences has no entry (no evidence, not 0 or 100).
    Percentages keep full float precision; rounding happens at the
    presentation layer only.
    """

    tpe: float
    epps: dict[int, float]
    compared_length: int
    per_state_occurrences: dict[int, int]

    def __post_init__(self):
        if not 0.0 <= self.tpe <= 100.0:
            raise ValidationError(f"tpe {self.tpe} outside [0, 100]")
        for state, value in self.epps.items():
            if not 0.0 <= value <= 100.0:
                raise ValidationError(f"epps[{state}] = {value} outside [0, 100]")


def tpe(
    predicted: StateSequence | Sequence[int], actual: StateSequence | Sequence[int]
) -> float:
    """Percent of positions where predicted differs from actual: `evaluate`'s TPE."""
    return evaluate(predicted, actual, 0).tpe


def evaluate(
    predicted: StateSequence | Sequence[int],
    actual: StateSequence | Sequence[int],
    n_states: int,
) -> EvaluationReport:
    """Bundle TPE and per-state EPPS for all states ``0..n_states-1``.

    Actual labels outside that range count in TPE but get no EPPS or
    occurrence entry.
    """
    pred, act = _as_labels(predicted), _as_labels(actual)
    if pred.size != act.size:
        raise ValidationError(
            f"length mismatch: predicted has {pred.size}, actual has {act.size}"
        )
    if pred.size == 0:
        raise ValidationError("cannot evaluate empty sequences")
    n = max(_integer(n_states, "n_states"), 0)
    wrong = pred != act
    # Out-of-range labels go to the spare bin n, which is dropped.
    bins = np.where((act >= 0) & (act < n), act, n)
    occurrences = np.bincount(bins, minlength=n + 1)[:n].tolist()
    missed = np.bincount(bins[wrong], minlength=n + 1)[:n].tolist()
    return EvaluationReport(
        tpe=100.0 * float(np.count_nonzero(wrong)) / pred.size,
        epps={s: 100.0 * m / occ for s, (m, occ) in enumerate(zip(missed, occurrences)) if occ},
        compared_length=int(pred.size),
        per_state_occurrences=dict(enumerate(occurrences)),
    )
