"""Checker loop and difference-threshold evaluator.

The checker compares a predicted label sequence against freshly diarized
labels and either accepts the prediction or replaces it with the diarizer's
output. The evaluator guards windowed re-estimation: it compares a windowed
transition matrix against the full one and checks that each row has a clear
winner before the windowed model is trusted as a prediction basis.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import markov
from .errors import ValidationError
from .markov import (
    Argmax,
    PredictionMode,
    StateSequence,
    TransitionModel,
    _as_labels,
)
from .metrics import EvaluationReport, evaluate
from .metrics import tpe  # noqa: F401  the benchmark's layer tracer wraps controller.tpe


def _real(value, name: str):
    """`value` unchanged when it is a real number, else a ValidationError naming `name`."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return value


@dataclass(frozen=True)
class FixedEvery:
    """Run the checker when the iteration index is a multiple of `every`."""

    every: int

    def __post_init__(self):
        object.__setattr__(self, "every", markov._integer(self.every, "checker interval", least=1))


@dataclass(frozen=True)
class RandomBernoulli:
    """Run the checker with probability `p` per iteration.

    The coin flips come from ``numpy.random.default_rng([seed, 0xB0])``,
    where `seed` is the session's ``SessionConfig.seed``.
    """

    p: float

    def __post_init__(self):
        if not 0.0 < _real(self.p, "checker probability") <= 1.0:
            raise ValidationError(f"checker probability must be in (0, 1], got {self.p}")


CheckerInterval = FixedEvery | RandomBernoulli


@dataclass(frozen=True)
class Thresholds:
    """Acceptance and drift thresholds for the checker and evaluator.

    ``row_diff_min`` of None means the per-row winner must lead every other
    entry by more than ``1 / n_states``.
    """

    tpe_threshold: float = 20.0
    epps_threshold: float = 30.0
    matrix_diff_max: float = 0.15
    row_diff_min: float | None = None
    checker_interval: CheckerInterval = FixedEvery(1)

    def __post_init__(self):
        for name in ("tpe_threshold", "epps_threshold", "matrix_diff_max", "row_diff_min"):
            value = getattr(self, name)
            if value is None and name == "row_diff_min":
                continue
            if not 0 < _real(value, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {value}")


class Decision(Enum):
    ACCEPT = "accept"
    REPLACE_WITH_ORACLE = "replace_with_oracle"


@dataclass(frozen=True)
class CheckDecision:
    """Checker verdict with the report it was derived from."""

    decision: Decision
    report: EvaluationReport


def decide(report: EvaluationReport, thresholds: Thresholds) -> Decision:
    """Accept iff TPE and every present-state EPPS are strictly below threshold.

    States absent from the actual sequence carry no evidence and never
    affect the decision.
    """
    if report.tpe >= thresholds.tpe_threshold:
        return Decision.REPLACE_WITH_ORACLE
    if any(value >= thresholds.epps_threshold for value in report.epps.values()):
        return Decision.REPLACE_WITH_ORACLE
    return Decision.ACCEPT


def check_iteration(
    predicted: StateSequence | Sequence[int],
    oracle_labels: StateSequence | Sequence[int],
    thresholds: Thresholds,
    n_states: int,
) -> CheckDecision:
    """Evaluate a prediction against diarized labels and decide its fate."""
    report = evaluate(predicted, oracle_labels, n_states)
    return CheckDecision(decision=decide(report, thresholds), report=report)


def matrix_diff(
    full: TransitionModel,
    windowed: TransitionModel,
    max_allowed: float = Thresholds.matrix_diff_max,
) -> tuple[float, bool]:
    """Largest elementwise |full - windowed| probability gap, and whether it passes.

    Passes when every element differs by at most `max_allowed`.
    """
    if full.n_states != windowed.n_states:
        raise ValidationError(
            f"state count mismatch: {full.n_states} vs {windowed.n_states}"
        )
    gap = float(np.abs(full.probs - windowed.probs).max())
    return gap, gap <= max_allowed


def row_diff_check(
    model: TransitionModel, min_gap: float | None = None
) -> tuple[list[bool], bool]:
    """Check each row's winner leads every other entry by more than `min_gap`.

    A row with a tied maximum fails: only one entry may represent the
    largest probability. Default gap is ``1 / n_states``.
    """
    gap = 1.0 / model.n_states if min_gap is None else min_gap
    passes: list[bool] = []
    for row in model.probs:
        winner = int(np.argmax(row))
        others = np.delete(row, winner)
        passes.append(bool(others.size == 0 or (row[winner] - others > gap).all()))
    return passes, all(passes)


@dataclass(frozen=True)
class EvaluatorOutcome:
    """``proceeded``: both difference thresholds held and ``model`` is the last
    window's; else a threshold failed and ``model`` is the previous window's.
    ``max_abs_diff`` is the last window's drift either way."""

    model: TransitionModel
    max_abs_diff: float
    proceeded: bool


def evaluator_step(
    labels: Sequence[int],
    window_len: int,
    full_model: TransitionModel,
    thresholds: Thresholds,
) -> EvaluatorOutcome:
    """Vet the last `window_len` labels as a prediction basis.

    When the windowed matrix drifts from the full one by more than
    ``matrix_diff_max`` in any cell, or any of its rows lacks a clear
    winner, the basis is re-estimated from the immediately preceding
    window instead: ``labels[-2 * window_len:][:window_len]``, which starts
    at the first label when fewer than ``2 * window_len`` are given.
    """
    n_states = full_model.n_states
    window_len = markov._integer(window_len, "window_len", least=1)
    windowed = markov.estimate_transition(labels[-window_len:], n_states)
    gap, diff_ok = matrix_diff(full_model, windowed, thresholds.matrix_diff_max)
    _, rows_ok = row_diff_check(windowed, thresholds.row_diff_min)
    if diff_ok and rows_ok:
        return EvaluatorOutcome(windowed, gap, proceeded=True)
    previous = labels[-2 * window_len :][:window_len]
    return EvaluatorOutcome(markov.estimate_transition(previous, n_states), gap, proceeded=False)


@dataclass(frozen=True)
class SessionConfig:
    """Everything a checker-loop session needs besides the oracle itself.

    ``seed`` drives all candidate sampling: candidate ``j`` of iteration
    ``i`` uses ``numpy.random.default_rng([seed, i, j])``. The synthetic
    matched oracle relies on this derivation to replay candidate 0's
    stream. A ``Sampled`` mode only selects sampling: ``run_session`` never
    reads its ``seed``.
    """

    thresholds: Thresholds = Thresholds()
    mode: PredictionMode = Argmax()
    seed: int = 0
    candidate_count: int = 5
    window_len: int | None = None
    iterations: int | None = None

    def __post_init__(self):
        for name, least in (("seed", 0), ("candidate_count", 1), ("window_len", 2),
                            ("iterations", 0)):
            value = getattr(self, name)
            if value is None and getattr(SessionConfig, name) is None:
                continue  # window_len and iterations are optional
            object.__setattr__(self, name, markov._integer(value, name, least=least))


@dataclass(frozen=True)
class IterationRecord:
    """Trace entry for one prediction iteration."""

    index: int
    predicted: StateSequence
    checked: bool
    decision: CheckDecision | None
    evaluator: EvaluatorOutcome | None


@dataclass(frozen=True)
class SessionReport:
    """Full session trace: bootstrap, per-iteration records, final model."""

    bootstrap: StateSequence
    iterations: tuple[IterationRecord, ...]
    final_model: TransitionModel

    def mean_tpe(self) -> float | None:
        """Mean TPE over checked iterations, None when nothing was checked."""
        tpes = [rec.decision.report.tpe for rec in self.iterations if rec.decision is not None]
        return float(np.mean(tpes)) if tpes else None


def run_session(
    oracle: Iterable[StateSequence | Sequence[int]],
    config: SessionConfig,
    n_states: int | None = None,
) -> SessionReport:
    """Drive the predict/check loop over an oracle of label sequences.

    The oracle's first sequence bootstraps the transition model; every
    later sequence is the ground truth for one prediction iteration. Each
    iteration rolls candidate sequences forward from the last anchored
    state, scores them against the oracle when the checker runs, and keeps
    the best. Accepted predictions feed online updates; rejected ones are
    replaced by re-estimating the model from the oracle labels. The oracle
    running dry ends the session cleanly with a partial report.

    `n_states` defaults to the bootstrap sequence's alphabet.
    """
    source: Iterator = iter(oracle)
    try:
        first = next(source)
    except StopIteration:
        raise ValidationError("oracle yielded no bootstrap sequence") from None
    if n_states is None and isinstance(first, StateSequence):
        n_states = first.n_states
    labels = _oracle_labels(first, 0, n_states)
    if n_states is None:
        n_states = int(labels.max()) + 1
        labels = _oracle_labels(labels, 0, n_states)
    bootstrap = StateSequence._known(tuple(labels.tolist()), n_states)

    model = markov.estimate_transition(labels, n_states)
    window = config.window_len
    # The evaluator reads only the last two windows, so that is all the
    # history a windowed session keeps.
    history = list(bootstrap.labels[-2 * window :]) if window is not None else []
    anchor = bootstrap.labels[-1]
    interval = config.thresholds.checker_interval
    bernoulli_rng = np.random.default_rng([config.seed, 0xB0])
    records: list[IterationRecord] = []

    for iteration, actual_raw in enumerate(itertools.islice(source, config.iterations), start=1):
        actual = _oracle_labels(actual_raw, iteration, n_states)

        outcome: EvaluatorOutcome | None = None
        basis = model
        if window is not None:
            if window >= len(history):
                raise ValidationError(
                    f"window_len {window} must stay below the "
                    f"observed sequence length {len(history)}"
                )
            outcome = evaluator_step(history, window, model, config.thresholds)
            basis = outcome.model

        if isinstance(interval, FixedEvery):
            checked = iteration % interval.every == 0
        else:
            checked = bool(bernoulli_rng.random() < interval.p)

        if isinstance(config.mode, Argmax):
            predicted = _as_labels(markov.walk(basis, anchor, len(actual)))
        else:
            count = config.candidate_count if checked else 1
            predicted = _closest_walk(basis, anchor, actual, config.seed, iteration, count)
        predicted_labels = predicted.tolist()

        verdict = None
        if checked:
            verdict = check_iteration(predicted, actual, config.thresholds, n_states)
        accepted = verdict is None or verdict.decision is Decision.ACCEPT
        if accepted:
            added = markov.count_transitions(np.append(anchor, predicted), n_states)
            model = markov.normalize(model.counts + added)
        else:
            model = markov.estimate_transition(actual, n_states)
        if window is not None:
            history.extend(predicted_labels if accepted else actual.tolist())
            del history[: -2 * window]
        # A check ran the diarizer, so its last label is the freshest anchor
        # for the next iteration regardless of the verdict.
        anchor = int(actual[-1]) if checked else predicted_labels[-1]

        records.append(
            IterationRecord(
                index=iteration,
                predicted=StateSequence._known(tuple(predicted_labels), n_states),
                checked=checked,
                decision=verdict,
                evaluator=outcome,
            )
        )

    return SessionReport(
        bootstrap=bootstrap, iterations=tuple(records), final_model=model
    )


def _oracle_labels(
    raw: StateSequence | Sequence[int], index: int, n_states: int | None
) -> np.ndarray:
    """Oracle sequence `index` as labels by `_as_labels`, rejected when empty."""
    try:
        labels = _as_labels(raw, n_states)
    except ValidationError as exc:
        raise ValidationError(f"oracle sequence {index}: {exc}") from None
    if labels.size == 0:
        raise ValidationError(f"oracle sequence {index} is empty")
    return labels


def _closest_walk(
    basis: TransitionModel, anchor: int, actual: np.ndarray, seed: int, iteration: int, count: int
) -> np.ndarray:
    """The sampled candidate with the fewest mismatches (lowest TPE) against `actual`.

    Candidate ``j`` walks from `anchor` with ``default_rng([seed, iteration, j])``
    over one sampling table. The result equals walking all `count`
    candidates whole and taking the argmin of their mismatch counts, the
    lowest index among ties. A candidate walks in chunks and stops after
    the chunk whose mismatches reach the fewest so far, since it can then
    at best tie; no shorter walk can reach that many, so its first chunk
    holds that many steps (at least 16) and each later one twice the one
    before. Chunked draws continue the stream exactly as one
    ``random(len(actual))`` call does. An exact match ends the sampling.
    Candidate 0 always walks whole, as no walk reaches ``len(actual) + 1``,
    so with a `count` of 1 (an unchecked iteration) this is candidate 0's
    plain sampled walk.
    """
    actual = np.asarray(actual, dtype=np.int64)
    table = markov._table(basis.probs)
    best, fewest = actual[:0], actual.size + 1
    for j in range(count):
        rng = np.random.default_rng([seed, iteration, j])
        pieces, misses, state, done, chunk = [actual[:0]], 0, anchor, 0, max(16, fewest)
        while misses < fewest and done < actual.size:
            draws = rng.random(min(chunk, actual.size - done)).tolist()
            steps = markov._steps(table, state, draws)
            piece = np.fromiter(steps, np.int64, len(steps))
            misses += int(np.count_nonzero(piece != actual[done : done + piece.size]))
            pieces.append(piece)
            state, done, chunk = steps[-1], done + piece.size, 2 * chunk
        if misses < fewest:
            best, fewest = np.concatenate(pieces), misses
        if fewest == 0:
            break
    return best
