"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure) and pins the tolerance stated for it. The checker-decision
fixture is a frozen table of seven evaluated recordings with known
expected verdicts.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from convstate import cli
from convstate.clustering import (
    auto_percentile,
    diffuse,
    eigen_gap_k,
    refine,
    row_normalize,
    spectral_cluster,
    symmetrize,
)
from convstate.controller import (
    Decision,
    SessionConfig,
    Thresholds,
    decide,
    matrix_diff,
    row_diff_check,
    run_session,
)
from convstate.frontend import mfcc, train_vad, vad_classify, zcr
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
    estimate_transition,
    normalize,
    update_online,
)
from convstate.metrics import EvaluationReport, evaluate, tpe
from convstate.storage import save_model
from tests.test_frontend import reference_mfcc, synthetic_vad_corpus, tone


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


# Frozen reference rows, one per evaluated recording: (TPE, {state: EPPS}).
REFERENCE_ROWS = {
    1: (9.58, {0: 8.57, 1: 7.14, 2: 20.0}),
    2: (7.27, {0: 0.0, 1: 11.54, 2: 25.0}),
    3: (11.11, {0: 0.0, 1: 25.0, 2: 12.5}),
    4: (2.79, {0: 3.49, 1: 1.09, 2: 4.11}),
    5: (3.67, {0: 0.0, 1: 10.0, 2: 6.0}),
    6: (12.0, {0: 33.33, 1: 0.0, 2: 10.0}),
    7: (7.69, {0: 11.11, 1: 0.0, 2: 13.64}),
}


def test_criterion_1_checker_reproduces_result_table():
    with criterion(1, "checker decisions match the reference result rows"):
        thresholds = Thresholds()
        decisions = {}
        for file_id, (tpe_value, epps_map) in REFERENCE_ROWS.items():
            report = EvaluationReport(
                tpe=tpe_value,
                epps=dict(epps_map),
                compared_length=100,
                per_state_occurrences={state: 1 for state in epps_map},
            )
            decisions[file_id] = decide(report, thresholds)
        for accepted_file in (1, 2, 3, 4, 5, 7):
            assert decisions[accepted_file] is Decision.ACCEPT, accepted_file
        assert decisions[6] is Decision.REPLACE_WITH_ORACLE


def test_criterion_2_metric_oracle_equivalence():
    with criterion(2, "TPE/EPPS match a brute-force oracle on 1000 random pairs"):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            n_states = int(rng.integers(1, 6))
            length = int(rng.integers(1, 201))
            predicted = rng.integers(0, n_states, length)
            actual = rng.integers(0, n_states, length)

            wrong = sum(1 for p, a in zip(predicted, actual) if p != a)
            assert tpe(predicted, actual) == pytest.approx(100.0 * wrong / length)

            report = evaluate(predicted, actual, n_states)
            weighted = 0.0
            total = 0
            for state in range(n_states):
                occurrences = sum(1 for a in actual if a == state)
                if occurrences == 0:
                    assert state not in report.epps
                    continue
                misses = sum(
                    1 for p, a in zip(predicted, actual) if a == state and p != a
                )
                assert report.epps[state] == pytest.approx(100.0 * misses / occurrences)
                weighted += report.epps[state] * occurrences
                total += occurrences
            assert report.tpe == pytest.approx(weighted / total, abs=1e-9)


def test_criterion_3_estimator_consistency():
    with criterion(3, "20k-sample estimate within 0.03 of the fixture chain"):
        truth = normalize(np.array([[12, 6, 2], [4, 10, 6], [5, 5, 10]]))
        assert np.allclose(
            truth.probs, [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]]
        )
        sample = generate_synthetic_sequence(truth, 20_000, 0, seed=42)
        estimate = estimate_transition(sample, 3)
        assert np.abs(estimate.probs - truth.probs).max() <= 0.03


def test_criterion_4_incremental_batch_equivalence():
    with criterion(4, "online update equals batch re-estimation on 500 cases"):
        rng = np.random.default_rng(99)
        for _ in range(500):
            n_states = int(rng.integers(1, 6))
            length = int(rng.integers(1, 80))
            labels = rng.integers(0, n_states, length).tolist()
            extension = int(rng.integers(0, n_states))
            incremental = update_online(
                estimate_transition(labels, n_states), labels[-1], extension
            )
            batch = estimate_transition(labels + [extension], n_states)
            assert incremental.counts.tolist() == batch.counts.tolist()
            assert incremental.probs.tolist() == batch.probs.tolist()


def test_criterion_5_evaluator_thresholds():
    with criterion(5, "matrix_diff and row_diff fixtures decide exactly"):
        base = normalize(np.array([[10, 0], [5, 5]]))
        drifted = normalize(np.array([[8, 2], [5, 5]]))
        gap, passed = matrix_diff(base, drifted)
        assert gap == pytest.approx(0.2) and not passed

        near = normalize(np.array([[6, 4], [5, 5]]))
        flat = normalize(np.array([[5, 5], [5, 5]]))
        gap, passed = matrix_diff(near, flat)
        assert gap == pytest.approx(0.1) and passed

        tied = normalize(np.array([[1, 1], [9, 1]]))
        row_passes, _ = row_diff_check(tied)
        assert row_passes[0] is False

        degenerate = normalize(np.array([[4, 0], [0, 4]]))
        assert row_diff_check(degenerate) == ([True, True], True)

        skewed = normalize(np.array([[7, 2, 1], [1, 7, 2], [2, 1, 7]]))
        assert row_diff_check(skewed)[1] is True


def test_criterion_6_spectral_pipeline():
    with criterion(6, "3-cluster embeddings: eigengap picks 3, labels >= 99%"):
        embeddings, truth = generate_synthetic_embeddings(3, 20, 16, 5.0, 1.0, seed=7)
        predicted = spectral_cluster(embeddings, seed=7)
        assert predicted.n_states == 3
        percentile = auto_percentile(embeddings)
        refined = refine(embeddings, percentile=percentile)
        assert eigen_gap_k(0.5 * (refined + refined.T)) == 3
        _, aligned = align_labels(list(predicted.labels), truth)
        accuracy = float(np.mean(np.array(aligned) == np.array(truth)))
        assert accuracy >= 0.99

        assert symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]])).tolist() == [
            [0.0, 1.0],
            [1.0, 0.0],
        ]
        assert diffuse(np.array([[1.0, 0.0], [1.0, 1.0]])).tolist() == [
            [1.0, 1.0],
            [1.0, 2.0],
        ]
        assert row_normalize(np.array([[2.0, 4.0], [1.0, 1.0]])).tolist() == [
            [0.5, 1.0],
            [1.0, 1.0],
        ]


def test_criterion_7_self_consistent_session():
    with criterion(7, "cycle session accepts with zero error; chain switch fires"):
        cycle = normalize(np.array([[0, 8, 0], [0, 0, 8], [8, 0, 0]]))
        oracle = chain_oracle(cycle, length=40, initial=0, seed=5, iterations=6)
        report = run_session(oracle, SessionConfig(mode=Argmax(), seed=5, iterations=5))
        assert len(report.iterations) == 5
        for record in report.iterations:
            assert record.decision.decision is Decision.ACCEPT
            assert record.decision.report.tpe == 0.0

        anti_cycle = normalize(np.array([[0, 0, 8], [8, 0, 0], [0, 8, 0]]))

        def switching():
            yield from chain_oracle(cycle, length=40, initial=0, seed=5, iterations=3)
            yield from chain_oracle(anti_cycle, length=40, initial=0, seed=6, iterations=3)

        switched = run_session(switching(), SessionConfig(mode=Argmax(), seed=5, iterations=5))
        after_switch = [rec.decision.decision for rec in switched.iterations[2:]]
        assert Decision.REPLACE_WITH_ORACLE in after_switch


def test_criterion_8_error_budget_at_scale():
    with criterion(8, "matched sampled session keeps mean TPE within 12%"):
        truth = normalize(np.array([[86, 7, 7], [7, 86, 7], [7, 7, 86]]))
        assert truth.probs.diagonal().min() >= 0.85
        bootstrap = sequence_with_exact_counts(truth.counts)
        oracle = matched_chain_oracle(
            truth, length=300, initial=0, seed=11, iterations=8, bootstrap=bootstrap
        )
        config = SessionConfig(
            thresholds=Thresholds(),
            mode=Sampled(0),
            seed=11,
            candidate_count=5,
            iterations=7,
        )
        report = run_session(oracle, config)
        assert len(report.iterations) == 7
        mean_tpe = report.mean_tpe()
        print(f"  session-mean TPE = {mean_tpe:.2f}%")
        assert mean_tpe <= 12.0


def test_criterion_9_frontend_numerics():
    with criterion(9, "ZCR exact, MFCC vs reference <= 1e-6, VAD >= 99%"):
        assert zcr(np.full(50, 0.2)) == 0.0
        assert zcr(np.array([1.0, -1.0] * 10)) == 1.0
        sine_frame = tone(100)
        assert zcr(sine_frame) == pytest.approx(5 / 399)

        rng = np.random.default_rng(123)
        frames = [rng.uniform(-1, 1, 400) for _ in range(17)]
        frames += [tone(250), tone(1000), np.zeros(400)]
        for samples in frames:
            delta = np.abs(mfcc(samples, 16000) - reference_mfcc(samples, 16000)).max()
            assert delta <= 1e-6

        x, y = synthetic_vad_corpus()
        weights, _ = train_vad(x, y, epochs=400, learning_rate=0.5, seed=0)
        predictions = np.array([vad_classify(row, weights)[0] for row in x])
        assert (predictions == y).mean() >= 0.99


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "seeded CLI commands emit identical bytes across runs"):
        truth_path = str(tmp_path / "truth.json")
        save_model(
            normalize(np.array([[86, 7, 7], [7, 86, 7], [7, 7, 86]])), truth_path
        )
        config_path = str(tmp_path / "session.json")
        with open(config_path, "w") as handle:
            json.dump(
                {
                    "seed": 11,
                    "mode": "sampled",
                    "candidate_count": 5,
                    "iterations": 3,
                    "oracle": {
                        "kind": "chain",
                        "model": truth_path,
                        "length": 120,
                        "initial": 0,
                        "matched": True,
                        "exact_bootstrap": True,
                    },
                },
                handle,
            )
        emb_path = str(tmp_path / "emb.csv")
        commands = [
            ["simulate", "chain", "--model", truth_path, "--length", "80", "--seed", "9"],
            [
                "simulate", "embeddings", "--clusters", "3", "--per-cluster", "10",
                "--dim", "8", "--separation", "5", "--noise-sigma", "1",
                "--seed", "7", "--out", emb_path,
            ],
            ["diarize", emb_path, "--seed", "7"],
            ["predict", truth_path, "--initial", "0", "--length", "60",
             "--mode", "sample", "--seed", "4"],
            ["session", config_path],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                assert cli.main(list(argv)) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], argv
