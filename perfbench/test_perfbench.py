"""Tests of the benchmark itself: tracer arithmetic, input determinism, tiny ops."""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from convstate import controller, markov  # noqa: E402
from layers import TARGETS  # noqa: E402
from tracer import Target, Tracer, call_counts, self_times  # noqa: E402


def test_self_times_on_hand_built_tree():
    spans = [
        ["root", 0, 100, -1, 7],
        ["a", 10, 40, 0, 7],
        ["b", 30, 60, 0, 7],  # overlaps a: the union 10..60 is covered once
        ["a.child", 12, 20, 1, 7],
        ["late", 90, 120, 0, 7],  # runs past its parent: only 90..100 is covered
    ]
    leaves = {(2, "hot"): [5, 3], (0, "hot"): [4, 2]}
    own = self_times(spans, leaves)
    assert own[(7, "root")] == 100 - 50 - 10 - 4
    assert own[(7, "a")] == 30 - 8
    assert own[(7, "b")] == 30 - 5
    assert own[(7, "a.child")] == 8
    assert own[(7, "late")] == 30
    assert own[(7, "hot")] == 9
    assert call_counts(spans, leaves)[(7, "hot")] == 5


def test_tracer_restores_wrapped_functions_and_reports_absent():
    original = markov.update_online
    targets = [Target("convstate.markov", "update_online", "markov.update_online"),
               Target("convstate.markov", "no_such_function", "markov.gone")]
    with Tracer(targets) as tracer:
        assert markov.update_online is not original
        model = markov.estimate_transition([0, 1, 1, 0], 2)
        markov.update_online(model, 0, 1)  # outside an op: not recorded
        with tracer.op(0):
            markov.update_online(model, 0, 1)
    assert markov.update_online is original
    assert tracer.absent == ["convstate.markov.no_such_function"]
    assert [s[0] for s in tracer.spans] == ["bench.op", "markov.update_online"]


def test_generator_target_times_each_item():
    targets = [Target("convstate.harness", "chain_oracle", "harness.oracle", "generator")]
    truth = markov.estimate_transition([0, 1, 1, 0, 0], 2)
    with Tracer(targets) as tracer:
        from convstate import harness

        with tracer.op(0):
            items = list(harness.chain_oracle(truth, 5, 0, 3, 4))
    assert len(items) == 4
    assert sum(s[0] == "harness.oracle" for s in tracer.spans) == 5  # 4 items + exhaustion


def test_inputs_are_deterministic_per_seed():
    first, again, other = (synth.make_clip(s, 16, 8.0) for s in (5, 5, 6))
    assert first.samples.tobytes() == again.samples.tobytes()
    assert first.runs == again.runs
    assert first.samples.tobytes() != other.samples.tobytes()
    mask = synth.speech_mask(first)
    assert mask.size == synth.frame_count(first.samples.size)
    assert 0 < mask.mean() < 1
    spans = [(s / synth.RATE, e / synth.RATE) for s, e, _ in first.runs]
    assert list(synth.segment_truth(first, spans)) == [spk for _, _, spk in first.runs]
    mfcc = np.random.default_rng(0).normal(size=(mask.size, 13))
    pooled = synth.pool_embeddings(mfcc, spans)
    assert pooled.tobytes() == synth.pool_embeddings(mfcc, spans).tobytes()
    assert pooled.shape == (len(spans), 26)


def test_session_truth_matches_the_program_oracle():
    from convstate import harness

    session = workloads.Session()
    session.length, session.iterations = 40, 3
    session.probs = synth.chain_probs()
    truth_model = markov.normalize(np.asarray(synth.STICKY_COUNTS))
    bootstrap = harness.sequence_with_exact_counts(truth_model.counts)
    oracle = list(harness.matched_chain_oracle(truth_model, 40, 0, 9, 4, bootstrap=bootstrap))
    expected = session.truth(9, bootstrap.labels[-1])
    assert [list(seq.labels) for seq in oracle[1:]] == [list(chunk) for chunk in expected]


def tiny(name):
    workload = workloads.WORKLOADS[name]()
    if name == "session":
        workload.length = 60
    elif name == "pipeline":
        workload.clips, workload.units, workload.duration_s = 1, 16, 8.0
    else:
        workload.units, workload.duration_s = 20, 10.0
    return workload


@pytest.mark.parametrize("name", ["session", "pipeline", "vad"])
def test_tiny_op_passes_checks_traced_and_untraced(name, tmp_path):
    workload = tiny(name)
    workload.setup(3, str(tmp_path))
    plain = run.run_op(workload, 0, 11)
    assert plain.error is None and plain.outcome.total_labels > 0
    with Tracer(TARGETS) as tracer:
        traced = run.run_op(workload, 0, 11, tracer)
    assert traced.error is None
    assert traced.outcome.digest == plain.outcome.digest
    assert tracer.absent == []
    own = sum(self_times(tracer.spans, tracer.leaves).values()) / 1e9
    assert own == pytest.approx(traced.wall_s, abs=1e-6)


def test_a_wrong_output_fails_the_check(tmp_path, monkeypatch):
    workload = tiny("session")
    workload.setup(3, str(tmp_path))
    real_evaluate = controller.evaluate

    def off_by_one(predicted, actual, n_states):
        report = real_evaluate(predicted, actual, n_states)
        return dataclasses.replace(report, tpe=min(report.tpe + 1.0, 100.0))

    monkeypatch.setattr(controller, "evaluate", off_by_one)
    record = run.run_op(workload, 0, 11)
    assert record.outcome is None and "tpe" in record.error
