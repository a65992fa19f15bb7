"""Golden outputs: sha256 digests of seeded CLI runs, recorded before the
session hot path was vectorized (session, simulate, predict) and before the
indented JSON writer replaced ``json.dumps(..., indent=2)`` (estimate,
check, saved model).

Any change to the walk kernel, the label checks, the counters or the
report writers that moves a single output byte fails here. Temp paths are
replaced by ``<tmp>`` before stdout is hashed.
"""

import hashlib
import json

import numpy as np
import pytest

from convstate.cli import main
from convstate.markov import Sampled, UnseenRowPolicy, normalize
from convstate.storage import save_model

TRUTH_COUNTS = [[86, 7, 7], [7, 86, 7], [7, 7, 86]]

SESSIONS = {
    "sampled-exact-bootstrap": (
        {"mode": "sampled", "oracle": {"matched": True, "exact_bootstrap": True}},
        [],
    ),
    "argmax-window": (
        {"mode": "argmax", "oracle": {"matched": True, "exact_bootstrap": True}},
        ["--window", "120"],
    ),
    "sampled-bernoulli-unmatched": (
        {"mode": "sampled", "oracle": {"matched": False, "length": 200}},
        ["--checker-interval", "bernoulli:0.5:3", "--tpe-threshold", "66",
         "--epps-threshold", "95"],
    ),
}

GOLDEN = {
    "session/argmax-window/report": "86c9c8909f5df12c75fbcbb84df8e503ee4b0ede128a6e03f63fb5e93089d8fc",
    "session/argmax-window/table": "4fbd943eb2f9d9d5c96f41003ef7ca6221e450ea9c1d726f5758b906fbf03ed8",
    "session/argmax-window/stdout": "47300e792487d5edc026f266ff0c78b683606f4f14139a779c091959acccc8da",
    "session/sampled-bernoulli-unmatched/report": "7b4ac17915bbf65224b0d34401955106721de364cdcc0eac24ed78da09a36653",
    "session/sampled-bernoulli-unmatched/table": "9d840071aeba1c0f0abc8de39496a0960a6ec9a5e6129f790dfcc7b85c6b1f82",
    "session/sampled-bernoulli-unmatched/stdout": "2a151a5938a79730c451708583d95dcee11ae4d4afe666e0f3c406b4713a45db",
    "session/sampled-exact-bootstrap/report": "a85699f1d0220fb7b0259b240b2838dcf1c5ac9a087981511b86f6d53bc92ea1",
    "session/sampled-exact-bootstrap/table": "c9a40220f78e0382b6866f61676c687f058f19ffc19e78414244f225c100414a",
    "session/sampled-exact-bootstrap/stdout": "c63712ff4d318bfca2eed3c2d5298169043361000f4207433f1226ae8eb44414",
    "simulate-chain/stdout": "b8e3e5d4164a7ac9e66d2f69405644b7434e97de67f94e6263b2deafce5d7857",
    "predict-sample/stdout": "e52f58cba9ea4f0c55c894bc094b231033842a44e16505ef357f3bb17676b220",
    "predict-error-policy/stderr": "bf5bea4b100cb16ed821ab17ff501aedabadaa4c05f851251d061033a4da7e12",
    "estimate/model": "b371cf8d7d83f37ef81964986668eb07afbcecd490fb69872bc6d42c1d2ebc55",
    "check/stdout": "a394b1d23657a0dda31679fb07031a4bf8a5f92cc3ae81301cf1d9da38be184e",
    "check/out": "173adc6b699c5db12d6c00bf3f1ad159f34f83779e1349d016cd7b43983772de",
    "save-model/sampled-error-policy": "28fc42d7c93fc2ee1239bff3b178aaa9983d5aff31625c4d334af3a36e9913cc",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(capsys, tmp_path, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out.replace(str(tmp_path), "<tmp>"), captured.err


def session_digests(capsys, tmp_path, name):
    overrides, flags = SESSIONS[name]
    truth = tmp_path / "truth.json"
    save_model(normalize(np.array(TRUTH_COUNTS)), str(truth))
    config = {
        "seed": 11,
        "candidate_count": 5,
        "iterations": 7,
        "thresholds": {"tpe_threshold": 20, "epps_threshold": 30},
        "mode": overrides["mode"],
        "oracle": {"kind": "chain", "model": str(truth), "length": 300, "initial": 0,
                   **overrides["oracle"]},
    }
    config_path = tmp_path / "session.json"
    config_path.write_text(json.dumps(config))
    report, table = tmp_path / "report.json", tmp_path / "table.csv"
    code, out, err = run(
        capsys, tmp_path, "session", config_path,
        "--report-out", report, "--table-out", table, *flags,
    )
    assert (code, err) == (0, "")
    return {
        f"session/{name}/report": sha256(report.read_text()),
        f"session/{name}/table": sha256(table.read_text()),
        f"session/{name}/stdout": sha256(out),
    }


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_outputs(capsys, tmp_path, name):
    digests = session_digests(capsys, tmp_path, name)
    assert digests == {key: GOLDEN[key] for key in digests}


def test_simulate_chain_and_predict(capsys, tmp_path):
    model = tmp_path / "model.json"
    counts = np.array([[5, 3, 1, 0], [2, 2, 6, 1], [0, 4, 0, 7], [3, 0, 2, 2]])
    save_model(normalize(counts), str(model))
    code, chain, _ = run(
        capsys, tmp_path, "simulate", "chain", "--model", model, "--length", 2000,
        "--initial", 2, "--seed", 9,
    )
    assert code == 0
    code, predicted, _ = run(
        capsys, tmp_path, "predict", model, "--initial", 1, "--length", 1500,
        "--mode", "sample", "--seed", 4,
    )
    assert code == 0
    partial = tmp_path / "partial.json"
    partial_counts = np.array([[0, 4, 1], [0, 0, 0], [3, 2, 0]])
    save_model(normalize(partial_counts, UnseenRowPolicy.ERROR_ON_QUERY), str(partial))
    code, _, err = run(
        capsys, tmp_path, "predict", partial, "--initial", 2, "--length", 50,
        "--mode", "sample", "--seed", 1,
    )
    assert code == 1
    digests = {
        "simulate-chain/stdout": sha256(chain),
        "predict-sample/stdout": sha256(predicted),
        "predict-error-policy/stderr": sha256(err),
    }
    assert digests == {key: GOLDEN[key] for key in digests}


def test_estimate_check_and_saved_model(capsys, tmp_path):
    rng = np.random.default_rng(5)
    actual = rng.integers(0, 4, 600)
    predicted = np.where(rng.random(600) < 0.3, rng.integers(0, 4, 600), actual)
    actual_path, predicted_path = tmp_path / "actual.txt", tmp_path / "predicted.txt"
    actual_path.write_text("\n".join(map(str, actual)) + "\n")
    predicted_path.write_text("\n".join(map(str, predicted)) + "\n")
    model, check_out = tmp_path / "model.json", tmp_path / "check.json"
    code, _, _ = run(capsys, tmp_path, "estimate", actual_path, "--states", 5,
                     "--out", model)
    assert code == 0
    code, check_stdout, _ = run(capsys, tmp_path, "check", predicted_path, actual_path)
    assert code == 0
    # State 4 never occurs: no epps entry, a zero occurrence count.
    code, _, _ = run(capsys, tmp_path, "check", predicted_path, actual_path,
                     "--states", 5, "--tpe-threshold", 40, "--out", check_out)
    assert code == 0
    saved = tmp_path / "saved.json"
    counts = np.array([[0, 4, 1], [0, 0, 0], [3, 2, 0]])
    save_model(normalize(counts, UnseenRowPolicy.ERROR_ON_QUERY), str(saved), Sampled(7))
    digests = {
        "estimate/model": sha256(model.read_text()),
        "check/stdout": sha256(check_stdout),
        "check/out": sha256(check_out.read_text()),
        "save-model/sampled-error-policy": sha256(saved.read_text()),
    }
    assert digests == {key: GOLDEN[key] for key in digests}
