"""Golden outputs: sha256 digests of seeded CLI runs, recorded before the
session hot path was vectorized (session, simulate, predict), before the
indented JSON writer replaced ``json.dumps(..., indent=2)`` (estimate,
check, saved model), before the feature blocks ran on a thread pool
(vad), before ``FrameFeatures`` became views of one feature matrix
(the per-frame VAD path) and before the spectral stages dropped their
wrapper type and settable soft multiplier (diarize). The feature-CSV
digests were recorded when the CSV went from ``repr`` to six decimals.

Any change to the walk kernel, the label checks, the counters, the report
writers or the frontend kernels that moves a single output byte fails here.
Temp paths are replaced by ``<tmp>`` before stdout is hashed.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import convstate
from convstate.cli import main
from convstate.frontend import AudioBuffer, extract_features, save_wav, segment, vad_classify
from convstate.markov import Sampled, normalize
from convstate.storage import save_model

TRUTH_COUNTS = [[86, 7, 7], [7, 86, 7], [7, 7, 86]]

# Each entry edits the base config of `session_digests`.
SESSIONS = {
    "sampled-exact-bootstrap": {
        "mode": "sampled", "oracle": {"matched": True, "exact_bootstrap": True},
    },
    "argmax-window": {
        "mode": "argmax", "window": 120, "oracle": {"matched": True, "exact_bootstrap": True},
    },
    "sampled-bernoulli-unmatched": {
        "mode": "sampled",
        "thresholds": {"tpe_threshold": 66, "epps_threshold": 95,
                       "checker_interval": "bernoulli:0.5"},
        "oracle": {"matched": False, "length": 200},
    },
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
    "estimate/model": "b371cf8d7d83f37ef81964986668eb07afbcecd490fb69872bc6d42c1d2ebc55",
    "check/stdout": "a394b1d23657a0dda31679fb07031a4bf8a5f92cc3ae81301cf1d9da38be184e",
    "check/out": "173adc6b699c5db12d6c00bf3f1ad159f34f83779e1349d016cd7b43983772de",
    "save-model/sampled": "4a1face0acc2a28e22e76b03313c08130d48d18fa46092387726388be17da2ac",
    "vad/16000/stdout": "0b111ac576ed181f1f5441f4639ac3a807378f00644ac9c154edf916b95035f2",
    "vad/44100/stdout": "0b111ac576ed181f1f5441f4639ac3a807378f00644ac9c154edf916b95035f2",
    "per-frame/16000": "ca9970d87ac55d7b7d758da2767451fbd863ccebb921afa6cc5691d576e88151",
    "per-frame/44100": "ca9970d87ac55d7b7d758da2767451fbd863ccebb921afa6cc5691d576e88151",
    "diarize/sweep": "8312c967ae9a1a41f35e47c862eac1188706411503a066111677e92d53dde3c8",
    "diarize/percentile-90": "45b252605df4bcdac74f4f2a5f6eaad22c67113687b2fdeb06d57f8fff0258ed",
    "diarize/k-3": "b93d2eb5661dd4933ad77258d6d2eaa765290438f457124dede6f6457b576ca3",
    "diarize/timed-jsonl": "7aed47b6f6fc0b6d3069a08c567f38729ec6758fee25d801d5903a5c5db5f729",
}

# The feature CSV prints six decimals: the last bits that NumPy's SIMD
# dispatch and BLAS move (about 1e-15) do not reach them, so one digest per
# rate holds on every host.
VAD_CSV_GOLDEN = {
    16000: "42e2366bbc57aa6889bdb963e2297f46259aab61a09d0b4a0859efa4202f30fa",
    44100: "df4da04e8a335a5af8b734e4f9cbbe322468133f684c2d08b53112f8dc6a1591",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(capsys, tmp_path, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out.replace(str(tmp_path), "<tmp>"), captured.err


def session_digests(capsys, tmp_path, name):
    edits = SESSIONS[name]
    truth = tmp_path / "truth.json"
    save_model(normalize(np.array(TRUTH_COUNTS)), str(truth))
    config = {
        "seed": 11,
        "candidate_count": 5,
        "iterations": 7,
        "thresholds": {"tpe_threshold": 20, "epps_threshold": 30},
        **edits,
        "oracle": {"kind": "chain", "model": str(truth), "length": 300, "initial": 0,
                   **edits["oracle"]},
    }
    config_path = tmp_path / "session.json"
    config_path.write_text(json.dumps(config))
    report, table = tmp_path / "report.json", tmp_path / "table.csv"
    code, out, err = run(
        capsys, tmp_path, "session", config_path, "--report-out", report, "--table-out", table
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
    digests = {
        "simulate-chain/stdout": sha256(chain),
        "predict-sample/stdout": sha256(predicted),
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
    save_model(normalize(counts), str(saved), Sampled(7))
    digests = {
        "estimate/model": sha256(model.read_text()),
        "check/stdout": sha256(check_stdout),
        "check/out": sha256(check_out.read_text()),
        "save-model/sampled": sha256(saved.read_text()),
    }
    assert digests == {key: GOLDEN[key] for key in digests}


def voiced_clip(rate: int, seconds: float, seed: int) -> AudioBuffer:
    """0.9 s tone bursts at a random pitch every 1.5 s over a faint noise floor."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(rate * seconds)) / rate
    turn = (t // 1.5).astype(int)
    pitch = rng.uniform(120.0, 400.0, turn[-1] + 1)[turn]
    samples = rng.normal(0.0, 2e-5, t.size)
    voiced = t % 1.5 < 0.9
    samples[voiced] += 0.3 * np.sin(2 * np.pi * pitch[voiced] * t[voiced])
    return AudioBuffer(np.clip(samples, -1.0, 1.0), rate)


@pytest.mark.parametrize("rate", [16000, 44100])
def test_vad_outputs(capsys, tmp_path, rate):
    # 8 s is 798 frames: four feature blocks, the last one partial.
    wav, csv = tmp_path / "clip.wav", tmp_path / "features.csv"
    save_wav(str(wav), voiced_clip(rate, 8.0, seed=rate))
    code, out, err = run(capsys, tmp_path, "vad", wav, "--out", csv)
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert summary["frames"] == 798
    assert 0 < summary["speech_frames"] < 798 and len(summary["segments"]) > 1
    assert sha256(out) == GOLDEN[f"vad/{rate}/stdout"]
    assert sha256(csv.read_text()) == VAD_CSV_GOLDEN[rate]


def test_vad_csv_is_the_same_without_simd(tmp_path):
    # NumPy runs its baseline kernels when every SIMD group it dispatches to
    # on this host is disabled. Names outside the running NumPy's dispatch
    # list are refused, so the list is read from it; other architectures
    # are not covered.
    groups = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    if platform.machine().lower() not in ("x86_64", "amd64") or not groups:
        pytest.skip("no x86 SIMD group to disable on this host")
    src = os.path.dirname(os.path.dirname(convstate.__file__))
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = src
    reduced = {"NPY_DISABLE_CPU_FEATURES": " ".join(groups)}
    wav, csv = tmp_path / "clip.wav", tmp_path / "features.csv"
    for rate in (16000, 44100):
        save_wav(str(wav), voiced_clip(rate, 8.0, seed=rate))
        written = []
        for extra in ({}, reduced):
            result = subprocess.run(
                [sys.executable, "-m", "convstate", "vad", str(wav), "--out", str(csv)],
                env={**env, **extra}, capture_output=True, text=True, timeout=120,
            )
            assert (result.returncode, result.stderr) == (0, "")
            written.append(csv.read_bytes())
        assert written[0] == written[1]
        assert hashlib.sha256(written[0]).hexdigest() == VAD_CSV_GOLDEN[rate]


@pytest.mark.parametrize("rate", [16000, 44100])
def test_per_frame_vad_outputs(rate):
    # The one-frame vad_classify over extract_features, as the benchmark's
    # pipeline runs it. Only the mask and segment bounds are hashed: the
    # MFCC bytes follow the host's SIMD level (see VAD_CSV_GOLDEN), a
    # boolean decision away from 0.5 does not.
    rng = np.random.default_rng(rate + 1)
    weights = np.concatenate(([1.0, -2.0], rng.normal(0.0, 0.05, 13), [10.0]))
    frames = extract_features(voiced_clip(rate, 8.0, seed=rate + 2))
    mask = np.array([vad_classify(f, weights)[0] for f in frames])
    spans = [(s.start_s, s.end_s) for s in segment(mask)]
    assert 0 < mask.sum() < mask.size == 798 and len(spans) > 1
    digest = hashlib.sha256(mask.tobytes() + repr(spans).encode()).hexdigest()
    assert digest == GOLDEN[f"per-frame/{rate}"]


DIARIZE_FLAGS = {
    "sweep": [],
    "percentile-90": ["--percentile", 90],
    "k-3": ["--k", 3],
}


def test_diarize_outputs(capsys, tmp_path):
    # Four noisy clusters: each flag changes the labels. Labels are
    # integers picked by k-means over eigenvector columns, so a column's
    # sign, which LAPACK builds may flip, does not move them.
    csv = tmp_path / "embeddings.csv"
    code, _, _ = run(
        capsys, tmp_path, "simulate", "embeddings", "--clusters", 4, "--per-cluster", 10,
        "--dim", 6, "--separation", 2.5, "--noise-sigma", 1.0, "--seed", 21, "--out", csv,
    )
    assert code == 0
    digests = {}
    for name, flags in DIARIZE_FLAGS.items():
        code, out, err = run(capsys, tmp_path, "diarize", csv, *flags)
        assert (code, err) == (0, "")
        digests[f"diarize/{name}"] = sha256(out)
    timed = tmp_path / "embeddings.jsonl"
    rows = [[float(v) for v in line.split(",")] for line in csv.read_text().splitlines()]
    timed.write_text("".join(
        json.dumps({"start_s": 0.4 * i, "end_s": 0.4 * (i + 1), "vector": row}) + "\n"
        for i, row in enumerate(rows)
    ))
    code, out, err = run(capsys, tmp_path, "diarize", timed, "--seed", 3)
    assert (code, err) == (0, "")
    digests["diarize/timed-jsonl"] = sha256(out)
    assert digests == {key: GOLDEN[key] for key in digests}
