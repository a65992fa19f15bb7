import json

import numpy as np
import pytest

from convstate.cli import main
from convstate.frontend import AudioBuffer, save_wav
from convstate.markov import normalize
from convstate.storage import save_model


@pytest.fixture
def truth_model_path(tmp_path):
    path = str(tmp_path / "truth.json")
    save_model(normalize(np.array([[86, 7, 7], [7, 86, 7], [7, 7, 86]])), path)
    return path


@pytest.fixture
def wav_path(tmp_path):
    rate = 16000
    t = np.arange(rate)
    tone = 0.3 * np.cos(2 * np.pi * 440 * t / rate)
    samples = np.concatenate([np.zeros(rate // 2), tone, np.zeros(rate // 2)])
    path = str(tmp_path / "clip.wav")
    save_wav(path, AudioBuffer(samples, rate))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVadCommand:
    def test_mask_and_features(self, capsys, wav_path, tmp_path):
        out_csv = str(tmp_path / "features.csv")
        code, out, _ = run_cli(capsys, "vad", wav_path, "--out", out_csv)
        assert code == 0
        summary = json.loads(out)
        assert summary["frames"] == 198
        assert 95 <= summary["speech_frames"] <= 105
        assert summary["segments"][0]["start_s"] == pytest.approx(0.48, abs=0.05)
        header = open(out_csv).readline().strip().split(",")
        assert header[:4] == ["frame_index", "time_s", "log_energy", "zcr"]
        assert len(header) == 17

    def test_missing_wav_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "vad", str(tmp_path / "nope.wav"))
        assert code == 2
        assert "i/o error" in err


class TestSimulateAndDiarize:
    def test_embeddings_then_diarize_recovers_labels(self, capsys, tmp_path):
        emb = str(tmp_path / "emb.csv")
        truth = str(tmp_path / "truth.txt")
        code, _, _ = run_cli(
            capsys,
            "simulate", "embeddings", "--clusters", "3", "--per-cluster", "20",
            "--dim", "16", "--separation", "5", "--noise-sigma", "1",
            "--seed", "7", "--out", emb, "--labels-out", truth,
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "diarize", emb, "--seed", "7")
        assert code == 0
        predicted = [int(x) for x in out.split()]
        assert len(predicted) == 60
        assert len(set(predicted)) == 3

    def test_chain_simulation_deterministic(self, capsys, truth_model_path):
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys,
                "simulate", "chain", "--model", truth_model_path,
                "--length", "50", "--seed", "9",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestEstimatePredictCheck:
    def test_pipeline(self, capsys, tmp_path, truth_model_path):
        labels = str(tmp_path / "labels.txt")
        model = str(tmp_path / "model.json")
        pred = str(tmp_path / "pred.txt")

        code, _, _ = run_cli(
            capsys, "simulate", "chain", "--model", truth_model_path,
            "--length", "200", "--seed", "3", "--out", labels,
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "estimate", labels, "--states", "3", "--out", model
        )
        assert code == 0
        doc = json.loads(open(model).read())
        assert doc["s"] == 3 and len(doc["counts"]) == 9

        code, _, _ = run_cli(
            capsys, "predict", model, "--initial", "0", "--length", "200",
            "--mode", "sample", "--seed", "3", "--out", pred,
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "check", pred, labels)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "tpe", "epps", "compared_length", "per_state_occurrences", "decision",
        }

    def test_argmax_predict_cycle(self, capsys, tmp_path):
        model_path = str(tmp_path / "cycle.json")
        save_model(normalize(np.array([[0, 4, 0], [0, 0, 4], [4, 0, 0]])), model_path)
        code, out, _ = run_cli(
            capsys, "predict", model_path, "--initial", "0", "--length", "6",
            "--mode", "argmax",
        )
        assert code == 0
        assert out.split() == ["0", "1", "2", "0", "1", "2"]

    def test_check_decision_thresholds(self, capsys, tmp_path):
        predicted = str(tmp_path / "p.txt")
        actual = str(tmp_path / "a.txt")
        open(predicted, "w").write("0\n1\n0\n1\n")
        open(actual, "w").write("0\n1\n1\n1\n")
        code, out, _ = run_cli(
            capsys, "check", predicted, actual, "--tpe-threshold", "20"
        )
        assert code == 0
        assert json.loads(out)["decision"] == "replace_with_oracle"
        code, out, _ = run_cli(
            capsys, "check", predicted, actual, "--tpe-threshold", "30",
            "--epps-threshold", "60",
        )
        assert json.loads(out)["decision"] == "accept"

    @pytest.mark.parametrize("states", ["0", "-1"])
    def test_check_rejects_state_count_below_one(self, capsys, tmp_path, states):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n1\n0\n")
        code, out, err = run_cli(capsys, "check", str(labels), str(labels), "--states", states)
        assert (code, out) == (1, "")
        assert err == f"error: --states must be >= 1, got {states}\n"

    def test_bad_labels_validation_error(self, capsys, tmp_path):
        bad = str(tmp_path / "bad.txt")
        open(bad, "w").write("0 1 oops")
        code, _, err = run_cli(capsys, "estimate", bad, "--states", "2")
        assert code == 1
        assert "error" in err


class TestSessionCommand:
    def write_config(self, tmp_path, truth_model_path, **overrides):
        config = {
            "seed": 11,
            "mode": "sampled",
            "candidate_count": 5,
            "iterations": 7,
            "thresholds": {"tpe_threshold": 20, "epps_threshold": 30},
            "oracle": {
                "kind": "chain",
                "model": truth_model_path,
                "length": 300,
                "initial": 0,
                "matched": True,
                "exact_bootstrap": True,
            },
        }
        config.update(overrides)
        path = str(tmp_path / "session.json")
        open(path, "w").write(json.dumps(config))
        return path

    def test_matched_session_outputs(self, capsys, tmp_path, truth_model_path):
        config = self.write_config(tmp_path, truth_model_path)
        report_json = str(tmp_path / "report.json")
        table_csv = str(tmp_path / "table.csv")
        code, out, _ = run_cli(
            capsys, "session", config,
            "--report-out", report_json, "--table-out", table_csv,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["iterations"] == 7
        assert summary["mean_tpe"] <= 12.0
        table = open(table_csv).read().splitlines()
        assert table[0] == "Audio File,Speaker State,EPPS (in %),TPE (in %)"
        assert len(table) == 1 + 7 * 3
        trace = json.loads(open(report_json).read())
        assert len(trace["iterations"]) == 7

    def test_table_to_stdout_without_paths(self, capsys, tmp_path, truth_model_path):
        config = self.write_config(tmp_path, truth_model_path, iterations=2)
        code, out, _ = run_cli(capsys, "session", config)
        assert code == 0
        assert out.startswith("Audio File,Speaker State")

    def test_files_oracle(self, capsys, tmp_path):
        paths = []
        for i, labels in enumerate((
            [0, 1, 2] * 10, [0, 1, 2] * 10, [0, 1, 2] * 10
        )):
            path = str(tmp_path / f"file{i}.txt")
            open(path, "w").write("\n".join(map(str, labels)))
            paths.append(path)
        config_path = str(tmp_path / "session.json")
        open(config_path, "w").write(json.dumps({
            "seed": 0,
            "mode": "argmax",
            "iterations": 2,
            "states": 3,
            "oracle": {"kind": "files", "paths": paths},
        }))
        code, out, _ = run_cli(capsys, "session", config_path)
        assert code == 0
        assert "0.00" in out

    def test_byte_identical_runs(self, capsys, tmp_path, truth_model_path):
        config = self.write_config(tmp_path, truth_model_path, iterations=3)
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "session", config)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_invalid_config_schema(self, capsys, tmp_path):
        path = str(tmp_path / "broken.json")
        open(path, "w").write("{\"oracle\": 5}")
        code, _, err = run_cli(capsys, "session", path)
        assert code == 1
        assert "oracle" in err


class TestCliEdges:
    def test_bad_checker_interval(self, capsys, tmp_path, truth_model_path):
        config = str(tmp_path / "cfg.json")
        open(config, "w").write(json.dumps({
            "seed": 0, "mode": "argmax", "iterations": 1,
            "oracle": {"kind": "chain", "model": truth_model_path, "length": 30},
        }))
        code, _, err = run_cli(
            capsys, "session", config, "--checker-interval", "sometimes"
        )
        assert code == 1
        assert "sometimes" in err

    def test_predict_uses_persisted_mode(self, capsys, tmp_path):
        from convstate.markov import Argmax

        path = str(tmp_path / "cycle.json")
        save_model(
            normalize(np.array([[0, 4, 0], [0, 0, 4], [4, 0, 0]])),
            path,
            mode=Argmax(),
        )
        code, out, _ = run_cli(
            capsys, "predict", path, "--initial", "1", "--length", "4"
        )
        assert code == 0
        assert out.split() == ["1", "2", "0", "1"]

    def test_diarize_k_too_large(self, capsys, tmp_path):
        emb = str(tmp_path / "e.csv")
        open(emb, "w").write("1.0,0.0\n0.0,1.0\n1.0,0.1\n")
        code, _, err = run_cli(capsys, "diarize", emb, "--k", "9")
        assert code == 1
        assert "k" in err

    def test_diarize_k_above_distinct_spectral_rows(self, capsys, tmp_path, monkeypatch):
        from convstate import clustering

        # Real embeddings always gave distinct spectral rows, so a spectrum
        # whose eigenvector rows all coincide stands in for the degenerate case.
        def flat_spectrum(matrix):
            n = len(matrix)
            return np.arange(n, 0, -1.0), np.ones((n, n))

        monkeypatch.setattr(clustering, "symmetric_eigh", flat_spectrum)
        emb = str(tmp_path / "e.csv")
        open(emb, "w").write("1.0,0.0\n1.0,0.0\n1.0,0.0\n1.0,0.0\n1.0,0.0\n")
        code, _, err = run_cli(capsys, "diarize", emb, "--k", "3")
        assert code == 1
        assert err.startswith("error:") and "distinct" in err

    @pytest.mark.parametrize(
        "overrides, argv, field",
        [
            ({"oracle": {"kind": "chain"}}, [], "$.oracle.model"),
            ({"candidate_count": "x"}, [], "$.candidate_count"),
            ({}, ["--checker-interval", "bernoulli:abc"], "bernoulli:abc"),
            ({"states": "x"}, [], "$.states"),
            ({"iterations": [2]}, [], "$.iterations"),
            ({"window": "wide"}, [], "$.window"),
            ({"thresholds": {"tpe_threshold": "x"}}, [], "$.thresholds.tpe_threshold"),
            ({"thresholds": {"epps_threshold": float("nan")}}, [], "$.thresholds.epps_threshold"),
            ({"thresholds": {"row_diff_min": "x"}}, [], "$.thresholds.row_diff_min"),
            ({"thresholds": {"checker_interval": 5}}, [], "$.thresholds.checker_interval"),
            ({"thresholds": 20}, [], "$.thresholds"),
            ({"states": 2.7}, [], "$.states"),
            ({"states": True}, [], "$.states"),
            ({"states": "3"}, [], "$.states"),
            ({"thresholds": {"tpe_threshold": True}}, [], "$.thresholds.tpe_threshold"),
        ],
        ids=[
            "oracle-without-model", "candidate-count-not-int", "interval-not-a-number",
            "states-not-int", "iterations-not-int", "window-not-int", "threshold-not-a-number",
            "threshold-nan", "row-diff-min-not-a-number", "interval-not-a-string",
            "thresholds-not-an-object", "states-fractional", "states-bool",
            "states-numeric-string", "threshold-bool",
        ],
    )
    def test_malformed_session_input_is_one_line_error(
        self, capsys, tmp_path, truth_model_path, overrides, argv, field
    ):
        config = {
            "seed": 0, "mode": "sampled", "iterations": 1,
            "oracle": {"kind": "chain", "model": truth_model_path, "length": 30},
        }
        config.update(overrides)
        path = str(tmp_path / "cfg.json")
        open(path, "w").write(json.dumps(config))
        code, _, err = run_cli(capsys, "session", path, *argv)
        assert code == 1
        assert err.startswith("error:") and field in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, reason",
        [("[NaN, 0, 15]", "finite"), ("[1, Infinity]", "finite"), ("{}", "JSON list")],
        ids=["nan", "infinity", "object"],
    )
    def test_vad_rejects_malformed_weights_file(self, capsys, wav_path, tmp_path, text, reason):
        weights = tmp_path / "w.json"
        weights.write_text(text)
        code, out, err = run_cli(capsys, "vad", wav_path, "--weights", str(weights))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {weights}:") and reason in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, record, field",
        [
            (["estimate", "--states", "3"], {"start_s": 0, "end_s": 1, "state": "x"}, "state"),
            (["diarize"], {"start_s": 0, "end_s": 1, "vector": ["a", 1]}, "vector"),
            (["estimate", "--states", "3"], {"start_s": 0, "end_s": 1, "state": 1.7}, "state"),
            (["estimate", "--states", "3"], {"start_s": 0, "end_s": 1, "state": True}, "state"),
            (["estimate", "--states", "3"], {"start_s": 0, "end_s": 1, "state": "1"}, "state"),
            (
                ["estimate", "--states", "3"],
                {"start_s": float("nan"), "end_s": 1, "state": 1},
                "start_s",
            ),
            (["diarize"], {"start_s": 0, "end_s": 1, "vector": [1.0, float("nan")]}, "vector"),
            (["diarize"], {"start_s": 0, "end_s": True, "vector": [1.0, 2.0]}, "end_s"),
        ],
        ids=[
            "estimate-state", "diarize-vector", "estimate-state-fractional",
            "estimate-state-bool", "estimate-state-string", "estimate-start-nan",
            "diarize-vector-nan", "diarize-end-bool",
        ],
    )
    def test_malformed_jsonl_field_is_one_line_error(self, capsys, tmp_path, argv, record, field):
        path = tmp_path / "input.jsonl"
        path.write_text(json.dumps(record) + "\n")
        code, _, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 1
        assert err.startswith(f"error: line 1: field '{field}'")
        assert err.count("\n") == 1

    def test_vad_trained_weights_file(self, capsys, wav_path, tmp_path):
        weights = str(tmp_path / "w.json")
        vector = [0.0] * 16
        vector[0] = 1.0
        vector[-1] = 15.0
        open(weights, "w").write(json.dumps(vector))
        code, out, _ = run_cli(capsys, "vad", wav_path, "--weights", weights)
        assert code == 0
        assert json.loads(out)["speech_frames"] > 0
