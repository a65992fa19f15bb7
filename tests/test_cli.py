import json
import math
import os
import re
import stat
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convstate import clustering, frontend
from convstate.cli import main
from convstate.frontend import ACCEPTED_RATES, AudioBuffer, save_wav
from convstate.markov import Sampled, count_transitions, normalize
from convstate.storage import load_model, model_to_document, save_model


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
        header = Path(out_csv).read_text().split("\n", 1)[0].split(",")
        assert header[:4] == ["frame_index", "time_s", "log_energy", "zcr"]
        assert len(header) == 17

    def test_missing_wav_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "vad", str(tmp_path / "nope.wav"))
        assert code == 2
        assert "i/o error" in err

    @pytest.mark.parametrize(
        "rate, frames, held, message",
        [
            (16000, 0, 0, "samples must be a non-empty 1-D array"),
            (44140, 800, 1600, "sample rate 44140 not supported; expected one of (16000, 44100)"),
            (16000, 800, 1000, "data chunk declares 1600 bytes of frames, the file holds 1000"),
        ],
    )
    def test_rejected_audio_names_the_file(self, capsys, tmp_path, rate, frames, held, message):
        # A mono header whose data chunk declares `frames` frames, then `held` data bytes.
        header = wav_bytes(1, rate, None)[0][:40] + struct.pack("<I", 2 * frames)
        path = tmp_path / "clip.wav"
        path.write_bytes(header + bytes(held))
        code, out, err = run_cli(capsys, "vad", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {message}\n"


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
    @pytest.mark.parametrize("existing, mode", [(None, 0o644), (0o640, 0o640)],
                             ids=["new", "replaced"])
    def test_out_file_gets_the_mode_open_would_give(self, capsys, tmp_path, existing, mode):
        """A new file is 0o666 less the umask; a replaced one keeps its mode."""
        labels, model = tmp_path / "l.txt", tmp_path / "m.json"
        labels.write_text("0\n1\n1\n0\n")
        if existing is not None:
            model.write_text("old\n")
            model.chmod(existing)
        umask = os.umask(0o022)
        try:
            code, _, err = run_cli(capsys, "estimate", str(labels), "--states", "2",
                                   "--out", str(model))
        finally:
            os.umask(umask)
        assert (code, err) == (0, "")
        assert stat.S_IMODE(model.stat().st_mode) == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.txt", "m.json"]

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
        doc = json.loads(Path(model).read_text())
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
        Path(predicted).write_text("0\n1\n0\n1\n")
        Path(actual).write_text("0\n1\n1\n1\n")
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

    @pytest.mark.parametrize(
        "command, states",
        [("check", "0"), ("check", "-1"), ("estimate", "0"), ("estimate", "-1")],
        ids=["0", "-1", "estimate-0", "estimate-minus-1"],
    )
    def test_check_rejects_state_count_below_one(self, capsys, tmp_path, command, states):
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n1\n0\n")
        inputs = [str(labels)] * (2 if command == "check" else 1)
        code, out, err = run_cli(capsys, command, *inputs, "--states", states)
        assert (code, out) == (1, "")
        assert err == f"error: --states must be >= 1, got {states}\n"

    @pytest.mark.parametrize(
        "predicted, actual, flags, expected",
        [
            ("0\n1000000\n", "0\n1000000\n", [],
             "error: largest label 1000000 implies 1000001 states for 2 labels; pass --states\n"),
            ('{"start_s": 0, "end_s": 1, "state": 0}\n{"start_s": 1, "end_s": 2, "state": 7}\n',
             "0\n1\n", [], "error: largest label 7 implies 8 states for 2 labels; pass --states\n"),
            ("0\n1000000\n", "0\n1\n", ["--states", "2"],
             "error: {p}: label 1000000 at index 1 outside 0..1\n"),
            ("0\n1\n", "0\n1000000\n", ["--states", "2"],
             "error: {a}: label 1000000 at index 1 outside 0..1\n"),
            ("0\n1\n", "0\n1\n", [], {"0": 1, "1": 1}),
            ("0\n1\n2\n3\n", "3\n0\n", [],
             "error: length mismatch: predicted has 4, actual has 2\n"),
            ("0\n1\n", "0\n1\n", ["--states", "10000000"],
             "error: --states must be <= 2, the number of labels read, got 10000000\n"),
            ("0\n1\n", None, ["--states", "10000000"],
             "error: --states must be <= 2, the number of labels read, got 10000000\n"),
        ],
        ids=["stray-label", "timed-jsonl", "explicit-states", "explicit-states-reversed",
             "labels-up-to-length",
             "bound-by-the-longer-file", "check-states-above-label-count",
             "estimate-states-above-label-count"],
    )
    def test_check_infers_states_only_up_to_the_label_count(
        self, capsys, tmp_path, predicted, actual, flags, expected
    ):
        # actual=None runs `estimate` on the predicted file alone. An error
        # from one file names it: {p} for the predicted file, {a} the actual.
        paths = tmp_path / "p.txt", tmp_path / "a.txt"
        paths[0].write_text(predicted)
        if actual is None:
            code, out, err = run_cli(capsys, "estimate", str(paths[0]), *flags)
        else:
            paths[1].write_text(actual)
            code, out, err = run_cli(capsys, "check", *map(str, paths), *flags)
        if isinstance(expected, str):
            assert (code, out, err) == (1, "", expected.format(p=paths[0], a=paths[1]))
        else:
            assert (code, err) == (0, "")
            assert json.loads(out)["per_state_occurrences"] == expected

    def test_bad_labels_validation_error(self, capsys, tmp_path):
        bad = str(tmp_path / "bad.txt")
        Path(bad).write_text("0 1 oops")
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
        Path(path).write_text(json.dumps(config))
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
        table = Path(table_csv).read_text().splitlines()
        assert table[0] == "Audio File,Speaker State,EPPS (in %),TPE (in %)"
        assert len(table) == 1 + 7 * 3
        trace = json.loads(Path(report_json).read_text())
        assert len(trace["iterations"]) == 7

    @pytest.mark.parametrize("matched", [True, False])
    def test_exact_bootstrap_whichever_matched(self, capsys, tmp_path, truth_model_path, matched):
        oracle = {"kind": "chain", "model": truth_model_path, "length": 300,
                  "matched": matched, "exact_bootstrap": True}
        config = self.write_config(tmp_path, truth_model_path, iterations=2, oracle=oracle)
        report_json = str(tmp_path / "report.json")
        code, _, err = run_cli(capsys, "session", config, "--report-out", report_json)
        assert (code, err) == (0, "")
        bootstrap = json.loads(Path(report_json).read_text())["bootstrap"]
        truth, _ = load_model(truth_model_path)
        assert count_transitions(bootstrap, 3).tolist() == truth.counts.tolist()

    @pytest.mark.parametrize("matched", [True, False])
    def test_initial_is_unused_with_exact_bootstrap(self, capsys, tmp_path, truth_model_path,
                                                     matched):
        # The chain continues from the bootstrap's last label; initial is only range-checked.
        outputs = []
        for initial in (0, 2):
            oracle = {"kind": "chain", "model": truth_model_path, "length": 300,
                      "initial": initial, "matched": matched, "exact_bootstrap": True}
            config = self.write_config(tmp_path, truth_model_path, iterations=3, oracle=oracle)
            report, table = str(tmp_path / "report.json"), str(tmp_path / "table.csv")
            code, out, err = run_cli(capsys, "session", config, "--report-out", report,
                                     "--table-out", table)
            assert (code, err) == (0, "")
            outputs.append((out, Path(report).read_bytes(), Path(table).read_bytes()))
        assert outputs[0] == outputs[1]

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
            Path(path).write_text("\n".join(map(str, labels)))
            paths.append(path)
        config_path = str(tmp_path / "session.json")
        Path(config_path).write_text(json.dumps({
            "seed": 0,
            "mode": "argmax",
            "iterations": 2,
            "states": 3,
            "oracle": {"kind": "files", "paths": paths},
        }))
        code, out, _ = run_cli(capsys, "session", config_path)
        assert code == 0
        assert "0.00" in out

    @pytest.mark.parametrize(
        "entry", [True, 3, ["x"]], ids=["bool", "int", "list"]
    )
    def test_files_oracle_rejects_non_string_path(self, capsys, tmp_path, entry):
        label_path, config_path = tmp_path / "labels.txt", tmp_path / "session.json"
        label_path.write_text("0\n1\n")
        config_path.write_text(json.dumps({
            "seed": 0, "mode": "argmax", "iterations": 1, "states": 2,
            "oracle": {"kind": "files", "paths": [str(label_path), entry]},
        }))
        code, out, err = run_cli(capsys, "session", str(config_path))
        assert code == 1
        assert err == "error: $.oracle.paths[1]: expected a label file path\n"
        assert out == ""

    def test_byte_identical_runs(self, capsys, tmp_path, truth_model_path):
        config = self.write_config(tmp_path, truth_model_path, iterations=3)
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "session", config)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_readme_session_config(self, capsys, tmp_path, truth_model_path, monkeypatch):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("### Session configs"):]
        block = section.split("```json\n", 1)[1].split("\n```", 1)[0]
        assert json.loads(block)["oracle"]["model"] == "truth.json"
        assert truth_model_path == str(tmp_path / "truth.json")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "session.json").write_text(block)
        code, out, err = run_cli(capsys, "session", "session.json")
        assert (code, err) == (0, "")
        assert out.startswith("Audio File,Speaker State")

    def test_settings_come_from_the_config_alone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["session", "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
            "--help", "--report-out", "--table-out"
        }
        for argv in (["session", "session.json", "--window", "120"],
                     ["vad", "clip.wav", "--hop-s", "0.02"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(argv[2:])}" in capsys.readouterr().err

    def test_diarize_has_no_blur_width_flag(self, capsys):
        # The blur is a fixed unit-width Gaussian, so there is no width to set.
        with pytest.raises(SystemExit) as exc:
            main(["diarize", "emb.csv", "--sigma", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sigma 1" in capsys.readouterr().err

    def test_invalid_config_schema(self, capsys, tmp_path):
        path = str(tmp_path / "broken.json")
        Path(path).write_text("{\"oracle\": 5}")
        code, _, err = run_cli(capsys, "session", path)
        assert code == 1
        assert "oracle" in err


class TestCliEdges:
    def test_bad_checker_interval(self, capsys, tmp_path, truth_model_path):
        config = str(tmp_path / "cfg.json")
        Path(config).write_text(json.dumps({
            "seed": 0, "mode": "argmax", "iterations": 1,
            "thresholds": {"checker_interval": "sometimes"},
            "oracle": {"kind": "chain", "model": truth_model_path, "length": 30},
        }))
        code, _, err = run_cli(capsys, "session", config)
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
        Path(emb).write_text("1.0,0.0\n0.0,1.0\n1.0,0.1\n")
        code, _, err = run_cli(capsys, "diarize", emb, "--k", "9")
        assert code == 1
        assert "k" in err

    def test_diarize_k_above_distinct_spectral_rows(self, capsys, tmp_path, monkeypatch):
        # Real embeddings always gave distinct spectral rows, so a spectrum
        # whose eigenvector rows all coincide stands in for the degenerate case.
        def flat_spectrum(matrix):
            n = len(matrix)
            return np.arange(n, 0, -1.0), np.ones((n, n))

        monkeypatch.setattr(clustering, "symmetric_eigh", flat_spectrum)
        emb = str(tmp_path / "e.csv")
        Path(emb).write_text("1.0,0.0\n1.0,0.0\n1.0,0.0\n1.0,0.0\n1.0,0.0\n")
        code, _, err = run_cli(capsys, "diarize", emb, "--k", "3")
        assert code == 1
        assert err.startswith("error:") and "distinct" in err

    @pytest.mark.parametrize(
        "rows", ["1e200,1e200\n1e200,0\n1,1\n", "1e200,1e200\n1,2\n"],
        ids=["both-overflow", "one-overflows"],
    )
    def test_diarize_overflowing_embeddings_is_one_line_error(self, tmp_path, rows):
        # Run as a process: under pytest, numpy's RuntimeWarnings would be
        # recorded instead of reaching stderr.
        emb = tmp_path / "e.csv"
        emb.write_text(rows)
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-m", "convstate", "diarize", str(emb), "--seed", "7"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", "error: affinity contains NaN or Inf\n"
        )

    def test_no_command_loads_scipy(self, capsys, tmp_path, truth_model_path):
        # The runtime needs NumPy alone: with scipy made unimportable every
        # command still succeeds, and vad, run twice in that one process,
        # writes the same summary and feature CSV as with scipy importable.
        # The same commands with scipy importable load no scipy module either,
        # so an import of it that falls back when it fails is caught too.
        # Nor does the import or any command without a block pool load
        # concurrent.futures, logging or csv; with two usable CPUs the first
        # vad builds the pool and so loads concurrent.futures and its logging.
        # The clip's 25 s of alternating tone and silence are 2498 frames, so
        # both the feature blocks (256 frames) and the CSV blocks (2048 rows)
        # are several, and the second run reuses the first one's helper threads.
        def path(name):
            return str(tmp_path / name)

        rate = 16000
        t = np.arange(25 * rate) / rate
        save_wav(path("clip.wav"),
                 AudioBuffer(0.25 * np.sin(2 * np.pi * 440 * t) * (np.floor(t) % 2), rate))
        Path(path("session.json")).write_text(json.dumps({
            "seed": 0, "mode": "sampled", "iterations": 1,
            "oracle": {"kind": "chain", "model": truth_model_path, "length": 30},
        }))
        commands = [
            ["simulate", "chain", "--model", truth_model_path, "--length", "20",
             "--out", path("labels.txt")],
            ["simulate", "embeddings", "--clusters", "2", "--per-cluster", "5", "--dim", "3",
             "--out", path("emb.csv")],
            ["diarize", path("emb.csv"), "--out", path("dia.txt")],
            ["estimate", path("labels.txt"), "--states", "3", "--out", path("model.json")],
            ["predict", path("model.json"), "--initial", "0", "--length", "20",
             "--out", path("pred.txt")],
            ["check", path("pred.txt"), path("labels.txt"), "--out", path("check.json")],
            ["session", path("session.json"), "--report-out", path("report.json"),
             "--table-out", path("table.csv")],
            ["vad", path("clip.wav"), "--out", path("blocked-1.csv")],
            ["vad", path("clip.wav"), "--out", path("blocked-2.csv")],
        ]
        script = """
import contextlib, io, json, sys
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None
from convstate import cli, frontend
frontend._usable_cpus = lambda: 2
watched = {"concurrent.futures", "logging", "csv"}
def loaded():
    return sorted(m for m, module in sys.modules.items() if module is not None
                  and (m.partition(".")[0] == "scipy" or m in watched))
stages = [["import", 0, loaded(), ""]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    stages.append([argv[0], code, loaded(), out.getvalue()])
print(json.dumps(stages))
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        names = ["import", "simulate", "simulate", "diarize", "estimate", "predict", "check",
                 "session", "vad", "vad"]
        # The blocked pass runs last, so the files compared below are its own.
        for block in ("unblocked", "blocked"):
            result = subprocess.run(
                [sys.executable, "-c", script, json.dumps(commands), block],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
            )
            assert (result.returncode, result.stderr) == (0, ""), block
            stages = json.loads(result.stdout)
            assert [stage[:3] for stage in stages] == [
                [name, 0, ["concurrent.futures", "logging"] if name == "vad" else []]
                for name in names
            ], block
        summary = stages[-1][3]
        assert json.loads(summary)["frames"] == 2498
        assert run_cli(capsys, "vad", path("clip.wav"), "--out", path("unblocked.csv")) == (
            0, summary, "")
        assert stages[-2][3] == summary
        unblocked = Path(path("unblocked.csv")).read_bytes()
        for run in (1, 2):
            assert Path(path(f"blocked-{run}.csv")).read_bytes() == unblocked, run

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"oracle": {"kind": "chain"}}, "$.oracle.model"),
            ({"candidate_count": "x"}, "$.candidate_count"),
            ({"thresholds": {"checker_interval": "bernoulli:abc"}}, "bernoulli:abc"),
            ({"states": "x"}, "$.states"),
            ({"iterations": [2]}, "$.iterations"),
            ({"window": "wide"}, "$.window"),
            ({"thresholds": {"tpe_threshold": "x"}}, "$.thresholds.tpe_threshold"),
            ({"thresholds": {"epps_threshold": float("nan")}}, "$.thresholds.epps_threshold"),
            ({"thresholds": {"row_diff_min": "x"}}, "$.thresholds.row_diff_min"),
            ({"thresholds": {"checker_interval": 5}}, "$.thresholds.checker_interval"),
            ({"thresholds": 20}, "$.thresholds"),
            ({"states": 2.7}, "$.states"),
            ({"states": True}, "$.states"),
            ({"states": "3"}, "$.states"),
            ({"thresholds": {"tpe_threshold": True}}, "$.thresholds.tpe_threshold"),
            ({"outputs": []}, "$.outputs"),
            ({"outputs": {"report_json": True}}, "$.outputs"),
            ({"thresholds": {"tpe_treshold": 5}}, "$.thresholds.tpe_treshold"),
            ({"thresholds": {"checker_interval": "bernoulli:0.5:3"}}, "bernoulli:0.5:3"),
            ({"thresholds": {"checker_interval": "fixed:0"}},
             "$.thresholds.checker_interval: checker interval must be >= 1, got 0"),
            ({"thresholds": {"checker_interval": "bernoulli:2"}},
             "$.thresholds.checker_interval: checker probability must be in (0, 1], got 2.0"),
        ],
        ids=[
            "oracle-without-model", "candidate-count-not-int", "interval-not-a-number",
            "states-not-int", "iterations-not-int", "window-not-int", "threshold-not-a-number",
            "threshold-nan", "row-diff-min-not-a-number", "interval-not-a-string",
            "thresholds-not-an-object", "states-fractional", "states-bool",
            "states-numeric-string", "threshold-bool", "outputs-list", "outputs-bool",
            "threshold-typo", "interval-seed-suffix", "interval-zero", "interval-probability-2",
        ],
    )
    def test_malformed_session_input_is_one_line_error(
        self, capsys, tmp_path, truth_model_path, overrides, field
    ):
        config = {
            "seed": 0, "mode": "sampled", "iterations": 1,
            "oracle": {"kind": "chain", "model": truth_model_path, "length": 30},
        }
        config.update(overrides)
        path = str(tmp_path / "cfg.json")
        Path(path).write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "session", path)
        assert code == 1
        assert err.startswith("error:") and field in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "oracle, message",
        [
            ({"length": 0}, "$.oracle.length must be >= 1, got 0"),
            ({"length": -3}, "$.oracle.length must be >= 1, got -3"),
            ({"initial": 5}, "$.oracle.initial: state 5 outside 0..2"),
            ({"initial": 5, "exact_bootstrap": True}, "$.oracle.initial: state 5 outside 0..2"),
        ],
        ids=["length-zero", "length-negative", "initial", "initial-with-exact-bootstrap"],
    )
    def test_chain_oracle_out_of_range_is_one_line_error(
        self, capsys, tmp_path, truth_model_path, oracle, message
    ):
        config = {"iterations": 2, "oracle": {"kind": "chain", "model": truth_model_path, **oracle}}
        path = str(tmp_path / "cfg.json")
        Path(path).write_text(json.dumps(config))
        assert run_cli(capsys, "session", path) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"window": 0}, "$.window must be >= 2, got 0"),
            ({"candidate_count": 0}, "$.candidate_count must be >= 1, got 0"),
            ({"states": 0}, "$.states must be >= 1, got 0"),
            ({"iterations": -1}, "$.iterations must be >= 0, got -1"),
            (
                {"thresholds": {"tpe_threshold": 0}},
                "$.thresholds.tpe_threshold: expected a positive finite number, got 0",
            ),
        ],
        ids=["window", "candidate-count", "states", "iterations", "tpe-threshold"],
    )
    def test_config_value_out_of_range_names_its_path(
        self, capsys, tmp_path, truth_model_path, overrides, message
    ):
        config = {"iterations": 2, "oracle": {"kind": "chain", "model": truth_model_path}}
        config.update(overrides)
        path = str(tmp_path / "cfg.json")
        Path(path).write_text(json.dumps(config))
        assert run_cli(capsys, "session", path) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("route", ["check", "files-oracle"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0\nx\n", "label input contains a non-integer token 'x'"),
            # One state at least is inferred, so the first label is named.
            ("-1\n", "label -1 at index 0 outside 0..0"),
        ],
        ids=["non-integer", "all-negative"],
    )
    def test_bad_label_file_is_named(self, capsys, tmp_path, route, text, message):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("0\n1\n")
        bad.write_text(text)
        if route == "check":
            argv = ["check", str(good), str(bad)]
        else:
            config = tmp_path / "session.json"
            config.write_text(json.dumps({
                "iterations": 1, "states": 2,
                "oracle": {"kind": "files", "paths": [str(good), str(bad)]},
            }))
            argv = ["session", str(config)]
        assert run_cli(capsys, *argv) == (1, "", f"error: {bad}: {message}\n")

    @pytest.mark.parametrize("command", ["predict", "session"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"version": 1, "s": 0, "counts": [], "policy": "uniform", "mode": null}',
             "$.s: expected a positive integer state count"),
            ("{", "not valid JSON ("),
            ("[]", "$: expected a JSON object"),
        ],
        ids=["no-states", "invalid-json", "not-an-object"],
    )
    def test_bad_model_file_is_named_once(self, capsys, tmp_path, command, text, message):
        model = tmp_path / "model.json"
        model.write_text(text)
        if command == "predict":
            argv = ["predict", str(model), "--initial", "0", "--length", "5"]
        else:
            config = tmp_path / "session.json"
            config.write_text(json.dumps({
                "iterations": 1, "oracle": {"kind": "chain", "model": str(model)},
            }))
            argv = ["session", str(config)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {model}: {message}") and err.count(str(model)) == 1
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "spans, message",
        [
            ([(0.0, 1.0), (0.5, 1.5), (2.0, 3.0)], "times[1] overlaps its predecessor"),
            ([(1.0, 1.0), (2.0, 3.0), (3.0, 4.0)], "times[0]: end 1.0 <= start 1.0"),
            ([(0.0, 1.0), (3.0, 2.0), (4.0, 5.0)], "times[1]: end 2.0 <= start 3.0"),
        ],
        ids=["overlap", "empty-span", "reversed-span"],
    )
    def test_timed_embeddings_spans_are_checked_on_read(
        self, capsys, tmp_path, monkeypatch, spans, message
    ):
        emb = tmp_path / "e.jsonl"
        emb.write_text("".join(
            json.dumps({"start_s": start, "end_s": end, "vector": [1.0, float(i)]}) + "\n"
            for i, (start, end) in enumerate(spans)
        ))
        monkeypatch.setattr(clustering, "spectral_cluster", None)  # never reached
        code, out, err = run_cli(capsys, "diarize", str(emb))
        assert (code, out, err) == (1, "", f"error: {emb}: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "{model}", "--initial", "0", "--length", "100000000000000000"],
            ["predict", "{model}", "--initial", "0", "--length", "100000000000000000",
             "--mode", "sample"],
            ["simulate", "chain", "--model", "{model}", "--length", "100000000000000000"],
        ],
        ids=["predict-argmax", "predict-sample", "simulate-chain"],
    )
    def test_output_too_large_to_allocate_is_one_line_error(self, capsys, tmp_path, argv):
        # 1e17 steps need over 700 PiB at once, so the first allocation fails.
        model = tmp_path / "model.json"
        save_model(normalize(np.array([[1, 2], [2, 1]])), str(model))
        code, out, err = run_cli(capsys, *(arg.format(model=model) for arg in argv))
        assert (code, out) == (1, "")
        assert err == "error: out of memory (the requested output is too large)\n"

    def test_memory_error_without_message_is_one_line_error(self, capsys, tmp_path, monkeypatch):
        from convstate import markov

        def exhausted(*_):
            raise MemoryError()

        model = tmp_path / "model.json"
        save_model(normalize(np.array([[1, 2], [2, 1]])), str(model))
        monkeypatch.setattr(markov, "predict_sequence", exhausted)
        code, out, err = run_cli(capsys, "predict", str(model), "--initial", "0", "--length", "3")
        assert (code, out) == (1, "")
        assert err == "error: out of memory (the requested output is too large)\n"

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[NaN, 0, 15]", "finite"), ("[1, Infinity]", "finite"), ("{}", "JSON list"),
            ("[1, true]", "weights[1]: expected a finite number, got true"),
            ('["1.5", 2]', 'weights[0]: expected a finite number, got "1.5"'),
            ("5", "expected a JSON list of finite numbers"),
            ("[[1, 2]]", "weights[0]: expected a finite number, got [1, 2]"),
            ("[null]", "weights[0]: expected a finite number, got null"),
            ("[1" + "0" * 400 + "]", "weights[0]: expected a finite number, got 1000"),
            ("[" + ", ".join(["1e308"] * 16) + "]",
             "weights[0]: magnitude must be at most 1e+300, got 1e+308"),
            ("[0, -2e300]", "weights[1]: magnitude must be at most 1e+300, got -2e+300"),
            ("[1, 2]", "expected 16 weights (features + bias), got 2"),
            ("[]", "expected 16 weights (features + bias), got 0"),
        ],
        ids=["nan", "infinity", "object", "bool", "string", "scalar", "nested", "null",
             "huge-int", "beyond-bound", "negative-beyond-bound", "too-few", "empty"],
    )
    def test_vad_rejects_malformed_weights_file(
        self, capsys, monkeypatch, wav_path, tmp_path, text, reason
    ):
        weights = tmp_path / "w.json"
        weights.write_text(text)

        def not_reached(audio):
            raise AssertionError("features computed before the weights were read")

        monkeypatch.setattr(frontend, "feature_matrix", not_reached)
        code, out, err = run_cli(capsys, "vad", wav_path, "--weights", str(weights))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {weights}:") and reason in err
        assert err.count("\n") == 1

    def test_vad_weights_at_the_bound_run_silently(self, capsys, wav_path, tmp_path):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps([1e300, -1e300] * 8))
        code, out, err = run_cli(capsys, "vad", wav_path, "--weights", str(weights))
        assert code == 0 and out and err == ""

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
        assert err.startswith(f"error: {path}: line 1: field '{field}'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, lineno, token",
        [
            ("1_0,2\n3,4\n5,6\n", 1, "1_0"),
            ("1,2\n\u0663,4\n5,6\n", 2, "\u0663"),
            ("1,2\n3,4\n5,\uff16\n", 3, "\uff16"),
            ("1,2\n3,nan\n5,6\n", 2, "nan"),
            ("1,2\n3,4\n-inf,6\n", 3, "-inf"),
            ("1,2\n3,Infinity\n5,6\n", 2, "Infinity"),
            ("1e400,2\n3,4\n5,6\n", 1, "1e400"),
            ("1,2\n3,4\n5,0x10\n", 3, "0x10"),
        ],
        ids=["underscore", "arabic-digit", "fullwidth-digit", "nan", "minus-inf", "infinity",
             "overflow", "hex"],
    )
    def test_embeddings_csv_token_is_a_finite_decimal(self, capsys, tmp_path, text, lineno, token):
        emb = tmp_path / "e.csv"
        emb.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "diarize", str(emb))
        assert (code, out) == (1, "")
        assert err == f"error: {emb}: line {lineno}: {token!r} is not a finite decimal number\n"

    def test_embeddings_csv_reads_every_decimal_form(self, capsys, tmp_path):
        plain, forms = tmp_path / "plain.csv", tmp_path / "forms.csv"
        plain.write_text("1.0,0.5\n2.0,1.0\n-0.5,0.3\n10.0,0.0\n")
        forms.write_text("+1,.5\n2.,1E0\n -0.5 ,3e-1\n1e+1,-0\n")
        expected = run_cli(capsys, "diarize", str(plain), "--k", "2")
        assert expected[0] == 0
        assert run_cli(capsys, "diarize", str(forms), "--k", "2") == expected

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["check", "{labels}", "{labels}", "--tpe-threshold", "nan"], "tpe_threshold"),
        ],
        ids=["check-threshold-nan"],
    )
    def test_non_finite_number_flag_is_one_line_error(self, capsys, tmp_path, argv, field):
        labels = tmp_path / "l.txt"
        labels.write_text("0 1 1 0\n")
        code, out, err = run_cli(capsys, *(arg.format(labels=labels) for arg in argv))
        assert code == 1 and out == ""
        assert err.startswith("error:") and field in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("flag", ["--separation", "--noise-sigma"])
    def test_simulate_embeddings_scale_must_be_positive_and_finite(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "simulate", "embeddings", "--clusters", "2", "--per-cluster", "3",
            "--dim", "2", f"{flag}={value}",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: separation and noise_sigma must be positive and finite")
        assert err.count("\n") == 1

    @given(
        separation=st.one_of(st.floats(1e100, 1.7976931348623157e308), st.just(5.0),
                             st.sampled_from([1e150, math.nextafter(1e150, math.inf)])),
        noise_sigma=st.one_of(st.floats(1e100, 1.7976931348623157e308), st.just(1.0),
                              st.sampled_from([1e150, math.nextafter(1e150, math.inf)])),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_simulate_embeddings_huge_scale_is_rejected_or_diarizes(
        self, capsys, tmp_path, separation, noise_sigma
    ):
        # A finite scale either names itself in a one-line error or gives
        # vectors whose affinity stays finite, so diarize accepts them.
        emb = str(tmp_path / "huge.csv")
        code, out, err = run_cli(
            capsys, "simulate", "embeddings", "--clusters", "2", "--per-cluster", "10",
            "--dim", "3", f"--separation={separation!r}", f"--noise-sigma={noise_sigma!r}",
            "--out", emb,
        )
        if code == 1:
            named = "separation" if separation > 1e150 else "noise_sigma"
            assert err.startswith(f"error: {named} must be at most 1e+150")
            assert err.count("\n") == 1
        else:
            assert code == 0, err
            code, _, err = run_cli(capsys, "diarize", emb, "--out", str(tmp_path / "l.txt"))
            assert code == 0, err

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["predict", "{model}", "--initial", "0", "--length", "5", "--mode", "sample",
              "--seed", "-1"], None),
            (["simulate", "chain", "--model", "{model}", "--length", "5", "--seed", "-1"], None),
            (["simulate", "embeddings", "--clusters", "2", "--per-cluster", "3", "--dim", "2",
              "--seed", "-1"], None),
            (["diarize", "{emb}", "--seed", "-1"], None),
            (["session", "{config}"], {"seed": -1}),
            (["session", "{config}"], {"oracle_seed": -1}),
        ],
        ids=[
            "predict", "simulate-chain", "simulate-embeddings", "diarize",
            "session-config-seed", "session-config-oracle-seed",
        ],
    )
    def test_negative_seed_is_one_line_error(
        self, capsys, tmp_path, truth_model_path, argv, config
    ):
        emb, config_path = tmp_path / "e.csv", tmp_path / "session.json"
        emb.write_text("1.0,0.0\n0.0,1.0\n1.0,0.1\n0.1,1.0\n")
        if config is not None:
            oracle = {"kind": "chain", "model": truth_model_path, "length": 30}
            if "oracle_seed" in config:
                oracle["seed"] = config.pop("oracle_seed")
            config_path.write_text(json.dumps(
                {"seed": 0, "mode": "sampled", "iterations": 1, "oracle": oracle, **config}
            ))
        paths = {"model": truth_model_path, "emb": str(emb), "config": str(config_path)}
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "seed" in err
        assert err.count("\n") == 1

    def test_vad_huge_weights_do_not_overflow(self, wav_path, tmp_path):
        # Run as a process: under pytest, numpy's RuntimeWarnings would be
        # recorded instead of reaching stderr. The logits reach about -2e6.
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps([1e5] + [0.0] * 14 + [15e5]))
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-m", "convstate", "vad", wav_path, "--weights", str(weights)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        summary = json.loads(result.stdout)
        assert 0 < summary["speech_frames"] < summary["frames"]

    def test_vad_trained_weights_file(self, capsys, wav_path, tmp_path):
        weights = str(tmp_path / "w.json")
        vector = [0.0] * 16
        vector[0] = 1.0
        vector[-1] = 15.0
        Path(weights).write_text(json.dumps(vector))
        code, out, _ = run_cli(capsys, "vad", wav_path, "--weights", weights)
        assert code == 0
        assert json.loads(out)["speech_frames"] > 0


# Values a hand-edited model file might hold where the schema wants something else.
ODD_JSON_VALUES = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=8),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 3), max_size=2),
    st.integers(max_value=-1),
    st.integers(min_value=2**62, max_value=2**80),
)

MODEL_FIELDS = [
    ("version",), ("s",), ("counts",), ("counts", 0), ("counts", -1),
    ("policy",), ("mode",), ("mode", "kind"), ("mode", "seed"),
]


class TestModelFileFuzz:
    @given(
        st.integers(1, 3),
        st.sampled_from(MODEL_FIELDS),
        ODD_JSON_VALUES,
        st.sampled_from(["argmax", "sample", None]),
    )
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_predict_on_one_odd_field(self, capsys, tmp_path, n, field, value, mode):
        counts = np.arange(1, n * n + 1).reshape(n, n)
        doc = model_to_document(normalize(counts), Sampled(3))
        *parents, last = field
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv = ["predict", str(path), "--initial", "0", "--length", "5"]
        code, _, err = run_cli(capsys, *argv, *(["--mode", mode] if mode else []))
        assert code in (0, 1)
        assert "Traceback" not in err
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)
        assert (code == 0) == (err == "")

    @pytest.mark.parametrize("command", ["predict", "session"])
    @pytest.mark.parametrize(
        "data, message",
        [(b"\xff\xfe{}", "not UTF-8 text ("), (b'{"s": ' + b"1" * 5000 + b"}", "not valid JSON (")],
        ids=["not-utf8", "huge-int"],
    )
    def test_unparsable_document_is_one_line_error(self, capsys, tmp_path, command, data, message):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        extra = ["--initial", "0", "--length", "5"] if command == "predict" else []
        code, out, err = run_cli(capsys, command, str(path), *extra)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1


SESSION_BASES = {
    "chain": {
        "seed": 11, "mode": "sampled", "candidate_count": 3, "iterations": 3, "states": 3,
        "window": 20,
        "thresholds": {
            "tpe_threshold": 20, "epps_threshold": 30, "matrix_diff_max": 0.5,
            "row_diff_min": None, "checker_interval": "every",
        },
        "oracle": {
            "kind": "chain", "model": "truth.json", "length": 30, "initial": 0, "seed": 3,
            "matched": True, "exact_bootstrap": True,
        },
    },
    "files": {
        "seed": 0, "mode": "argmax", "iterations": 2, "states": 3,
        "oracle": {"kind": "files", "paths": ["labels.txt", "labels.txt", "labels.txt"]},
    },
}
SESSION_FIELDS = [
    ("seed",), ("mode",), ("candidate_count",), ("iterations",), ("states",), ("window",),
    ("thresholds",), ("thresholds", "tpe_threshold"), ("thresholds", "epps_threshold"),
    ("thresholds", "matrix_diff_max"), ("thresholds", "row_diff_min"),
    ("thresholds", "checker_interval"), ("oracle",), ("oracle", "kind"),
]
ORACLE_FIELDS = {
    "chain": [
        ("oracle", "model"), ("oracle", "length"), ("oracle", "initial"), ("oracle", "seed"),
        ("oracle", "matched"), ("oracle", "exact_bootstrap"),
    ],
    "files": [("oracle", "paths"), ("oracle", "paths", 0), ("oracle", "paths", -1)],
}
# Values a hand-edited session config might hold. Integers stay small or
# negative: the run time of length, iterations, candidate_count and states
# grows with their value.
ODD_CONFIG_VALUES = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=8),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 3), max_size=2),
    st.integers(max_value=-1),
    st.integers(0, 40),
)
# One existing field of a base config, or one key added to $, $.thresholds or $.oracle.
CONFIG_EDITS = st.one_of(
    *(
        st.tuples(st.just(kind), st.sampled_from(SESSION_FIELDS + ORACLE_FIELDS[kind]))
        for kind in SESSION_BASES
    ),
    st.tuples(
        st.sampled_from(sorted(SESSION_BASES)),
        st.tuples(st.sampled_from([(), ("thresholds",), ("oracle",)]), st.text(max_size=6))
        .map(lambda parent_key: (*parent_key[0], parent_key[1])),
    ),
)


class TestSessionConfigFuzz:
    @given(CONFIG_EDITS, ODD_CONFIG_VALUES)
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_session_on_one_odd_field(
        self, capsys, tmp_path, truth_model_path, monkeypatch, edit, value
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "labels.txt").write_text("0 1 2 " * 10)
        kind, field = edit
        doc = json.loads(json.dumps(SESSION_BASES[kind]))
        *parents, last = field
        target = doc
        for key in parents:
            target = target.setdefault(key, {})
        target[last] = value
        (tmp_path / "session.json").write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "session", "session.json")
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert err == "" or (
            err.startswith(("error: ", "i/o error: ")) and err.count("\n") == 1
        )
        assert (code == 0) == (err == "")


LABEL_TOKENS = st.one_of(
    st.integers(-2, 4).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["1_0", "٣", "1.5", "+2", "-0", "0x1", "1e3", "nan", "x", "{", ""]),
)
LABEL_SEPARATORS = st.sampled_from([" ", ",", "\n", "\t", ", ", "\r\n", ",,", " \n "])
PLAIN_LABEL_TEXT = st.one_of(
    st.lists(st.tuples(LABEL_TOKENS, LABEL_SEPARATORS), max_size=12).map(
        lambda pairs: "".join(token + sep for token, sep in pairs)
    ),
    st.text(max_size=16),
)
# Gap before and length of each span: unedited, a timed label file is valid.
SPANS = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.01, 1.0)), min_size=1, max_size=8)
# No edit, one field of one line replaced by an odd value (None removes it), or
# one line replaced by text.
TIMED_EDITS = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 7), st.sampled_from(["start_s", "end_s", "state"]), ODD_JSON_VALUES),
    st.tuples(st.integers(0, 7), st.just("line"), st.text(max_size=8)),
)
# Rows of one width; CELL_EDITS replaces at most one cell by an odd token.
EMBEDDING_ROWS = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(st.floats(-10, 10), min_size=width, max_size=width), max_size=10
    )
)
CELL_EDITS = st.one_of(
    st.none(),
    st.tuples(
        st.integers(0, 39),
        st.one_of(
            st.floats().map(repr),
            st.sampled_from(
                ["1e400", "-1e400", "5e-324", "1e200", "nan", "inf", "", " ", "x", "1,2"]
            ),
        ),
    ),
)


def timed_label_text(spans, states, edit):
    lines, start = [], 0.0
    for (gap, length), state in zip(spans, states):
        start += gap
        lines.append({"start_s": start, "end_s": start + length, "state": state})
        start += length
    if edit is not None:
        index, key, value = edit
        index %= len(lines)
        if key == "line":
            lines[index] = value
        elif value is None:
            del lines[index][key]
        else:
            lines[index][key] = value
    return "".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines)


def label_argv(command, path):
    # `check` gets --states: the state count it infers is the largest label plus one.
    if command == "estimate":
        return ["estimate", path, "--states", "3"]
    return ["check", path, path, "--states", "3"]


FUZZ_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestInputFileFuzz:
    """Label files (plain text and timed JSONL), embeddings CSV, and bytes that
    need not be UTF-8, as the CLI reads them."""

    @staticmethod
    def run_on(capsys, argv):
        with warnings.catch_warnings():
            # From the command line a warning would add lines to stderr.
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "degenerate eigenvalue spectrum")
            code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    @given(PLAIN_LABEL_TEXT, st.sampled_from(["estimate", "check"]))
    @FUZZ_SETTINGS
    def test_plain_text_labels(self, capsys, tmp_path, text, command):
        path = tmp_path / "labels.txt"
        path.write_text(text)
        self.run_on(capsys, label_argv(command, str(path)))

    @given(SPANS, st.lists(st.integers(0, 2), min_size=8, max_size=8), TIMED_EDITS,
           st.sampled_from(["estimate", "check"]))
    @FUZZ_SETTINGS
    def test_timed_jsonl_labels(self, capsys, tmp_path, spans, states, edit, command):
        path = tmp_path / "labels.jsonl"
        path.write_text(timed_label_text(spans, states, edit))
        self.run_on(capsys, label_argv(command, str(path)))

    @given(
        EMBEDDING_ROWS, CELL_EDITS,
        st.sampled_from([[], ["--k", "2"], ["--percentile", "80"]]),
    )
    @FUZZ_SETTINGS
    def test_embeddings_csv(self, capsys, tmp_path, rows, edit, flags):
        cells = [[repr(v) for v in row] for row in rows]
        if edit is not None and cells:
            index, token = edit
            index %= len(cells) * len(cells[0])
            cells[index // len(cells[0])][index % len(cells[0])] = token
        path = tmp_path / "emb.csv"
        path.write_text("".join(",".join(row) + "\n" for row in cells))
        self.run_on(capsys, ["diarize", str(path), *flags])

    @given(
        st.one_of(
            st.binary(max_size=24),
            st.tuples(PLAIN_LABEL_TEXT, st.sampled_from(["utf-16", "latin-1"])).map(
                lambda pair: pair[0].encode(pair[1], "replace")
            ),
        ),
        st.sampled_from(["estimate", "check", "diarize"]),
    )
    @FUZZ_SETTINGS
    def test_file_bytes(self, capsys, tmp_path, data, command):
        # Bytes that need not be UTF-8, read as labels or as embeddings.
        path = tmp_path / "input"
        path.write_bytes(data)
        argv = ["diarize", str(path)] if command == "diarize" else label_argv(command, str(path))
        self.run_on(capsys, argv)


def wav_bytes(channels: int, rate: int, junk: bytes | None) -> tuple[bytes, list[int]]:
    """A valid 0.05 s 16-bit PCM file, with an unknown chunk before `data` if
    junk is given, and the offsets of its chunk-size fields."""
    t = np.arange(rate // 20 * channels) / rate
    data = (8000 * np.sin(2 * np.pi * 300 * t)).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * 2 * channels, 2 * channels, 16)
    chunks = [b"fmt " + struct.pack("<I", len(fmt)) + fmt]
    if junk is not None:
        chunks.append(b"junk" + struct.pack("<I", len(junk)) + junk + b"\0" * (len(junk) % 2))
    chunks.append(b"data" + struct.pack("<I", len(data)) + data)
    body = b"WAVE" + b"".join(chunks)
    size_fields, offset = [4], 12
    for chunk in chunks:
        size_fields.append(offset + 4)
        offset += len(chunk)
    return b"RIFF" + struct.pack("<I", len(body)) + body, size_fields


CHUNK_SIZES = st.one_of(
    st.integers(0, 64), st.integers(0, 2**32 - 1), st.sampled_from([2**31, 2**32 - 1])
)


class TestWavFuzz:
    """Damaged WAVs through `convstate vad`: edited header bytes and chunk
    sizes, an unknown chunk, and a file cut at any point."""

    @given(
        st.sampled_from([1, 2]),
        st.sampled_from(ACCEPTED_RATES),
        st.one_of(st.none(), st.binary(max_size=9)),
        st.lists(st.tuples(st.integers(0, 3), CHUNK_SIZES), max_size=2),
        st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)), max_size=3),
        st.one_of(st.none(), st.integers(0, 2**20)),
    )
    @FUZZ_SETTINGS
    def test_vad_on_a_damaged_wav(
        self, capsys, tmp_path, channels, rate, junk, sizes, edits, cut
    ):
        raw, size_fields = wav_bytes(channels, rate, junk)
        raw = bytearray(raw)
        for which, size in sizes:
            field = size_fields[which % len(size_fields)]
            raw[field:field + 4] = struct.pack("<I", size)
        header_end = size_fields[-1] + 4
        for offset, value in edits:
            raw[offset % header_end] = value
        if cut is not None:
            del raw[cut % (len(raw) + 1):]
        path = tmp_path / "clip.wav"
        path.write_bytes(bytes(raw))
        code, _, err = run_cli(capsys, "vad", str(path), "--out", str(tmp_path / "f.csv"))
        assert code in (0, 1, 2)
        assert (code == 0) == (err == "")
        assert err == "" or (
            err.startswith(("error: ", "i/o error: ")) and err.count("\n") == 1
        )
