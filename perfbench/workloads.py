"""The three workloads: inputs, one operation, and the checks on its output.

Each workload has ``setup(seed, workdir)`` (synthesize and write inputs),
``prepare(index, op_seed)`` (untimed per-op inputs), ``run(prepared)`` (the
timed operation, which calls into the program only through module
attributes so the tracer sees it) and ``check(prepared, raw)``, which returns
an Outcome or raises CheckFailed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import synth
from convstate import cli, clustering, controller, frontend, harness
from convstate.markov import Sampled

CLI_VAD_WEIGHTS = np.concatenate(([1.0], np.zeros(14), [15.0]))  # the CLI's default energy gate
MAX_K = 8


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    digest: str
    audio_s: float  # audio the op covered; a session label stands for one 0.4 s unit
    correct_labels: int  # the workload's primary labels that match the truth
    total_labels: int
    counts: dict[str, float] = field(default_factory=dict)
    errors: dict[str, tuple[int, int]] = field(default_factory=dict)  # name -> (wrong, total)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def check_report(predicted, reported, actual, n_states, where):
    """Recompute TPE/EPPS of one iteration from its labels and compare."""
    pred = np.asarray(predicted, dtype=np.int64)
    act = np.asarray(actual, dtype=np.int64)
    require(pred.size == act.size, f"{where}: {pred.size} labels, expected {act.size}")
    require(((pred >= 0) & (pred < n_states)).all(), f"{where}: label outside 0..{n_states - 1}")
    wrong = pred != act
    tpe = 100.0 * np.count_nonzero(wrong) / pred.size
    require(math.isclose(tpe, reported["tpe"], rel_tol=1e-12, abs_tol=1e-12),
            f"{where}: tpe {reported['tpe']} != recomputed {tpe}")
    epps = {}
    for state in range(n_states):
        occurrences = np.count_nonzero(act == state)
        if occurrences:
            epps[str(state)] = 100.0 * np.count_nonzero(wrong & (act == state)) / occurrences
    require(reported["epps"].keys() == epps.keys(), f"{where}: epps states differ")
    for state, value in epps.items():
        require(math.isclose(value, reported["epps"][state], rel_tol=1e-12, abs_tol=1e-12),
                f"{where}: epps[{state}] {reported['epps'][state]} != recomputed {value}")
    return int(np.count_nonzero(wrong))


def session_counts(iterations, candidates: int) -> dict[str, float]:
    """Work counts of a checker loop, from its per-iteration trace."""
    checked = [it for it in iterations if it["checked"]]
    accepted = [it for it in checked if it["decision"] == "accept"]
    online = [it for it in iterations if not it["checked"] or it["decision"] == "accept"]
    return {
        "markov.sample_steps": sum(
            (candidates if it["checked"] else 1) * len(it["predicted"]) for it in iterations
        ),
        "markov.update_online_calls": sum(len(it["predicted"]) for it in online),
        "markov.estimate_transition_calls": 1 + len(checked) - len(accepted),
        "metrics.tpe_calls": candidates * len(checked),
        "controller.checked_iterations": len(checked),
        "controller.accepted_iterations": len(accepted),
    }


class Session:
    """`convstate session` on a README-shaped matched chain-oracle config."""

    name = "session"
    length, iterations, candidates = 1000, 7, 5

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.model_path = os.path.join(workdir, "truth.json")
        self.config_path = os.path.join(workdir, "session.json")
        self.report_path = os.path.join(workdir, "report.json")
        self.table_path = os.path.join(workdir, "table.csv")
        counts = [c for row in synth.STICKY_COUNTS for c in row]
        with open(self.model_path, "w") as handle:
            json.dump({"version": 1, "s": synth.N_SPEAKERS, "counts": counts,
                       "policy": "uniform", "mode": None}, handle)
        self.probs = synth.chain_probs()

    def prepare(self, index: int, op_seed: int):
        config = {
            "seed": op_seed,
            "mode": "sampled",
            "candidate_count": self.candidates,
            "iterations": self.iterations,
            "thresholds": {"tpe_threshold": 20, "epps_threshold": 30, "checker_interval": "every"},
            "oracle": {"kind": "chain", "model": self.model_path, "length": self.length,
                       "initial": 0, "matched": True, "exact_bootstrap": True},
        }
        with open(self.config_path, "w") as handle:
            json.dump(config, handle)
        for path in (self.report_path, self.table_path):
            if os.path.exists(path):
                os.unlink(path)
        argv = ["session", self.config_path, "--report-out", self.report_path,
                "--table-out", self.table_path]
        return argv, op_seed

    def run(self, prepared):
        return run_cli(prepared[0])

    def truth(self, op_seed: int, start: int) -> list[np.ndarray]:
        """The matched oracle's chunks: chunk i replays default_rng([seed, i, 0])."""
        chunks, current = [], start
        for i in range(1, self.iterations + 1):
            uniforms = np.random.default_rng([op_seed, i, 0]).random(self.length)
            chunk = synth.sample_chain(self.probs, current, uniforms, include_start=False)
            chunks.append(chunk)
            current = int(chunk[-1])
        return chunks

    def check(self, prepared, raw) -> Outcome:
        _, op_seed = prepared
        code, stdout = raw
        require(code == 0, f"exit code {code}")
        summary = json.loads(stdout.strip().splitlines()[-1])
        require(summary["iterations"] == self.iterations,
                f"summary says {summary['iterations']} iterations")
        report_bytes, table_bytes = read_bytes(self.report_path), read_bytes(self.table_path)
        report = json.loads(report_bytes)
        iterations = report["iterations"]
        require(len(iterations) == self.iterations, f"{len(iterations)} iterations")
        bootstrap = np.asarray(report["bootstrap"], dtype=np.int64)
        bigrams = np.zeros((synth.N_SPEAKERS,) * 2, dtype=np.int64)
        np.add.at(bigrams, (bootstrap[:-1], bootstrap[1:]), 1)
        require((bigrams == np.asarray(synth.STICKY_COUNTS)).all(),
                "bootstrap counts differ from the chain")
        wrong = 0
        for it, actual in zip(iterations, self.truth(op_seed, int(bootstrap[-1]))):
            require(it["checked"] and it["report"] is not None,
                    f"iteration {it['index']} unchecked")
            wrong += check_report(it["predicted"], it["report"], actual, synth.N_SPEAKERS,
                                  f"iteration {it['index']}")
            report_ = it["report"]
            accept = report_["tpe"] < 20 and max(report_["epps"].values()) < 30
            require(it["decision"] == ("accept" if accept else "replace_with_oracle"),
                    f"iteration {it['index']}: decision {it['decision']}")
        require(table_bytes.count(b"\n") == 1 + self.iterations * synth.N_SPEAKERS, "table rows")
        total = self.iterations * self.length
        counts = session_counts(iterations, self.candidates)
        counts["storage.bytes_written"] = len(report_bytes) + len(table_bytes)
        digest = hashlib.sha256(stdout.encode() + report_bytes + table_bytes).hexdigest()
        return Outcome(digest, total * synth.UNIT_S, total - wrong, total, counts,
                       {"session_tpe_pct": (wrong, total)})


class Pipeline:
    """WAV -> features -> VAD -> segments -> embeddings -> diarization -> session.

    The session's bootstrap (the diarized first half) is where the Markov
    estimate is made; the second half, in chunks, is what it is checked on.
    """

    name = "pipeline"
    clips, units, duration_s = 12, 64, 28.0
    iterations, candidates = 7, 5

    def setup(self, seed: int, workdir: str) -> None:
        self.paths, self.truth = [], []
        for j in range(self.clips):
            clip = synth.make_clip(seed * self.clips + j, self.units, self.duration_s)
            path = os.path.join(workdir, f"clip{j}.wav")
            synth.write_wav(path, clip)
            self.paths.append(path)
            self.truth.append(clip)

    def prepare(self, index: int, op_seed: int):
        return index % self.clips, op_seed

    def run(self, prepared):
        j, op_seed = prepared
        audio = frontend.load_wav(self.paths[j])
        features = frontend.extract_features(audio)
        mask = np.asarray([frontend.vad_classify(f, CLI_VAD_WEIGHTS)[0] for f in features])
        segments = frontend.segment(mask, synth.HOP_S, synth.UNIT_S)
        spans = [(s.start_s, s.end_s) for s in segments]
        vectors = embed(features, spans)
        diarized = clustering.spectral_cluster(clustering.EmbeddingSet(vectors), seed=op_seed)
        truth = synth.segment_truth(self.truth[j], spans)
        _, aligned = harness.align_labels(diarized, truth)
        n_states = max(diarized.n_states, synth.N_SPEAKERS)
        half = len(aligned) // 2
        chunks = np.array_split(np.asarray(aligned[half:]), self.iterations)
        config = controller.SessionConfig(
            mode=Sampled(op_seed), seed=op_seed, candidate_count=self.candidates,
            iterations=self.iterations,
        )
        report = controller.run_session([aligned[:half]] + chunks, config, n_states=n_states)
        return len(features), mask, spans, vectors, diarized, truth, aligned, chunks, report

    def check(self, prepared, raw) -> Outcome:
        j, _ = prepared
        n_frames, mask, spans, vectors, diarized, truth, aligned, chunks, report = raw
        clip = self.truth[j]
        require(n_frames == synth.frame_count(clip.samples.size), f"{n_frames} frames")
        require(mask.size == n_frames, "one VAD decision per frame")
        ends = [0.0] + [e for _, e in spans]
        require(all(s >= prev and e > s for (s, e), prev in zip(spans, ends)), "segments overlap")
        require(spans and spans[-1][1] <= clip.duration_s + 1e-9, "segment beyond the clip")
        require(1 <= diarized.n_states <= MAX_K, f"k = {diarized.n_states}")
        require(len(diarized.labels) == len(spans), "one label per segment")
        require(len(report.iterations) == self.iterations, f"{len(report.iterations)} iterations")
        n_states = max(diarized.n_states, synth.N_SPEAKERS)
        half = len(aligned) // 2
        true_rest = np.array_split(truth[half:], self.iterations)
        session_wrong = 0
        trace = []
        for record, chunk, true_chunk in zip(report.iterations, chunks, true_rest):
            rep = record.decision.report
            reported = {"tpe": rep.tpe, "epps": {str(k): v for k, v in rep.epps.items()}}
            predicted = np.asarray(record.predicted.labels)
            check_report(predicted, reported, chunk, n_states, f"iteration {record.index}")
            session_wrong += int(np.count_nonzero(predicted != true_chunk))
            trace.append({"checked": record.checked, "decision": record.decision.decision.value,
                          "predicted": record.predicted.labels, "tpe": repr(rep.tpe)})
        wrong_segments = int(np.count_nonzero(np.asarray(aligned) != truth))
        true_mask = synth.speech_mask(clip)
        counts = session_counts(trace, self.candidates)
        counts.update({"frontend.frames": n_frames, "frontend.segments": len(spans),
                       "clustering.k_chosen": diarized.n_states})
        digest = hashlib.sha256()
        for part in (mask.tobytes(), repr(spans).encode(), vectors.tobytes(),
                     repr(diarized.labels).encode(), repr(aligned).encode(), repr(trace).encode(),
                     report.final_model.counts.tobytes()):
            digest.update(part)
        return Outcome(
            digest.hexdigest(), clip.duration_s, len(spans) - wrong_segments, len(spans), counts,
            {"diarization_error_pct": (wrong_segments, len(spans)),
             "vad_error_pct": (int(np.count_nonzero(mask != true_mask)), n_frames),
             "session_tpe_pct": (session_wrong, len(aligned) - half)},
        )


def embed(features, spans) -> np.ndarray:
    """MFCC mean/std pooling per segment; the benchmark's own span."""
    return synth.pool_embeddings(np.stack([f.mfcc for f in features]), spans)


class Vad:
    """`convstate vad clip.wav --out features.csv` on a few minutes of conversation."""

    name = "vad"
    units, duration_s = 400, 180.0

    def setup(self, seed: int, workdir: str) -> None:
        self.clip = synth.make_clip(seed, self.units, self.duration_s)
        self.wav_path = os.path.join(workdir, "clip.wav")
        self.csv_path = os.path.join(workdir, "features.csv")
        synth.write_wav(self.wav_path, self.clip)
        self.true_mask = synth.speech_mask(self.clip)

    def prepare(self, index: int, op_seed: int):
        if os.path.exists(self.csv_path):
            os.unlink(self.csv_path)
        return ["vad", self.wav_path, "--out", self.csv_path]

    def run(self, prepared):
        return run_cli(prepared)

    def check(self, prepared, raw) -> Outcome:
        code, stdout = raw
        require(code == 0, f"exit code {code}")
        summary = json.loads(stdout)
        frames = synth.frame_count(self.clip.samples.size)
        require(summary["frames"] == frames, f"{summary['frames']} frames, expected {frames}")
        mask = np.asarray(summary["speech_mask"], dtype=bool)
        require(mask.size == frames, "one VAD decision per frame")
        require(summary["speech_frames"] == int(mask.sum()), "speech_frames != mask sum")
        spans = [(s["start_s"], s["end_s"]) for s in summary["segments"]]
        require(all(e > s for s, e in spans), "empty segment")
        csv_bytes = read_bytes(self.csv_path)
        require(csv_bytes.startswith(b"frame_index,time_s,log_energy,zcr,mfcc_0,"), "CSV header")
        require(csv_bytes.count(b"\n") == frames + 1, "one CSV row per frame")
        wrong = int(np.count_nonzero(mask != self.true_mask))
        counts = {"frontend.frames": frames, "frontend.segments": len(spans),
                  "storage.bytes_written": len(csv_bytes)}
        digest = hashlib.sha256(stdout.encode() + csv_bytes).hexdigest()
        return Outcome(digest, self.clip.duration_s, frames - wrong, frames, counts,
                       {"vad_error_pct": (wrong, frames)})


WORKLOADS = {w.name: w for w in (Session, Pipeline, Vad)}
