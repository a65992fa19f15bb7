"""Command-line surface: vad, diarize, estimate, predict, check, session, simulate.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numerical
non-convergence. Every seeded command is byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import wave

import numpy as np

from . import clustering, frontend, harness, markov, storage
from .controller import (
    CheckerInterval,
    FixedEvery,
    RandomBernoulli,
    SessionConfig,
    Thresholds,
    check_iteration,
    run_session,
)
from .errors import ConvergenceError, SchemaError, ValidationError
from .markov import Argmax, PredictionMode, Sampled, StateSequence, UnseenRowPolicy

# Energy gate used when no trained weights are supplied: speech iff the
# frame's log-energy clears -15, which sits between the silence floor
# (ln 1e-10 = -23) and quiet speech.
_DEFAULT_VAD_BIAS = 15.0


def _default_vad_weights(feature_dim: int) -> np.ndarray:
    weights = np.zeros(feature_dim + 1)
    weights[0] = 1.0
    weights[-1] = _DEFAULT_VAD_BIAS
    return weights


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        storage.atomic_write_text(out_path, text)


def _parse_interval(spec: str) -> CheckerInterval:
    if spec == "every":
        return FixedEvery(1)
    try:
        if spec.startswith("fixed:"):
            return FixedEvery(int(spec.split(":", 1)[1]))
        if spec.startswith("bernoulli:"):
            parts = spec.split(":")
            probability = float(parts[1])
            seed = int(parts[2]) if len(parts) > 2 else 0
            return RandomBernoulli(probability, seed)
    except ValidationError:
        raise
    except ValueError:
        pass  # an unparsable number gets the same message as an unknown kind
    raise ValidationError(
        f"invalid checker interval {spec!r}; expected every, fixed:m, or bernoulli:p[:seed]"
    )


def _parse_mode(name: str, seed: int) -> PredictionMode:
    if name == "argmax":
        return Argmax()
    if name in ("sample", "sampled"):
        return Sampled(seed)
    raise ValidationError(f"unknown prediction mode {name!r}")


def _policy(name: str) -> UnseenRowPolicy:
    return UnseenRowPolicy.UNIFORM if name == "uniform" else UnseenRowPolicy.ERROR_ON_QUERY


def _load_vad_weights(path: str) -> np.ndarray:
    with open(path) as handle:
        try:
            weights = np.asarray(json.load(handle), dtype=np.float64)
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: not a JSON list of numbers ({exc})") from None
    if not np.isfinite(weights).all():
        raise SchemaError(f"{path}: weights must be finite numbers, got NaN or Infinity")
    return weights


def _require_states(n_states: int) -> None:
    if n_states < 1:
        raise ValidationError(f"--states must be >= 1, got {n_states}")


def _cmd_vad(args: argparse.Namespace) -> None:
    audio = frontend.load_wav(args.wav)
    features = frontend.feature_matrix(audio, args.window_s, args.hop_s)
    if args.weights:
        weights = _load_vad_weights(args.weights)
    else:
        weights = _default_vad_weights(features.shape[1])
    mask, _ = frontend.vad_classify(features, weights)
    segments = frontend.segment(mask, args.hop_s, args.seg_len_s)
    if args.out:
        storage.atomic_write_text(args.out, storage.features_to_csv(features, args.hop_s))
    summary = {
        "frames": len(features),
        "speech_frames": int(mask.sum()),
        "speech_mask": mask.astype(int).tolist(),
        "segments": [
            {"start_s": seg.start_s, "end_s": seg.end_s} for seg in segments
        ],
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")


def _cmd_diarize(args: argparse.Namespace) -> None:
    embeddings = storage.read_embeddings(args.embeddings)
    labels = clustering.spectral_cluster(
        embeddings,
        k=args.k,
        seed=args.seed,
        sigma=args.sigma,
        percentile=args.percentile,
    )
    _emit(storage.labels_to_text(labels), args.out)


def _cmd_estimate(args: argparse.Namespace) -> None:
    _require_states(args.states)
    seq = storage.read_labels(args.labels, n_states=args.states)
    model = markov.estimate_transition(seq, args.states, _policy(args.policy))
    _emit(storage.json_text(storage.model_to_document(model)) + "\n", args.out)


def _cmd_predict(args: argparse.Namespace) -> None:
    model, saved_mode = storage.load_model(args.model)
    if args.mode is not None:
        mode = _parse_mode(args.mode, args.seed)
    elif saved_mode is not None:
        mode = saved_mode
    else:
        mode = Argmax()
    seq = markov.predict_sequence(model, args.initial, args.length, mode)
    _emit(storage.labels_to_text(seq), args.out)


def _cmd_check(args: argparse.Namespace) -> None:
    predicted = storage.read_labels(args.predicted)
    actual = storage.read_labels(args.actual)
    n_states = args.states
    if n_states is None:
        n_states = max(predicted.n_states, actual.n_states)
    else:
        _require_states(n_states)
    thresholds = Thresholds(
        tpe_threshold=args.tpe_threshold, epps_threshold=args.epps_threshold
    )
    verdict = check_iteration(predicted.labels, actual.labels, thresholds, n_states)
    payload = {**storage.report_to_document(verdict.report), "decision": verdict.decision.value}
    _emit(storage.json_text(payload) + "\n", args.out)


def _number_field(doc: dict, key: str, default, path: str, kind: type = int):
    """doc[key] (default when absent), which must be a `kind`, int or float.

    A None default makes the field optional: absent or null gives None.
    Values are checked by `storage.is_number`, not converted; a rejected
    value is a SchemaError at `path`. A float field also takes an int.
    """
    value = doc.get(key, default)
    if value is None and default is None:
        return None
    if storage.is_number(value, kind):
        return value
    noun = "an integer" if kind is int else "a finite number"
    raise SchemaError(f"{path}: expected {noun}, got {value!r}")


def _build_oracle(doc: dict, iterations: int | None):
    spec = doc.get("oracle")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError("$.oracle: expected an object with 'kind'")
    kind = spec["kind"]
    if kind == "files":
        paths = spec.get("paths")
        if not isinstance(paths, list) or not paths:
            raise SchemaError("$.oracle.paths: expected a non-empty list")
        for i, path in enumerate(paths):
            if not isinstance(path, str):
                raise SchemaError(f"$.oracle.paths[{i}]: expected a label file path")
        return [storage.read_labels(p) for p in paths]
    if kind == "chain":
        model_path = spec.get("model")
        if not isinstance(model_path, str):
            raise SchemaError("$.oracle.model: expected a model file path")
        truth, _ = storage.load_model(model_path)
        length = _number_field(spec, "length", 300, "$.oracle.length")
        initial = _number_field(spec, "initial", 0, "$.oracle.initial")
        seed = _number_field(spec, "seed", doc.get("seed", 0), "$.oracle.seed")
        total = None if iterations is None else iterations + 1
        bootstrap = None
        if spec.get("exact_bootstrap"):
            bootstrap = harness.sequence_with_exact_counts(truth.counts)
        if spec.get("matched", True):
            return harness.matched_chain_oracle(
                truth, length, initial, seed, total, bootstrap=bootstrap
            )
        return harness.chain_oracle(truth, length, initial, seed, total)
    raise SchemaError(f"$.oracle.kind: unknown oracle kind {kind!r}")


def _cmd_session(args: argparse.Namespace) -> None:
    doc = storage.read_json(args.config)
    if not isinstance(doc, dict):
        raise SchemaError(f"{args.config}: expected a JSON object")
    thresholds_doc = doc.get("thresholds", {})
    if not isinstance(thresholds_doc, dict):
        raise SchemaError("$.thresholds: expected an object")

    def threshold(key: str, default: float | None, override: float | None = None):
        if override is not None:
            return override
        return _number_field(thresholds_doc, key, default, f"$.thresholds.{key}", float)

    interval_spec = thresholds_doc.get("checker_interval", "every")
    if args.checker_interval is not None:
        interval_spec = args.checker_interval
    if not isinstance(interval_spec, str):
        raise SchemaError(
            f"$.thresholds.checker_interval: expected a string, got {interval_spec!r}"
        )
    thresholds = Thresholds(
        tpe_threshold=threshold("tpe_threshold", 20.0, args.tpe_threshold),
        epps_threshold=threshold("epps_threshold", 30.0, args.epps_threshold),
        matrix_diff_max=threshold("matrix_diff_max", 0.15, args.matrix_diff_max),
        row_diff_min=threshold("row_diff_min", None),
        checker_interval=_parse_interval(interval_spec),
    )
    seed = args.seed if args.seed is not None else _number_field(doc, "seed", 0, "$.seed")
    iterations = _number_field(doc, "iterations", None, "$.iterations")
    n_states = _number_field(doc, "states", None, "$.states")
    window = args.window if args.window is not None else _number_field(
        doc, "window", None, "$.window"
    )
    config = SessionConfig(
        thresholds=thresholds,
        mode=_parse_mode(doc.get("mode", "argmax"), seed),
        seed=seed,
        candidate_count=_number_field(doc, "candidate_count", 5, "$.candidate_count"),
        window_len=window,
        iterations=iterations,
    )
    oracle = _build_oracle(doc, iterations)
    report = run_session(oracle, config, n_states=n_states)

    outputs = doc.get("outputs", {})
    report_path = args.report_out or outputs.get("report_json")
    table_path = args.table_out or outputs.get("table_csv")
    report_doc = storage.session_to_document(report)
    rows = storage.report_table(report)
    table_csv = storage.table_to_csv(rows, report.final_model.n_states)
    if report_path:
        storage.atomic_write_text(report_path, storage.json_text(report_doc) + "\n")
    _emit(table_csv, table_path)
    if table_path or report_path:
        mean = report.mean_tpe()
        sys.stdout.write(
            json.dumps(
                {
                    "iterations": len(report.iterations),
                    "mean_tpe": mean,
                    "report_json": report_path,
                    "table_csv": table_path,
                },
                sort_keys=True,
            )
            + "\n"
        )


def _cmd_simulate_chain(args: argparse.Namespace) -> None:
    truth, _ = storage.load_model(args.model)
    seq = harness.generate_synthetic_sequence(truth, args.length, args.initial, args.seed)
    _emit(storage.labels_to_text(seq), args.out)


def _cmd_simulate_embeddings(args: argparse.Namespace) -> None:
    embeddings, labels = harness.generate_synthetic_embeddings(
        args.clusters,
        args.per_cluster,
        args.dim,
        args.separation,
        args.noise_sigma,
        args.seed,
    )
    _emit(storage.embeddings_to_csv(embeddings), args.out)
    if args.labels_out:
        truth = StateSequence(labels=tuple(labels), n_states=args.clusters)
        storage.atomic_write_text(args.labels_out, storage.labels_to_text(truth))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `convstate` parser, built once per process.

    `prog` is fixed and `parse_args` returns a fresh Namespace per call, so
    every in-process call of `main` shares it; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="convstate",
        description="Speaker-state prediction: diarize, estimate, predict, check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vad = sub.add_parser("vad", help="frame features and speech mask from a WAV file")
    p_vad.add_argument("wav")
    p_vad.add_argument("--out", help="write the per-frame feature CSV here")
    p_vad.add_argument("--weights", help="JSON list of trained VAD weights")
    p_vad.add_argument("--window-s", type=float, default=0.025, dest="window_s")
    p_vad.add_argument("--hop-s", type=float, default=0.010, dest="hop_s")
    p_vad.add_argument("--seg-len-s", type=float, default=0.4, dest="seg_len_s")
    p_vad.set_defaults(func=_cmd_vad)

    p_dia = sub.add_parser("diarize", help="cluster embeddings into speaker labels")
    p_dia.add_argument("embeddings", help="CSV rows of floats or JSONL with vectors")
    p_dia.add_argument("--k", type=int, default=None, help="fix the cluster count")
    p_dia.add_argument("--seed", type=int, default=0)
    p_dia.add_argument("--sigma", type=float, default=1.0, help="blur width, 0 disables")
    p_dia.add_argument(
        "--percentile", type=float, default=None,
        help="row-threshold percentile; default picks by eigengap sweep",
    )
    p_dia.add_argument("--out")
    p_dia.set_defaults(func=_cmd_diarize)

    p_est = sub.add_parser("estimate", help="estimate a transition model from labels")
    p_est.add_argument("labels")
    p_est.add_argument("--states", type=int, required=True)
    p_est.add_argument("--policy", choices=("uniform", "error"), default="uniform")
    p_est.add_argument("--out")
    p_est.set_defaults(func=_cmd_estimate)

    p_pre = sub.add_parser("predict", help="roll a model forward from a state")
    p_pre.add_argument("model")
    p_pre.add_argument("--initial", type=int, required=True)
    p_pre.add_argument("--length", type=int, required=True)
    p_pre.add_argument("--mode", choices=("argmax", "sample"), default=None)
    p_pre.add_argument("--seed", type=int, default=0)
    p_pre.add_argument("--out")
    p_pre.set_defaults(func=_cmd_predict)

    p_chk = sub.add_parser("check", help="evaluate predicted labels against actual")
    p_chk.add_argument("predicted")
    p_chk.add_argument("actual")
    p_chk.add_argument("--states", type=int, default=None)
    p_chk.add_argument("--tpe-threshold", type=float, default=20.0, dest="tpe_threshold")
    p_chk.add_argument("--epps-threshold", type=float, default=30.0, dest="epps_threshold")
    p_chk.add_argument("--out")
    p_chk.set_defaults(func=_cmd_check)

    p_ses = sub.add_parser("session", help="run the full checker loop from a config")
    p_ses.add_argument("config")
    p_ses.add_argument("--tpe-threshold", type=float, default=None, dest="tpe_threshold")
    p_ses.add_argument("--epps-threshold", type=float, default=None, dest="epps_threshold")
    p_ses.add_argument(
        "--matrix-diff-max", type=float, default=None, dest="matrix_diff_max"
    )
    p_ses.add_argument("--window", type=int, default=None)
    p_ses.add_argument("--seed", type=int, default=None)
    p_ses.add_argument(
        "--checker-interval", default=None, dest="checker_interval",
        help="every, fixed:m, or bernoulli:p[:seed]",
    )
    p_ses.add_argument("--report-out", dest="report_out")
    p_ses.add_argument("--table-out", dest="table_out")
    p_ses.set_defaults(func=_cmd_session)

    p_sim = sub.add_parser("simulate", help="generate synthetic fixtures")
    sim_sub = p_sim.add_subparsers(dest="what", required=True)

    p_simc = sim_sub.add_parser("chain", help="sample a label sequence from a model")
    p_simc.add_argument("--model", required=True)
    p_simc.add_argument("--length", type=int, required=True)
    p_simc.add_argument("--initial", type=int, default=0)
    p_simc.add_argument("--seed", type=int, default=0)
    p_simc.add_argument("--out")
    p_simc.set_defaults(func=_cmd_simulate_chain)

    p_sime = sim_sub.add_parser("embeddings", help="Gaussian cluster embeddings")
    p_sime.add_argument("--clusters", type=int, required=True)
    p_sime.add_argument("--per-cluster", type=int, required=True, dest="per_cluster")
    p_sime.add_argument("--dim", type=int, required=True)
    p_sime.add_argument("--separation", type=float, default=5.0)
    p_sime.add_argument("--noise-sigma", type=float, default=1.0, dest="noise_sigma")
    p_sime.add_argument("--seed", type=int, default=0)
    p_sime.add_argument("--out")
    p_sime.add_argument("--labels-out", dest="labels_out")
    p_sime.set_defaults(func=_cmd_simulate_embeddings)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValidationError, wave.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
