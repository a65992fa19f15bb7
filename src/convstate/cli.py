"""Command-line surface: vad, diarize, estimate, predict, check, session, simulate.

Exit codes: 0 success, 1 validation error or out of memory, 2 I/O error.
Every seeded command is byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import clustering, frontend, harness, markov, storage
from .controller import Thresholds, check_iteration, run_session
from .errors import ValidationError
from .markov import Argmax, Sampled, StateSequence

# Energy gate used when no trained weights are supplied: speech iff the
# frame's log-energy clears -15, which sits between the silence floor
# (ln 1e-10 = -23) and quiet speech.
_DEFAULT_VAD_BIAS = 15.0


def _default_vad_weights() -> np.ndarray:
    weights = np.zeros(frontend.N_FEATURES + 1)
    weights[0] = 1.0
    weights[-1] = _DEFAULT_VAD_BIAS
    return weights


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        storage.atomic_write_text(out_path, text)


def _require_states_within(n_states: int, n_labels: int) -> None:
    # The count sizes the model or report, so it may not outgrow the input.
    if n_states > n_labels:
        raise ValidationError(
            f"--states must be <= {n_labels}, the number of labels read, got {n_states}"
        )


def _cmd_vad(args: argparse.Namespace) -> None:
    audio = frontend.load_wav(args.wav)
    if args.weights:
        weights = storage.read_vad_weights(args.weights)
    else:
        weights = _default_vad_weights()
    features = frontend.feature_matrix(audio)
    mask, _ = frontend.vad_classify(features, weights)
    segments = frontend.segment(mask)
    if args.out:
        storage.atomic_write_text(args.out, storage.features_to_csv(features))
    summary = {
        "frames": len(features),
        "speech_frames": int(mask.sum()),
        "speech_mask": mask.astype(int).tolist(),
        "segments": [{"start_s": seg.start_s, "end_s": seg.end_s} for seg in segments],
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")


def _cmd_diarize(args: argparse.Namespace) -> None:
    embeddings = storage.read_embeddings(args.embeddings)
    labels = clustering.spectral_cluster(
        embeddings, k=args.k, seed=args.seed, percentile=args.percentile
    )
    _emit(storage.labels_to_text(labels), args.out)


def _cmd_estimate(args: argparse.Namespace) -> None:
    markov._integer(args.states, "--states", least=1)
    seq = storage.read_labels(args.labels, n_states=args.states)
    _require_states_within(args.states, len(seq))
    model = markov.estimate_transition(seq, args.states)
    _emit(storage.json_text(storage.model_to_document(model)) + "\n", args.out)


def _cmd_predict(args: argparse.Namespace) -> None:
    model, saved_mode = storage.load_model(args.model)
    if args.mode is None:
        mode = Argmax() if saved_mode is None else saved_mode
    else:
        mode = Argmax() if args.mode == "argmax" else Sampled(args.seed)
    seq = markov.predict_sequence(model, args.initial, args.length, mode)
    _emit(storage.labels_to_text(seq), args.out)


def _cmd_check(args: argparse.Namespace) -> None:
    if args.states is not None:
        markov._integer(args.states, "--states", least=1)
    # With --states, a label at or above it is an error, as in `estimate`.
    predicted = storage.read_labels(args.predicted, n_states=args.states)
    actual = storage.read_labels(args.actual, n_states=args.states)
    length = max(len(predicted), len(actual))
    if args.states is None:
        # Like --states, the inferred count may not outgrow the input.
        n_states = max(predicted.n_states, actual.n_states)
        if n_states > length:
            raise ValidationError(
                f"largest label {n_states - 1} implies {n_states} states for {length} "
                "labels; pass --states"
            )
    else:
        n_states = args.states
        _require_states_within(n_states, length)
    thresholds = Thresholds(
        tpe_threshold=args.tpe_threshold, epps_threshold=args.epps_threshold
    )
    verdict = check_iteration(predicted.labels, actual.labels, thresholds, n_states)
    payload = {**storage.report_to_document(verdict.report), "decision": verdict.decision.value}
    _emit(storage.json_text(payload) + "\n", args.out)


def _cmd_session(args: argparse.Namespace) -> None:
    config, n_states, oracle = storage.read_session_config(args.config)
    report = run_session(oracle, config, n_states=n_states)
    report_path, table_path = args.report_out or None, args.table_out or None
    if report_path:
        report_doc = storage.session_to_document(report)
        storage.atomic_write_text(report_path, storage.json_text(report_doc) + "\n")
    _emit(storage.table_to_csv(report), table_path)
    if table_path or report_path:
        summary = {"iterations": len(report.iterations), "mean_tpe": report.mean_tpe(),
                   "report_json": report_path, "table_csv": table_path}
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")


def _cmd_simulate_chain(args: argparse.Namespace) -> None:
    truth, _ = storage.load_model(args.model)
    seq = harness.generate_synthetic_sequence(truth, args.length, args.initial, args.seed)
    _emit(storage.labels_to_text(seq), args.out)


def _cmd_simulate_embeddings(args: argparse.Namespace) -> None:
    embeddings, labels = harness.generate_synthetic_embeddings(
        args.clusters, args.per_cluster, args.dim, args.separation, args.noise_sigma, args.seed
    )
    _emit(storage.embeddings_to_csv(embeddings), args.out)
    if args.labels_out:
        truth = StateSequence(labels=labels, n_states=args.clusters)
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
    p_vad.add_argument("--weights", help="JSON list of trained VAD weights, each within +-1e300")
    p_vad.set_defaults(func=_cmd_vad)

    p_dia = sub.add_parser("diarize", help="cluster embeddings into speaker labels")
    p_dia.add_argument("embeddings", help="CSV rows of floats or JSONL with vectors")
    p_dia.add_argument("--k", type=int, default=None, help="fix the cluster count")
    p_dia.add_argument("--seed", type=int, default=0)
    p_dia.add_argument(
        "--percentile", type=float, default=None,
        help="row-threshold percentile; default picks by eigengap sweep",
    )
    p_dia.add_argument("--out")
    p_dia.set_defaults(func=_cmd_diarize)

    p_est = sub.add_parser("estimate", help="estimate a transition model from labels")
    p_est.add_argument("labels")
    p_est.add_argument("--states", type=int, required=True)
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
    p_chk.add_argument("--tpe-threshold", type=float, default=Thresholds.tpe_threshold,
                       dest="tpe_threshold")
    p_chk.add_argument("--epps-threshold", type=float, default=Thresholds.epps_threshold,
                       dest="epps_threshold")
    p_chk.add_argument("--out")
    p_chk.set_defaults(func=_cmd_check)

    p_ses = sub.add_parser(
        "session", help="run the full checker loop from a config",
        description="Run the checker loop from a JSON session config (format in the README). "
        "Every setting comes from the config; a key outside the format is an error.",
    )
    p_ses.add_argument("config", help="JSON session config")
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
        markov._integer(getattr(args, "seed", 0), "--seed", least=0)
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # The message is empty for some allocations (a list repeat), so it is not shown.
        print("error: out of memory (the requested output is too large)", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
