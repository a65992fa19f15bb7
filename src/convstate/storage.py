"""File formats: model JSON, session configs, VAD weights, label files,
embeddings, feature CSV, tables.

Probabilities are never trusted from disk; a loaded model recomputes them
from its counts. All writes go through a temp-file-and-rename so readers
never observe a partial document.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import tempfile
from itertools import filterfalse

import numpy as np

from . import harness
from .clustering import EmbeddingSet
from .controller import (
    CheckerInterval,
    FixedEvery,
    RandomBernoulli,
    SessionConfig,
    SessionReport,
    Thresholds,
)
from .errors import SchemaError, ValidationError
from .markov import (
    Argmax,
    PredictionMode,
    Sampled,
    StateSequence,
    TransitionModel,
    UnseenRowPolicy,
    normalize,
)
from .metrics import EvaluationReport

MODEL_VERSION = 1
# A plain-text label token; int() alone would also take "1_0" and
# non-ASCII digits such as "\u0663".
_LABEL_TOKEN = re.compile(r"[+-]?[0-9]+")

_POLICY_NAMES = {
    UnseenRowPolicy.UNIFORM: "uniform",
    UnseenRowPolicy.ERROR_ON_QUERY: "error",
}
_POLICY_BY_NAME = {name: policy for policy, name in _POLICY_NAMES.items()}


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so the target is never partial."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


_CONTAINERS = (dict, list, tuple)


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, at C speed.

    ``indent`` turns CPython's C encoder off, so every element of a long
    label list would go through the pure-Python encoder. Here a dict or list
    that holds no dict, list or tuple is encoded by one C-encoder call whose
    item separator is the comma, newline and indent of its depth; only
    containers that hold containers are walked in Python. Dict keys must be
    str.
    """
    return _indented(doc, "\n")


def _indented(value, newline: str) -> str:
    if not isinstance(value, _CONTAINERS):
        return json.dumps(value)
    is_dict = isinstance(value, dict)
    if not value:
        return "{}" if is_dict else "[]"
    if is_dict:
        if not all(isinstance(key, str) for key in value):
            raise TypeError("json_text: dict keys must be str")
        keys = sorted(value)
        values = [value[key] for key in keys]
    else:
        values = value
    inner = newline + "  "
    separator = "," + inner
    if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values))):
        body = json.dumps(value, separators=(separator, ": "), sort_keys=True)[1:-1]
    elif is_dict:
        body = separator.join(
            f"{json.dumps(key)}: {_indented(item, inner)}" for key, item in zip(keys, values)
        )
    else:
        body = separator.join(_indented(item, inner) for item in values)
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}{inner}{body}{newline}{closing}"


def mode_to_document(mode: PredictionMode | None) -> dict | None:
    if mode is None:
        return None
    if isinstance(mode, Argmax):
        return {"kind": "argmax"}
    return {"kind": "sampled", "seed": int(mode.seed)}


def mode_from_document(doc, where: str = "$.mode") -> PredictionMode | None:
    if doc is None:
        return None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError(f"{where}: expected null or an object with 'kind'")
    kind = doc["kind"]
    if kind == "argmax":
        return Argmax()
    if kind == "sampled":
        seed = doc.get("seed")
        if not is_number(seed, int) or seed < 0:
            raise SchemaError(f"{where}.seed: expected a non-negative integer")
        return Sampled(seed)
    raise SchemaError(f"{where}.kind: unknown mode {kind!r}")


def model_to_document(model: TransitionModel, mode: PredictionMode | None = None) -> dict:
    return {
        "version": MODEL_VERSION,
        "s": model.n_states,
        "counts": [int(c) for c in model.counts.reshape(-1)],
        "policy": _POLICY_NAMES[model.policy],
        "mode": mode_to_document(mode),
    }


def model_from_document(doc) -> tuple[TransitionModel, PredictionMode | None]:
    if not isinstance(doc, dict):
        raise SchemaError("$: expected a JSON object")
    version = doc.get("version")
    if version is None:
        raise SchemaError("$.version: missing")
    if not is_number(version, int) or version != MODEL_VERSION:
        raise SchemaError(
            f"$.version: unsupported model version {version!r}, expected {MODEL_VERSION}"
        )
    n_states = doc.get("s")
    if not is_number(n_states, int) or n_states < 1:
        raise SchemaError("$.s: expected a positive integer state count")
    counts = doc.get("counts")
    if not isinstance(counts, list) or len(counts) != n_states * n_states:
        raise SchemaError(
            f"$.counts: expected a row-major list of {n_states * n_states} integers"
        )
    limit = np.iinfo(np.int64).max // n_states  # every row total fits in int64
    for flat_index, value in enumerate(counts):
        if not is_number(value, int) or not 0 <= value <= limit:
            row, col = divmod(flat_index, n_states)
            raise SchemaError(
                f"$.counts[{flat_index}] (row {row}, col {col}): expected a "
                f"non-negative integer no larger than {limit}, got {value!r}"
            )
    policy_name = doc.get("policy")
    if not isinstance(policy_name, str) or policy_name not in _POLICY_BY_NAME:
        raise SchemaError(
            f"$.policy: expected one of {sorted(_POLICY_BY_NAME)}, got {policy_name!r}"
        )
    mode = mode_from_document(doc.get("mode"))
    matrix = np.asarray(counts, dtype=np.int64).reshape(n_states, n_states)
    return normalize(matrix, _POLICY_BY_NAME[policy_name]), mode


def save_model(
    model: TransitionModel, path: str, mode: PredictionMode | None = None
) -> None:
    atomic_write_text(path, json_text(model_to_document(model, mode)) + "\n")


def read_json(path: str):
    """Parse one JSON document from `path`; invalid JSON is a SchemaError."""
    with open(path, "r") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def load_model(path: str) -> tuple[TransitionModel, PredictionMode | None]:
    return model_from_document(read_json(path))


def is_number(value, kind: type) -> bool:
    """True for a non-bool int, or, when `kind` is float, also a finite float."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (
        kind is float and isinstance(value, float) and math.isfinite(value)
    )


def read_vad_weights(path: str) -> np.ndarray:
    """A JSON list of finite numbers: VAD weights per feature, then the bias."""
    with open(path) as handle:
        try:
            weights = np.asarray(json.load(handle), dtype=np.float64)
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: not a JSON list of numbers ({exc})") from None
    if not np.isfinite(weights).all():
        raise SchemaError(f"{path}: weights must be finite numbers, got NaN or Infinity")
    return weights


# The keys each object of a session config may hold; any other is an error.
_SESSION_KEYS = {"seed", "mode", "candidate_count", "iterations", "states", "window", "thresholds",
                 "oracle"}
_THRESHOLD_KEYS = {"tpe_threshold", "epps_threshold", "matrix_diff_max", "row_diff_min",
                   "checker_interval"}
_ORACLE_KEYS = {"files": {"kind", "paths"},
                "chain": {"kind", "model", "length", "initial", "seed", "matched", "exact_bootstrap"}}


def _object(value, path: str, known: set) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    for key in value:
        if key not in known:
            raise SchemaError(f"{path}.{json.dumps(key)[1:-1]}: unknown field")
    return value


# Range-error words for `above`: an integer above -1 is non-negative.
_BOUND_WORDS = {-1: "non-negative", 0: "positive"}


def _number_field(doc: dict, key: str, default, path: str, kind: type = int,
                  above: int | None = None):
    """doc[key] (default when absent), which must be a `kind`, int or float,
    greater than `above` when that is given.

    A None default makes the field optional: absent or null gives None.
    Values are checked by `is_number`, not converted; a rejected value is a
    SchemaError at `path`. A float field also takes an int.
    """
    value = doc.get(key, default)
    if value is None and default is None:
        return None
    noun = "an integer" if kind is int else "a finite number"
    if not is_number(value, kind):
        raise SchemaError(f"{path}: expected {noun}, got {value!r}")
    if above is not None and not value > above:
        bound = _BOUND_WORDS.get(above)
        noun = f"a {bound} {noun.split(' ', 1)[1]}" if bound else f"{noun} above {above}"
        raise SchemaError(f"{path}: expected {noun}, got {value}")
    return value


def _bool_field(doc: dict, key: str, default: bool, path: str) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise SchemaError(f"{path}: expected true or false, got {value!r}")
    return value


def _path_field(value, path: str, noun: str) -> str:
    """`value` when the OS can open it as a path: a string without NUL."""
    try:
        if b"\0" not in os.fsencode(value):
            return value
    except (TypeError, UnicodeError):  # not a string, or a lone surrogate
        pass
    raise SchemaError(f"{path}: expected a {noun} file path")


def parse_interval(spec: str) -> CheckerInterval:
    """`every`, `fixed:m` or `bernoulli:p` as a checker interval."""
    if spec == "every":
        return FixedEvery(1)
    kind, _, value = spec.partition(":")
    try:
        if kind == "fixed":
            return FixedEvery(int(value))
        if kind == "bernoulli":
            return RandomBernoulli(float(value))
    except ValidationError:
        raise
    except ValueError:
        pass  # an unparsable number gets the same message as an unknown kind
    raise ValidationError(
        f"invalid checker interval {spec!r}; expected every, fixed:m, or bernoulli:p"
    )


def _mode_from_name(name, seed: int) -> PredictionMode:
    if name == "argmax":
        return Argmax()
    if name in ("sample", "sampled"):
        return Sampled(seed)
    raise SchemaError(f"$.mode: unknown prediction mode {name!r}")


def _oracle_from_document(spec, iterations: int | None, seed: int):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError("$.oracle: expected an object with 'kind'")
    kind = spec["kind"]
    if kind not in ("files", "chain"):
        raise SchemaError(f"$.oracle.kind: unknown oracle kind {kind!r}")
    _object(spec, "$.oracle", _ORACLE_KEYS[kind])
    if kind == "files":
        paths = spec.get("paths")
        if not isinstance(paths, list) or not paths:
            raise SchemaError("$.oracle.paths: expected a non-empty list")
        paths = [_path_field(p, f"$.oracle.paths[{i}]", "label") for i, p in enumerate(paths)]
        return [read_labels(p) for p in paths]
    if iterations is None:
        raise SchemaError("$.iterations: required with a chain oracle, which never runs dry")
    truth, _ = load_model(_path_field(spec.get("model"), "$.oracle.model", "model"))
    length = _number_field(spec, "length", 300, "$.oracle.length", above=0)
    initial = _number_field(spec, "initial", 0, "$.oracle.initial")
    if not 0 <= initial < truth.n_states:
        raise SchemaError(f"$.oracle.initial: state {initial} outside 0..{truth.n_states - 1}")
    seed = _number_field(spec, "seed", seed, "$.oracle.seed", above=-1)
    bootstrap = None
    if _bool_field(spec, "exact_bootstrap", False, "$.oracle.exact_bootstrap"):
        bootstrap = harness.sequence_with_exact_counts(truth.counts)
    if _bool_field(spec, "matched", True, "$.oracle.matched"):
        return harness.matched_chain_oracle(
            truth, length, initial, seed, iterations + 1, bootstrap=bootstrap
        )
    return harness.chain_oracle(truth, length, initial, seed, iterations + 1)


def session_config_from_document(doc):
    """The SessionConfig, state count and oracle a session config describes.

    Each setting comes from the document or, when absent, its default. The
    state count is None when the config leaves it to the bootstrap sequence.
    `oracle.seed` defaults to `seed`. A key outside the format is an error.
    """
    doc = _object(doc, "$", _SESSION_KEYS)
    thresholds_doc = _object(doc.get("thresholds", {}), "$.thresholds", _THRESHOLD_KEYS)

    def threshold(key: str, default: float | None):
        return _number_field(thresholds_doc, key, default, f"$.thresholds.{key}", float, above=0)

    interval = thresholds_doc.get("checker_interval", "every")
    if not isinstance(interval, str):
        raise SchemaError(f"$.thresholds.checker_interval: expected a string, got {interval!r}")
    thresholds = Thresholds(
        tpe_threshold=threshold("tpe_threshold", 20.0),
        epps_threshold=threshold("epps_threshold", 30.0),
        matrix_diff_max=threshold("matrix_diff_max", 0.15),
        row_diff_min=threshold("row_diff_min", None),
        checker_interval=parse_interval(interval),
    )
    seed = _number_field(doc, "seed", 0, "$.seed", above=-1)
    iterations = _number_field(doc, "iterations", None, "$.iterations", above=-1)
    n_states = _number_field(doc, "states", None, "$.states", above=0)
    config = SessionConfig(
        thresholds=thresholds,
        mode=_mode_from_name(doc.get("mode", "argmax"), seed),
        seed=seed,
        candidate_count=_number_field(doc, "candidate_count", 5, "$.candidate_count", above=0),
        window_len=_number_field(doc, "window", None, "$.window", above=1),
        iterations=iterations,
    )
    return config, n_states, _oracle_from_document(doc.get("oracle"), iterations, seed)


def read_session_config(path: str):
    """session_config_from_document of the JSON document at `path`."""
    return session_config_from_document(read_json(path))


def _number(value, kind: type = float):
    """``kind(value)`` when is_number accepts `value`, else ValueError."""
    if not is_number(value, kind):
        raise ValueError(value)
    return kind(value)


def _float_list(value) -> list[float]:
    if not isinstance(value, list):
        raise ValueError(value)
    return [_number(v) for v in value]


def _timed_jsonl(text: str, field: str, parse_field) -> tuple[list, list[tuple[float, float]]]:
    """Parse JSONL records {start_s, end_s, <field>}, one per non-blank line.

    Returns the field values passed through `parse_field` and the (start_s,
    end_s) pairs as floats. A line that is not a JSON object, a missing
    field, a time that is not a finite number, or a field value that
    `parse_field` rejects raises SchemaError naming the line and the field.
    """
    values, times = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"line {lineno}: not valid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise SchemaError(f"line {lineno}: expected a JSON object")
        parsed = []
        for key, parse in (("start_s", _number), ("end_s", _number), (field, parse_field)):
            if key not in record:
                raise SchemaError(f"line {lineno}: missing field {key!r}")
            try:
                parsed.append(parse(record[key]))
            except (ValueError, OverflowError):
                raise SchemaError(
                    f"line {lineno}: field {key!r} is malformed, got {record[key]!r}"
                ) from None
        start, end, value = parsed
        values.append(value)
        times.append((start, end))
    return values, times


def parse_labels_text(text: str, n_states: int | None = None) -> StateSequence:
    """Parse newline- or comma-separated integers, or timed JSONL labels."""
    stripped = text.strip()
    times = None
    if stripped.startswith("{"):
        labels, times = _timed_jsonl(stripped, "state", lambda v: _number(v, int))
    else:
        tokens = stripped.replace(",", " ").split()
        bad = next(filterfalse(_LABEL_TOKEN.fullmatch, tokens), None)
        if bad is not None:
            raise SchemaError(f"label input contains a non-integer token {bad!r}")
        try:
            labels = [int(tok) for tok in tokens]
        except ValueError as exc:  # more digits than int() converts
            raise SchemaError(f"label input contains a non-integer token: {exc}") from exc
    if not labels:
        raise SchemaError("label input is empty")
    low, high = min(labels), max(labels)
    if low < -(2**63) or high >= 2**63:
        raise SchemaError(f"label {low if low < -(2**63) else high} is outside the int64 range")
    inferred = n_states if n_states is not None else high + 1
    return StateSequence(labels=tuple(labels), n_states=inferred, times=times)


def read_labels(path: str, n_states: int | None = None) -> StateSequence:
    with open(path, "r") as handle:
        return parse_labels_text(handle.read(), n_states)


def labels_to_text(seq: StateSequence) -> str:
    """Timed sequences serialize as JSONL, untimed as newline-separated ints."""
    if seq.times is not None:
        lines = [
            json.dumps(
                {"start_s": start, "end_s": end, "state": label}, sort_keys=True
            )
            for label, (start, end) in zip(seq.labels, seq.times)
        ]
        return "\n".join(lines) + "\n"
    return "\n".join(str(label) for label in seq.labels) + "\n"


def read_embeddings(path: str) -> EmbeddingSet:
    """CSV rows of floats, or JSONL records with start_s/end_s/vector."""
    with open(path, "r") as handle:
        text = handle.read()
    stripped = text.strip()
    if not stripped:
        raise SchemaError(f"{path}: embedding input is empty")
    if stripped[0] == "{":
        rows, times = _timed_jsonl(stripped, "vector", _float_list)
    else:
        rows, times = [], None
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise SchemaError(f"line {lineno}: non-numeric value ({exc})") from exc
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise SchemaError(f"embedding rows have mixed dimensions {sorted(widths)}")
    return EmbeddingSet(
        vectors=np.asarray(rows), times=None if times is None else tuple(times)
    )


def embeddings_to_csv(embeddings: EmbeddingSet) -> str:
    lines = [",".join(repr(float(v)) for v in row) for row in embeddings.vectors]
    return "\n".join(lines) + "\n"


def features_to_csv(rows: np.ndarray, hop_s: float) -> str:
    """One CSV line per feature_matrix row, led by its frame index and time.

    Floats are written with repr, so they read back bit for bit.
    """
    hop_s = float(hop_s)
    names = ["log_energy", "zcr"] + [f"mfcc_{i}" for i in range(rows.shape[1] - 2)]
    lines = [",".join(["frame_index", "time_s"] + names)]
    lines += [
        f"{t},{t * hop_s!r},{','.join(map(repr, row))}" for t, row in enumerate(rows.tolist())
    ]
    return "\n".join(lines) + "\n"


def table_to_csv(session: SessionReport) -> str:
    """The result table: one row group per checked iteration, file id and
    TPE only on a group's first row; the bootstrap gets no group."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["Audio File", "Speaker State", "EPPS (in %)", "TPE (in %)"])
    for record in session.iterations:
        if record.decision is None:
            continue
        report = record.decision.report
        for state in range(session.final_model.n_states):
            writer.writerow(
                [
                    str(record.index) if state == 0 else "",
                    state,
                    f"{report.epps[state]:.2f}" if state in report.epps else "",
                    f"{report.tpe:.2f}" if state == 0 else "",
                ]
            )
    return buffer.getvalue()


def report_to_document(report: EvaluationReport) -> dict:
    """Full-precision report fields; state keys become strings."""
    return {
        "tpe": report.tpe,
        "epps": {str(k): v for k, v in sorted(report.epps.items())},
        "compared_length": report.compared_length,
        "per_state_occurrences": {
            str(k): v for k, v in sorted(report.per_state_occurrences.items())
        },
    }


def session_to_document(session: SessionReport) -> dict:
    """Full-precision session trace for the report JSON."""
    iterations = []
    for record in session.iterations:
        verdict, evaluator = record.decision, record.evaluator
        iterations.append({
            "index": record.index,
            "predicted": list(record.predicted.labels),
            "checked": record.checked,
            "decision": None if verdict is None else verdict.decision.value,
            "report": None if verdict is None else report_to_document(verdict.report),
            "evaluator": None if evaluator is None else {
                "outcome": type(evaluator).__name__, "max_abs_diff": evaluator.max_abs_diff
            },
        })
    return {
        "bootstrap": list(session.bootstrap.labels),
        "iterations": iterations,
        "final_model": model_to_document(session.final_model),
        "mean_tpe": session.mean_tpe(),
    }
