"""File formats: model JSON, label files, embeddings, feature CSV, tables.

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
import tempfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import EmbeddingSet
from .controller import SessionReport
from .errors import SchemaError
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
        if not isinstance(seed, int) or seed < 0:
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
    if version != MODEL_VERSION:
        raise SchemaError(
            f"$.version: unsupported model version {version!r}, expected {MODEL_VERSION}"
        )
    n_states = doc.get("s")
    if not isinstance(n_states, int) or n_states < 1:
        raise SchemaError("$.s: expected a positive integer state count")
    counts = doc.get("counts")
    if not isinstance(counts, list) or len(counts) != n_states * n_states:
        raise SchemaError(
            f"$.counts: expected a row-major list of {n_states * n_states} integers"
        )
    for flat_index, value in enumerate(counts):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            row, col = divmod(flat_index, n_states)
            raise SchemaError(
                f"$.counts[{flat_index}] (row {row}, col {col}): expected a "
                f"non-negative integer, got {value!r}"
            )
    policy_name = doc.get("policy")
    if policy_name not in _POLICY_BY_NAME:
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


def load_model(path: str) -> tuple[TransitionModel, PredictionMode | None]:
    with open(path, "r") as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    return model_from_document(doc)


def is_number(value, kind: type) -> bool:
    """True for a non-bool int, or, when `kind` is float, also a finite float."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (
        kind is float and isinstance(value, float) and math.isfinite(value)
    )


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
    if not stripped:
        raise SchemaError("label input is empty")
    if stripped[0] == "{":
        labels, times = _timed_jsonl(stripped, "state", lambda v: _number(v, int))
        inferred = n_states if n_states is not None else max(labels) + 1
        return StateSequence(labels=tuple(labels), n_states=inferred, times=tuple(times))
    tokens = [tok for tok in stripped.replace(",", " ").split() if tok]
    try:
        labels = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise SchemaError(f"label input contains a non-integer token: {exc}") from exc
    inferred = n_states if n_states is not None else max(labels) + 1
    return StateSequence(labels=tuple(labels), n_states=inferred)


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


def write_labels(seq: StateSequence, path: str) -> None:
    atomic_write_text(path, labels_to_text(seq))


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


def write_embeddings(embeddings: EmbeddingSet, path: str) -> None:
    atomic_write_text(path, embeddings_to_csv(embeddings))


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


@dataclass(frozen=True)
class TableRow:
    """One result-table row group: a file's TPE and per-state EPPS."""

    file_id: int
    tpe: float
    epps: dict[int, float]


def report_table(session: SessionReport) -> list[TableRow]:
    """Row groups for every checked iteration; the bootstrap gets no row."""
    rows = []
    for record in session.iterations:
        if record.decision is None:
            continue
        report = record.decision.report
        rows.append(TableRow(file_id=record.index, tpe=report.tpe, epps=dict(report.epps)))
    return rows


def table_to_csv(rows: Sequence[TableRow], n_states: int) -> str:
    """Mirror the result-table layout: file id and TPE only on a group's first row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["Audio File", "Speaker State", "EPPS (in %)", "TPE (in %)"])
    for row in rows:
        for state in range(n_states):
            epps_cell = f"{row.epps[state]:.2f}" if state in row.epps else ""
            writer.writerow(
                [
                    str(row.file_id) if state == 0 else "",
                    state,
                    epps_cell,
                    f"{row.tpe:.2f}" if state == 0 else "",
                ]
            )
    return buffer.getvalue()


def table_to_json(rows: Sequence[TableRow], n_states: int) -> list[dict]:
    """Presentation form: 2-decimal percentages, null for absent states."""
    out = []
    for row in rows:
        out.append(
            {
                "file_id": row.file_id,
                "tpe": round(row.tpe, 2),
                "epps": {
                    str(state): (round(row.epps[state], 2) if state in row.epps else None)
                    for state in range(n_states)
                },
            }
        )
    return out


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
        entry: dict = {
            "index": record.index,
            "predicted": list(record.predicted.labels),
            "checked": record.checked,
        }
        if record.decision is not None:
            entry["decision"] = record.decision.decision.value
            entry["report"] = report_to_document(record.decision.report)
        else:
            entry["decision"] = None
            entry["report"] = None
        if record.evaluator is not None:
            entry["evaluator"] = {
                "outcome": type(record.evaluator).__name__,
                "max_abs_diff": record.evaluator.max_abs_diff,
            }
        else:
            entry["evaluator"] = None
        iterations.append(entry)
    return {
        "bootstrap": list(session.bootstrap.labels),
        "iterations": iterations,
        "final_model": model_to_document(session.final_model),
        "mean_tpe": session.mean_tpe(),
    }
