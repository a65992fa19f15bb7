"""File formats: model JSON, session configs, VAD weights, label files,
embeddings, feature CSV, tables.

Probabilities are never trusted from disk; a loaded model recomputes them
from its counts. All writes go through a temp-file-and-rename so readers
never observe a partial document.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import stat
from contextlib import suppress
from itertools import filterfalse
from types import SimpleNamespace

import numpy as np

from . import frontend, harness
from .clustering import EmbeddingSet
from .controller import (
    CheckerInterval,
    FixedEvery,
    RandomBernoulli,
    SessionConfig,
    SessionReport,
    Thresholds,
)
from .errors import ValidationError
from .markov import (
    Argmax,
    PredictionMode,
    Sampled,
    StateSequence,
    TransitionModel,
    _integer,
    normalize,
)
from .metrics import EvaluationReport

MODEL_VERSION = 1
# A row with no observations is always uniform; the model file names that rule.
_POLICY = "uniform"
# A plain-text label token; int() alone would also take "1_0" and
# non-ASCII digits such as "\u0663".
_LABEL_TOKEN = re.compile(r"[+-]?[0-9]+")
# A plain decimal such as -1.5, .5, 2. or 3e-7; float() alone would also
# take "1_0", "nan", "1e400" (as inf) and non-ASCII digits. An embedding CSV
# cell may have blanks around it.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_DECIMAL_TOKEN = re.compile(rf"[ \t]*{_DECIMAL.pattern}[ \t]*")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so the target is never partial.

    The file gets the mode ``open(path, "w")`` would give it: the target's
    own when it exists, else 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            with suppress(FileNotFoundError):
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
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
        raise ValidationError(f"{where}: expected null or an object with 'kind'")
    kind = doc["kind"]
    if kind == "argmax":
        _object(doc, where, {"kind"})
        return Argmax()
    if kind == "sampled":
        _object(doc, where, {"kind", "seed"})
        seed = doc.get("seed")
        if not is_number(seed, int) or seed < 0:
            raise ValidationError(f"{where}.seed: expected a non-negative integer")
        return Sampled(seed)
    raise ValidationError(f"{where}.kind: unknown mode {kind!r}")


def model_to_document(model: TransitionModel, mode: PredictionMode | None = None) -> dict:
    return {
        "version": MODEL_VERSION,
        "s": model.n_states,
        "counts": [int(c) for c in model.counts.reshape(-1)],
        "policy": _POLICY,
        "mode": mode_to_document(mode),
    }


def model_from_document(doc) -> tuple[TransitionModel, PredictionMode | None]:
    _object(doc, "$", {"version", "s", "counts", "policy", "mode"})
    version = doc.get("version")
    if version is None:
        raise ValidationError("$.version: missing")
    if not is_number(version, int) or version != MODEL_VERSION:
        raise ValidationError(
            f"$.version: unsupported model version {version!r}, expected {MODEL_VERSION}"
        )
    n_states = doc.get("s")
    if not is_number(n_states, int) or n_states < 1:
        raise ValidationError("$.s: expected a positive integer state count")
    counts = doc.get("counts")
    if not isinstance(counts, list) or len(counts) != n_states * n_states:
        raise ValidationError(
            f"$.counts: expected a row-major list of {n_states * n_states} integers"
        )
    limit = np.iinfo(np.int64).max // n_states  # every row total fits in int64
    for flat_index, value in enumerate(counts):
        if not is_number(value, int) or not 0 <= value <= limit:
            row, col = divmod(flat_index, n_states)
            raise ValidationError(
                f"$.counts[{flat_index}] (row {row}, col {col}): expected a "
                f"non-negative integer no larger than {limit}, got {value!r}"
            )
    policy = doc.get("policy")
    if policy != _POLICY:
        raise ValidationError(f"$.policy: expected one of {[_POLICY]}, got {policy!r}")
    mode = mode_from_document(doc.get("mode"))
    matrix = np.asarray(counts, dtype=np.int64).reshape(n_states, n_states)
    return normalize(matrix), mode


def save_model(
    model: TransitionModel, path: str, mode: PredictionMode | None = None
) -> None:
    atomic_write_text(path, json_text(model_to_document(model, mode)) + "\n")


def _read_file(path: str, parse):
    """``parse(text)`` of the UTF-8 text file `path`.

    Bytes that are not UTF-8 are a ValidationError, and one from `parse` is
    raised again with `path: ` in front, so each error names the file once.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    try:
        return parse(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _parse_json(text: str):
    """One JSON document; invalid JSON is a ValidationError."""
    try:
        return json.loads(text)
    except ValueError as exc:  # also an int too long to convert
        raise ValidationError(f"not valid JSON ({exc})") from exc


def load_model(path: str) -> tuple[TransitionModel, PredictionMode | None]:
    """The model in the JSON file `path`; each validation error names the file once."""
    return _read_file(path, lambda text: model_from_document(_parse_json(text)))


def is_number(value, kind: type) -> bool:
    """True for a non-bool int, or, when `kind` is float, also a finite float."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (
        kind is float and isinstance(value, float) and math.isfinite(value)
    )


# The largest weight magnitude read_vad_weights accepts. Every feature_matrix
# entry lies within +-1e3 (log-energies floored at ln 1e-10, about -23; zcr in
# [0, 1]; an orthonormal DCT of floored log mel energies), so a logit's terms
# and their sum stay below 1e305: no dot product overflows to an inf whose sign
# would rest on the BLAS kernel's order of accumulation.
VAD_WEIGHT_BOUND = 1e300


def read_vad_weights(path: str) -> np.ndarray:
    """A JSON list of numbers within +-VAD_WEIGHT_BOUND: one weight per
    feature_matrix column, then the bias."""
    return _read_file(path, lambda text: _vad_weights(_parse_json(text)))


def _vad_weights(weights) -> np.ndarray:
    if not isinstance(weights, list):
        raise ValidationError(
            f"expected a JSON list of finite numbers, got {type(weights).__name__}"
        )
    for i, value in enumerate(weights):
        try:
            weights[i] = _number(value)
        except (ValueError, OverflowError):  # OverflowError: an int too large for a float
            raise ValidationError(
                f"weights[{i}]: expected a finite number, got {json.dumps(value)}"
            ) from None
        if abs(weights[i]) > VAD_WEIGHT_BOUND:
            raise ValidationError(f"weights[{i}]: magnitude must be at most "
                              f"{VAD_WEIGHT_BOUND:g}, got {json.dumps(value)}")
    dim = frontend.N_FEATURES + 1
    if len(weights) != dim:
        raise ValidationError(f"expected {dim} weights (features + bias), got {len(weights)}")
    return np.asarray(weights, dtype=np.float64)


# The keys each object of a session config may hold; any other is an error.
_SESSION_KEYS = {"seed", "mode", "candidate_count", "iterations", "states", "window", "thresholds",
                 "oracle"}
_THRESHOLD_KEYS = {"tpe_threshold", "epps_threshold", "matrix_diff_max", "row_diff_min",
                   "checker_interval"}
_ORACLE_KEYS = {"files": {"kind", "paths"},
                "chain": {"kind", "model", "length", "initial", "seed", "matched", "exact_bootstrap"}}


def _object(value, path: str, known: set) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    for key in value:
        if key not in known:
            raise ValidationError(f"{path}.{json.dumps(key)[1:-1]}: unknown field")
    return value


def _number_field(doc: dict, key: str, default, path: str, kind: type = int,
                  least: int | None = None):
    """doc[key] (default when absent): an integer, by `_integer` with `least`,
    or, when `kind` is float, a positive finite number (an int too).

    A None default makes the field optional: absent or null gives None.
    Values are checked by `is_number` first, so true and 1.0 are not
    integers; a rejected value is a ValidationError at `path`.
    """
    value = doc.get(key, default)
    if value is None and default is None:
        return None
    if kind is float:
        if not (is_number(value, float) and value > 0):
            raise ValidationError(f"{path}: expected a positive finite number, got {value!r}")
        return value
    if not is_number(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    return _integer(value, path, least=least)


def _bool_field(doc: dict, key: str, default: bool, path: str) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{path}: expected true or false, got {value!r}")
    return value


def _path_field(value, path: str, noun: str) -> str:
    """`value` when the OS can open it as a path: a string without NUL."""
    try:
        if b"\0" not in os.fsencode(value):
            return value
    except (TypeError, UnicodeError):  # not a string, or a lone surrogate
        pass
    raise ValidationError(f"{path}: expected a {noun} file path")


def parse_interval(spec: str) -> CheckerInterval:
    """`every`, `fixed:m` or `bernoulli:p` as a checker interval; `m` is read
    as a label token and `p` as a plain decimal, with no blanks around it."""
    if spec == "every":
        return FixedEvery(1)
    kind, _, value = spec.partition(":")
    try:
        if kind == "fixed" and _LABEL_TOKEN.fullmatch(value):
            return FixedEvery(int(value))
        if kind == "bernoulli" and _DECIMAL.fullmatch(value):
            return RandomBernoulli(float(value))
    except ValidationError:
        raise
    except ValueError:
        pass  # more digits than int() converts
    raise ValidationError(
        f"invalid checker interval {spec!r}; expected every, fixed:m, or bernoulli:p"
    )


def _mode_from_name(name, seed: int) -> PredictionMode:
    if name == "argmax":
        return Argmax()
    if name in ("sample", "sampled"):
        return Sampled(seed)
    raise ValidationError(f"$.mode: unknown prediction mode {name!r}")


def _oracle_from_document(spec, iterations: int | None, seed: int):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("$.oracle: expected an object with 'kind'")
    kind = spec["kind"]
    if kind not in ("files", "chain"):
        raise ValidationError(f"$.oracle.kind: unknown oracle kind {kind!r}")
    _object(spec, "$.oracle", _ORACLE_KEYS[kind])
    if kind == "files":
        paths = spec.get("paths")
        if not isinstance(paths, list) or not paths:
            raise ValidationError("$.oracle.paths: expected a non-empty list")
        paths = [_path_field(p, f"$.oracle.paths[{i}]", "label") for i, p in enumerate(paths)]
        return [read_labels(p) for p in paths]
    if iterations is None:
        raise ValidationError("$.iterations: required with a chain oracle, which never runs dry")
    truth, _ = load_model(_path_field(spec.get("model"), "$.oracle.model", "model"))
    length = _number_field(spec, "length", 300, "$.oracle.length", least=1)
    initial = _number_field(spec, "initial", 0, "$.oracle.initial")
    if not 0 <= initial < truth.n_states:
        raise ValidationError(f"$.oracle.initial: state {initial} outside 0..{truth.n_states - 1}")
    seed = _number_field(spec, "seed", seed, "$.oracle.seed", least=0)
    bootstrap = None
    if _bool_field(spec, "exact_bootstrap", False, "$.oracle.exact_bootstrap"):
        bootstrap = harness.sequence_with_exact_counts(truth.counts)
    matched = _bool_field(spec, "matched", True, "$.oracle.matched")
    oracle = harness.matched_chain_oracle if matched else harness.chain_oracle
    return oracle(truth, length, initial, seed, iterations + 1, bootstrap=bootstrap)


def session_config_from_document(doc):
    """The SessionConfig, state count and oracle a session config describes.

    Each setting comes from the document or, when absent, its default. The
    state count is None when the config leaves it to the bootstrap sequence.
    `oracle.seed` defaults to `seed`. A key outside the format is an error.
    """
    doc = _object(doc, "$", _SESSION_KEYS)
    thresholds_doc = _object(doc.get("thresholds", {}), "$.thresholds", _THRESHOLD_KEYS)

    def threshold(key: str):
        default = getattr(Thresholds, key)
        return _number_field(thresholds_doc, key, default, f"$.thresholds.{key}", float)

    interval = thresholds_doc.get("checker_interval", "every")
    if not isinstance(interval, str):
        raise ValidationError(f"$.thresholds.checker_interval: expected a string, got {interval!r}")

    def checker_interval() -> CheckerInterval:
        try:
            return parse_interval(interval)
        except ValidationError as exc:
            raise ValidationError(f"$.thresholds.checker_interval: {exc}") from None

    thresholds = Thresholds(
        tpe_threshold=threshold("tpe_threshold"),
        epps_threshold=threshold("epps_threshold"),
        matrix_diff_max=threshold("matrix_diff_max"),
        row_diff_min=threshold("row_diff_min"),
        checker_interval=checker_interval(),
    )
    seed = _number_field(doc, "seed", SessionConfig.seed, "$.seed", least=0)
    iterations = _number_field(doc, "iterations", None, "$.iterations", least=0)
    n_states = _number_field(doc, "states", None, "$.states", least=1)
    config = SessionConfig(
        thresholds=thresholds,
        mode=_mode_from_name(doc.get("mode", "argmax"), seed),
        seed=seed,
        candidate_count=_number_field(doc, "candidate_count", SessionConfig.candidate_count,
                                      "$.candidate_count", least=1),
        window_len=_number_field(doc, "window", None, "$.window", least=2),
        iterations=iterations,
    )
    return config, n_states, _oracle_from_document(doc.get("oracle"), iterations, seed)


def read_session_config(path: str):
    """session_config_from_document of the JSON document at `path`."""
    return session_config_from_document(_read_file(path, _parse_json))


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
    `parse_field` rejects raises ValidationError naming the line and the field.
    """
    values, times = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"line {lineno}: not valid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ValidationError(f"line {lineno}: expected a JSON object")
        parsed = []
        for key, parse in (("start_s", _number), ("end_s", _number), (field, parse_field)):
            if key not in record:
                raise ValidationError(f"line {lineno}: missing field {key!r}")
            try:
                parsed.append(parse(record[key]))
            except (ValueError, OverflowError):
                raise ValidationError(
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
            raise ValidationError(f"label input contains a non-integer token {bad!r}")
        try:
            labels = [int(tok) for tok in tokens]
        except ValueError as exc:  # more digits than int() converts
            raise ValidationError(f"label input contains a non-integer token: {exc}") from exc
    if not labels:
        raise ValidationError("label input is empty")
    # At least one state, so an all-negative input fails on its first label.
    inferred = n_states if n_states is not None else max(max(labels) + 1, 1)
    return StateSequence(labels=labels, n_states=inferred, times=times)


def read_labels(path: str, n_states: int | None = None) -> StateSequence:
    """The labels in the file `path`; each validation error names the file."""
    return _read_file(path, lambda text: parse_labels_text(text, n_states))


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


def parse_embeddings_text(text: str) -> EmbeddingSet:
    """CSV rows of finite decimal floats, or JSONL records with start_s/end_s/vector."""
    stripped = text.strip()
    if not stripped:
        raise ValidationError("embedding input is empty")
    if stripped[0] == "{":
        rows, times = _timed_jsonl(stripped, "vector", _float_list)
    else:
        rows, times = [], None
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            row = [float(tok) if _DECIMAL_TOKEN.fullmatch(tok) else math.nan for tok in tokens]
            bad = next((tok for tok, v in zip(tokens, row) if not math.isfinite(v)), None)
            if bad is not None:
                raise ValidationError(
                    f"line {lineno}: {bad.strip()!r} is not a finite decimal number"
                )
            rows.append(row)
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValidationError(f"embedding rows have mixed dimensions {sorted(widths)}")
    return EmbeddingSet(
        vectors=np.asarray(rows), times=None if times is None else tuple(times)
    )


def read_embeddings(path: str) -> EmbeddingSet:
    """The embeddings in the file `path`; each validation error names the file."""
    return _read_file(path, parse_embeddings_text)


def embeddings_to_csv(embeddings: EmbeddingSet) -> str:
    lines = [",".join(repr(float(v)) for v in row) for row in embeddings.vectors]
    return "\n".join(lines) + "\n"


def features_to_csv(rows: np.ndarray) -> str:
    """One CSV line per feature_matrix row, led by its frame index and time
    (index * frontend.HOP_S).

    Every float is written with six decimals, byte for byte as ``%.6f``
    would write it. The features come from NumPy's SIMD-dispatched log, cos
    and power and from BLAS, so their last bits follow the host's vector
    extensions; at six decimals those differences (about 1e-15) almost
    never reach a printed digit, so the file has the same bytes on every
    host. Bit-exact features come from frontend.feature_matrix.

    The lines are built by a table-driven writer, _CSV_BLOCK rows at a time
    (see _csv_rows), the blocks spread over frontend._map_blocks and joined
    in order. A block holding a value that writer cannot round exactly (NaN,
    an infinity, a value that rounds to 1e6 or more, or an exact tie at the
    sixth decimal) is written with ``%`` instead.
    """
    names = ["log_energy", "zcr"] + [f"mfcc_{i}" for i in range(rows.shape[1] - 2)]
    header = ",".join(["frame_index", "time_s"] + names) + "\n"
    blocks = frontend._map_blocks(
        lambda start: _csv_rows(rows[start:start + _CSV_BLOCK], start),
        range(0, len(rows), _CSV_BLOCK),
    )
    return header + "".join(blocks)


# Rows per block of the feature-CSV writer: large enough that NumPy's
# per-call cost vanishes, small enough that the block's word buffer stays
# far below the size of the CSV.
_CSV_BLOCK = 2048


@functools.lru_cache(maxsize=1)
def _csv_words() -> SimpleNamespace:
    """The feature-CSV writer's tables of 4-byte NUL-padded ASCII words,
    one uint32 each, indexed by a 3-digit group plus 1000 times a flag."""

    def words(texts) -> np.ndarray:
        return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts), np.uint32)

    lead = [str(k) if k else "" for k in range(1000)]  # a leading group; 0 prints nothing
    bare = [str(k) for k in range(1000)]
    padded = [f"{k:03d}" for k in range(1000)]
    return SimpleNamespace(
        thousands=words(lead + ["-" + t for t in lead]),  # + 1000 * sign
        units=words(bare + padded),  # + 1000 * (thousands > 0)
        milli=words("." + t for t in padded),
        micro=words([t + "," for t in padded] + [t + "\n" for t in padded]),  # + 1000 * last
        index_group=words(lead + padded),  # + 1000 * (a higher group > 0)
        index_units=words([t + "," for t in bare] + [t + "," for t in padded]),
    )


def _csv_rows(rows: np.ndarray, first: int) -> str:
    """features_to_csv's lines for `rows`, whose frame indices start at `first`.

    Each value x is written from N = rint(|x| * 1e6). Below 2**52 every
    half-integer is a double and rounding is monotonic, so the product and
    the exact ``|x| * 10**6`` lie on the same side of every half-integer
    unless the product is one; otherwise N is the correctly rounded
    sixth-decimal integer that ``%.6f`` prints. N splits into 3-digit
    groups, each group picks a word from _csv_words, and the NUL padding is
    dropped. The sign comes from signbit, so -0.0 and -4e-7 print as
    -0.000000. A block holding a value outside that rule (N of 1e12 or
    more, NaN, or a half-integer product) is written with ``%`` instead.
    """
    index = np.arange(first, first + len(rows))
    values = np.column_stack((index * frontend.HOP_S, rows)).astype(np.float64, copy=False)
    n_rows, n_values = values.shape
    with np.errstate(over="ignore", invalid="ignore"):  # NaN and infinities fall back
        scaled = np.abs(values) * 1e6
        rounded = np.rint(scaled)
        exact = (rounded < 1e12) & (scaled - np.floor(scaled) != 0.5)
    if not exact.all():
        line = "%d" + ",%.6f" * n_values + "\n"
        return "".join(line % (i, *row) for i, row in enumerate(values.tolist(), first))
    table = _csv_words()
    whole, fraction = np.divmod(rounded.astype(np.int64), 1_000_000)
    thousands, units = np.divmod(whole, 1000)
    milli, micro = np.divmod(fraction, 1000)
    groups = max(1, -(-len(str(max(first + n_rows - 1, 0))) // 3))
    buffer = np.empty((n_rows, groups + 4 * n_values), np.uint32)
    for g in range(groups):
        scale = 1000 ** (groups - 1 - g)
        higher = index // (scale * 1000) > 0
        words = table.index_units if g == groups - 1 else table.index_group
        buffer[:, g] = words[index // scale % 1000 + 1000 * higher]
    fields = buffer[:, groups:].reshape(n_rows, n_values, 4)
    fields[..., 0] = table.thousands[thousands + 1000 * np.signbit(values)]
    fields[..., 1] = table.units[units + 1000 * (thousands > 0)]
    fields[..., 2] = table.milli[milli]
    micro[:, -1] += 1000
    fields[..., 3] = table.micro[micro]
    flat = buffer.view(np.uint8).reshape(-1)
    return np.compress(flat != 0, flat).tobytes().decode("ascii")


def table_to_csv(session: SessionReport) -> str:
    """The result table: one row group per checked iteration, file id and
    TPE only on a group's first row; the bootstrap gets no group. No field
    holds a comma, quote or line break, so none is quoted."""
    lines = ["Audio File,Speaker State,EPPS (in %),TPE (in %)\n"]
    for record in session.iterations:
        if record.decision is None:
            continue
        report = record.decision.report
        for state in range(session.final_model.n_states):
            fields = (
                str(record.index) if state == 0 else "",
                str(state),
                f"{report.epps[state]:.2f}" if state in report.epps else "",
                f"{report.tpe:.2f}" if state == 0 else "",
            )
            lines.append(",".join(fields) + "\n")
    return "".join(lines)


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
                "outcome": "ProceedNextWindow" if evaluator.proceeded else "FallbackPreviousWindow",
                "max_abs_diff": evaluator.max_abs_diff,
            },
        })
    return {
        "bootstrap": list(session.bootstrap.labels),
        "iterations": iterations,
        "final_model": model_to_document(session.final_model),
        "mean_tpe": session.mean_tpe(),
    }
