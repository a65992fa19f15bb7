import csv
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convstate.cli import main
from convstate.clustering import EmbeddingSet
from convstate.controller import (
    CheckDecision,
    Decision,
    FixedEvery,
    IterationRecord,
    RandomBernoulli,
    SessionConfig,
    SessionReport,
    Thresholds,
    run_session,
)
from convstate import frontend
from convstate.errors import ValidationError
from convstate.frontend import (
    ACCEPTED_RATES,
    HOP_S,
    AudioBuffer,
    extract_features,
    feature_matrix,
)
from convstate.harness import chain_oracle, matched_chain_oracle
from convstate.markov import (
    Argmax,
    Sampled,
    StateSequence,
    normalize,
)
from convstate.metrics import EvaluationReport
from convstate.storage import (
    _CSV_BLOCK,
    _csv_rows,
    _csv_words,
    atomic_write_text,
    embeddings_to_csv,
    features_to_csv,
    is_number,
    json_text,
    labels_to_text,
    load_model,
    model_from_document,
    model_to_document,
    parse_interval,
    parse_labels_text,
    read_embeddings,
    read_labels,
    save_model,
    session_config_from_document,
    session_to_document,
    table_to_csv,
)


@pytest.fixture
def model():
    return normalize(np.array([[5, 2, 1], [0, 3, 3], [1, 1, 4]]))


def csv_writer_features(features):
    """The feature CSV through csv.writer: every float with six decimals."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["frame_index", "time_s", "log_energy", "zcr"] + [f"mfcc_{i}" for i in range(13)]
    )
    for index, feat in enumerate(features):
        values = [index * HOP_S, *feat.row.tolist()]
        writer.writerow([index] + [f"{v:.6f}" for v in values])
    return buffer.getvalue()


def test_failed_write_removes_its_temp_file_and_keeps_the_target(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        atomic_write_text(str(target), "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert target.read_text() == "old\n"


class TestModelPersistence:
    def test_round_trip_counts_exact(self, model, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(model, path, mode=Sampled(7))
        loaded, mode = load_model(path)
        assert loaded.counts.tolist() == model.counts.tolist()
        assert loaded.n_states == 3
        assert json.loads(Path(path).read_text())["policy"] == "uniform"
        assert mode == Sampled(7)

    def test_probs_recomputed_not_trusted(self, model, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(model, path)
        doc = json.loads(Path(path).read_text())
        assert "probs" not in doc
        loaded, _ = load_model(path)
        assert np.abs(loaded.probs.sum(axis=1) - 1).max() < 1e-9

    def test_truncated_file_is_parse_error(self, model, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(model, path)
        text = Path(path).read_text()
        Path(path).write_text(text[: len(text) // 2])
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_model(path)

    def test_negative_count_names_cell(self, model):
        doc = model_to_document(model)
        doc["counts"][5] = -2
        with pytest.raises(ValidationError, match=r"counts\[5\] \(row 1, col 2\)"):
            model_from_document(doc)

    def test_version_mismatch(self, model):
        doc = model_to_document(model)
        doc["version"] = 99
        with pytest.raises(ValidationError, match="version"):
            model_from_document(doc)

    def test_missing_version(self, model):
        doc = model_to_document(model)
        del doc["version"]
        with pytest.raises(ValidationError, match="version"):
            model_from_document(doc)

    @pytest.mark.parametrize(
        "field, value, states, message",
        [
            ("s", True, 1, "$.s: expected a positive integer"),
            ("version", True, 3, "$.version: unsupported model version True"),
            ("version", 1.0, 3, "$.version: unsupported model version 1.0"),
            ("mode", {"kind": "sampled", "seed": True}, 3, "$.mode.seed: expected"),
            ("policy", ["uniform"], 3, "$.policy: expected one of"),
            ("counts", [2**63], 1, "$.counts[0] (row 0, col 0): expected a non-negative"),
            ("mdoe", {"kind": "sampled", "seed": 3}, 3, "$.mdoe: unknown field"),
            ("mode", {"kind": "argmax", "junk": 1}, 3, "$.mode.junk: unknown field"),
            ("mode", {"kind": "sampled", "seed": 3, "junk": 1}, 3, "$.mode.junk: unknown field"),
        ],
        ids=["s-bool", "version-bool", "version-float", "seed-bool", "policy-list", "count-huge",
             "misspelled-mode", "argmax-extra-key", "sampled-extra-key"],
    )
    def test_mistyped_field_is_schema_error(self, field, value, states, message):
        doc = model_to_document(normalize(np.ones((states, states), dtype=int)))
        doc[field] = value
        with pytest.raises(ValidationError, match=re.escape(message)):
            model_from_document(doc)

    def test_wrong_counts_length(self, model):
        doc = model_to_document(model)
        doc["counts"] = doc["counts"][:-1]
        with pytest.raises(ValidationError, match="9 integers"):
            model_from_document(doc)

    def test_error_policy_file_is_rejected(self, tmp_path, capsys):
        """A row with no observations is always uniform; a model file that
        names any other rule is a schema error, and `predict` says so in one
        line."""
        doc = model_to_document(normalize(np.array([[2, 0], [0, 0]])))
        doc["policy"] = "error"
        path = str(tmp_path / "model.json")
        atomic_write_text(path, json.dumps(doc))
        message = f"{path}: $.policy: expected one of ['uniform'], got 'error'"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_model(path)
        assert main(["predict", path, "--initial", "1", "--length", "5"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    def test_argmax_mode_round_trip(self, model, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(model, path, mode=Argmax())
        _, mode = load_model(path)
        assert mode == Argmax()


class TestLabelIo:
    def test_newline_round_trip(self, tmp_path):
        path = str(tmp_path / "labels.txt")
        seq = StateSequence(labels=(0, 2, 1, 1), n_states=3)
        atomic_write_text(path, labels_to_text(seq))
        loaded = read_labels(path)
        assert loaded.labels == seq.labels
        assert loaded.n_states == 3

    def test_comma_separated_accepted(self):
        seq = parse_labels_text("0, 1, 2,2\n1")
        assert seq.labels == (0, 1, 2, 2, 1)

    def test_timed_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "labels.jsonl")
        seq = StateSequence(
            labels=(0, 1), n_states=2, times=((0.0, 0.4), (0.4, 0.8))
        )
        atomic_write_text(path, labels_to_text(seq))
        loaded = read_labels(path)
        assert loaded.labels == seq.labels
        assert loaded.times == seq.times

    def test_timed_jsonl_skips_blank_lines(self):
        record = '{"start_s": %d, "end_s": %d, "state": %d}'
        seq = parse_labels_text(record % (0, 1, 1) + "\n\n  \n" + record % (1, 2, 0) + "\n")
        assert (seq.labels, seq.times) == ((1, 0), ((0.0, 1.0), (1.0, 2.0)))

    def test_non_integer_token(self):
        with pytest.raises(ValidationError, match="non-integer"):
            parse_labels_text("0 1 x 2")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("0 1_0", "non-integer token '1_0'"),
            ("0 \u0663", "non-integer token '\u0663'"),
            ("0 1.0", "non-integer token '1.0'"),
            ("0 --1", "non-integer token '--1'"),
            (f"0 {10**30}", re.escape(f"label {10**30} at index 1 outside 0..{2**63 - 1}")),
            (f"{-(2**63) - 1} 0", re.escape(f"label {-(2**63) - 1} at index 0 outside 0..0")),
            (f"0 {2**63}", re.escape(f"label {2**63} at index 1 outside 0..{2**63 - 1}")),
            ("0 " + "9" * 5000, "non-integer token"),
            (
                json.dumps({"start_s": 0, "end_s": 1, "state": 10**30}),
                re.escape(f"label {10**30} at index 0 outside 0..{2**63 - 1}"),
            ),
            (", ,", "empty"),
        ],
        ids=[
            "underscore", "arabic-indic-digit", "decimal", "double-sign", "10**30",
            "below-int64", "above-int64", "over-int-digit-limit", "jsonl-10**30",
            "separators-only",
        ],
    )
    def test_labels_are_ascii_int64(self, text, match):
        with pytest.raises(ValidationError, match=match):
            parse_labels_text(text)

    def test_signed_and_zero_padded_tokens(self):
        assert parse_labels_text(f"+1,007 -0\n{2**63 - 1}", n_states=2**63).labels == (
            1, 7, 0, 2**63 - 1,
        )

    def test_empty_input(self):
        with pytest.raises(ValidationError, match="empty"):
            parse_labels_text("   \n ")

    def test_explicit_state_count_override(self):
        seq = parse_labels_text("0 1", n_states=5)
        assert seq.n_states == 5


class TestEmbeddingIo:
    def test_csv_round_trip(self, tmp_path):
        emb = EmbeddingSet(np.array([[1.5, -2.25], [0.125, 3.0]]))
        path = str(tmp_path / "emb.csv")
        Path(path).write_text(embeddings_to_csv(emb))
        loaded = read_embeddings(path)
        assert np.array_equal(loaded.vectors, emb.vectors)

    def test_jsonl_with_times(self, tmp_path):
        path = str(tmp_path / "emb.jsonl")
        lines = [
            json.dumps({"start_s": 0.0, "end_s": 0.4, "vector": [1.0, 0.0]}),
            json.dumps({"start_s": 0.4, "end_s": 0.8, "vector": [0.0, 1.0]}),
        ]
        Path(path).write_text("\n".join(lines))
        loaded = read_embeddings(path)
        assert loaded.times == ((0.0, 0.4), (0.4, 0.8))
        assert loaded.vectors.shape == (2, 2)

    @pytest.mark.parametrize(
        "text, message",
        [("1.0,2.0\n3.0\n", "embedding rows have mixed dimensions [1, 2]"),
         (" \n", "embedding input is empty")],
        ids=["mixed", "empty"],
    )
    def test_error_names_the_file_once(self, tmp_path, text, message):
        path = str(tmp_path / "emb.csv")
        Path(path).write_text(text)
        with pytest.raises(ValidationError) as info:
            read_embeddings(path)
        assert str(info.value) == f"{path}: {message}"

    def test_csv_blank_line_between_rows_skipped(self, tmp_path):
        path = str(tmp_path / "emb.csv")
        Path(path).write_text("1.0,2.0\n\n3.0,4.0\n")
        assert read_embeddings(path).vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_missing_field_rejected(self, tmp_path):
        path = str(tmp_path / "emb.jsonl")
        Path(path).write_text(json.dumps({"start_s": 0.0, "vector": [1.0]}))
        with pytest.raises(ValidationError, match="end_s"):
            read_embeddings(path)


@pytest.mark.parametrize(
    "reader, lines, match",
    [
        ("labels", [{"start_s": 0, "end_s": 1, "state": "x"}], "line 1: field 'state'"),
        ("labels", [{"start_s": 0, "end_s": 1, "state": None}], "line 1: field 'state'"),
        ("labels", [{"start_s": 0, "end_s": 1, "state": 1e400}], "line 1: field 'state'"),
        (
            "labels",
            [{"start_s": 0, "end_s": 1, "state": 0}, {"start_s": "a", "end_s": 2, "state": 1}],
            "line 2: field 'start_s'",
        ),
        ("labels", [{"start_s": 0, "end_s": 1, "state": 0}, [0, 1, 0]], "line 2: expected a JSON"),
        ("embeddings", [{"start_s": 0, "end_s": 1, "vector": ["a", 1]}], "line 1: field 'vector'"),
        ("embeddings", [{"start_s": 0, "end_s": 1, "vector": "12"}], "line 1: field 'vector'"),
        ("embeddings", [{"start_s": 0, "end_s": [1], "vector": [1]}], "line 1: field 'end_s'"),
        (
            "embeddings",
            [{"start_s": 0, "end_s": 1, "vector": [1, 2]}, {"start_s": 1, "end_s": 2, "vector": [1]}],
            "mixed dimensions",
        ),
        # Values are type-checked, not converted.
        ("labels", [{"start_s": 0, "end_s": 1, "state": 1.7}], "line 1: field 'state'"),
        ("labels", [{"start_s": 0, "end_s": 1, "state": 1.0}], "line 1: field 'state'"),
        ("labels", [{"start_s": 0, "end_s": 1, "state": True}], "line 1: field 'state'"),
        ("labels", [{"start_s": 0, "end_s": 1, "state": "1"}], "line 1: field 'state'"),
        ("labels", [{"start_s": float("nan"), "end_s": 1, "state": 0}], "line 1: field 'start_s'"),
        ("labels", [{"start_s": 0, "end_s": float("inf"), "state": 0}], "line 1: field 'end_s'"),
        ("labels", [{"start_s": False, "end_s": 1, "state": 0}], "line 1: field 'start_s'"),
        ("labels", [{"start_s": "0", "end_s": 1, "state": 0}], "line 1: field 'start_s'"),
        ("labels", [{"start_s": 0, "end_s": 10**400, "state": 0}], "line 1: field 'end_s'"),
        ("embeddings", [{"start_s": 0, "end_s": 1, "vector": [1, True]}], "line 1: field 'vector'"),
        (
            "embeddings",
            [{"start_s": 0, "end_s": 1, "vector": [float("nan"), 1]}],
            "line 1: field 'vector'",
        ),
        ("embeddings", [{"start_s": 0, "end_s": 1, "vector": ["1.5"]}], "line 1: field 'vector'"),
        (
            "embeddings",
            [{"start_s": 0, "end_s": 1, "vector": [1]}, {"start_s": 1, "end_s": float("nan"),
                                                        "vector": [1]}],
            "line 2: field 'end_s'",
        ),
    ],
)
def test_malformed_jsonl_record_names_line_and_field(tmp_path, reader, lines, match):
    path = tmp_path / "input.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    read = read_labels if reader == "labels" else read_embeddings
    with pytest.raises(ValidationError, match=re.escape(match)):
        read(str(path))


def test_jsonl_numbers_keep_their_values(tmp_path):
    """Ints are accepted for times and vector entries and become floats."""
    labels = tmp_path / "labels.jsonl"
    labels.write_text(
        '{"start_s": 0, "end_s": 1, "state": 2}\n{"start_s": 1, "end_s": 2.5, "state": 0}\n'
    )
    seq = read_labels(str(labels))
    assert seq.labels == (2, 0) and seq.times == ((0.0, 1.0), (1.0, 2.5))
    assert all(type(t) is float for pair in seq.times for t in pair)
    embeddings = tmp_path / "emb.jsonl"
    embeddings.write_text(
        '{"start_s": 0, "end_s": 1, "vector": [1, -2.5]}\n'
        '{"start_s": 1, "end_s": 2, "vector": [0.5, 3]}\n'
    )
    loaded = read_embeddings(str(embeddings))
    assert loaded.vectors.tolist() == [[1.0, -2.5], [0.5, 3.0]]
    assert loaded.times == ((0.0, 1.0), (1.0, 2.0))


@pytest.mark.parametrize(
    "value, kind, accepted",
    [
        (3, int, True), (-2, int, True), (2**70, int, True), (3, float, True),
        (2.5, float, True), (2.0, int, False), (True, int, False), (False, float, False),
        ("3", int, False), (None, float, False), (float("nan"), float, False),
        (float("inf"), float, False), (2**70, float, True), ([1], float, False),
    ],
)
def test_is_number(value, kind, accepted):
    assert is_number(value, kind) is accepted


def percent_lines(rows, first=0):
    """features_to_csv's lines below the header, one ``%`` per line."""
    line = "%d" + ",%.6f" * (rows.shape[1] + 1) + "\n"
    return "".join(line % (i, i * HOP_S, *row) for i, row in enumerate(rows.tolist(), first))


# Values the six-decimal writer must round like %.6f, or leave to it.
CSV_FLOATS = st.one_of(
    st.floats(),  # NaN, both infinities, -0.0, subnormals and huge values
    st.floats(-2e6, 2e6),
    st.sampled_from([-0.0, -4e-7, 4e-7, -5e-7, 1e6, -1e6, 999999.9999995, 999999.9999994]),
    st.integers(-(2**27), 2**27).map(lambda k: (2 * k + 1) / 128),  # exact ties
    st.tuples(st.integers(-(10**12), 10**12), st.floats(-1e-7, 1e-7)).map(
        lambda pair: (pair[0] + 0.5) / 1e6 + pair[1]  # within 1e-7 of a half-micro
    ),
    st.tuples(st.integers(-(10**12), 10**12), st.integers(-3, 3)).map(
        lambda pair: (pair[0] + 0.5) / 1e6 + pair[1] * math.ulp((pair[0] + 0.5) / 1e6)
    ),  # a few ulps from a half-micro
)


class TestFeaturesCsv:
    @given(
        n_rows=st.sampled_from([0, 1, 2, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1]),
        n_columns=st.integers(0, 16),
        pool=st.lists(CSV_FLOATS, min_size=1, max_size=40),
        share=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_percent_per_line(self, n_rows, n_columns, pool, share, seed):
        # Features of every magnitude, a share of them replaced by drawn values.
        rng = np.random.default_rng(seed)
        shape = (n_rows, n_columns)
        rows = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 5, shape)
        drawn = rng.random(shape) < share
        rows[drawn] = rng.choice(pool, np.count_nonzero(drawn))
        header, body = features_to_csv(rows).split("\n", 1)
        assert header.startswith("frame_index,time_s")
        assert body == percent_lines(rows)

    @given(
        first=st.one_of(
            st.sampled_from([999, 10**6 - 1, 10**6, 10**9 - 2, 10**12]),
            st.integers(0, 2**53 - 8),
        ),
        rows=st.lists(st.lists(CSV_FLOATS, min_size=3, max_size=3), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_frame_indices_past_a_million(self, first, rows):
        rows = np.array(rows)
        assert _csv_rows(rows, first) == percent_lines(rows, first)

    @given(
        ties=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(-(2**26), 2**26).map(lambda k: (2 * k + 1) / 128),  # exact ties
                    st.integers(-(10**12), 10**12 - 1).map(lambda n: (n + 0.5) / 1e6),
                ),
                st.sampled_from([-math.inf, None, math.inf]),  # a neighbour, or the value
            ),
            min_size=1, max_size=12,
        ),
        n_rows=st.sampled_from([1, 7, _CSV_BLOCK + 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_ties_and_neighbours_match_percent(self, ties, n_rows, seed):
        # Values on or next to a tie at the sixth decimal, in rows among
        # ordinary ones, in the first block or the second.
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n_rows, 5)) * 100.0
        for value, toward in ties:
            cell = rng.integers(n_rows), rng.integers(5)
            rows[cell] = value if toward is None else math.nextafter(value, toward)
        assert features_to_csv(rows).split("\n", 1)[1] == percent_lines(rows)

    def test_bytes_do_not_depend_on_thread_count(self, use_cpus):
        # Three full blocks and a partial one, the second written with ``%``
        # for its NaN; the blocks are joined in order whatever the threads.
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((3 * _CSV_BLOCK + 5, 15)) * 10.0
        rows[_CSV_BLOCK + 17, 4] = np.nan
        texts, helpers = {}, {}
        helpers[1] = use_cpus(1)
        texts[1] = features_to_csv(rows)
        # One thread per block, switching often, and the writer's tables
        # filled by whichever thread comes first.
        helpers[4] = use_cpus(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _csv_words.cache_clear()
            texts[4] = features_to_csv(rows)
        finally:
            sys.setswitchinterval(interval)
        assert helpers == {1: [], 4: [3]}
        assert texts[1] == texts[4]
        assert texts[1].split("\n", 1)[1] == percent_lines(rows)
        assert "nan" in texts[1].splitlines()[_CSV_BLOCK + 18]

    def test_header_and_rows(self):
        rows = np.concatenate(([-1.5, 0.25], np.arange(13, dtype=float)))[None, :]
        text = features_to_csv(rows)
        lines = text.splitlines()
        assert lines[0].startswith("frame_index,time_s,log_energy,zcr,mfcc_0")
        assert lines[0].endswith("mfcc_12")
        assert lines[1].split(",")[2] == "-1.500000"


    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(0, 3000),
        rate=st.sampled_from(ACCEPTED_RATES),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_the_csv_writer_serializer(self, seed, length, rate):
        samples = np.random.default_rng(seed).uniform(-1, 1, length + 1)
        audio = AudioBuffer(samples, rate)
        matrix = feature_matrix(audio)
        text = features_to_csv(matrix)
        assert text == csv_writer_features(extract_features(audio))
        # Each field reads back to within half a unit of the sixth decimal.
        parsed = np.array(
            [line.split(",") for line in text.splitlines()[1:]], dtype=float
        ).reshape(len(matrix), 17)
        index = np.arange(len(matrix))
        expected = np.column_stack((index, index * HOP_S, matrix))
        assert np.all(np.abs(parsed - expected) <= 5e-7 + np.spacing(np.abs(expected)))


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63),  # beyond int64
    st.floats(),  # NaN, both infinities and -0.0 included
    st.text(),
    st.sampled_from(['", "', ", ", "[1, 2]", "{\"a\": 1}", '"', "\\", "é", "日本", "\n"]),
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=6),
        st.lists(st.lists(st.integers() | st.floats(), max_size=4), max_size=4),
    ),
    max_leaves=40,
)


class TestJsonText:
    @given(doc=JSON_TREES)
    @settings(max_examples=300, deadline=None)
    def test_matches_indented_json_dumps(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [{1: 2}, {"a": {0: [1]}}, [{None: 1}]])
    def test_rejects_non_str_keys(self, doc):
        with pytest.raises(TypeError, match="keys must be str"):
            json_text(doc)


def one_row_session(file_id: int, tpe: float, epps: dict, n_states: int) -> SessionReport:
    """A session whose only checked iteration scored `tpe` and `epps`."""
    labels = StateSequence(labels=(0,), n_states=n_states)
    report = EvaluationReport(tpe=tpe, epps=epps, compared_length=1, per_state_occurrences={})
    checked = IterationRecord(file_id, labels, True, CheckDecision(Decision.ACCEPT, report), None)
    unchecked = IterationRecord(file_id + 1, labels, False, None, None)
    final = normalize(np.zeros((n_states, n_states), dtype=int))
    return SessionReport(bootstrap=labels, iterations=(checked, unchecked), final_model=final)


class TestTable:
    def test_csv_mirrors_result_table_layout(self):
        text = table_to_csv(one_row_session(1, 9.58, {0: 8.57, 1: 7.14, 2: 20.0}, 3))
        assert text.splitlines() == [
            "Audio File,Speaker State,EPPS (in %),TPE (in %)",
            "1,0,8.57,9.58",
            ",1,7.14,",
            ",2,20.00,",
        ]

    def test_absent_state_blank_cell_and_null_json(self):
        text = table_to_csv(one_row_session(2, 10.0, {0: 10.0}, 2))
        assert text.splitlines()[1:] == ["2,0,10.00,10.00", ",1,,"]

    @given(
        file_id=st.integers(0, 10**6),
        tpe=st.floats(0, 100),
        epps=st.lists(st.floats(0, 100), max_size=4),
        n_states=st.integers(1, 4),
    )
    def test_matches_the_csv_writer(self, file_id, tpe, epps, n_states):
        # No field needs quoting, so joining by hand gives csv.writer's bytes.
        session = one_row_session(file_id, tpe, dict(enumerate(epps)), n_states)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["Audio File", "Speaker State", "EPPS (in %)", "TPE (in %)"])
        for state in range(n_states):
            writer.writerow([
                file_id if state == 0 else "",
                state,
                f"{epps[state]:.2f}" if state < len(epps) else "",
                f"{tpe:.2f}" if state == 0 else "",
            ])
        assert table_to_csv(session) == buffer.getvalue()

    def test_rounding_only_at_emission(self):
        session = one_row_session(1, 100 / 3, {0: 200 / 3}, 1)
        report = session.iterations[0].decision.report
        assert report.tpe != round(report.tpe, 2)
        text = table_to_csv(session)
        assert "33.33" in text and "66.67" in text


class TestSessionDocument:
    def test_trace_and_table_from_session(self):
        cycle = normalize(np.array([[0, 4, 0], [0, 0, 4], [4, 0, 0]]))
        oracle = chain_oracle(cycle, length=12, initial=0, seed=1, iterations=4)
        report = run_session(oracle, SessionConfig(seed=1, iterations=3))
        doc = session_to_document(report)
        assert len(doc["iterations"]) == 3
        assert doc["mean_tpe"] == 0.0
        assert doc["final_model"]["s"] == 3
        rows = [line.split(",") for line in table_to_csv(report).splitlines()[1:]]
        assert [row[0] for row in rows[::3]] == ["1", "2", "3"]
        assert all(row[3] == "0.00" for row in rows[::3])


class TestModeDocument:
    def test_unknown_mode_kind(self, model):
        doc = model_to_document(model)
        doc["mode"] = {"kind": "roulette"}
        with pytest.raises(ValidationError, match="roulette"):
            model_from_document(doc)

    def test_sampled_requires_seed(self, model):
        doc = model_to_document(model)
        doc["mode"] = {"kind": "sampled"}
        with pytest.raises(ValidationError, match="seed"):
            model_from_document(doc)


class TestSessionConfigDocument:
    @pytest.fixture
    def truth_path(self, tmp_path):
        path = str(tmp_path / "truth.json")
        save_model(normalize(np.array([[8, 1, 1], [1, 8, 1], [1, 1, 8]])), path)
        return path

    def test_defaults(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 1 0\n")
        doc = {"oracle": {"kind": "files", "paths": [str(path)]}}
        config, n_states, oracle = session_config_from_document(doc)
        assert config == SessionConfig()
        assert n_states is None
        assert [seq.labels for seq in oracle] == [(0, 1, 0)]

    def test_document_beats_default(self, truth_path):
        doc = {
            "seed": 4, "mode": "sampled", "window": 10, "states": 3, "iterations": 2,
            "thresholds": {"tpe_threshold": 10, "checker_interval": "fixed:2"},
            "oracle": {"kind": "chain", "model": truth_path, "length": 20},
        }
        config, n_states, oracle = session_config_from_document(doc)
        assert (config.seed, config.mode, config.window_len, n_states) == (4, Sampled(4), 10, 3)
        assert config.thresholds == Thresholds(tpe_threshold=10, checker_interval=FixedEvery(2))
        # oracle.seed defaults to the document's seed.
        truth, _ = load_model(truth_path)
        expected = matched_chain_oracle(truth, 20, 0, 4, 3)
        assert [seq.labels for seq in oracle] == [seq.labels for seq in expected]

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"outputs": {"report_json": "r.json"}}, "$.outputs: unknown field"),
            ({"thresholds": {"tpe_treshold": 5}}, "$.thresholds.tpe_treshold: unknown field"),
            ({"oracle": {"lenght": 30}}, "$.oracle.lenght: unknown field"),
            ({"oracle": {"kind": "files", "paths": ["l.txt"]}}, "$.oracle.model: unknown field"),
            ({"oracle": {"a\nb": 1}}, "$.oracle.a\\nb: unknown field"),
            ({"oracle": {"matched": "no"}}, "$.oracle.matched: expected true or false, got 'no'"),
            (
                {"oracle": {"exact_bootstrap": 1}},
                "$.oracle.exact_bootstrap: expected true or false, got 1",
            ),
            ({"seed": -1}, "$.seed must be >= 0, got -1"),
            ({"oracle": {"seed": -1}}, "$.oracle.seed must be >= 0, got -1"),
            ({"oracle": {"model": "a\0b"}}, "$.oracle.model: expected a model file path"),
            ({"mode": "roulette"}, "$.mode: unknown prediction mode 'roulette'"),
            ([], "$: expected a JSON object"),
            (
                {"iterations": None},
                "$.iterations: required with a chain oracle, which never runs dry",
            ),
            ({"oracle": {"length": 0}}, "$.oracle.length must be >= 1, got 0"),
            ({"oracle": {"length": -3}}, "$.oracle.length must be >= 1, got -3"),
            ({"window": 1}, "$.window must be >= 2, got 1"),
            ({"window": 2.5}, "$.window: expected an integer, got 2.5"),
            ({"states": True}, "$.states: expected an integer, got True"),
            ({"oracle": {"initial": 3}}, "$.oracle.initial: state 3 outside 0..2"),
            ({"oracle": {"initial": -1}}, "$.oracle.initial: state -1 outside 0..2"),
            (
                {"oracle": {"initial": 5, "exact_bootstrap": True}},
                "$.oracle.initial: state 5 outside 0..2",
            ),
        ],
        ids=[
            "outputs", "threshold-typo", "oracle-typo", "chain-key-in-files-oracle",
            "key-with-newline", "matched-string", "exact-bootstrap-int", "seed-negative",
            "oracle-seed-negative", "model-path-nul", "mode-unknown", "not-an-object",
            "chain-without-iterations", "length-zero", "length-negative", "window-one",
            "window-float", "states-bool", "initial-too-high",
            "initial-negative", "initial-with-exact-bootstrap",
        ],
    )
    def test_rejected_field(self, truth_path, edit, message):
        doc = {"iterations": 1, "oracle": {"kind": "chain", "model": truth_path}}
        if isinstance(edit, dict):
            for key, value in edit.items():
                if isinstance(value, dict) and key in doc:
                    doc[key].update(value)
                else:
                    doc[key] = value
        else:
            doc = edit
        with pytest.raises(ValidationError) as excinfo:
            session_config_from_document(doc)
        assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "spec, interval",
    [
        ("every", FixedEvery(1)),
        ("fixed:3", FixedEvery(3)),
        ("bernoulli:0.25", RandomBernoulli(0.25)),
        ("fixed:+4", FixedEvery(4)),
        ("bernoulli:.5", RandomBernoulli(0.5)),
        ("bernoulli:1e-1", RandomBernoulli(0.1)),
    ],
)
def test_parse_interval(spec, interval):
    assert parse_interval(spec) == interval


@pytest.mark.parametrize(
    "spec",
    [
        "bernoulli:0.5:3", "bernoulli:", "fixed:x", "sometimes",
        # Each number is read by the rule every other number of a config
        # follows: no underscores, non-ASCII digits or surrounding blanks.
        "fixed:1_0", "fixed:\u0665", "fixed: 5", "fixed:5 ", "fixed:", "fixed:2.0",
        "fixed:" + "9" * 5000,
        "bernoulli:0_5", "bernoulli:\u0660.5", "bernoulli: 0.5", "bernoulli:0.5\t",
        "bernoulli:nan", "bernoulli:inf",
    ],
)
def test_parse_interval_rejects(spec):
    with pytest.raises(ValidationError, match="invalid checker interval"):
        parse_interval(spec)
