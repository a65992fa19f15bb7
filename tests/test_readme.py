"""README.md names only library code that exists, in the formats the code reads."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import convstate
from convstate.cli import build_parser, main
from convstate.controller import SessionConfig
from convstate.markov import Sampled, normalize
from convstate.storage import save_model, session_config_from_document

README = Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = {info.name for info in pkgutil.iter_modules(convstate.__path__)}


def test_backticked_module_references_resolve():
    references = {
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text())
        if module in SUBMODULES
    }
    assert references
    missing = [
        f"{module}.{name}"
        for module, name in sorted(references)
        if not hasattr(importlib.import_module(f"convstate.{module}"), name)
    ]
    assert missing == []


def test_cli_examples_parse():
    """Every command of the CLI block parses, so a deleted flag cannot linger there."""
    block = README.read_text().split("## CLI", 1)[1].split("```bash\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [line.split("#", 1)[0].split() for line in lines if line.strip()]
    assert commands and all(argv[0] == "convstate" for argv in commands)
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_session_config_example_is_read_by_the_one_reader(tmp_path):
    section = README.read_text().split("### Session configs", 1)[1]
    doc = json.loads(section.split("```json\n", 1)[1].split("\n```", 1)[0])
    assert doc["oracle"]["model"] == "truth.json"
    doc["oracle"]["model"] = str(tmp_path / "truth.json")
    save_model(normalize(np.array([[86, 7, 7], [7, 86, 7], [7, 7, 86]])), doc["oracle"]["model"])
    config, n_states, oracle = session_config_from_document(doc)
    assert config == SessionConfig(mode=Sampled(11), seed=11, iterations=7)
    assert n_states is None
    assert next(iter(oracle)).n_states == 3


def test_experiment_recipe_runs_the_session_config(tmp_path, monkeypatch, capsys):
    """The truth.json line of "Experiment scripts" and the session config, run
    by `convstate session`: seven checked iterations with mean TPE 10.62%."""
    text = README.read_text()
    block = text.split("## Experiment scripts", 1)[1].split("```bash\n", 1)[1].split("\n```", 1)[0]
    echo, session = block.splitlines()[:2]
    truth = re.fullmatch(r"echo '(.*)' > truth\.json", echo).group(1)
    assert session.split("#", 1)[0].split() == ["convstate", "session", "session.json"]
    section = text.split("### Session configs", 1)[1]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "truth.json").write_text(truth + "\n")
    (tmp_path / "session.json").write_text(section.split("```json\n", 1)[1].split("\n```", 1)[0])
    code = main(["session", "session.json", "--report-out", "report.json", "--table-out", "table.csv"])
    assert code == 0
    assert len((tmp_path / "table.csv").read_text().splitlines()) == 1 + 7 * 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["mean_tpe"] == pytest.approx(10.62, abs=0.005)
