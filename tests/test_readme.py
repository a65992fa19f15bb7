"""README.md names only library code that exists, in the formats the code reads."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import numpy as np

import convstate
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
