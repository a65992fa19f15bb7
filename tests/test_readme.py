"""README.md names only library code that exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import convstate

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
