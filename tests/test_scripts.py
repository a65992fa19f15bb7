"""The example scripts run end to end against the package in src/."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, last_line_prefix",
    [
        ("diarization_demo.py", "prediction "),
        ("run_synthetic_session.py", "session-mean TPE:"),
    ],
)
def test_script_runs(script, last_line_prefix):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].startswith(last_line_prefix)
