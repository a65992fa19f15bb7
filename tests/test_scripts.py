"""The example scripts run end to end against the package in src/."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_diarization_demo_recovers_the_speakers():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "diarization_demo.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "diarized 120 segments into 3 states" in lines
    accuracy = re.search(r", label accuracy (\d\.\d+)$", result.stdout, re.MULTILINE)
    assert accuracy is not None and float(accuracy.group(1)) >= 0.95
    assert lines[-1].startswith("prediction ")
