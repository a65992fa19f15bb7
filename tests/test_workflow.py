"""The CI workflow's steps: where the benchmark smoke runs and what it gates on,
and what the no-SIMD step and the numpy-only job run."""

import json
import os
import re
import subprocess
import sys

import pytest
import yaml

from convstate.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")


def tier1_step(name):
    with open(WORKFLOW) as handle:
        workflow = yaml.safe_load(handle)
    steps = workflow["jobs"]["tier1"]["steps"]
    return next(step for step in steps if step.get("name") == name)


def smoke_step():
    return tier1_step("Benchmark smoke")


def test_runs_every_workload_traced_on_ubuntu_python_3_11():
    with open(WORKFLOW) as handle:
        entries = yaml.safe_load(handle)["jobs"]["tier1"]["strategy"]["matrix"]["include"]
    step = smoke_step()
    assert step["if"] == "matrix.os == 'ubuntu-latest' && matrix.python-version == '3.11'"
    assert sum(e["os"] == "ubuntu-latest" and e["python-version"] == "3.11" for e in entries) == 1
    assert "for workload in session pipeline vad; do" in step["run"]
    assert ('python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 1'
            in step["run"])


def last_line(correct=True, failed=0, absent=0.0):
    return json.dumps({"correct": correct, "attempted": 3, "failed": failed,
                       "metrics": {"trace.absent_targets": {"value": absent, "unit": "count"}}})


@pytest.mark.parametrize(
    "line, passes",
    [
        (last_line(), True),
        (last_line(correct=False), False),
        (last_line(failed=1), False),
        (last_line(absent=1.0), False),
    ],
)
def test_gate_fails_on_a_failed_check_or_an_absent_target(tmp_path, line, passes):
    program = re.search(r'python3 -c "\n(.*?)\n" ', smoke_step()["run"], re.S).group(1)
    output = tmp_path / "bench.txt"
    output.write_text("metrics header\n" + line + "\n")
    result = subprocess.run([sys.executable, "-c", program, str(output)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode == 0) == passes, result.stdout + result.stderr


def numpy_only_smoke_run():
    with open(WORKFLOW) as handle:
        steps = yaml.safe_load(handle)["jobs"]["numpy-only"]["steps"]
    return next(step for step in steps if step.get("name") == "Smoke run")["run"]


def test_numpy_only_job_smoke_runs_every_command():
    run = numpy_only_smoke_run()
    lines = [line.strip() for line in run.splitlines()]
    for command in ("vad", "diarize", "estimate", "predict", "check", "session",
                    "simulate chain", "simulate embeddings"):
        assert any(line.startswith(f"convstate {command} ") for line in lines), command


def test_numpy_only_job_checks_the_exact_bootstrap_of_both_oracles(tmp_path, monkeypatch, capsys):
    """The job's README sessions, matched and unmatched, run here by cli.main:
    its check passes on their reports and fails on a bootstrap one label short."""
    run = numpy_only_smoke_run()
    truth = re.search(r"^echo '(.*)' > truth\.json$", run, re.M).group(1)
    programs = re.findall(r'^python -c "\n(.*?)\n"$', run, re.S | re.M)
    write = next(p for p in programs if "'exact_bootstrap': True" in p)
    check = next(p for p in programs if "['bootstrap']" in p)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "truth.json").write_text(truth + "\n")
    subprocess.run([sys.executable, "-c", write], check=True, timeout=60)
    assert "for matched in true false; do" in run
    for matched in ("true", "false"):
        assert (f'convstate session "readme-$matched.json" --report-out "readme-report-$matched.json"'
                in run)
        assert main(["session", f"readme-{matched}.json",
                     "--report-out", f"readme-report-{matched}.json"]) == 0
    capsys.readouterr()

    def checked():
        return subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                              timeout=60)

    result = checked()
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((tmp_path / "readme-report-false.json").read_text())
    report["bootstrap"].pop()
    (tmp_path / "readme-report-false.json").write_text(json.dumps(report))
    assert checked().returncode != 0


def test_no_simd_step_runs_the_frontend_classes_that_compare_kernels():
    run = tier1_step("Feature CSV without SIMD")["run"]
    selection = re.search(r'tests/test_frontend\.py -k "([^"]*)"', run).group(1)
    classes = selection.split(" or ")
    assert "TestVadClassify" in classes
    with open(os.path.join(ROOT, "tests", "test_frontend.py")) as handle:
        source = handle.read()
    for name in classes:
        assert f"\nclass {name}:" in source, name
