"""The CI workflow's steps: where the benchmark smoke runs and what it gates on,
what the no-SIMD step and the numpy-only job run, and that the whole suite
collects without scipy."""

import json
import os
import re
import shlex
import subprocess
import sys

import pytest
import yaml

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


def test_numpy_only_job_runs_the_whole_suite_without_scipy():
    with open(WORKFLOW) as handle:
        steps = yaml.safe_load(handle)["jobs"]["numpy-only"]["steps"]
    runs = [step["run"] for step in steps if "run" in step]
    installs = [line for run in runs for line in run.splitlines() if "pip install" in line]
    assert installs
    # The test extra would pull scipy in as the references' dependency.
    assert not any("scipy" in line or "[test]" in line for line in installs)
    assert not any("python -c" in run for run in runs)
    (suite,) = [run for run in runs if "python -m pytest" in run]
    assert not any(arg.startswith(("--ignore", "--deselect", "-k")) for arg in shlex.split(suite))


def test_every_test_module_collects_without_scipy():
    # What the numpy-only job needs: scipy's references load where they are
    # used, so no module fails to collect, or skips whole, without scipy.
    program = ("import sys; sys.modules['scipy'] = None; import pytest; "
               "sys.exit(pytest.main(['--collect-only', '-qq', '-rs', '-p', 'no:cacheprovider', "
               "'tests', 'perfbench']))")
    result = subprocess.run([sys.executable, "-c", program], cwd=ROOT, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "SKIPPED" not in result.stdout, result.stdout


def test_no_simd_step_runs_the_frontend_classes_that_compare_kernels():
    run = tier1_step("Feature CSV without SIMD")["run"]
    selection = re.search(r'tests/test_frontend\.py -k "([^"]*)"', run).group(1)
    classes = selection.split(" or ")
    assert {"TestVadClassify", "TestFeatureBlockThreads", "TestFrameViews"} <= set(classes)
    assert "tests/test_storage.py -k TestFeaturesCsv" in run
    with open(os.path.join(ROOT, "tests", "test_frontend.py")) as handle:
        source = handle.read()
    for name in classes:
        assert f"\nclass {name}:" in source, name
