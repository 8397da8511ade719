"""Each experiment script in scripts/ runs to completion on a tiny design."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT_RUNS = [
    pytest.param("run_model_demo.py", ["--n", "8", "--r", "41"], id="model_demo"),
    pytest.param("run_model_demo.py", ["--n", "8", "--r", "41", "--noise", "0.1"], id="model_demo_noisy"),
    pytest.param(
        "run_breakdown_grid.py",
        ["--cs", "1.0", "--r-scales", "0.1", "--n", "8", "--r", "41", "--reps", "1"],
        id="breakdown_grid",
    ),
    pytest.param("run_rate_check.py", ["--ns", "5,10", "--reps", "2"], id="rate_check"),
    pytest.param("code_lines.py", [], id="code_lines"),
    pytest.param("noisy_stages.py", ["--n", "8", "--r", "41"], id="noisy_stages"),
    pytest.param("memory_stages.py", ["--n", "8", "--r", "41"], id="memory_stages"),
]


@pytest.mark.parametrize("script, args", SCRIPT_RUNS)
def test_script_runs(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_benchmark_selftest_passes():
    # the benchmark drives `register --threads`, RegisterOptions(threads=) and the
    # varireg._parallel import: a change to a name it pins fails here
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "selftest ok" in proc.stdout
