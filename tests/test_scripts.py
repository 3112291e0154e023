"""The experiment scripts under scripts/ run end to end."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


@pytest.mark.parametrize("script, flags, outputs", [
    ("run_ssr_experiment.py", ["--reference"], ["trace.csv", "recovered_params.csv"]),
    ("run_scs_experiment.py", [], ["trace.csv", "recovered_grid.csv",
                                   "clean_grid.csv"]),
])
def test_experiment_script_runs(tmp_path, script, flags, outputs):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *flags, "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (out / name).is_file(), name
    if "--reference" in flags:
        assert "apg oracle" in proc.stdout
