"""The scripts under scripts/ run to completion on small inputs."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/cross_validate.py", "--cases", "3"],
        ["scripts/fixture_report.py", "--fixtures", "fixtures/f3_codes.txt"],
    ],
    ids=["cross_validate", "fixture_report"],
)
def test_script_exits_zero(argv):
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
