"""Every demo runs to completion as a script, so a change to the program's
API that breaks one fails a test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedicl

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "FEDICL_ENDPOINT"}
    # the demos import the package under test, wherever it is imported from
    package_root = str(Path(fedicl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
