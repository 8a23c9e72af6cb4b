"""The demos run to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demos/02_cohomology.py is left out: its Q d=3 degree-3 rank takes about
# 85 s with Fraction elimination.  It joins once elimination over Q is fast
# (ROADMAP item 2, multimodular elimination).
DEMOS = [
    "01_systems_and_star.py",
    "03_deformations.py",
    "04_extensions.py",
    "05_documents_and_cli.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    env.pop("RBS_DIM_CAP", None)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
