"""The demos and the README quick tour run to completion against the
library in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    "01_systems_and_star.py",
    "02_cohomology.py",
    "03_deformations.py",
    "04_extensions.py",
    "05_documents_and_cli.py",
]


def _run(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    env.pop("RBS_DIM_CAP", None)
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    result = _run([sys.executable, str(ROOT / "demos" / demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quick_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library quick tour\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert tour is not None, "README.md has no Library quick tour code block"
    result = _run([sys.executable, "-c", tour.group(1)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0, 0]\n"
