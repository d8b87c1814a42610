"""Every demo, and every Python example in README.md, runs to completion and
writes nothing to stderr."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                             re.M | re.S)


def run_clean(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(demo):
    run_clean([str(demo)])


def test_readme_has_python_examples():
    assert len(README_EXAMPLES) >= 2


@pytest.mark.parametrize("source", README_EXAMPLES,
                         ids=[f"example{i}" for i in range(len(README_EXAMPLES))])
def test_readme_example_runs_clean(source):
    run_clean(["-c", source])
