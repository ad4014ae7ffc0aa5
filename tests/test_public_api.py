"""Smoke tests of the public API as the README and the demos use it.

Each script runs in a fresh interpreter, so a broken name, signature or
constructor in the documented entry points fails here. The power-study
demo is left out for its run time (a few seconds).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", ["fit_walkthrough.py", "bootstrap_check.py"])
def test_demo_runs(demo):
    assert run_python([str(ROOT / "demos" / demo)]).strip()


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library in one minute", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    lines = run_python(["-c", snippet]).splitlines()
    # The row and the column constructor build equal datasets.
    assert lines[0] == "True"
    assert len(lines) >= 3
