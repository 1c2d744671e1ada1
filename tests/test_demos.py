"""The walkthroughs in demos/ run to completion against the library in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted(p.name for p in (_ROOT / "demos").glob("*.py"))


def test_readme_lists_every_demo():
    listed = re.findall(r"python3 demos/(\w+\.py)", (_ROOT / "README.md").read_text())
    assert sorted(listed) == _DEMOS and _DEMOS


@pytest.mark.parametrize("demo", _DEMOS)
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    proc = subprocess.run([sys.executable, str(_ROOT / "demos" / demo)], cwd=_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
