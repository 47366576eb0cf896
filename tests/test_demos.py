"""Each demo script runs to completion as a separate process, and the
README's library quick start prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_its_comments():
    # Each print(...)  # value line must print that value; a parenthetical
    # remark after the value is not output.
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    expected = [
        re.sub(r"\s+\(.*\)$", "", line.split("#", 1)[1].strip())
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
