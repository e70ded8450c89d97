"""Every walkthrough in demos/ and every python example of README.md runs against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_seven_demos_present():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr



def test_every_readme_python_example_prints_the_text_block_after_it():
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    examples = [(code, shown) for (lang, code), (_, shown) in zip(blocks, blocks[1:] + [("", None)])
                if lang == "python"]
    assert examples
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for code, shown in examples:
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout == shown, code
