"""Byte-for-byte stdout of every script in demos/.

Each demo runs in its own interpreter with src/ on PYTHONPATH, from the
repository root, and its stdout must equal tests/golden/demo_0N.txt
exactly.  To rewrite those files after an intended change of output, run
from the repository root:

    PYTHONPATH=src python3 tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_demo(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120, check=True)
    return done.stdout


def golden_path(script):
    return GOLDEN / f"demo_{script.name[:2]}.txt"


def test_every_demo_is_pinned():
    assert len(DEMOS) == 5
    assert {golden_path(s).name for s in DEMOS} == {
        p.name for p in GOLDEN.glob("demo_*.txt")}


@pytest.mark.parametrize("script", DEMOS, ids=lambda s: s.stem)
def test_demo_stdout(script):
    assert run_demo(script) == golden_path(script).read_bytes()


if __name__ == "__main__":
    for script in DEMOS:
        golden_path(script).write_bytes(run_demo(script))
