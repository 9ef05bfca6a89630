"""Byte-for-byte CLI output on the MAIN, T2 and CHAIN fixtures.

Every subcommand runs in every format it offers, and its stdout must equal
the file under tests/golden/ exactly.  To rewrite those files after an
intended change of output, run from the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from shifttrellis import compose_plans, format_matrix, format_plan
from shifttrellis.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pairs  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (pair, plan, received word, its syndrome, horizon for
# code-trellis and oracle)
FIXTURES = {
    "main": (pairs.MAIN_PAIR, pairs.MAIN_PLAN,
             "001 000 011 010", "00 10 01 10 01", 4),
    "t2": (pairs.T2_PAIR, pairs.T2_PLAN,
           "101 011 110 010", "11 01 01 10 01", 4),
    "chain": (pairs.CHAIN_PAIR,
              compose_plans(pairs.CHAIN_T1, pairs.CHAIN_T2),
              "110 011 101 001", "01 11 00 10 00 10 00", 6),
}

# command -> (arguments in terms of the input files, formats)
COMMANDS = {
    "check-gh": ("{g} {h}", ("text", "json")),
    "suggest": ("{g} {h}", ("text", "json")),
    "transform": ("{g} {h} --plan {plan}", ("text", "json")),
    "reduce": ("{g} {h} --plan {plan}", ("text", "json")),
    "code-trellis": ("{g} --n-blocks {n}", ("text", "json", "dot")),
    "error-trellis": ("{h} {syn}", ("text", "json", "dot")),
    "decode": ("{h} {z}", ("text", "json")),
    "verify": ("{g} {h} {z} --plan {plan}", ("text", "json")),
    "oracle": ("{g} {h} --n-blocks {n} --trials 3 --seed 5",
               ("text", "json")),
}

CASES = [(fx, cmd, fmt) for fx in FIXTURES
         for cmd, (_, fmts) in COMMANDS.items() for fmt in fmts]


def write_inputs(folder, fixture):
    pair, plan, z, syn, n = FIXTURES[fixture]
    texts = {"g": format_matrix(pair.G), "h": format_matrix(pair.H),
             "plan": format_plan(plan), "z": z, "syn": syn}
    paths = {"n": str(n)}
    for key, text in texts.items():
        path = Path(folder) / f"{fixture}_{key}.txt"
        path.write_text(text + "\n")
        paths[key] = str(path)
    return paths


def run_case(folder, fixture, command, fmt):
    """Exit status and stdout bytes of one CLI call."""
    paths = write_inputs(folder, fixture)
    args = [a.format(**paths) for a in COMMANDS[command][0].split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([command, *args, "--format", fmt])
    return rc, out.getvalue().encode("ascii")


def golden_path(fixture, command, fmt):
    return GOLDEN / f"{fixture}_{command}.{fmt}"


@pytest.mark.parametrize("fixture,command,fmt", CASES,
                         ids=["-".join(c) for c in CASES])
def test_cli_output_matches_golden(tmp_path, fixture, command, fmt):
    rc, out = run_case(tmp_path, fixture, command, fmt)
    assert rc == 0
    assert out == golden_path(fixture, command, fmt).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as folder:
        for case in CASES:
            rc, out = run_case(folder, *case)
            if rc != 0:
                sys.exit(f"{'-'.join(case)} exited {rc}")
            golden_path(*case).write_bytes(out)
    print(f"wrote {len(CASES)} files to {GOLDEN}")
