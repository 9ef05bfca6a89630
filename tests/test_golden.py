"""Byte-for-byte CLI output on the MAIN, T2 and CHAIN fixtures, plus a
K=7 decode, the tie-rich pair and a failing verify.

On MAIN, T2 and CHAIN every subcommand runs in every format it offers; the
other fixtures run the commands listed in ONLY.  Stdout must equal the
file under tests/golden/ exactly, and the exit status the one in STATUS
(0 where it names none).  To rewrite those files after an
intended change of output, run from the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

import pytest

from shifttrellis import (
    GHPair,
    compose_plans,
    format_matrix,
    format_plan,
    parse_matrix,
    parse_plan,
    poly_mul,
)
from shifttrellis import trellis
from shifttrellis.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pairs  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"

# K=7 rate-1/2 code, generators 171 and 133 octal read with D^0 first.
K7_PAIR = GHPair(parse_matrix("1+D+D^2+D^3+D^6,1+D^2+D^3+D^5+D^6"),
                 parse_matrix("1+D^2+D^3+D^5+D^6,1+D+D^2+D^3+D^6"))


def k7_frame():
    """200 random information bits and a 6-block zero tail, encoded and
    sent through a binary symmetric channel with crossover 0.02."""
    rng = random.Random("golden:k7")
    u = rng.getrandbits(200)
    ys = [poly_mul(u, g) for g in K7_PAIR.G.row(1)]
    return " ".join(
        "".join(str(y >> t & 1 ^ (rng.random() < 0.02)) for y in ys)
        for t in range(206))


# name -> (pair, plan, received word, its syndrome, horizon for
# code-trellis and oracle); None where no command of the fixture reads it
FIXTURES = {
    "main": (pairs.MAIN_PAIR, pairs.MAIN_PLAN,
             "001 000 011 010", "00 10 01 10 01", 4),
    "t2": (pairs.T2_PAIR, pairs.T2_PLAN,
           "101 011 110 010", "11 01 01 10 01", 4),
    "chain": (pairs.CHAIN_PAIR,
              compose_plans(pairs.CHAIN_T1, pairs.CHAIN_T2),
              "110 011 101 001", "01 11 00 10 00 10 00", 6),
    "k7": (K7_PAIR, None, k7_frame(), None, None),
    "tie": (pairs.TIE_PAIR, None, "10 11 01 00 11 10", None, 5),
    # A legal plan whose G' generates only a subcode of the code of H':
    # 8 reduced code paths against 16 error paths, so verify fails.
    "subcode": (pairs.pair("D,D+D^2,0,0;0,0,D,0;0,D+D^2,0,D", "1+D,1,0,1+D"),
                parse_plan("1 1 0 0\n1 0 0 1\n1 1 0 0\n1 1 0 0"),
                "0000 0000", None, None),
}
# Fixtures that run only some of the commands.
ONLY = {"k7": ("decode",), "tie": ("code-trellis", "decode"),
        "subcode": ("verify",)}
# (fixture, command) -> exit status of every format, where it is not 0.
STATUS = {("subcode", "verify"): 1}

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
    "oracle": ("{g} {h} --n-blocks {n} --trials 3 --seed 5", ("text",)),
}

CASES = [(fx, cmd, fmt) for fx in FIXTURES
         for cmd, (_, fmts) in COMMANDS.items()
         if cmd in ONLY.get(fx, COMMANDS) for fmt in fmts]


def write_inputs(folder, fixture):
    pair, plan, z, syn, n = FIXTURES[fixture]
    texts = {"g": format_matrix(pair.G), "h": format_matrix(pair.H),
             "plan": format_plan(plan) if plan else None, "z": z,
             "syn": syn}
    paths = {"n": str(n)}
    for key, text in texts.items():
        if text is None:
            continue
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
    assert rc == STATUS.get((fixture, command), 0)
    assert out == golden_path(fixture, command, fmt).read_bytes()


def test_decodes_repeat_in_one_process(tmp_path):
    """Every decode case twice in one process, in reverse order the second
    time: what each code keeps across calls changes no byte of any."""
    trellis._MEMOS.clear()
    cases = [case for case in CASES if case[1] == "decode"]
    for case in cases + cases[::-1]:
        assert run_case(tmp_path, *case) == (
            0, golden_path(*case).read_bytes())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as folder:
        for case in CASES:
            rc, out = run_case(folder, *case)
            if rc != STATUS.get(case[:2], 0):
                sys.exit(f"{'-'.join(case)} exited {rc}")
            golden_path(*case).write_bytes(out)
    print(f"wrote {len(CASES)} files to {GOLDEN}")
