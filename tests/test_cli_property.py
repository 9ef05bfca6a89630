"""Every argument vector the parser accepts ends in exit 0, 1 or 2, and
every JSON report is written as json.dumps(report, indent=2) writes it.

Input files are drawn from the worked pairs of tests/pairs.py and their
plans, random small matrices, block sequences and plans, and malformed
text; counts are small bounded integers, and --out sometimes points into
a directory that does not exist.  main must return 0, 1 or 2 without
raising, and stderr must be empty or a single "error: ..." line.

The report writer cli._dump, which writes lists of strings in bulk, must
give json.dumps's bytes on report-shaped dicts of every JSON value and on
every golden JSON report.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from shifttrellis import compose_plans, format_matrix, format_plan
from shifttrellis.cli import _dump, main

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pairs  # noqa: E402

SETTINGS = settings(max_examples=250, deadline=None, derandomize=True,
                    database=None)

# Worked pairs with a plan that reduces them (None: draw a random plan).
WORKED = ((pairs.ALL_PAIRS[0], None), (pairs.MAIN_PAIR, pairs.MAIN_PLAN),
          (pairs.T2_PAIR, pairs.T2_PLAN),
          (pairs.CHAIN_PAIR, compose_plans(pairs.CHAIN_T1, pairs.CHAIN_T2)),
          (pairs.TIE_PAIR, None))
MALFORMED = ("D^", "1,,D", "1,0;1", "x", "1+D^2000,1", "0 2 1",
             "-1 0 0 0", "0 2000 0 0", "caf\u00e9", "")


def poly_texts():
    return st.lists(st.sampled_from(("1", "D", "D^2", "D^3")), min_size=1,
                    max_size=3).map("+".join) | st.just("0")


@st.composite
def matrix_texts(draw, rows, cols):
    return ";".join(",".join(draw(poly_texts()) for _ in range(cols))
                    for _ in range(rows))


def block_texts(width):
    return st.lists(st.text("01", min_size=width, max_size=width),
                    min_size=1, max_size=6).map(" ".join)


@st.composite
def plan_texts(draw, n):
    lines = draw(st.lists(st.lists(st.integers(0, 3), min_size=4,
                                   max_size=4), min_size=n, max_size=n))
    return "\n".join(" ".join(map(str, line)) for line in lines)


@st.composite
def input_texts(draw):
    """Texts for the inputs g, h, z (received), s (syndrome) and p (plan):
    a worked pair, or random matrices; either may be malformed."""
    if draw(st.booleans()):
        pair, plan = draw(st.sampled_from(WORKED))
        g, h = format_matrix(pair.G), format_matrix(pair.H)
        plan = format_plan(plan) if plan else draw(plan_texts(pair.n))
        n, m = pair.n, pair.H.rows
    else:
        n, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        m = max(n - k, 1)
        g, h = draw(matrix_texts(k, n)), draw(matrix_texts(m, n))
        plan = draw(plan_texts(n))
    texts = {"g": g, "h": h, "z": draw(block_texts(n)),
             "s": draw(block_texts(m)), "p": plan}
    bad = draw(st.sampled_from((None, None, None, *texts)))
    if bad:
        texts[bad] = draw(st.sampled_from(MALFORMED))
    return texts


COUNT = st.integers(0, 6)
# command -> (input files in order, options it takes, formats)
COMMANDS = {
    "check-gh": ("gh", {}, ("text", "json")),
    "suggest": ("gh", {"--max-exponent": st.integers(0, 3)},
                ("text", "json")),
    "transform": ("ghp", {}, ("text", "json")),
    "reduce": ("ghp", {}, ("text", "json")),
    "code-trellis": ("g", {"--n-blocks": COUNT}, ("text", "json", "dot")),
    "error-trellis": ("hs", {"--n-blocks": COUNT}, ("text", "json", "dot")),
    "decode": ("hz", {"--n-blocks": COUNT}, ("text", "json")),
    "verify": ("ghzp", {"--n-blocks": COUNT}, ("text", "json")),
    "oracle": ("gh", {"--n-blocks": COUNT, "--trials": st.integers(0, 3),
                      "--seed": st.integers(-3, 3)}, ("text",)),
}


@st.composite
def invocations(draw):
    """(command, input file texts in order, options, --out or None)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    inputs, options, formats = COMMANDS[command]
    texts = draw(input_texts())
    argv = ["--format", draw(st.sampled_from(formats))]
    for flag, values in options.items():
        if command == "code-trellis" or draw(st.booleans()):
            argv += [flag, str(draw(values))]
    out = draw(st.sampled_from((None, "report.txt", "missing/report.txt")))
    return command, [texts[k] for k in inputs], argv, out


def run(folder, command, texts, argv, out):
    paths = []
    for k, text in enumerate(texts):
        path = Path(folder) / f"in{k}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        paths.append(str(path))
    if command in ("transform", "reduce", "verify"):
        argv = argv + ["--plan", paths.pop()]
    if out:
        argv = argv + ["--out", str(Path(folder, out))]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([command, *paths, *argv])
    return rc, stderr.getvalue()


@SETTINGS
@given(invocations())
def test_every_invocation_ends_in_an_exit_code(call):
    with tempfile.TemporaryDirectory() as folder:
        rc, err = run(folder, *call)
    assert rc in (0, 1, 2)
    assert err == "" or (err.startswith("error: ") and err.endswith("\n")
                         and err.count("\n") == 1), err


# Strings with quotes, backslashes, control and non-ASCII characters, and
# path texts, which json writes as they are, now and then with one more
# character.
STRINGS = (st.text(st.sampled_from('ab01 "\\/\n\t\x00\x1f\x7f\u00e9\u2028'
                                   '\U0001f600'), max_size=6)
           | st.text(st.characters(max_codepoint=0x80), max_size=4)
           | st.text(max_size=4))
PATHS = st.text(st.sampled_from("01 ") | st.characters(max_codepoint=0x80),
                max_size=6)
SCALARS = st.none() | st.booleans() | st.integers(-10**20, 10**20) | STRINGS
VALUES = st.recursive(
    SCALARS | st.lists(STRINGS) | st.lists(PATHS) | st.lists(st.integers()),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=12)


@SETTINGS
@given(st.dictionaries(STRINGS, st.lists(PATHS, min_size=1) | VALUES,
                       max_size=6))
def test_dump_writes_what_json_dumps_writes(report):
    assert _dump(report) == json.dumps(report, indent=2)


def test_dump_escapes_each_character_as_json_does():
    # one character among path texts, for every ASCII character and beyond
    for c in [*map(chr, range(0x81)), "\u00e9", "\u2028", "\ud800",
              "\U0001f600"]:
        report = {"paths": ["01 10", f"1{c}0", "00 11"], c: [c]}
        assert _dump(report) == json.dumps(report, indent=2), repr(c)


def test_dump_writes_every_golden_report():
    folder = Path(__file__).resolve().parent / "golden"
    golden = sorted(folder.glob("*.json"))
    assert golden
    for path in golden:
        text = path.read_text(encoding="ascii")
        assert _dump(json.loads(text)) + "\n" == text, path.name
