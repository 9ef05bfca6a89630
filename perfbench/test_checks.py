"""Each correctness check passes a real report and catches a corrupted one.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

from shifttrellis import (  # noqa: E402
    GHPair,
    check_gh_relation,
    cli,
    compose_plans,
    format_plan,
    make_type1_plan,
    make_type2_plan,
    parse_matrix,
)

from checks import check_decode, check_suggest, check_verify  # noqa: E402
from gf2 import blocks_text, columns, matrix_text  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    K7_G1,
    K7_G2,
    VERIFY_PAIRS,
    make_frame,
    random_r5_pair,
)


def report_of(tmp_path, argv):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)


@pytest.fixture
def decode_case(tmp_path):
    frame = make_frame(random.Random("k7"), 60)
    h = put(tmp_path, "H.txt", matrix_text([[K7_G2, K7_G1]]))
    z = put(tmp_path, "z.txt", frame.z)
    return frame, report_of(tmp_path, ["decode", h, z])


def test_decode_check_passes_real_report(decode_case):
    frame, report = decode_case
    assert frame.injected > 0
    assert check_decode(report, frame) is None


def test_decode_check_catches_non_codeword(decode_case):
    frame, report = decode_case
    length = frame.n_blocks + frame.flush
    y1, y2 = columns(report["codewordEstimate"], 2)
    e1, e2 = columns(report["errorEstimate"], 2)
    bit = 1 << (length // 2)
    # Flip one bit of y and of e together: z = y + e still holds and the
    # weight drops or rises by one, but y is no longer a codeword.
    report["codewordEstimate"] = blocks_text([y1 ^ bit, y2], length)
    report["errorEstimate"] = blocks_text([e1 ^ bit, e2], length)
    report["weight"] += -1 if e1 & bit else 1
    if report["weight"] > frame.injected:
        frame = frame._replace(injected=report["weight"])
    assert "not a codeword" in check_decode(report, frame)


def test_decode_check_catches_heavy_estimate(decode_case):
    frame, report = decode_case
    assert "exceeds" in check_decode(report, frame._replace(
        injected=report["weight"] - 1))


def test_decode_check_catches_inconsistent_estimate(decode_case):
    frame, report = decode_case
    report["weight"] += 1
    assert "weight" in check_decode(report, frame)
    report["weight"] -= 1
    first, *rest = report["errorEstimate"].split()
    report["errorEstimate"] = " ".join(["11" if first != "11" else "00"] + rest)
    assert "xor" in check_decode(report, frame)


@pytest.fixture
def verify_report(tmp_path):
    name, g, h, plan, n_real = VERIFY_PAIRS[0]
    word = " ".join("101" for _ in range(n_real))
    return report_of(tmp_path, [
        "verify", put(tmp_path, "G.txt", g), put(tmp_path, "H.txt", h),
        put(tmp_path, "z.txt", word), "--plan", put(tmp_path, "p.txt", plan)])


def test_verify_check(verify_report):
    assert check_verify(verify_report) is None
    assert check_verify(dict(verify_report, passed=False))
    assert check_verify(dict(verify_report,
                             codePaths=verify_report["codePaths"][1:]))
    paths = list(verify_report["codePaths"])
    paths[0] = paths[0].replace("0", "1", 1)
    assert check_verify(dict(verify_report, codePaths=paths))


@pytest.fixture
def suggest_case(tmp_path):
    g_rows, h_rows = random_r5_pair(random.Random("test"))
    report = report_of(tmp_path, [
        "suggest", put(tmp_path, "G.txt", matrix_text(g_rows)),
        put(tmp_path, "H.txt", matrix_text(h_rows)), "--max-exponent", "4"])
    return report, g_rows, h_rows


def test_suggest_check_passes_real_report(suggest_case):
    assert check_suggest(*suggest_case) is None


@pytest.mark.parametrize("corrupt, reason", [
    (lambda r: r["bestPlan"]["gDiv"].__setitem__(0, r["bestPlan"]["gDiv"][0] + 1),
     "C_SR"),
    (lambda r: r["bestPlan"].update(gDiv=[9] * 5, gMul=[0] * 5, hDiv=[0] * 5,
                                    hMul=[0] * 5), "illegal"),
    (lambda r: r.update(nuAfter=r["nuAfter"] + 1), "nuAfter"),
    (lambda r: r.update(nuAfterDual=r["nuAfterDual"] - 1), "nuAfterDual"),
    (lambda r: r.update(nuBefore=r["nuBefore"] + 1), "nuBefore"),
    (lambda r: r.update(reduced=not r["reduced"]), "reduced"),
])
def test_suggest_check_catches_corruption(suggest_case, corrupt, reason):
    report, g_rows, h_rows = suggest_case
    report = json.loads(json.dumps(report))
    corrupt(report)
    assert reason in check_suggest(report, g_rows, h_rows)


def test_inputs_match_the_library():
    """The copied fixture plans, the K=7 generators and the rate-1/5
    family agree with the program's own definitions."""
    plans = (make_type1_plan(3, 1, (1, 2), (3,)), make_type2_plan(3, (0, 0, 1)),
             compose_plans(make_type1_plan(3, 1, (2, 3), (1,)),
                           make_type2_plan(3, (0, 0, 2))))
    for (_, g, h, plan, _), expect in zip(VERIFY_PAIRS, plans):
        GHPair(parse_matrix(g), parse_matrix(h))
        assert plan == format_plan(expect)
    assert [int(format(g, "07b")[::-1], 2) for g in (K7_G1, K7_G2)] == [
        0o171, 0o133]
    rng = random.Random(0)
    for _ in range(20):
        g_rows, h_rows = random_r5_pair(rng)
        g, h = parse_matrix(matrix_text(g_rows)), parse_matrix(matrix_text(h_rows))
        assert check_gh_relation(g, h)


def test_tracer_self_times_add_up_and_uninstall_restores(tmp_path):
    import shifttrellis.sequences as sequences
    originals = (cli.main, sequences.build_code_trellis)
    name, g, h, plan, n_real = VERIFY_PAIRS[2]
    argv = ["verify", put(tmp_path, "G.txt", g), put(tmp_path, "H.txt", h),
            put(tmp_path, "z.txt", " ".join(["110"] * n_real)),
            "--plan", put(tmp_path, "p.txt", plan), "--format", "json",
            "--out", str(tmp_path / "out.json")]
    tracer = Tracer(capture_first_op=True)
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, sequences.build_code_trellis) == originals
    [(root, own)] = tracer.roots
    assert root == own
    assert tracer.calls["trellis.build_code_trellis"] == 1
    assert tracer.edge_calls[("sequences.verify_simultaneous_reduction",
                              "trellis.enumerate_paths")] == 2
    assert tracer.sequences_built > 0
    assert tracer.spans[-1][2] == "cli.main"
