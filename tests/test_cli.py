import json
import subprocess
import sys

import pytest

from shifttrellis.cli import main

G_MAIN = "D+D^2,D^2,1+D"
H_MAIN = "1,0,D;D,1+D,0"
G_CHAIN = "1+D+D^2,D,D^4+D^5"
H_CHAIN = "D^3,D^2,1;D,1+D+D^2,0"
MAIN_PLAN = "1 0 0 0\n1 0 0 0\n0 0 1 0"
CHAIN_PLAN = "0 0 1 0\n1 0 0 0\n3 0 0 2"
Z_MAIN = "001 000 011 010"


@pytest.fixture
def files(tmp_path):
    def put(name, text):
        p = tmp_path / name
        p.write_text(text + "\n")
        return str(p)

    return {
        "g": put("G.txt", G_MAIN),
        "h": put("H.txt", H_MAIN),
        "gc": put("Gc.txt", G_CHAIN),
        "hc": put("Hc.txt", H_CHAIN),
        "plan": put("plan.txt", MAIN_PLAN),
        "cplan": put("cplan.txt", CHAIN_PLAN),
        "z": put("z.txt", Z_MAIN),
        "zeta": put("zeta.txt", "00 10 01 10 01"),
        "tmp": tmp_path,
    }


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_check_gh_holds(files, capsys):
    rc, out, err = run(capsys, "check-gh", files["g"], files["h"])
    assert rc == 0
    assert out.strip() == "GH relation holds (n=3, G 1x3, H 2x3)"
    assert err == ""


def test_check_gh_fails(files, capsys):
    bad = files["tmp"] / "Hbad.txt"
    bad.write_text("1,0,1;D,1+D,0\n")
    rc, out, _ = run(capsys, "check-gh", files["g"], str(bad))
    assert rc == 1
    assert out.startswith("GH relation fails: (G*H^T)[1][1] = ")


def test_check_gh_rank_deficient(files, capsys):
    dup = files["tmp"] / "Hdup.txt"
    dup.write_text("1,0,D;1,0,D\n")
    rc, out, _ = run(capsys, "check-gh", files["g"], str(dup))
    assert rc == 1
    assert "not full row rank" in out


def test_check_gh_json(files, capsys):
    rc, out, _ = run(capsys, "check-gh", files["g"], files["h"],
                     "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["holds"] is True
    assert obj["fullRowRank"] == {"G": True, "H": True}
    assert obj["product"] == [["0", "0"]]


def test_transform(files, capsys):
    rc, out, _ = run(capsys, "transform", files["g"], files["h"],
                     "--plan", files["plan"])
    assert rc == 0
    assert out.splitlines() == ["G': 1+D,D,1+D", "H': 1,0,1;D,1+D,0"]


def test_transform_rejects_bad_plan(files, capsys):
    bad = files["tmp"] / "bad.txt"
    bad.write_text("1 0 0 0\n0 0 0 0\n0 0 0 0\n")
    rc, out, err = run(capsys, "transform", files["g"], files["h"],
                       "--plan", str(bad))
    assert rc == 1
    assert "C_SR violated" in err


def test_reduce(files, capsys):
    rc, out, _ = run(capsys, "reduce", files["gc"], files["hc"],
                     "--plan", files["cplan"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "nu before: 5 (dual 5)"
    assert lines[1] == "nu after: 2 (dual 2)"
    assert lines[2] == "reduced: yes"
    assert "G': 1+D+D^2,1,D+D^2" in lines
    assert "H': 1,1,1;1,1+D+D^2,0" in lines


def test_reduce_json(files, capsys):
    rc, out, _ = run(capsys, "reduce", files["gc"], files["hc"],
                     "--plan", files["cplan"], "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["nuBefore"] == 5 and obj["nuAfter"] == 2
    assert obj["reduced"] is True
    assert obj["plan"]["gDiv"] == [0, 1, 3]
    assert obj["G"] == [["1+D+D^2", "1", "D+D^2"]]


def test_suggest(files, capsys):
    rc, out, _ = run(capsys, "suggest", files["gc"], files["hc"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "backward shifts: 0 0 3"
    assert lines[-1] == "reduced: yes"


def test_code_trellis_text(files, capsys):
    rc, out, _ = run(capsys, "code-trellis", files["g"], "--n-blocks", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "state bits: 2"
    assert lines[1] == "states: 4"
    assert lines[2] == "paths: 4"
    assert len(lines) == 7


def test_code_trellis_dot(files, capsys):
    rc, out, _ = run(capsys, "code-trellis", files["g"], "--n-blocks", "4",
                     "--format", "dot")
    assert rc == 0
    assert out.startswith("digraph trellis {")
    assert '"t0/s00"' in out


def test_code_trellis_too_short(files, capsys):
    rc, _, err = run(capsys, "code-trellis", files["g"], "--n-blocks", "1")
    assert rc == 1
    assert "horizon too short" in err


def test_error_trellis(files, capsys):
    rc, out, _ = run(capsys, "error-trellis", files["h"], files["zeta"])
    assert rc == 0
    lines = out.splitlines()
    assert "feasible: yes" in lines
    assert "paths: 4" in lines


def test_error_trellis_infeasible(files, capsys):
    hs = files["tmp"] / "Hs.txt"
    hs.write_text("D^2,D^2,D^2;1,1+D+D^2,0\n")
    bad = files["tmp"] / "zbad.txt"
    bad.write_text("10 00 00 00 00 00\n")
    rc, out, _ = run(capsys, "error-trellis", str(hs), str(bad))
    assert rc == 1
    assert "feasible: no (infeasible syndrome)" in out


def test_decode(files, capsys):
    rc, out, _ = run(capsys, "decode", files["h"], files["z"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "z (padded): 001 000 011 010 000"
    assert lines[1] == "syndrome: 00 10 01 10 01"
    assert lines[2] == "error estimate: 000 100 000 100 000 (weight 2)"
    assert lines[3] == "codeword estimate: 001 100 011 110 000"


def test_verify(files, capsys):
    rc, out, _ = run(capsys, "verify", files["g"], files["h"], files["z"],
                     "--plan", files["plan"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "window: 5 blocks (4 real)"
    assert "z (shifted): 000 001 010 011 000" in lines
    assert "code states: 4 -> 2" in lines
    assert "error states: 4 -> 2" in lines
    assert "  000 100 000 100 000" in lines
    assert lines[-1] == "result: PASS"


def test_verify_json(files, capsys):
    rc, out, _ = run(capsys, "verify", files["g"], files["h"], files["z"],
                     "--plan", files["plan"], "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["mismatch"] == []
    assert len(obj["codePaths"]) == len(obj["errorPaths"]) == 4
    assert obj["zShifted"] == "000 001 010 011 000"


def test_oracle(files, capsys):
    rc, out, _ = run(capsys, "oracle", files["g"], files["h"],
                     "--trials", "4", "--seed", "7")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "codewords N=4: OK (4 paths)"
    assert lines[-1] == "all checks passed"
    assert sum(1 for ln in lines if ln.startswith("syndrome trial")) == 4


def test_parse_error_exit_code(files, capsys):
    junk = files["tmp"] / "junk.txt"
    junk.write_text("D^,1\n")
    rc, out, err = run(capsys, "check-gh", str(junk), files["h"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_missing_file_exit_code(files, capsys):
    rc, _, err = run(capsys, "check-gh", str(files["tmp"] / "nope.txt"),
                     files["h"])
    assert rc == 2
    assert "error:" in err


def test_invalid_pair_exit_code(files, capsys):
    hx = files["tmp"] / "Hx.txt"
    hx.write_text("D,0,1;1,1+D,0\n")
    rc, _, err = run(capsys, "verify", files["g"], str(hx), files["z"],
                     "--plan", files["plan"])
    assert rc == 1
    assert "not a valid pair" in err


def test_rank_deficient_pair_exit_code(files, capsys):
    # G * H^T = 0 and the row counts add up, but G repeats a row
    g = files["tmp"] / "Gdup.txt"
    g.write_text("1,1,0;1,1,0\n")
    h = files["tmp"] / "Hdup.txt"
    h.write_text("1,1,0\n")
    ident = files["tmp"] / "ident.txt"
    ident.write_text("0 0 0 0\n0 0 0 0\n0 0 0 0\n")
    z = files["tmp"] / "z2.txt"
    z.write_text("101 011\n")
    plan = ("--plan", str(ident))
    for argv in (("reduce", g, h, *plan), ("verify", g, h, z, *plan),
                 ("transform", g, h, *plan), ("suggest", g, h)):
        rc, out, err = run(capsys, *map(str, argv))
        assert rc == 1, argv[0]
        assert out == ""
        assert err == "error: not a valid pair: G is not full row rank\n"


def test_suggest_zero_column(files, capsys):
    # column 3 of H is zero, so its backward shift is unbounded
    g = files["tmp"] / "Gz.txt"
    g.write_text("1,1,0;0,0,1\n")
    h = files["tmp"] / "Hz.txt"
    h.write_text("1,1,0\n")
    rc, out, _ = run(capsys, "suggest", str(g), str(h))
    assert rc == 0
    assert out.splitlines()[0] == "backward shifts: 0 0 inf"
    rc, out, _ = run(capsys, "suggest", str(g), str(h), "--format", "json")
    assert rc == 0
    assert json.loads(out)["backwardShifts"] == [0, 0, None]


@pytest.mark.parametrize("argv,flag", [
    (("suggest", "gc", "hc"), "--max-exponent"),
    (("code-trellis", "g"), "--n-blocks"),
    (("error-trellis", "h", "zeta"), "--n-blocks"),
    (("decode", "h", "z"), "--n-blocks"),
    (("verify", "g", "h", "z", "--plan", "plan"), "--n-blocks"),
    (("oracle", "g", "h"), "--n-blocks"),
    (("oracle", "g", "h"), "--trials"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_negative_count_is_a_usage_error(files, capsys, argv, flag):
    args = [argv[0]] + [files.get(a, a) for a in argv[1:]]
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, "-9"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(
        f"argument {flag}: must not be negative: -9")


def test_out_file(files, capsys):
    dest = files["tmp"] / "report.txt"
    rc, out, _ = run(capsys, "reduce", files["gc"], files["hc"],
                     "--plan", files["cplan"], "--out", str(dest))
    assert rc == 0
    assert out == ""
    text = dest.read_text()
    assert text.endswith("\n")
    assert "nu before: 5 (dual 5)" in text


def test_repeat_runs_are_identical(files, capsys):
    calls = [
        ("check-gh", files["g"], files["h"]),
        ("suggest", files["gc"], files["hc"]),
        ("reduce", files["gc"], files["hc"], "--plan", files["cplan"]),
        ("verify", files["g"], files["h"], files["z"], "--plan", files["plan"]),
        ("oracle", files["g"], files["h"], "--trials", "3"),
        ("code-trellis", files["g"], "--n-blocks", "4", "--format", "dot"),
    ]
    transcripts = []
    for _ in range(2):
        chunks = []
        for call in calls:
            rc = main(list(call))
            chunks.append((call[0], rc, capsys.readouterr().out))
        transcripts.append(chunks)
    assert transcripts[0] == transcripts[1]


def test_module_invocation(files):
    proc = subprocess.run(
        [sys.executable, "-m", "shifttrellis", "check-gh",
         files["g"], files["h"]],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "GH relation holds (n=3, G 1x3, H 2x3)"
