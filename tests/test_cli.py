import json
import resource
import subprocess
import sys

import pytest

from shifttrellis.cli import main

import pairs

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


def test_check_gh_column_count_mismatch(files, capsys):
    # the same exit status and message as every other pair command
    g = files["tmp"] / "G3.txt"
    g.write_text("1,1,0;1,1,0\n")
    h = files["tmp"] / "H2.txt"
    h.write_text("1,1\n")
    plan = ("--plan", files["plan"])
    for argv in (("check-gh", g, h), ("reduce", g, h, *plan)):
        rc, out, err = run(capsys, *map(str, argv))
        assert rc == 1, argv[0]
        assert out == ""
        assert err == ("error: not a valid pair: "
                       "column counts differ: 3 and 2\n")


def test_check_gh_row_counts(files, capsys):
    # G * H^T = 0 and both ranks are full, but 1 + 1 rows do not make n=3
    g = files["tmp"] / "G1.txt"
    g.write_text("1,1,0\n")
    h = files["tmp"] / "H1.txt"
    h.write_text("0,0,1\n")
    rc, out, err = run(capsys, "check-gh", str(g), str(h))
    assert (rc, out, err) == (
        1, "GH relation fails: row counts 1+1 do not add up to n=3\n", "")
    rc, out, _ = run(capsys, "check-gh", str(g), str(h), "--format", "json")
    assert rc == 1
    assert json.loads(out) == {"holds": False, "product": [["0"]],
                               "fullRowRank": {"G": True, "H": True}}
    rc, out, err = run(capsys, "reduce", str(g), str(h),
                       "--plan", files["plan"])
    assert (rc, out) == (1, "")
    assert err == ("error: not a valid pair: "
                   "row counts 1+1 do not add up to n=3\n")


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
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {bad}: C_SR violated: columns [2, 3]")


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
    # the pruned trellis of a syndrome nobody can produce has no branch
    rc, out, err = run(capsys, "error-trellis", str(hs), str(bad),
                       "--format", "dot")
    assert (rc, out, err) == (1, "digraph trellis {\n  rankdir=LR;\n}\n", "")


def counted_calls(monkeypatch, name, *modules):
    """Every call of the function name, patched in each module that binds
    it, appended to the returned list."""
    calls, real = [], getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("argv, counts", [
    (("code-trellis", "g", "--n-blocks", "4"), {"text": 0, "json": 0,
                                                "dot": 0}),
    (("error-trellis", "h", "zeta"), {"text": 0, "json": 0, "dot": 0}),
])
def test_trellis_commands_count_paths_once_per_read(files, capsys,
                                                    monkeypatch, argv,
                                                    counts):
    # a listed report decides its cap on the listing walk and takes
    # feasibility from the list; an error-trellis DOT takes it from the
    # pruned sections, none of them empty
    import shifttrellis.trellis as trellis

    calls = counted_calls(monkeypatch, "count_paths", trellis)
    cmd, *rest = argv
    for fmt, want in counts.items():
        calls.clear()
        rc, _, _ = run(capsys, cmd, *(files.get(a, a) for a in rest),
                       "--format", fmt)
        assert (rc, len(calls)) == (0, want), fmt


# The golden "subcode" fixture: G' generates only a subcode, so verify fails.
SUBCODE = {"g": "D,D+D^2,0,0;0,0,D,0;0,D+D^2,0,D", "h": "1+D,1,0,1+D",
           "plan": "1 1 0 0\n1 0 0 1\n1 1 0 0\n1 1 0 0", "z": "0000 0000"}


@pytest.mark.parametrize("inputs, status, want", [({}, 0, 0),
                                                  (SUBCODE, 1, 1)])
def test_verify_reconstructs_only_on_fail(files, capsys, monkeypatch,
                                          inputs, status, want):
    # on PASS the reconstructed listing is the code-path listing
    import shifttrellis.cli as cli
    import shifttrellis.sequences as sequences

    for name, text in inputs.items():
        with open(files[name], "w") as f:
            f.write(text + "\n")
    calls = counted_calls(monkeypatch, "reconstruct_code_paths",
                          sequences, cli)
    for fmt in ("text", "json"):
        calls.clear()
        rc, _, _ = run(capsys, "verify", files["g"], files["h"], files["z"],
                       "--plan", files["plan"], "--format", fmt)
        assert (rc, len(calls)) == (status, want), fmt


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


@pytest.mark.parametrize("argv", [("decode", "h", "z"),
                                  ("verify", "g", "h", "z", "--plan", "plan"),
                                  ("error-trellis", "h", "zeta")])
def test_n_blocks_above_given_is_a_usage_error(files, capsys, argv):
    given = 5 if "zeta" in argv else 4
    args = [files.get(a, a) for a in argv]
    rc, out, err = run(capsys, *args, "--n-blocks", str(given + 1))
    assert (rc, out) == (2, "")
    assert err == f"error: --n-blocks {given + 1} but {given} blocks given\n"


def test_oracle(files, capsys):
    rc, out, _ = run(capsys, "oracle", files["g"], files["h"],
                     "--trials", "4", "--seed", "7")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "codewords N=4: OK (4 paths)"
    assert lines[-1] == "all checks passed"
    assert sum(1 for ln in lines if ln.startswith("syndrome trial")) == 4


def test_oracle_prints_text_only(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", files["g"], files["h"], "--format", "json"])
    assert exc.value.code == 2
    assert "invalid choice: 'json'" in capsys.readouterr().err


def test_parse_error_exit_code(files, capsys):
    junk = files["tmp"] / "junk.txt"
    junk.write_text("D^,1\n")
    rc, out, err = run(capsys, "check-gh", str(junk), files["h"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_exponent_cap_exit_code(files, capsys):
    big = files["tmp"] / "Gbig.txt"
    big.write_text("1+D^1025,1,1\n")
    rc, out, err = run(capsys, "check-gh", str(big), files["h"])
    assert rc == 2
    assert out == ""
    assert err == (f"error: {big}: row 1, entry 1: "
                   "exponent 1025 exceeds cap 1024\n")


def test_trellis_work_cap_exit_code(files, capsys):
    # 2^30 states: refused before any section is built
    h = files["tmp"] / "Hwide.txt"
    h.write_text("1+D^30,1\n")
    z = files["tmp"] / "z2.txt"
    z.write_text("10 11\n")
    rc, out, err = run(capsys, "decode", str(h), str(z))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: trellis too large: 2^30 states")
    g = files["tmp"] / "Gone.txt"
    g.write_text("1,1\n")
    h.write_text("D^1000,D^1000\n")
    rc, out, err = run(capsys, "oracle", str(g), str(h), "--trials", "1")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: trellis too large: 2^1000 states")


def test_wide_check_matrix_refused_before_any_work(files):
    # One state but 2^40 error blocks per section.  Each child runs with
    # capped memory and time, so a builder that tabled the blocks before
    # its size check fails here instead of filling the machine.
    h = files["tmp"] / "Hwide40.txt"
    h.write_text(",".join(["1"] * 40) + "\n")
    zeta = files["tmp"] / "zeta1.txt"
    zeta.write_text("1\n")
    z = files["tmp"] / "z40.txt"
    z.write_text("0" * 40 + "\n")
    cap = 1 << 28

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    for cmd, word in (("error-trellis", zeta), ("decode", z)):
        proc = subprocess.run(
            [sys.executable, "-m", "shifttrellis", cmd, str(h), str(word)],
            capture_output=True, text=True, timeout=60, preexec_fn=limit)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: trellis too large: 2^0 states x 1 sections x "
                   "2^40 branches exceeds 16777216\n")


def test_plan_exponent_cap_exit_code(files, capsys):
    plan = files["tmp"] / "far.txt"
    plan.write_text("0 1025 0 0\n0 1025 0 0\n0 1025 0 0\n")
    rc, out, err = run(capsys, "transform", files["g"], files["h"],
                       "--plan", str(plan))
    assert (rc, out) == (2, "")
    assert err == (f"error: {plan}: plan line 1: exponent 1025 "
                   "exceeds cap 1024\n")


def test_plan_space_cap_exit_code(files, capsys):
    g, h = files["tmp"] / "G40.txt", files["tmp"] / "H40.txt"
    g.write_text("D^40,D^40,D^40\n")
    h.write_text("1,1,0;0,1,1\n")
    rc, out, err = run(capsys, "suggest", str(g), str(h),
                       "--max-exponent", "40")
    assert (rc, out) == (1, "")
    assert err == ("error: plan space too large: 68921 plans for n=3 and "
                   "max exponent 40 exceeds 65536\n")
    # n=8 is nominally 5^8 + 4 * 2^8 plans at bound 4; its delays leave 144
    g.write_text(pairs.R8[0] + "\n")
    h.write_text(pairs.R8[1] + "\n")
    rc, out, err = run(capsys, "suggest", str(g), str(h))
    assert (rc, err) == (0, "")
    assert "nu: 3 -> 1 (dual 11 -> 6)" in out.splitlines()


def test_path_cap_exit_code(files, capsys):
    # 2^17 codewords at 19 blocks: refused once a layer of the listing walk
    # would hold 2^17 prefixes, while the DOT drawing, which lists no
    # paths, is still made
    g = files["tmp"] / "G2.txt"
    g.write_text("1+D+D^2,1+D^2\n")
    for fmt in ("text", "json"):
        rc, out, err = run(capsys, "code-trellis", str(g), "--n-blocks", "19",
                           "--format", fmt)
        assert (rc, out) == (1, "")
        assert err == "error: too many paths: at least 131072 exceeds 65536\n"
    rc, out, err = run(capsys, "code-trellis", str(g), "--n-blocks", "19",
                       "--format", "dot")
    assert (rc, err) == (0, "")
    assert out.startswith("digraph trellis {")
    # 2^19998 codewords at 20000 blocks: the walk stops at the same layer
    rc, out, err = run(capsys, "code-trellis", str(g), "--n-blocks", "20000")
    assert (rc, out) == (1, "")
    assert err == "error: too many paths: at least 131072 exceeds 65536\n"


def test_long_k7_listing_refused_without_counting(files, capsys,
                                                  monkeypatch):
    # 2^131066 codewords: the refusal comes from the walk's first layers,
    # with no exact count, whose big-int sums grow with the horizon
    import shifttrellis.trellis as trellis

    calls = counted_calls(monkeypatch, "count_paths", trellis)
    g = files["tmp"] / "G7.txt"
    g.write_text("1+D+D^2+D^3+D^6,1+D^2+D^3+D^5+D^6\n")
    rc, out, err = run(capsys, "code-trellis", str(g), "--n-blocks", "131072")
    assert (rc, out, calls) == (1, "", [])
    assert err == "error: too many paths: at least 131072 exceeds 65536\n"


def test_trials_cap_exit_code(files, capsys):
    # refused before any trial runs; 4096 trials are allowed
    rc, out, err = run(capsys, "oracle", files["g"], files["h"],
                       "--trials", "100000000")
    assert (rc, out) == (1, "")
    assert err == "error: too many trials: 100000000 exceeds 4096\n"
    rc, out, err = run(capsys, "oracle", files["g"], files["h"],
                       "--trials", "4097")
    assert (rc, out) == (1, "")
    assert err == "error: too many trials: 4097 exceeds 4096\n"


def test_library_runtime_error_exit_code(files, capsys, monkeypatch):
    # a RuntimeError from the library is one error line and exit 1
    import shifttrellis.cli as cli

    def broken(*args):
        raise RuntimeError("GH relation broken: G is not full row rank")

    monkeypatch.setattr(cli, "simultaneous_reduce", broken)
    monkeypatch.setattr(cli, "search_reduction_plan", broken)
    for argv in (("reduce", files["g"], files["h"], "--plan", files["plan"]),
                 ("suggest", files["g"], files["h"])):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, ""), argv[0]
        assert err == ("error: GH relation broken: "
                       "G is not full row rank\n")


def test_unwritable_out_exit_code(files, capsys):
    dest = files["tmp"] / "no" / "such" / "x"
    rc, out, err = run(capsys, "check-gh", files["g"], files["h"],
                       "--out", str(dest))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write {dest}: ")
    assert err.count("\n") == 1


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


def test_out_file_holds_the_stdout_bytes(files, capsys):
    calls = [
        ("check-gh", files["g"], files["h"], "--format", "json"),
        ("suggest", files["gc"], files["hc"]),
        ("verify", files["g"], files["h"], files["z"], "--plan", files["plan"]),
        ("code-trellis", files["g"], "--n-blocks", "4", "--format", "dot"),
        ("error-trellis", files["h"], files["zeta"]),
        ("oracle", files["g"], files["h"], "--trials", "2"),
    ]
    dest = files["tmp"] / "report.txt"
    for call in calls:
        rc, out, _ = run(capsys, *call)
        assert run(capsys, *call, "--out", str(dest)) == (rc, "", "")
        assert dest.read_bytes() == out.encode("ascii"), call[0]


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
