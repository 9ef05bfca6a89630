"""Correctness checks on the program's JSON reports.

Each check returns None when the report is right and a one-line reason when
it is not.  They use only the benchmark's own arithmetic (gf2.py).
"""

from __future__ import annotations

from gf2 import clmul, columns, delay, nu, times_transpose

VERIFY_PATHS = 1024


def check_decode(report: dict, frame) -> str | None:
    """The estimate is a codeword (y1*g2 + y2*g1 = 0), it is z plus the
    error estimate, and that estimate weighs no more than the injected error."""
    length = frame.n_blocks + frame.flush
    z_pad = frame.z + " 00" * frame.flush
    if report["zPadded"] != z_pad:
        return "zPadded is not the received frame plus the flush"
    y1, y2 = columns(report["codewordEstimate"], 2)
    e1, e2 = columns(report["errorEstimate"], 2)
    z1, z2 = columns(z_pad, 2)
    if len(report["codewordEstimate"].split()) != length:
        return f"codeword estimate is not {length} blocks long"
    if (y1, y2) != (z1 ^ e1, z2 ^ e2):
        return "codeword estimate is not z xor the error estimate"
    weight = bin(e1).count("1") + bin(e2).count("1")
    if report["weight"] != weight:
        return f"reported weight {report['weight']}, estimate weighs {weight}"
    if weight > frame.injected:
        return f"estimate weight {weight} exceeds injected weight {frame.injected}"
    if clmul(y1, frame.g2) ^ clmul(y2, frame.g1):
        return "codeword estimate is not a codeword"
    return None


def check_verify(report: dict) -> str | None:
    """The check passed and the reduced code trellis has exactly 1024 paths,
    which equal the reconstructed ones as a set."""
    if report["passed"] is not True:
        return "verification did not pass"
    if len(report["codePaths"]) != VERIFY_PATHS:
        return f"{len(report['codePaths'])} code paths, expected {VERIFY_PATHS}"
    if set(report["codePaths"]) != set(report["reconstructed"]):
        return "code paths differ from the reconstructed paths"
    return None


def _scale_columns(rows, div, mul):
    out = []
    for row in rows:
        new = []
        for j, e in enumerate(row):
            e <<= mul[j]
            if e and delay(e) < div[j]:
                raise ValueError(f"column {j + 1} is not divisible by D^{div[j]}")
            new.append(e >> div[j])
        out.append(new)
    return out


def _reduce_rows(rows):
    return [[e >> min(delay(x) for x in row if x) for e in row] for row in rows]


def check_suggest(report: dict, g_rows, h_rows) -> str | None:
    """The plan meets C_SR (the combined exponent is equal in every column),
    re-applying it reproduces nuAfter and nuAfterDual, the result is still a
    pair, and nuAfter <= nuBefore."""
    plan = report["bestPlan"]
    gd, gm, hd, hm = plan["gDiv"], plan["gMul"], plan["hDiv"], plan["hMul"]
    n = len(g_rows[0])
    if any(len(v) != n or min(v) < 0 for v in (gd, gm, hd, hm)):
        return "plan vectors have the wrong length or a negative entry"
    combined = {gd[j] + hd[j] - gm[j] - hm[j] for j in range(n)}
    if len(combined) != 1:
        return f"plan violates C_SR: combined exponents {sorted(combined)}"
    try:
        g_new = _reduce_rows(_scale_columns(g_rows, gd, gm))
        h_new = _reduce_rows(_scale_columns(h_rows, hd, hm))
    except ValueError as exc:
        return f"plan is illegal: {exc}"
    if any(any(row) for row in times_transpose(g_new, h_new)):
        return "G' H'^T is not zero"
    expect = {"nuBefore": nu(g_rows), "nuBeforeDual": nu(h_rows),
              "nuAfter": nu(g_new), "nuAfterDual": nu(h_new)}
    for key, value in expect.items():
        if report[key] != value:
            return f"{key} is {report[key]}, re-applying the plan gives {value}"
    if report["nuAfter"] > report["nuBefore"]:
        return "nuAfter exceeds nuBefore"
    if report["reduced"] != (report["nuAfter"] < report["nuBefore"]):
        return "reduced flag disagrees with the constraint lengths"
    return None
