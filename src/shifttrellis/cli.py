"""Command-line front end.

Subcommands read matrices, block sequences and plans from files in the
text grammars of the library and write deterministic reports, so identical
inputs always produce identical bytes.  Exit status: 0 success, 1 a check
or construction failed, 2 inputs or arguments could not be read or parsed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .blocks import format_blocks, parse_blocks
from .gf2poly import (
    GHPair,
    format_matrix,
    format_poly,
    full_row_rank,
    mat_mul_transpose,
    memory,
    parse_matrix,
)
from .oracle import brute_codewords, brute_errors, random_feasible_syndrome
from .sequences import syndrome, verify_simultaneous_reduction
from .transform import (
    apply_plan,
    format_plan,
    parse_plan,
    search_reduction_plan,
    simultaneous_reduce,
    suggest_backward_shift,
)
from .trellis import (
    build_code_trellis,
    build_error_trellis,
    enumerate_paths,
    min_weight_path,
    trellis_dot,
)


class _Fail(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read(path):
    try:
        with open(path, "r", encoding="ascii") as f:
            return f.read()
    except OSError as exc:
        raise _Fail(2, f"cannot read {path}: {exc}") from None


def _matrix(path):
    try:
        return parse_matrix(_read(path))
    except ValueError as exc:
        raise _Fail(2, f"{path}: {exc}") from None


def _pair(g_path, h_path):
    g, h = _matrix(g_path), _matrix(h_path)
    try:
        return GHPair(g, h)
    except ValueError as exc:
        raise _Fail(1, f"not a valid pair: {exc}") from None


def _plan(path):
    try:
        return parse_plan(_read(path))
    except ValueError as exc:
        raise _Fail(2, f"{path}: {exc}") from None


def _sequence(path, width=None):
    try:
        return parse_blocks(_read(path), width)
    except ValueError as exc:
        raise _Fail(2, f"{path}: {exc}") from None


def _emit(text, out):
    if out:
        with open(out, "w", encoding="ascii") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _dump(obj):
    return json.dumps(obj, indent=2)


def _mat_json(M):
    return [[format_poly(e) for e in M.row(i)] for i in range(1, M.rows + 1)]


def _plan_json(plan):
    return {"gDiv": list(plan.g_div), "gMul": list(plan.g_mul),
            "hDiv": list(plan.h_div), "hMul": list(plan.h_mul)}


def cmd_check_gh(args):
    g, h = _matrix(args.g), _matrix(args.h)
    try:
        prod = mat_mul_transpose(g, h)
    except ValueError as exc:
        raise _Fail(2, str(exc)) from None
    nonzero = [(p, q, prod.entry(p, q))
               for p in range(1, prod.rows + 1)
               for q in range(1, prod.cols + 1) if prod.entry(p, q)]
    rank_g, rank_h = full_row_rank(g), full_row_rank(h)
    holds = not nonzero and rank_g and rank_h
    if args.format == "json":
        text = _dump({"holds": holds,
                      "product": _mat_json(prod),
                      "fullRowRank": {"G": rank_g, "H": rank_h}})
    elif holds:
        text = (f"GH relation holds (n={g.cols}, "
                f"G {g.rows}x{g.cols}, H {h.rows}x{h.cols})")
    elif nonzero:
        p, q, e = nonzero[0]
        text = f"GH relation fails: (G*H^T)[{p}][{q}] = {format_poly(e)}"
    else:
        which = "G" if not rank_g else "H"
        text = f"GH relation fails: {which} is not full row rank"
    _emit(text, args.out)
    return 0 if holds else 1


def cmd_suggest(args):
    pair = _pair(args.g, args.h)
    try:
        back = suggest_backward_shift(pair.H)
        best = search_reduction_plan(pair, args.max_exponent)
    except ValueError as exc:
        raise _Fail(1, str(exc)) from None
    if args.format == "json":
        text = _dump({"backwardShifts": list(back),
                      "bestPlan": _plan_json(best.plan),
                      "nuBefore": best.nu_before,
                      "nuBeforeDual": best.nu_before_dual,
                      "nuAfter": best.nu_after,
                      "nuAfterDual": best.nu_after_dual,
                      "reduced": best.reduced})
    else:
        lines = ["backward shifts: " + " ".join(
                     "inf" if b is None else str(b) for b in back),
                 "best plan (per column: gDiv gMul hDiv hMul):"]
        lines.extend("  " + ln for ln in format_plan(best.plan).splitlines())
        lines.append(f"nu: {best.nu_before} -> {best.nu_after} "
                     f"(dual {best.nu_before_dual} -> {best.nu_after_dual})")
        lines.append("reduced: " + ("yes" if best.reduced else "no"))
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


def cmd_transform(args):
    pair, plan = _pair(args.g, args.h), _plan(args.plan)
    try:
        new = apply_plan(pair, plan)
    except ValueError as exc:
        raise _Fail(1, str(exc)) from None
    if args.format == "json":
        text = _dump({"G": _mat_json(new.G), "H": _mat_json(new.H)})
    else:
        text = f"G': {format_matrix(new.G)}\nH': {format_matrix(new.H)}"
    _emit(text, args.out)
    return 0


def cmd_reduce(args):
    pair, plan = _pair(args.g, args.h), _plan(args.plan)
    try:
        rep = simultaneous_reduce(pair, plan)
    except ValueError as exc:
        raise _Fail(1, str(exc)) from None
    if args.format == "json":
        text = _dump({
            "nuBefore": rep.nu_before,
            "nuBeforeDual": rep.nu_before_dual,
            "nuAfter": rep.nu_after,
            "nuAfterDual": rep.nu_after_dual,
            "reduced": rep.reduced,
            "rowDivisionsApplied": {
                "G": list(rep.row_divisions_applied["G"]),
                "H": list(rep.row_divisions_applied["H"])},
            "plan": _plan_json(plan),
            "G": _mat_json(rep.transformed_pair.G),
            "H": _mat_json(rep.transformed_pair.H)})
    else:
        text = "\n".join([
            f"nu before: {rep.nu_before} (dual {rep.nu_before_dual})",
            f"nu after: {rep.nu_after} (dual {rep.nu_after_dual})",
            "reduced: " + ("yes" if rep.reduced else "no"),
            "row divisions G: " + " ".join(
                str(x) for x in rep.row_divisions_applied["G"]),
            "row divisions H: " + " ".join(
                str(x) for x in rep.row_divisions_applied["H"]),
            f"G': {format_matrix(rep.transformed_pair.G)}",
            f"H': {format_matrix(rep.transformed_pair.H)}"])
    _emit(text, args.out)
    return 0


def _trellis_text(t, paths, extra=()):
    lines = [f"state bits: {t.state_bits}", f"states: {t.state_count}"]
    lines.extend(extra)
    lines.append(f"paths: {len(paths)}")
    lines.extend("  " + format_blocks(p) for p in paths)
    return "\n".join(lines)


def _trellis_json(t, paths, **extra):
    obj = {"stateBits": t.state_bits, "states": t.state_count,
           "horizon": t.horizon, "feasible": t.feasible}
    obj.update(extra)
    obj["paths"] = [format_blocks(p) for p in paths]
    return _dump(obj)


def cmd_code_trellis(args):
    g = _matrix(args.g)
    try:
        t = build_code_trellis(g, args.n_blocks)
    except ValueError as exc:
        raise _Fail(1, str(exc)) from None
    paths = enumerate_paths(t)
    if args.format == "dot":
        text = trellis_dot(t)
    elif args.format == "json":
        text = _trellis_json(t, paths)
    else:
        text = _trellis_text(t, paths)
    _emit(text, args.out)
    return 0


def cmd_error_trellis(args):
    h = _matrix(args.h)
    syn = _sequence(args.syndrome, width=h.rows)
    try:
        t = build_error_trellis(h, syn, n_real=args.n_blocks)
    except ValueError as exc:
        raise _Fail(1, str(exc)) from None
    paths = enumerate_paths(t)
    if args.format == "dot":
        text = trellis_dot(t)
    elif args.format == "json":
        text = _trellis_json(t, paths)
    else:
        flag = "feasible: yes" if t.feasible else "feasible: no (infeasible syndrome)"
        text = _trellis_text(t, paths, extra=[flag])
    _emit(text, args.out)
    return 0 if t.feasible else 1


def cmd_decode(args):
    h = _matrix(args.h)
    z = _sequence(args.z, width=h.cols)
    if args.n_blocks is not None and args.n_blocks != len(z):
        raise _Fail(2, f"--n-blocks {args.n_blocks} but {len(z)} blocks given")
    z_pad = z.padded(len(z) + memory(h))
    zeta = syndrome(z_pad, h)
    t = build_error_trellis(h, zeta)
    try:
        e_hat, weight = min_weight_path(t)
    except ValueError as exc:
        raise _Fail(1, str(exc)) from None
    y_hat = z_pad ^ e_hat
    if args.format == "json":
        text = _dump({"zPadded": format_blocks(z_pad),
                      "syndrome": format_blocks(zeta),
                      "errorEstimate": format_blocks(e_hat),
                      "weight": weight,
                      "codewordEstimate": format_blocks(y_hat)})
    else:
        text = "\n".join([
            f"z (padded): {format_blocks(z_pad)}",
            f"syndrome: {format_blocks(zeta)}",
            f"error estimate: {format_blocks(e_hat)} (weight {weight})",
            f"codeword estimate: {format_blocks(y_hat)}"])
    _emit(text, args.out)
    return 0


def cmd_verify(args):
    pair, plan = _pair(args.g, args.h), _plan(args.plan)
    z = _sequence(args.z, width=pair.n)
    n_real = args.n_blocks if args.n_blocks is not None else len(z)
    try:
        rep = verify_simultaneous_reduction(pair, plan, z, n_real)
    except (ValueError, RuntimeError) as exc:
        raise _Fail(1, str(exc)) from None
    if args.format == "json":
        text = _dump({
            "window": rep.window,
            "nReal": rep.n_real,
            "zPadded": format_blocks(rep.z_padded),
            "zShifted": format_blocks(rep.z_shifted),
            "syndrome": format_blocks(rep.shifted_syndrome),
            "nuBefore": rep.reduction.nu_before,
            "nuAfter": rep.reduction.nu_after,
            "codeStatesBefore": rep.code_states_before,
            "codeStatesAfter": rep.code_states_after,
            "errorStatesBefore": rep.error_states_before,
            "errorStatesAfter": rep.error_states_after,
            "errorPaths": [format_blocks(p) for p in rep.error_paths],
            "codePaths": [format_blocks(p) for p in rep.code_paths],
            "reconstructed": [format_blocks(p) for p in rep.reconstructed],
            "passed": rep.passed,
            "mismatch": [format_blocks(p) for p in rep.mismatch]})
    else:
        lines = [
            f"window: {rep.window} blocks ({rep.n_real} real)",
            f"z (padded): {format_blocks(rep.z_padded)}",
            f"z (shifted): {format_blocks(rep.z_shifted)}",
            f"syndrome: {format_blocks(rep.shifted_syndrome)}",
            f"nu: {rep.reduction.nu_before} -> {rep.reduction.nu_after} "
            f"(dual {rep.reduction.nu_before_dual} -> "
            f"{rep.reduction.nu_after_dual})",
            f"code states: {rep.code_states_before} -> {rep.code_states_after}",
            f"error states: {rep.error_states_before} -> "
            f"{rep.error_states_after}",
            f"error paths ({len(rep.error_paths)}):"]
        lines.extend("  " + format_blocks(p) for p in rep.error_paths)
        lines.append(f"code paths ({len(rep.code_paths)}):")
        lines.extend("  " + format_blocks(p) for p in rep.code_paths)
        lines.append(f"reconstructed ({len(rep.reconstructed)}):")
        lines.extend("  " + format_blocks(p) for p in rep.reconstructed)
        if rep.mismatch:
            lines.append(f"mismatch ({len(rep.mismatch)}):")
            lines.extend("  " + format_blocks(p) for p in rep.mismatch)
        lines.append("result: " + ("PASS" if rep.passed else "FAIL"))
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0 if rep.passed else 1


def cmd_oracle(args):
    pair = _pair(args.g, args.h)
    rng = random.Random(args.seed)
    lines = []
    ok = True
    try:
        trellis_words = enumerate_paths(build_code_trellis(pair.G, args.n_blocks))
        brute_words = brute_codewords(pair.G, args.n_blocks)
    except ValueError as exc:
        raise _Fail(1, str(exc)) from None
    if set(trellis_words) == set(brute_words):
        lines.append(f"codewords N={args.n_blocks}: OK ({len(brute_words)} paths)")
    else:
        ok = False
        lines.append(f"codewords N={args.n_blocks}: MISMATCH")
        for p in sorted(set(trellis_words) ^ set(brute_words),
                        key=lambda s: s.blocks):
            lines.append("  " + format_blocks(p))
    for trial in range(1, args.trials + 1):
        zeta = random_feasible_syndrome(pair.H, args.n_blocks, rng)
        t_paths = enumerate_paths(build_error_trellis(pair.H, zeta))
        b_paths = brute_errors(pair.H, zeta)
        if set(t_paths) == set(b_paths):
            lines.append(f"syndrome trial {trial:02d}: OK ({len(b_paths)} paths)")
        else:
            ok = False
            lines.append(f"syndrome trial {trial:02d}: MISMATCH")
            for p in sorted(set(t_paths) ^ set(b_paths), key=lambda s: s.blocks):
                lines.append("  " + format_blocks(p))
    lines.append("all checks passed" if ok else "MISMATCH detected")
    _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def _count(text):
    """argparse type of --n-blocks, --trials and --max-exponent."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def build_parser():
    ap = argparse.ArgumentParser(
        prog="shifttrellis",
        description="Simultaneous code/error trellis reduction for binary "
                    "convolutional codes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def out_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")
        p.add_argument("--out", metavar="FILE",
                       help="write output here instead of stdout")

    p = sub.add_parser("check-gh", help="check G*H^T = 0 and full row rank")
    p.add_argument("g", metavar="G_FILE")
    p.add_argument("h", metavar="H_FILE")
    out_format(p)
    p.set_defaults(func=cmd_check_gh)

    p = sub.add_parser("suggest",
                       help="backward-shift exponents and best found plan")
    p.add_argument("g", metavar="G_FILE")
    p.add_argument("h", metavar="H_FILE")
    p.add_argument("--max-exponent", type=_count, default=4,
                   help="plan search bound (default 4)")
    out_format(p)
    p.set_defaults(func=cmd_suggest)

    p = sub.add_parser("transform", help="apply a shift plan to a pair")
    p.add_argument("g", metavar="G_FILE")
    p.add_argument("h", metavar="H_FILE")
    p.add_argument("--plan", required=True, metavar="PLAN_FILE")
    out_format(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("reduce",
                       help="apply a plan and row-reduce, with a full report")
    p.add_argument("g", metavar="G_FILE")
    p.add_argument("h", metavar="H_FILE")
    p.add_argument("--plan", required=True, metavar="PLAN_FILE")
    out_format(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("code-trellis", help="build the encoder trellis")
    p.add_argument("g", metavar="G_FILE")
    p.add_argument("--n-blocks", type=_count, required=True, metavar="N")
    out_format(p, choices=("text", "json", "dot"))
    p.set_defaults(func=cmd_code_trellis)

    p = sub.add_parser("error-trellis",
                       help="build the syndrome-former trellis")
    p.add_argument("h", metavar="H_FILE")
    p.add_argument("syndrome", metavar="SYNDROME_FILE")
    p.add_argument("--n-blocks", type=_count, default=None, metavar="N",
                   help="real blocks before the flush (default: infer)")
    out_format(p, choices=("text", "json", "dot"))
    p.set_defaults(func=cmd_error_trellis)

    p = sub.add_parser("decode",
                       help="min-weight error estimate for received data")
    p.add_argument("h", metavar="H_FILE")
    p.add_argument("z", metavar="Z_FILE")
    p.add_argument("--n-blocks", type=_count, default=None, metavar="N")
    out_format(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify",
                       help="end-to-end simultaneous-reduction check")
    p.add_argument("g", metavar="G_FILE")
    p.add_argument("h", metavar="H_FILE")
    p.add_argument("z", metavar="Z_FILE")
    p.add_argument("--plan", required=True, metavar="PLAN_FILE")
    p.add_argument("--n-blocks", type=_count, default=None, metavar="N")
    out_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle",
                       help="trellis path sets against brute-force sets")
    p.add_argument("g", metavar="G_FILE")
    p.add_argument("h", metavar="H_FILE")
    p.add_argument("--n-blocks", type=_count, default=4, metavar="N")
    p.add_argument("--trials", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    out_format(p)
    p.set_defaults(func=cmd_oracle)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
