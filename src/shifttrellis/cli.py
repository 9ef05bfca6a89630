"""Command-line front end.

Subcommands read matrices, block sequences and plans from files in the
text grammars of the library and write deterministic reports, so identical
inputs always produce identical bytes.  Exit status: 0 success, 1 a check
or construction failed, 2 inputs or arguments could not be read or parsed.

Each cmd_* function returns its report and exit status; none writes output
or catches an exception.  main alone writes the report, to stdout or to
--out, and turns every failure into one "error: ..." line on stderr:
- a _Fail exits with its own status: 2 from _load, the one path that reads
  and parses an input file, and from an --out that cannot be written; 1
  from _pair for matrices that are not a pair;
- a ValueError or RuntimeError, the two exceptions the library raises on
  purpose, exits 1;
- a reader that closes stdout early (`| head`) ends it with status 1 and
  nothing on stderr.
Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .blocks import format_blocks, format_sequences, parse_blocks
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
from .sequences import (
    reconstruct_code_paths,
    syndrome,
    verify_simultaneous_reduction,
)
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


# Most syndrome trials oracle runs; each holds one report line.
MAX_TRIALS = 4096


class _Fail(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _load(parse, path, *args):
    """parse(text of the file at path, *args); exit 2 if either step fails."""
    try:
        with open(path, "r", encoding="ascii") as f:
            return parse(f.read(), *args)
    except OSError as exc:
        raise _Fail(2, f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise _Fail(2, f"{path}: {exc}") from None


def _pair(g_path, h_path):
    g, h = _load(parse_matrix, g_path), _load(parse_matrix, h_path)
    try:
        return GHPair(g, h)
    except ValueError as exc:
        raise _Fail(1, f"not a valid pair: {exc}") from None


def _dump(obj):
    return json.dumps(obj, indent=2)


def _mat_json(M):
    return [[format_poly(e) for e in M.row(i)] for i in range(1, M.rows + 1)]


def _indented(texts):
    """Each listed text as a report line, indented by two spaces."""
    return map("  ".__add__, texts)


def _nu_line(r):
    """The nu figures of a reduction or a search result, as one text line."""
    return (f"nu: {r.nu_before} -> {r.nu_after} "
            f"(dual {r.nu_before_dual} -> {r.nu_after_dual})")


def _nu_json(r):
    """The nu figures of a reduction or a search result, as JSON keys."""
    return {"nuBefore": r.nu_before,
            "nuBeforeDual": r.nu_before_dual,
            "nuAfter": r.nu_after,
            "nuAfterDual": r.nu_after_dual,
            "reduced": r.reduced}


def _plan_json(plan):
    return dict(zip(("gDiv", "gMul", "hDiv", "hMul"), map(list, plan.parts())))


def cmd_check_gh(args):
    g, h = _load(parse_matrix, args.g), _load(parse_matrix, args.h)
    fault = GHPair.fault(g, h)
    if g.cols != h.cols:
        raise _Fail(1, f"not a valid pair: {fault}")
    prod = mat_mul_transpose(g, h)
    nonzero = [(p, q, prod.entry(p, q))
               for p in range(1, prod.rows + 1)
               for q in range(1, prod.cols + 1) if prod.entry(p, q)]
    if args.format == "json":
        text = _dump({"holds": fault is None,
                      "product": _mat_json(prod),
                      "fullRowRank": {"G": full_row_rank(g),
                                      "H": full_row_rank(h)}})
    elif fault is None:
        text = (f"GH relation holds (n={g.cols}, "
                f"G {g.rows}x{g.cols}, H {h.rows}x{h.cols})")
    elif nonzero:
        p, q, e = nonzero[0]
        text = f"GH relation fails: (G*H^T)[{p}][{q}] = {format_poly(e)}"
    else:
        text = f"GH relation fails: {fault}"
    return text, 0 if fault is None else 1


def cmd_suggest(args):
    pair = _pair(args.g, args.h)
    back = suggest_backward_shift(pair.H)
    best = search_reduction_plan(pair, args.max_exponent)
    if args.format == "json":
        text = _dump({"backwardShifts": list(back),
                      "bestPlan": _plan_json(best.plan),
                      **_nu_json(best)})
    else:
        lines = ["backward shifts: " + " ".join(
                     "inf" if b is None else str(b) for b in back),
                 "best plan (per column: gDiv gMul hDiv hMul):"]
        lines.extend("  " + ln for ln in format_plan(best.plan).splitlines())
        lines.append(_nu_line(best))
        lines.append("reduced: " + ("yes" if best.reduced else "no"))
        text = "\n".join(lines)
    return text, 0


def cmd_transform(args):
    pair, plan = _pair(args.g, args.h), _load(parse_plan, args.plan)
    new = apply_plan(pair, plan)
    if args.format == "json":
        text = _dump({"G": _mat_json(new.G), "H": _mat_json(new.H)})
    else:
        text = f"G': {format_matrix(new.G)}\nH': {format_matrix(new.H)}"
    return text, 0


def cmd_reduce(args):
    pair, plan = _pair(args.g, args.h), _load(parse_plan, args.plan)
    rep = simultaneous_reduce(pair, plan)
    if args.format == "json":
        text = _dump({
            **_nu_json(rep),
            "rowDivisionsApplied": {side: list(exps) for side, exps
                                    in rep.row_divisions_applied.items()},
            "plan": _plan_json(plan),
            "G": _mat_json(rep.transformed_pair.G),
            "H": _mat_json(rep.transformed_pair.H)})
    else:
        text = "\n".join([
            f"nu before: {rep.nu_before} (dual {rep.nu_before_dual})",
            f"nu after: {rep.nu_after} (dual {rep.nu_after_dual})",
            "reduced: " + ("yes" if rep.reduced else "no"),
            *(f"row divisions {side}: " + " ".join(map(str, exps))
              for side, exps in rep.row_divisions_applied.items()),
            f"G': {format_matrix(rep.transformed_pair.G)}",
            f"H': {format_matrix(rep.transformed_pair.H)}"])
    return text, 0


def _check_n_blocks(args, given, exact):
    """--n-blocks, or given if it is absent; exit 2 if it differs from
    given (exact) or exceeds it."""
    n = given if args.n_blocks is None else args.n_blocks
    if n != given if exact else n > given:
        raise _Fail(2, f"--n-blocks {n} but {given} blocks given")
    return n


def _trellis_report(t, fmt, paths, extra=()):
    """Trellis t's state counts and its listed paths as JSON or as text,
    with the extra lines after the state count."""
    paths = format_sequences(paths)
    if fmt == "json":
        return _dump({"stateBits": t.state_bits, "states": t.state_count,
                      "horizon": t.horizon, "feasible": bool(paths),
                      "paths": paths})
    return "\n".join([f"state bits: {t.state_bits}", f"states: {t.state_count}",
                      *extra, f"paths: {len(paths)}", *_indented(paths)])


def cmd_code_trellis(args):
    t = build_code_trellis(_load(parse_matrix, args.g), args.n_blocks)
    if args.format == "dot":
        return trellis_dot(t), 0
    return _trellis_report(t, args.format, enumerate_paths(t)), 0


def cmd_error_trellis(args):
    h = _load(parse_matrix, args.h)
    syn = _load(parse_blocks, args.syndrome, h.rows)
    _check_n_blocks(args, len(syn), exact=False)
    t = build_error_trellis(h, syn, n_real=args.n_blocks)
    if args.format == "dot":
        # a built trellis is pruned: it has a path iff no section is empty
        return trellis_dot(t), 0 if all(t.sections) else 1
    paths = enumerate_paths(t)
    flag = "feasible: yes" if paths else "feasible: no (infeasible syndrome)"
    return _trellis_report(t, args.format, paths, [flag]), 0 if paths else 1


def cmd_decode(args):
    h = _load(parse_matrix, args.h)
    z = _load(parse_blocks, args.z, h.cols)
    _check_n_blocks(args, len(z), exact=True)
    z_pad = z.padded(len(z) + memory(h))
    zeta = syndrome(z_pad, h)
    e_hat, weight = min_weight_path(build_error_trellis(h, zeta))
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
    return text, 0


def cmd_verify(args):
    pair, plan = _pair(args.g, args.h), _load(parse_plan, args.plan)
    z = _load(parse_blocks, args.z, pair.n)
    n_real = _check_n_blocks(args, len(z), exact=False)
    rep = verify_simultaneous_reduction(pair, plan, z, n_real)
    errors, codes, mismatch = map(format_sequences, (
        rep.error_paths, rep.code_paths, rep.mismatch))
    # On PASS the xor side is the set of code paths, distinct and sorted.
    recon = codes if rep.passed else format_sequences(
        reconstruct_code_paths(rep.z_shifted, rep.error_paths))
    red = rep.reduction
    code_states = 1 << red.nu_before, 1 << red.nu_after
    error_states = 1 << red.nu_before_dual, 1 << red.nu_after_dual
    if args.format == "json":
        text = _dump({
            "window": rep.window,
            "nReal": rep.n_real,
            "zPadded": format_blocks(rep.z_padded),
            "zShifted": format_blocks(rep.z_shifted),
            "syndrome": format_blocks(rep.shifted_syndrome),
            "nuBefore": red.nu_before,
            "nuAfter": red.nu_after,
            "codeStatesBefore": code_states[0],
            "codeStatesAfter": code_states[1],
            "errorStatesBefore": error_states[0],
            "errorStatesAfter": error_states[1],
            "errorPaths": errors,
            "codePaths": codes,
            "reconstructed": recon,
            "passed": rep.passed,
            "mismatch": mismatch})
    else:
        lines = [
            f"window: {rep.window} blocks ({rep.n_real} real)",
            f"z (padded): {format_blocks(rep.z_padded)}",
            f"z (shifted): {format_blocks(rep.z_shifted)}",
            f"syndrome: {format_blocks(rep.shifted_syndrome)}",
            _nu_line(red),
            f"code states: {code_states[0]} -> {code_states[1]}",
            f"error states: {error_states[0]} -> {error_states[1]}",
            f"error paths ({len(errors)}):", *_indented(errors),
            f"code paths ({len(codes)}):", *_indented(codes),
            f"reconstructed ({len(recon)}):", *_indented(recon)]
        if mismatch:
            lines += [f"mismatch ({len(mismatch)}):", *_indented(mismatch)]
        lines.append("result: " + ("PASS" if rep.passed else "FAIL"))
        text = "\n".join(lines)
    return text, 0 if rep.passed else 1


def cmd_oracle(args):
    if args.trials > MAX_TRIALS:
        raise ValueError(
            f"too many trials: {args.trials} exceeds {MAX_TRIALS}")
    pair, n = _pair(args.g, args.h), args.n_blocks
    rng = random.Random(args.seed)

    def checks():
        yield (f"codewords N={n}",
               enumerate_paths(build_code_trellis(pair.G, n)),
               brute_codewords(pair.G, n))
        for trial in range(1, args.trials + 1):
            zeta = random_feasible_syndrome(pair.H, n, rng)
            yield (f"syndrome trial {trial:02d}",
                   enumerate_paths(build_error_trellis(pair.H, zeta)),
                   brute_errors(pair.H, zeta))

    lines, ok = [], True
    for label, found, truth in checks():
        diff = sorted(set(found) ^ set(truth))
        ok = ok and not diff
        lines.append(f"{label}: MISMATCH" if diff
                     else f"{label}: OK ({len(truth)} paths)")
        lines.extend(_indented(format_sequences(diff)))
    lines.append("all checks passed" if ok else "MISMATCH detected")
    return "\n".join(lines), 0 if ok else 1


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


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing does not
    change it, and each command looks its library calls up when it runs."""
    ap = argparse.ArgumentParser(
        prog="shifttrellis",
        description="Simultaneous code/error trellis reduction for binary "
                    "convolutional codes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, files, *options, formats=("text", "json")):
        """Subcommand name: per word X of files an X_FILE positional (dest
        x), the (flag, settings) options, then --format and --out."""
        p = sub.add_parser(name, help=help)
        for f in files.split():
            p.add_argument(f.lower(), metavar=f"{f}_FILE")
        for flag, settings in options:
            p.add_argument(flag, **settings)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="FILE",
                       help="write output here instead of stdout")
        p.set_defaults(func=func)

    plan = "--plan", dict(required=True, metavar="PLAN_FILE")
    n_blocks = "--n-blocks", dict(type=_count, default=None, metavar="N")
    dot = "text", "json", "dot"
    command("check-gh", cmd_check_gh, "check G*H^T = 0 and full row rank",
            "G H")
    command("suggest", cmd_suggest,
            "backward-shift exponents and best found plan", "G H",
            ("--max-exponent", dict(type=_count, default=4,
                                    help="plan search bound (default 4)")))
    command("transform", cmd_transform, "apply a shift plan to a pair",
            "G H", plan)
    command("reduce", cmd_reduce,
            "apply a plan and row-reduce, with a full report", "G H", plan)
    command("code-trellis", cmd_code_trellis, "build the encoder trellis",
            "G", ("--n-blocks", dict(n_blocks[1], required=True)), formats=dot)
    command("error-trellis", cmd_error_trellis,
            "build the syndrome-former trellis", "H SYNDROME",
            ("--n-blocks", dict(n_blocks[1], help="real blocks before the "
                                "flush (default: infer)")), formats=dot)
    command("decode", cmd_decode,
            "min-weight error estimate for received data", "H Z", n_blocks)
    command("verify", cmd_verify, "end-to-end simultaneous-reduction check",
            "G H Z", plan, n_blocks)
    command("oracle", cmd_oracle, "trellis path sets against brute-force sets",
            "G H", ("--n-blocks", dict(n_blocks[1], default=4)),
            ("--trials", dict(type=_count, default=20)),
            ("--seed", dict(type=int, default=0)), formats=("text",))
    return ap


def _write(path, text):
    try:
        with open(path, "w", encoding="ascii") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise _Fail(2, f"cannot write {path}: {exc}") from None


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        text, status = args.func(args)
        if args.out:
            _write(args.out, text)
        else:
            print(text, flush=True)
        return status
    except BrokenPipeError:
        # As Python's signal docs advise: point stdout at devnull, so the
        # flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _Fail as exc:
        code, message = exc.code, str(exc)
    except (ValueError, RuntimeError) as exc:
        code, message = 1, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
