"""Seeded inputs for the three workloads and the length probe.

Every generator draws from a random.Random seeded with the workload name
and the --seed value, so one seed always gives the same files.  Inputs are
never filtered by how the program handles them.
"""

from __future__ import annotations

import random
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from checks import check_decode, check_suggest, check_verify
from gf2 import blocks_text, clmul, matrix_text


class Op(NamedTuple):
    """One cli.main call and the check its JSON report must pass."""
    argv: list
    check: Callable


class Frame(NamedTuple):
    z: str
    n_blocks: int
    flush: int
    injected: int
    g1: int
    g2: int


# K=7 rate-1/2 code, generators 171 and 133 octal read with D^0 first:
# g1 = 1+D+D^2+D^3+D^6, g2 = 1+D^2+D^3+D^5+D^6.  H = (g2, g1).
K7_G1 = 0b1001111
K7_G2 = 0b1101101
K7_MEMORY = 6
DECODE_INFO_BLOCKS = 200
DECODE_CROSSOVER = 0.02
DECODE_POOL = 256

SUGGEST_PAIRS = 160
SUGGEST_PASS = 40
SUGGEST_N = 5
SUGGEST_MAX_EXPONENT = 4

# The MAIN, T2 and CHAIN pairs of the test fixtures with their plans (one
# line per column: gDiv gMul hDiv hMul; CHAIN's plan is CHAIN_T1 composed
# with CHAIN_T2).  At these real-block counts every reduced code trellis
# has exactly 1024 paths.
VERIFY_PAIRS = (
    ("MAIN", "D+D^2,D^2,1+D", "1,0,D;D,1+D,0", "1 0 0 0\n1 0 0 0\n0 0 1 0", 12),
    ("T2", "1+D,1,D+D^2", "D,0,1;1,1+D,0", "0 0 0 0\n0 0 0 0\n1 0 0 1", 12),
    ("CHAIN", "1+D+D^2,D,D^4+D^5", "D^3,D^2,1;D,1+D+D^2,0",
     "0 0 1 0\n1 0 0 0\n3 0 0 2", 14),
)
VERIFY_WORDS_PER_PAIR = 128

PROBE_LENGTHS = (50, 200, 800)
# Rounds of one frame per length, interleaved so that a change in machine
# speed during the probe falls on every length alike.
PROBE_ROUNDS = 3


def _write(path: Path, text: str) -> str:
    path.write_text(text + "\n", encoding="ascii")
    return str(path)


def make_frame(rng: random.Random, n_info: int) -> Frame:
    """N random information blocks plus a zero tail, encoded and sent over a
    binary symmetric channel."""
    n_blocks = n_info + K7_MEMORY
    u = rng.getrandbits(n_info)
    z, injected = [], 0
    for g in (K7_G1, K7_G2):
        e = 0
        for t in range(n_blocks):
            if rng.random() < DECODE_CROSSOVER:
                e |= 1 << t
        injected += bin(e).count("1")
        z.append(clmul(u, g) ^ e)
    return Frame(blocks_text(z, n_blocks), n_blocks, K7_MEMORY, injected,
                 K7_G1, K7_G2)


def _decode_ops(frames, work: Path, out: str, tag: str) -> list:
    h = _write(work / "k7_H.txt", matrix_text([[K7_G2, K7_G1]]))
    ops = []
    for i, frame in enumerate(frames):
        z = _write(work / f"{tag}{i}_z.txt", frame.z)
        ops.append(Op(["decode", h, z, "--format", "json", "--out", out],
                      partial(check_decode, frame=frame)))
    return ops


def decode_k7(rng, work, out):
    frames = [make_frame(rng, DECODE_INFO_BLOCKS) for _ in range(DECODE_POOL)]
    return _decode_ops(frames, work, out, "frame")


def random_r5_pair(rng: random.Random):
    """G = (g_j D^a_j), a_j in {0,1,2}, deg g_j <= 3, g_j(0) = 1; row i of H
    holds G's entry j=i+1 in column 1 and G's entry 1 in column i+1."""
    g = [(1 | rng.getrandbits(3) << 1) << rng.randrange(3)
         for _ in range(SUGGEST_N)]
    h = []
    for i in range(1, SUGGEST_N):
        row = [0] * SUGGEST_N
        row[0], row[i] = g[i], g[0]
        h.append(row)
    return [g], h


def suggest_r5(rng, work, out):
    ops = []
    for i in range(SUGGEST_PAIRS):
        g_rows, h_rows = random_r5_pair(rng)
        g = _write(work / f"r5_{i}_G.txt", matrix_text(g_rows))
        h = _write(work / f"r5_{i}_H.txt", matrix_text(h_rows))
        ops.append(Op(["suggest", g, h, "--max-exponent",
                       str(SUGGEST_MAX_EXPONENT), "--format", "json",
                       "--out", out],
                      partial(check_suggest, g_rows=g_rows, h_rows=h_rows)))
    return ops


def verify_1k(rng, work, out):
    files = []
    for name, g, h, plan, n_real in VERIFY_PAIRS:
        files.append((_write(work / f"{name}_G.txt", g),
                      _write(work / f"{name}_H.txt", h),
                      _write(work / f"{name}_plan.txt", plan), n_real))
    ops = []
    for k in range(VERIFY_WORDS_PER_PAIR):
        for (g, h, plan, n_real), (name, *_) in zip(files, VERIFY_PAIRS):
            word = " ".join(format(rng.getrandbits(3), "03b")
                            for _ in range(n_real))
            z = _write(work / f"{name}_{k}_z.txt", word)
            ops.append(Op(["verify", g, h, z, "--plan", plan,
                           "--format", "json", "--out", out], check_verify))
    return ops


class Workload(NamedTuple):
    prepare: Callable   # (rng, work dir, output path) -> list of Op
    pass_size: int      # operations in one traced pass


WORKLOADS = {
    "decode-k7": Workload(decode_k7, 4),
    "suggest-r5": Workload(suggest_r5, SUGGEST_PASS),
    "verify-1k": Workload(verify_1k, 4 * len(VERIFY_PAIRS)),
}


def probe_ops(seed: int, work: Path, out: str) -> list:
    """(N, Op) for each decode of the length probe."""
    rng = random.Random(f"probe:{seed}")
    ops = []
    for r in range(PROBE_ROUNDS):
        for n_info in PROBE_LENGTHS:
            [op] = _decode_ops([make_frame(rng, n_info)], work, out,
                               f"probe{r}_{n_info}_")
            ops.append((n_info, op))
    return ops
