import random
import re
import sys
import threading
import time
import tracemalloc

import pytest

from shifttrellis import (
    BlockSequence,
    Branch,
    Trellis,
    build_code_trellis,
    build_error_trellis,
    count_paths,
    enumerate_paths,
    format_blocks,
    memory,
    min_weight_path,
    parse_blocks,
    overall_constraint_length,
    parse_matrix,
    syndrome,
    trellis_dot,
)
from shifttrellis import trellis
from shifttrellis.trellis import MAX_PATHS, MAX_TRELLIS_WORK

from pairs import (
    ALL_PAIRS,
    E_MAIN_RAW,
    G_MAIN,
    H_BACK_COLSHIFT,
    H_MAIN,
    MAIN_MASKS,
    MAIN_PAIR,
    Z_MAIN,
    ZETA_MAIN,
    blocks,
    from_bit_tuples,
)


def test_code_trellis_shape():
    t = build_code_trellis(G_MAIN, 4)
    assert t.n == 3
    assert t.horizon == 4
    assert t.state_bits == overall_constraint_length(G_MAIN) == 2
    assert t.state_count == 4
    assert count_paths(t) > 0


def test_code_trellis_path_count():
    # k free info bits per section until the flush tail takes over
    for pair in ALL_PAIRS:
        k = pair.G.rows
        mem = memory(pair.G)
        for horizon in range(mem, 7):
            t = build_code_trellis(pair.G, horizon)
            assert len(enumerate_paths(t)) == 1 << (k * (horizon - mem))


def test_code_trellis_too_short():
    with pytest.raises(ValueError, match="horizon too short"):
        build_code_trellis(G_MAIN, 1)


def test_code_paths_are_codewords():
    for pair in ALL_PAIRS:
        t = build_code_trellis(pair.G, 6)
        for y in enumerate_paths(t):
            assert syndrome(y, pair.H).weight == 0


def test_code_paths_terminate_at_zero_state():
    t = build_code_trellis(G_MAIN, 5)
    assert {b.to_state for b in t.sections[-1]} == {0}


def test_memoryless_code_trellis():
    t = build_code_trellis(parse_matrix("1,1"), 2)
    assert t.state_bits == 0
    got = sorted(format_blocks(p) for p in enumerate_paths(t))
    assert got == ["00 00", "00 11", "11 00", "11 11"]


def test_error_trellis_shape():
    t = build_error_trellis(H_MAIN, ZETA_MAIN)
    assert t.n == 3
    assert t.horizon == 5
    assert t.state_bits == overall_constraint_length(H_MAIN) == 2
    assert count_paths(t) > 0


def test_error_trellis_paths():
    t = build_error_trellis(H_MAIN, ZETA_MAIN)
    assert tuple(enumerate_paths(t)) == E_MAIN_RAW


def test_error_paths_reproduce_syndrome():
    t = build_error_trellis(H_MAIN, ZETA_MAIN)
    for e in enumerate_paths(t):
        assert syndrome(e, H_MAIN) == ZETA_MAIN


def test_error_trellis_zero_syndrome_is_code_set():
    # the kernel of the former is exactly the code, horizon-for-horizon
    for pair in ALL_PAIRS:
        horizon = 4 + memory(pair.G)
        zeta = BlockSequence(pair.H.rows, horizon, 0)
        # leave every section free: the former must end in the zero state,
        # which pins the admissible set to sequences whose syndrome stays
        # zero past the horizon too, i.e. the code itself
        errs = enumerate_paths(
            build_error_trellis(pair.H, zeta, n_real=horizon))
        code = enumerate_paths(build_code_trellis(pair.G, horizon))
        assert set(errs) == set(code)


def test_error_trellis_width_mismatch():
    with pytest.raises(ValueError, match="syndrome width 3, expected 2"):
        build_error_trellis(H_MAIN, Z_MAIN)


def test_error_trellis_horizon_shorter_than_flush():
    zeta = BlockSequence(2, 2, 0)
    with pytest.raises(ValueError, match="flush alone needs 3"):
        build_error_trellis(parse_matrix("D^3,D^2,1;D,1+D+D^2,0"), zeta)


def test_infeasible_syndrome():
    # first check row of this former is entirely delayed, so a syndrome
    # firing it at t=1 cannot come from any error sequence
    zeta = parse_blocks("10 00 00 00 00 00", width=2)
    t = build_error_trellis(H_BACK_COLSHIFT, zeta)
    assert count_paths(t) == 0
    assert enumerate_paths(t) == []
    ok = build_error_trellis(H_BACK_COLSHIFT, parse_blocks("01 00 00 00 00 00"))
    assert count_paths(ok) > 0
    assert len(enumerate_paths(ok)) == 4


def test_code_trellis_work_cap():
    # 2^24 states x 30 sections x 2 branches each is over the cap
    msg = ("trellis too large: 2^24 states x 30 sections x 2^1 branches "
           f"exceeds {MAX_TRELLIS_WORK}")
    with pytest.raises(ValueError, match=re.escape(msg)):
        build_code_trellis(parse_matrix("1+D^24,1"), 30)


def test_code_trellis_refuses_a_long_horizon_before_any_allocation():
    # without masks no horizon-long int, text or list is made before the
    # size check: 2^30 blocks of G = 1 are refused within a few KB
    msg = ("trellis too large: 2^0 states x 1073741824 sections x 2^1 "
           f"branches exceeds {MAX_TRELLIS_WORK}")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(msg)):
            build_code_trellis(parse_matrix("1"), 1 << 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_error_trellis_work_cap():
    msg = ("trellis too large: 2^20 states x 40 sections x 2^2 branches "
           f"exceeds {MAX_TRELLIS_WORK}")
    with pytest.raises(ValueError, match=re.escape(msg)):
        build_error_trellis(parse_matrix("1+D^20,1"),
                            BlockSequence(1, 40, 0))


def refused_peak(t, held):
    """The tracemalloc peak of enumerate_paths(t), which must refuse with a
    layer of `held` prefixes."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"too many paths: at least {held} exceeds {MAX_PATHS}")):
            enumerate_paths(t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumerate_paths_cap():
    # two parallel branches per section: 2^17 paths, refused before the
    # last layer, which would hold them all, is built; the 2^16 prefixes
    # before it, about 2.4 MB of ints and pointers, are the most held
    sec = (Branch(0, 0, 0), Branch(0, 0, 1))
    assert refused_peak(Trellis(1, 17, 0, (sec,) * 17), 1 << 17) < 6 << 20
    assert len(enumerate_paths(Trellis(1, 3, 0, (sec,) * 3))) == 8
    # 512 parallel branches: refused with only the first layer's 512 held
    wide = tuple(Branch(0, 0, label) for label in range(512))
    assert refused_peak(Trellis(9, 2, 0, (wide,) * 2), 1 << 18) < 100_000


def test_long_listing_refused_without_counting(monkeypatch):
    # G = 1 over 2^18 blocks has 2^(2^18) paths, whose exact count takes
    # seconds of big-int sums; the walk refuses at its 17th layer and
    # holds at most one layer of 2^16 prefixes besides the section tuples
    t = build_code_trellis(parse_matrix("1"), 1 << 18)

    def no_count(_):
        raise AssertionError("count_paths called")

    monkeypatch.setattr(trellis, "count_paths", no_count)
    assert refused_peak(t, 1 << 17) < 16 << 20


def test_enumerate_paths_holds_no_dead_prefixes():
    # 17 full 2-state sections, then none into state 0: no path, though
    # 2^17 prefixes would reach the last section
    full = (Branch(0, 0, 0), Branch(0, 1, 1), Branch(1, 0, 0), Branch(1, 1, 1))
    last = (Branch(0, 1, 0), Branch(1, 1, 1))
    t = Trellis(1, 18, 1, (full,) * 17 + (last,))
    tracemalloc.start()
    try:
        assert enumerate_paths(t) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # one branch into state 0 at the end keeps exactly the paths through it
    t = Trellis(1, 4, 1, (full,) * 3 + (last + (Branch(1, 0, 1),),))
    assert enumerate_paths(t) == [BlockSequence(1, 4, b)
                                  for b in (0b0011, 0b0111, 0b1011, 0b1111)]


def test_trellis_is_pruned_when_made(monkeypatch):
    # a hand-built trellis with dead ends: state 1 after section 1 has no
    # way on, and state 1 after section 2 none to state 0 at the end
    t = Trellis(1, 3, 1, (
        [Branch(0, 0, 0), Branch(0, 1, 1)],
        [Branch(0, 0, 1), Branch(0, 1, 0)],
        [Branch(0, 0, 0), Branch(0, 0, 1)],
    ))
    assert t.sections == (
        (Branch(0, 0, 0),),
        (Branch(0, 0, 1),),
        (Branch(0, 0, 0), Branch(0, 0, 1)),
    )
    # one section object repeated stays one pruned object
    sec = [Branch(0, 0, 0), Branch(0, 1, 1)]
    shared = Trellis(1, 2, 1, (sec, sec))
    assert shared.sections[0] is shared.sections[1]

    def no_prune(_, __):
        raise AssertionError("_prune called")

    monkeypatch.setattr(trellis, "_prune", no_prune)
    assert enumerate_paths(t) == [blocks("0 1 0"), blocks("0 1 1")]


def test_trellis_drops_branches_no_path_from_the_start_reaches():
    # README's example: state 1 at the start is reached by no path, so
    # both branches go and the empty sections say there is no path
    t = Trellis(1, 2, 1, ([Branch(1, 0, 0)], [Branch(0, 0, 0)]))
    assert t.sections == ((), ())
    assert not all(t.sections)
    assert count_paths(t) == 0 and enumerate_paths(t) == []
    # mid-trellis, a branch from an unreached state goes, the rest stays
    t = Trellis(1, 3, 1, ([Branch(0, 0, 0)],
                          [Branch(0, 0, 1), Branch(1, 0, 0)],
                          [Branch(0, 0, 0)]))
    assert t.sections == ((Branch(0, 0, 0),), (Branch(0, 0, 1),),
                          (Branch(0, 0, 0),))
    assert all(t.sections)
    assert min_weight_path(t) == (blocks("0 1 0"), 1)


def test_error_trellis_build_is_linear_in_the_syndrome_length():
    # H = 1,1 over a random syndrome of 2^20 blocks: each section's key is
    # read from one text of the syndrome and of the forced bits; shifting
    # the whole packed int for each section made the build quadratic
    n = 1 << 20
    zeta = BlockSequence(1, n, random.Random(7).getrandbits(n))
    start = time.perf_counter()
    t = build_error_trellis(parse_matrix("1,1"), zeta)
    assert time.perf_counter() - start < 10
    assert (t.horizon, len(set(map(id, t.sections)))) == (n, 2)


def test_code_trellis_masks():
    base = build_code_trellis(G_MAIN, 5)
    masked = build_code_trellis(G_MAIN, 5, masks=MAIN_MASKS)
    kept = enumerate_paths(masked)
    assert 0 < len(kept) < len(enumerate_paths(base))
    for y in kept:
        assert y.bit(1, 3) == 0 and y.bit(5, 1) == 0 and y.bit(5, 2) == 0


def test_mask_validation():
    # masks are 5 blocks of 3 bits, or None; a dict of columns is refused
    for masks in (BlockSequence(4, 5, 0), BlockSequence(2, 5, 0),
                  BlockSequence(3, 9, 0), BlockSequence(3, 4, 0), {1: {3}}):
        with pytest.raises(ValueError,
                           match="^masks must be 5 blocks of 3 bits$"):
            build_code_trellis(G_MAIN, 5, masks=masks)


def test_min_weight_path():
    t = build_error_trellis(H_MAIN, ZETA_MAIN)
    e, w = min_weight_path(t)
    assert format_blocks(e) == "000 100 000 100 000"
    assert w == 2


def test_min_weight_zero_syndrome():
    zeta = BlockSequence(2, 5, 0)
    e, w = min_weight_path(build_error_trellis(H_MAIN, zeta))
    assert w == 0
    assert e == BlockSequence(3, 5, 0)


def test_min_weight_no_path():
    zeta = parse_blocks("10 00 00 00 00 00", width=2)
    t = build_error_trellis(H_BACK_COLSHIFT, zeta)
    with pytest.raises(ValueError, match="no admissible path"):
        min_weight_path(t)


def test_min_weight_path_follows_every_tied_state():
    # state 0 has two branches labelled 00, and both ends finish at weight
    # 1; the smaller finish 01 is only reachable from state 2
    t = Trellis(2, 2, 2, (
        (Branch(0, 1, 0b00), Branch(0, 2, 0b00)),
        (Branch(1, 0, 0b10), Branch(2, 0, 0b01)),
    ))
    e, w = min_weight_path(t)
    assert (format_blocks(e), w) == ("00 01", 1)


def test_branches_unique_per_section():
    for t in (build_code_trellis(G_MAIN, 5),
              build_error_trellis(H_MAIN, ZETA_MAIN)):
        for sec in t.sections:
            assert len(sec) == len(set(sec))


def test_dot_snapshot():
    t = build_code_trellis(parse_matrix("1"), 1)
    assert trellis_dot(t) == (
        'digraph trellis {\n'
        '  rankdir=LR;\n'
        '  "t0/s";\n'
        '  "t1/s";\n'
        '  "t0/s" -> "t1/s" [label="0"];\n'
        '  "t0/s" -> "t1/s" [label="1"];\n'
        '}')


def test_dot_structure():
    t = build_code_trellis(G_MAIN, 3)
    dot = trellis_dot(t)
    assert dot.startswith("digraph trellis {")
    # fresh input occupies the high register cell, printed last
    assert '"t0/s00"' in dot
    assert '"t1/s01"' in dot
    assert dot.count("->") == sum(len(s) for s in t.sections)


# K=7 rate-1/2 code, generators 171 and 133 octal: H = (g2, g1).
H_K7 = parse_matrix("1+D^2+D^3+D^5+D^6,1+D+D^2+D^3+D^6")


def k7_syndrome(n_info, rng):
    """Syndrome of n_info random blocks through a crossover-0.02 channel,
    plus the 6-block zero tail; codeword bits do not change it."""
    z = from_bit_tuples(2, [[int(rng.random() < 0.02) for _ in range(2)]
                            for _ in range(n_info)]).padded(n_info + 6)
    return syndrome(z, H_K7)


def test_error_trellis_shares_repeated_sections():
    """A section is fixed by its syndrome block, its forced columns and the
    states it starts from, so a K=7 frame has as many distinct section
    objects at N=800 as at N=200: decoding works per distinct section."""
    rng = random.Random(7)
    distinct = {}
    for n in (200, 800):
        t = build_error_trellis(H_K7, k7_syndrome(n, rng))
        distinct[n] = len({id(sec) for sec in t.sections})
    assert distinct[200] == distinct[800]


def traced_tables(build, *args, most=None):
    """build(*args), how many machines it made (_machine calls) and how
    many table entries (the lengths _xors returned); a call of either past
    `most` raises AssertionError inside the build."""
    calls, made = [], {"_machine": 0, "_xors": 0}

    def profile(frame, event, arg):
        code = frame.f_code
        if code.co_name not in made or code.co_filename != trellis.__file__:
            return
        if event == "call":
            calls.append(1)
            if most is not None and len(calls) > most:
                raise AssertionError(f"more than {most} table calls")
        elif event == "return":
            made[code.co_name] += 1 if code.co_name == "_machine" else len(arg)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        t = build(*args)
    finally:
        sys.setprofile(old)
    return t, made["_machine"], made["_xors"]


def test_builders_table_each_code_once():
    """Both machines are linear, so a code's first build makes its machine
    once and tables each input block's response and each 8-bit chunk of
    state bits' response, nothing per (state, input) pair: 4 + 64 entries
    on the K=7 error side, against 64 x 4 pairs, and 2 + 64 on its code
    side, against 64 x 2.  The tables are kept per code, so a later build
    of the same code, with another syndrome or other masks, makes none,
    and a build of the other code in between changes neither count."""
    G_K7 = parse_matrix("1+D+D^2+D^3+D^6,1+D^2+D^3+D^5+D^6")
    trellis._MEMOS.clear()
    rng = random.Random(5)

    def error_build():
        return traced_tables(build_error_trellis, H_K7, k7_syndrome(200, rng))

    def code_build(spot):
        # forced zeros on output bit 2 of the first block and on output
        # bit 1 of block `spot`, so each build's sections differ
        mask = parse_blocks(" ".join(
            "01" if b == 0 else "10" if b == spot else "00"
            for b in range(200)))
        return traced_tables(build_code_trellis, G_K7, 200, mask)

    for build, first in ((error_build, 4 + 64),
                         (lambda: code_build(99), 2 + 64)):
        t, machines, entries = build()
        assert count_paths(t) > 0
        assert (machines, entries) == (1, first)
    for build in (error_build, lambda: code_build(150), error_build):
        t, machines, entries = build()
        assert count_paths(t) > 0
        assert (machines, entries) == (0, 0)


def test_kept_tables_stay_bounded(monkeypatch):
    """Decoding more codes than _CODES keeps the memos of the last _CODES
    built, and no dict in one grows past _ENTRIES (patched small here, so
    K=7 frames overflow it), while every decode stays exact.  The response
    tables, the one kind that is no dict, are fixed by the code."""
    monkeypatch.setattr(trellis, "_ENTRIES", 8)
    trellis._MEMOS.clear()
    rng = random.Random(11)
    codes = [parse_matrix(f"1+D+D^2,{c}")
             for c in ("1", "D", "1+D", "1+D^2", "D+D^2", "1+D+D^2", "D^2",
                       "1+D^3", "D+D^3", "D^2+D^3")] + [H_K7]
    assert len(codes) > trellis._CODES
    for H in codes:
        for _ in range(3):
            z = BlockSequence(2, 40, rng.getrandbits(80)).padded(
                40 + memory(H))
            t = build_error_trellis(H, syndrome(z, H))
            # the same sections, decoded with a memo of their own
            alone = Trellis(t.n, t.horizon, t.state_bits, t.sections)
            assert min_weight_path(t) == min_weight_path(alone)
    assert [code for _, code in trellis._MEMOS] == codes[-trellis._CODES:]
    for memo in trellis._MEMOS.values():
        # every kind but the response tables is a dict bounded by _ENTRIES
        kinds = vars(memo)
        kept = [kind for kind in kinds.values() if isinstance(kind, dict)]
        assert len(kept) == len(kinds) - 1
        assert all(len(kind) <= 8 for kind in kept)
    for (_, H), memo in trellis._MEMOS.items():
        # the tables are fixed by the code: one entry per error block, and
        # at most 256 per chunk of 8 state bits
        table, chunks = memo.tables
        assert len(table) == 1 << H.cols
        assert all(len(chunk) <= 256 for chunk in chunks)
        assert sum(len(chunk).bit_length() - 1 for chunk in chunks) == (
            overall_constraint_length(H))
    assert trellis._MEMOS["error", H_K7].layouts


def test_kept_tables_shared_by_threads(monkeypatch):
    """Six threads decode frames of three codes at once, switching often,
    with room kept for two codes, so memos are filled, read and evicted
    from several threads: each decode equals one made from empty memos."""
    monkeypatch.setattr(trellis, "_CODES", 2)
    codes = [H_K7, parse_matrix("1+D+D^2,1+D^2"), parse_matrix("1+D^3,1")]
    rng = random.Random(13)
    jobs = []
    for i in range(24):
        H = codes[i % 3]
        z = BlockSequence(2, 30, rng.getrandbits(60)).padded(30 + memory(H))
        trellis._MEMOS.clear()
        zeta = syndrome(z, H)
        jobs.append((H, zeta, min_weight_path(build_error_trellis(H, zeta))))
    trellis._MEMOS.clear()
    failures = []

    def work(k):
        try:
            for H, zeta, want in jobs[k:] + jobs[:k]:
                assert min_weight_path(build_error_trellis(H, zeta)) == want
        except Exception as exc:  # reported by the main thread below
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert failures == []


def test_wide_check_matrix_over_empty_syndrome():
    # 2^40 error blocks per section, but no section to build: no machine
    # or table is made, so the one empty path comes at once
    t, machines, entries = traced_tables(build_error_trellis,
                                         parse_matrix(",".join(["1"] * 40)),
                                         BlockSequence(1, 0, 0), most=0)
    assert (t.horizon, machines, entries) == (0, 0, 0)
    assert enumerate_paths(t) == [BlockSequence(40, 0, 0)]
