"""The decode path against the earlier per-branch and per-bit code.

reference_sweep, reference_code_trellis, reference_error_trellis,
reference_min_weight_path and reference_syndrome below are those versions,
kept as references: reference_sweep builds every section branch by branch
and prunes it with one Python loop per section, the two reference builders
give each label as a tuple of bits, xored bit by bit from each entry's tap
exponents, over inputs and errors drawn from itertools.product,
reference_min_weight_path relaxes every branch of every section in
Python, and reference_syndrome reads the received word one bit at a time.
Both builders must give the same trellis with the shared-section sweep,
with stepping_sweep patched in (reference_sweep stepping every (state,
input) pair with the reference builders' register steps, so the equality
also tests the linearity _sweep relies on), and as the reference builders
give it once every label is packed, on random code and error trellises
with masks (the matrix and mask generators of test_min_weight_property)
at horizons up to 40, past the oracle's limit, and on TIE_PAIR; the
sections must be equal tuples.  _machine's responses, xored over a
state's and a block's set bits, must equal those register steps on both
forms, on matrices of up to 4 rows and 5 columns.  min_weight_path must
return the identical (sequence, weight) or refuse the same inputs, also
on hand-built trellises whose sections are lists, some empty, some
repeated, with states of unequal branch counts, and on the hand-picked
CORNER_CASES: one section object before two different successors, a
section 1 that does not start from state 0 (or starts from it second), an
empty middle section and a branch into a dead end.  count_paths must say
whether a path exists on each.  Each code keeps its tables across calls,
so builds and decodes are also checked with trellises of several codes
made and dropped in a drawn order among hand-built ones; and a pruned
hand-built trellis must keep exactly the branches that lie on a path.
"""

import itertools
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shifttrellis import (
    BlockSequence,
    Branch,
    PolyMatrix,
    Trellis,
    build_code_trellis,
    build_error_trellis,
    count_paths,
    exponents,
    memory,
    min_weight_path,
    overall_constraint_length,
    random_feasible_syndrome,
    row_degree,
    syndrome,
    trellis,
)
from shifttrellis.blocks import block_values
from shifttrellis.trellis import MAX_TRELLIS_WORK
from pairs import TIE_PAIR, blocks, from_bit_tuples, label_bits
from test_min_weight_property import SETTINGS, masks, matrices

MAX_HORIZON = 40


def reference_sweep(horizon, n, state_bits, branch_bits, key_of,
                    branches_for):
    if horizon << state_bits + branch_bits > MAX_TRELLIS_WORK:
        raise ValueError(
            f"trellis too large: 2^{state_bits} states x {horizon} sections "
            f"x 2^{branch_bits} branches exceeds {MAX_TRELLIS_WORK}")
    memo = {}
    sections = []
    frontier = {0}
    for t in range(1, horizon + 1):
        key = key_of(t)
        sec = []
        for s in sorted(frontier):
            branches = memo.get((key, s))
            if branches is None:
                branches = memo[key, s] = tuple(sorted(
                    Branch(s, ns, lbl) for ns, lbl in branches_for(key, s)))
            sec.extend(branches)
        sections.append(sec)
        frontier = {b.to_state for b in sec}
    alive = {0}
    for t in range(horizon - 1, -1, -1):
        kept = tuple([b for b in sections[t] if b.to_state in alive])
        sections[t] = kept
        alive = {b.from_state for b in kept}
    return Trellis(n, horizon, state_bits, tuple(sections))


def reference_row_layout(M):
    info = []
    off = 0
    for i in range(1, M.rows + 1):
        nu = row_degree(M, i)
        info.append((off, nu, [exponents(e) for e in M.row(i)]))
        off += nu
    return info


def reference_code_step(layout, n, state, inputs):
    """The encoder's (next state, label) from state on the input bits,
    row 1 first, over reference_row_layout(G)."""
    label = [0] * n
    new_state = 0
    for i, (off, nu, taps) in enumerate(layout):
        fld = state >> off & (1 << nu) - 1
        u = inputs[i]
        hist = [u] + [fld >> (nu - d) & 1 for d in range(1, nu + 1)]
        for j, ds in enumerate(taps):
            for d in ds:
                label[j] ^= hist[d]
        if nu:
            new_state |= ((fld >> 1) | (u << (nu - 1))) << off
    return new_state, tuple(label)


def reference_error_step(layout, state, e_bits):
    """The syndrome former's (next state, syndrome bits) from state on the
    error bits, column 1 first, over reference_row_layout(H)."""
    out = []
    new_state = 0
    for off, nu, taps in layout:
        fld = state >> off & (1 << nu) - 1
        hit = [0] * (nu + 1)
        for j, ds in enumerate(taps):
            if e_bits[j]:
                for d in ds:
                    hit[d] ^= 1
        out.append((fld & 1 if nu else 0) ^ hit[0])
        nf = 0
        for r in range(1, nu + 1):
            s_next = fld >> r & 1 if r < nu else 0
            nf |= (s_next ^ hit[r]) << (r - 1)
        new_state |= nf << off
    return new_state, tuple(out)


def reference_response(side, M):
    """(in_bits, response): response(s, x) is the reference step of M's
    machine from state s on input block x, packed as _machine packs, next
    state << w | output, with input bit i - 1 row i's on the code side and
    bit n - j column j's on the error side."""
    layout = reference_row_layout(M)
    if side == "code":
        def response(s, x):
            inputs = [x >> i & 1 for i in range(M.rows)]
            ns, label = reference_code_step(layout, M.cols, s, inputs)
            return ns << M.cols | from_bit_tuples(M.cols, [label]).bits
        return M.rows, response

    def response(s, x):
        ns, out = reference_error_step(layout, s, label_bits(x, M.cols))
        return ns << M.rows | from_bit_tuples(M.rows, [out]).bits
    return M.cols, response


def stepping_sweep(code, horizon, keys, branches):
    """_sweep's signature over reference_sweep, stepping every (state,
    input) pair with the reference steps instead of relying on the
    machine's linearity, and keeping nothing of code's across calls."""
    M = code[1]
    in_bits, response = reference_response(*code)
    keys = iter(keys)
    return reference_sweep(
        horizon, M.cols, overall_constraint_length(M), in_bits,
        lambda t: next(keys),
        lambda key, s: branches(
            key, 0, [response(s, x) for x in range(1 << in_bits)]))


def forced_columns(masks, t, n):
    """The columns that masks, None or a BlockSequence, forces to zero in
    section t."""
    return frozenset(j for j in range(1, n + 1)
                     if masks is not None and masks.bit(t, j))


def reference_code_trellis(G, horizon, masks=None):
    layout = reference_row_layout(G)
    k, n = G.rows, G.cols
    free_until = horizon - memory(G)

    def key_of(t):
        return t <= free_until, forced_columns(masks, t, n)

    def branches_for(key, state):
        free, forced = key
        for inputs in (itertools.product((0, 1), repeat=k) if free
                       else ((0,) * k,)):
            ns, label = reference_code_step(layout, n, state, inputs)
            if not any(label[j - 1] for j in forced):
                yield ns, label

    return reference_sweep(horizon, n, overall_constraint_length(G), k,
                           key_of, branches_for)


def reference_error_trellis(H, syndrome, n_real=None, masks=None):
    n = H.cols
    horizon = len(syndrome)
    if n_real is None:
        n_real = horizon - memory(H)
    layout = reference_row_layout(H)
    flush = frozenset(range(1, n + 1))
    m = syndrome.block_width
    wanted = list(block_values(syndrome.bits, m, horizon))

    def key_of(t):
        return (label_bits(wanted[t - 1], m),
                flush if t > n_real else forced_columns(masks, t, n))

    def branches_for(key, state):
        want, forced = key
        free = [j for j in range(1, n + 1) if j not in forced]
        for bits in itertools.product((0, 1), repeat=len(free)):
            e = [0] * n
            for j, b in zip(free, bits):
                e[j - 1] = b
            ns, out = reference_error_step(layout, state, e)
            if out == want:
                yield ns, tuple(e)

    return reference_sweep(horizon, n, overall_constraint_length(H), n,
                           key_of, branches_for)


def packed_labels(t):
    """t with each tuple label packed into one int, as blocks.py packs."""
    return replace(t, sections=tuple(
        tuple(Branch(s, ns, from_bit_tuples(t.n, [label]).bits)
              for s, ns, label in sec)
        for sec in t.sections))


def reference_min_weight_path(trellis):
    sections = [[(s, ns, label_bits(label, trellis.n))
                 for s, ns, label in sec] for sec in trellis.sections]
    to_go = [{} for _ in sections] + [{0: 0}]
    for t in range(len(sections) - 1, -1, -1):
        after, here = to_go[t + 1], to_go[t]
        for s, ns, label in sections[t]:
            w = after.get(ns)
            if w is not None:
                w += sum(label)
                if w < here.get(s, w + 1):
                    here[s] = w
    if 0 not in to_go[0]:
        raise ValueError("no admissible path")
    weight = left = to_go[0][0]
    states, labels = {0}, []
    for sec, after in zip(sections, to_go[1:]):
        tied = [(label, ns) for s, ns, label in sec
                if s in states and ns in after
                and sum(label) + after[ns] == left]
        best = min(label for label, _ in tied)
        states = {s for label, s in tied if label == best}
        labels.append(best)
        left -= sum(best)
    return from_bit_tuples(trellis.n, labels), weight


def reference_syndrome(z, H):
    taps = [[(j, exponents(h)) for j, h in enumerate(H.row(i), 1)]
            for i in range(1, H.rows + 1)]
    out = []
    for t in range(1, len(z) + 1):
        blk = []
        for row in taps:
            acc = 0
            for j, ds in row:
                for d in ds:
                    if d < t:
                        acc ^= z.bit(t - d, j)
            blk.append(acc)
        out.append(tuple(blk))
    return from_bit_tuples(H.rows, out)


def check_decode(t):
    """min_weight_path agrees with the reference, refusals included."""
    try:
        want = reference_min_weight_path(t)
    except ValueError:
        with pytest.raises(ValueError, match="no admissible path"):
            min_weight_path(t)
        return
    got = min_weight_path(t)
    assert got == want
    assert type(got[1]) is int


def check_build(build, reference, *args, **kwargs):
    """The builder gives the same trellis with either sweep, and the one
    the tuple-label reference gives once its labels are packed; then
    decode."""
    t = build(*args, **kwargs)
    with mock.patch.object(trellis, "_sweep", stepping_sweep):
        ref = build(*args, **kwargs)
    assert t.sections == ref.sections
    assert t == ref
    old = packed_labels(reference(*args, **kwargs))
    assert t.sections == old.sections
    assert t == old
    check_decode(t)


@SETTINGS
@given(st.data())
def test_error_trellis_matches_reference(data):
    H = data.draw(matrices())
    n_real = data.draw(st.integers(0, MAX_HORIZON - memory(H)))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    zeta = random_feasible_syndrome(H, n_real, rng)
    if len(zeta) and data.draw(st.booleans()):
        # one flipped syndrome bit, often infeasible
        flip = 1 << rng.randrange(H.rows * len(zeta))
        zeta = BlockSequence(H.rows, len(zeta), zeta.bits ^ flip)
    mask = masks(data.draw, len(zeta), H.cols)
    check_build(build_error_trellis, reference_error_trellis, H, zeta,
                n_real=n_real, masks=mask)


@SETTINGS
@given(st.data())
def test_code_trellis_matches_reference(data):
    G = data.draw(matrices())
    horizon = data.draw(st.integers(memory(G), MAX_HORIZON))
    mask = masks(data.draw, horizon, G.cols)
    check_build(build_code_trellis, reference_code_trellis, G, horizon,
                masks=mask)


def test_states_past_one_chunk_match_reference():
    """Nine state bits take two 8-bit chunk tables, and both trellises
    here reach states past the first chunk."""
    G = PolyMatrix(1, 2, (0b1000010011, 0b1000101101))
    H = PolyMatrix(2, 3, (0b100011, 0b100, 0b1001, 0b10000, 0b10011, 0b10))
    assert overall_constraint_length(G) == overall_constraint_length(H) == 9
    rng = random.Random(9)
    z = BlockSequence(3, 16, rng.getrandbits(48)).padded(16 + memory(H))
    for build, reference, args in (
            (build_code_trellis, reference_code_trellis, (G, 20)),
            (build_error_trellis, reference_error_trellis,
             (H, syndrome(z, H)))):
        check_build(build, reference, *args)
        assert max(b.from_state for sec in build(*args).sections
                   for b in sec) >= 1 << 8


@st.composite
def machine_matrices(draw):
    """1-4 rows of 1-5 columns with entries of degree at most 3, zero
    entries included; about one row in four has degree 0."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    entries = []
    for _ in range(rows):
        top = draw(st.sampled_from((1, 15, 15, 15)))
        entries += draw(st.lists(st.integers(0, top), min_size=cols,
                                 max_size=cols))
    return PolyMatrix(rows, cols, tuple(entries))


def xor_of(units, x):
    """The xor of the units at the set bits of x."""
    out = 0
    for b, unit in enumerate(units):
        if x >> b & 1:
            out ^= unit
    return out


@SETTINGS
@given(machine_matrices(), st.sampled_from(("code", "error")),
       st.integers(0, 2**32 - 1))
def test_machine_responses_match_reference_steps(M, side, seed):
    """Both forms of _machine are linear: the xor of the responses of a
    state's set bits and of an input block's set bits is the reference
    step from that state on that block, for every (state, input) pair
    when there are at most 2^12 of them and 2^12 drawn ones otherwise."""
    states, inputs = trellis._machine(M, side == "error")
    in_bits, response = reference_response(side, M)
    nu = overall_constraint_length(M)
    assert (len(states), len(inputs)) == (nu, in_bits)
    pairs = itertools.product(range(1 << nu), range(1 << in_bits))
    if nu + in_bits > 12:
        rng = random.Random(seed)
        pairs = [(rng.getrandbits(nu), rng.getrandbits(in_bits))
                 for _ in range(1 << 12)]
    for s, x in pairs:
        assert xor_of(states, s) ^ xor_of(inputs, x) == response(s, x)


def test_tie_pair_matches_reference():
    check_build(build_code_trellis, reference_code_trellis, TIE_PAIR.G, 5)
    z = blocks("10 11 01 00 11 10")
    check_build(build_error_trellis, reference_error_trellis, TIE_PAIR.H,
                syndrome(z, TIE_PAIR.H))


@st.composite
def hand_built(draw):
    """A trellis over 4 states whose sections are lists drawn from a small
    pool, so some are one repeated object; empty sections, parallel
    branches and states of 1 to 4 branches all occur."""
    n = draw(st.integers(1, 3))
    branch = st.builds(Branch, st.integers(0, 3), st.integers(0, 3),
                       st.integers(0, (1 << n) - 1))
    pool = draw(st.lists(st.lists(branch, max_size=10), min_size=1,
                         max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    return Trellis(n, len(picks), 2, tuple(pool[i] for i in picks))


@SETTINGS
@given(hand_built())
def test_hand_built_trellis_decodes_like_reference(t):
    check_decode(t)


@SETTINGS
@given(hand_built())
def test_pruned_trellis_keeps_exactly_the_branches_on_paths(t):
    """Every kept branch lies on a path from state 0 to state 0, so a
    trellis has a path iff no section is empty."""
    assert all(t.sections) == (count_paths(t) > 0)
    for k, sec in enumerate(t.sections):
        for b in sec:
            through = t.sections[:k] + ((b,),) + t.sections[k + 1:]
            assert count_paths(Trellis(t.n, t.horizon, t.state_bits,
                                       through)) > 0


# One section object before two different successors: A starts from
# states 1 then 0, B from state 0 alone, so X's to-states land on other
# positions after each.
_X = [Branch(0, 0, 1), Branch(0, 1, 0), Branch(1, 0, 0), Branch(1, 1, 1)]
_A = [Branch(1, 0, 1), Branch(0, 1, 1), Branch(0, 0, 0)]
_B = [Branch(0, 0, 1)]
SHARED_BEFORE_TWO = Trellis(1, 4, 1, (_X, _A, _X, _B))
# Section 1 without state 0 among its from-states: no path at all.
NO_START = Trellis(1, 2, 1, ([Branch(1, 0, 0), Branch(1, 1, 1)],
                             [Branch(0, 0, 0), Branch(1, 0, 1)]))
# Section 1 with state 0 second among its from-states.
LATE_START = Trellis(1, 2, 1, ([Branch(1, 0, 0), Branch(0, 1, 1),
                                Branch(0, 0, 1)],
                               [Branch(0, 0, 1), Branch(1, 0, 0)]))
# An empty middle section cuts every path.
EMPTY_MIDDLE = Trellis(1, 3, 1, ([Branch(0, 0, 0), Branch(0, 1, 1)], [],
                                 [Branch(0, 0, 0), Branch(1, 0, 1)]))
# A path into section 2 that leads nowhere, which the Trellis prunes.
DEAD_END = Trellis(1, 2, 1, ([Branch(0, 1, 0)], [Branch(0, 0, 0)]))
CORNER_CASES = (SHARED_BEFORE_TWO, NO_START, LATE_START, EMPTY_MIDDLE,
                DEAD_END)


def test_hand_built_corner_cases():
    # an empty section: nothing gets through
    check_decode(Trellis(1, 2, 1, ([Branch(0, 0, 0)], [])))
    with pytest.raises(ValueError, match="no admissible path"):
        min_weight_path(Trellis(1, 1, 0, ([],)))
    assert count_paths(Trellis(1, 1, 0, ([],))) == 0
    for t in CORNER_CASES:
        check_decode(t)
    # three paths of weight 3: 0 1 1 1, 1 0 1 1 and 1 1 0 1
    assert min_weight_path(SHARED_BEFORE_TWO) == (blocks("0 1 1 1"), 3)
    assert min_weight_path(LATE_START) == (blocks("1 0"), 1)
    assert count_paths(SHARED_BEFORE_TWO) > 0 and count_paths(LATE_START) > 0
    # count_paths sees past section 1, also on the two-section trellis above
    for t in (NO_START, EMPTY_MIDDLE, DEAD_END,
              Trellis(1, 2, 1, ([Branch(0, 0, 0)], []))):
        assert count_paths(t) == 0
        with pytest.raises(ValueError, match="no admissible path"):
            min_weight_path(t)
    # every state with a single branch
    single = Trellis(1, 2, 1, ([Branch(0, 1, 1)], [Branch(1, 0, 0)]))
    check_decode(single)
    assert min_weight_path(single) == (blocks("1 0"), 1)
    # state 0 with three branches and state 1 with one in the same
    # section, so state 1's group is padded
    mixed = Trellis(1, 3, 1, (
        [Branch(0, 0, 0), Branch(0, 1, 1)],
        [Branch(0, 0, 1), Branch(0, 1, 0), Branch(0, 0, 0), Branch(1, 0, 1)],
        [Branch(0, 0, 1), Branch(1, 0, 0)],
    ))
    check_decode(mixed)
    assert min_weight_path(mixed) == (blocks("0 0 0"), 0)
    # no sections at all: the empty sequence, weight 0
    assert min_weight_path(Trellis(2, 0, 0, ())) == (
        BlockSequence(2, 0, 0), 0)


@settings(SETTINGS, max_examples=100)
@given(st.data())
def test_kept_tables_decode_like_reference_across_codes(data):
    """Trellises of three codes, both builder sides, made and dropped in a
    drawn order between hand-built ones, so the per-code memos serve
    several codes at once and the ids of dropped sections recur in new
    ones: every built trellis must still equal the references' (see
    check_build) and every decode the reference's."""
    codes = [data.draw(matrices()) for _ in range(3)]
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.sampled_from(("error", "code", "hand", "shared")))
        M = data.draw(st.sampled_from(codes))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "error":
            zeta = random_feasible_syndrome(
                M, rng.randrange(MAX_HORIZON - memory(M)), rng)
            check_build(build_error_trellis, reference_error_trellis, M, zeta)
        elif kind == "code":
            horizon = memory(M) + rng.randrange(MAX_HORIZON - memory(M))
            check_build(build_code_trellis, reference_code_trellis, M,
                        horizon, masks=masks(data.draw, horizon, M.cols))
        elif kind == "hand":
            check_decode(data.draw(hand_built()))
        else:
            # fresh lists each time, one of them before two successors
            x = list(_X)
            check_decode(Trellis(1, 4, 1, (x, list(_A), x, list(_B))))


@SETTINGS
@given(st.data())
def test_syndrome_matches_reference(data):
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.integers(1, 4))
    H = PolyMatrix(rows, cols, tuple(data.draw(
        st.lists(st.integers(0, 127), min_size=rows * cols,
                 max_size=rows * cols))))
    length = data.draw(st.integers(0, 60))
    z = BlockSequence(cols, length,
                      data.draw(st.integers(0, 2**(cols * length) - 1)))
    assert syndrome(z, H) == reference_syndrome(z, H)
