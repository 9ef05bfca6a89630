"""Terminated trellises for encoders and syndrome formers.

Both builders share one state convention so DOT output stays readable:
the state int concatenates one register field per matrix row, row 1 in the
lowest bits.  For the encoder (controller form) a row's field holds that
row's past inputs, oldest in the lowest bit.  For the syndrome former
(observer form of H^T) the field holds the partial-sum cells, first cell in
the lowest bit.  Paths never depend on this packing, only node names do.

A branch label is one n-bit block packed as in blocks.py, column 1 most
significant, so labels sort and break ties as their printed blocks do, and
a label's weight is its count of ones.

Sections are explicit branch sets because reduced trellises are
time-varying: shifting makes some label bits inadmissible near the
boundaries, and those constraints arrive here as per-section masks.  Apart
from the masks, the flush and (on the error side) the syndrome block, every
section is the same, so each builder names a section by that key.  A
section is fixed by its key and the set of states it starts from, and its
pruned form by that and the set of states still alive after it, so _sweep
builds each (key, frontier) and prunes each (section, alive set) once, and
every section equal to one built earlier is that same tuple object.  Both
builders refuse, before any work, a trellis whose states x sections x
branches per state exceed MAX_TRELLIS_WORK.

count_paths and min_weight_path share one backward pass, a few C-level
maps per distinct section, run in the (+, x) and the (min, +) semiring.
It yields one time index at a time: count_paths holds only the latest,
and min_weight_path, whose forward tie pass reads them all, keeps each.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, index
from typing import NamedTuple

from .blocks import BlockSequence
from .gf2poly import (
    PolyMatrix,
    exponents,
    memory,
    overall_constraint_length,
    row_degree,
)


# Most 2^state_bits x horizon x branches per state a builder will build.
MAX_TRELLIS_WORK = 1 << 24
# Most paths enumerate_paths will list, the most words the oracle checks.
MAX_PATHS = 1 << 16
# Path counts from here on are named by their bit length: str() refuses an
# int of more than 4300 decimal digits.
_DECIMAL_LIMIT = 10 ** 4300
# Cost of a state with no way to state 0 at the end.
_INF = float("inf")


class Branch(NamedTuple):
    from_state: int
    to_state: int
    label: int


@dataclass(frozen=True)
class Trellis:
    n: int
    horizon: int
    state_bits: int
    sections: tuple

    def __post_init__(self):
        if len(self.sections) != self.horizon:
            raise ValueError(
                f"{len(self.sections)} sections for horizon {self.horizon}")

    @property
    def feasible(self) -> bool:
        """Whether section 1 keeps a branch: in a pruned trellis, as both
        builders make, whether any path exists.  True at horizon 0."""
        return self.horizon == 0 or bool(self.sections[0])

    @property
    def state_count(self) -> int:
        return 1 << self.state_bits


def _row_layout(M: PolyMatrix):
    """Per row: its register field's offset and width, and per delay d the
    packed block of the columns whose entry has a D^d term."""
    info = []
    off = 0
    for i in range(1, M.rows + 1):
        nu = row_degree(M, i)
        taps = [0] * (nu + 1)
        for j, e in enumerate(M.row(i), 1):
            for d in exponents(e):
                taps[d] |= 1 << M.cols - j
        info.append((off, nu, taps))
        off += nu
    return info


def _norm_masks(masks, horizon, n):
    """Per 1-based section, the packed block of its forced-zero columns."""
    out = {}
    for t, cols in (masks or {}).items():
        t, cols = index(t), sorted(set(map(index, cols)))
        if not 1 <= t <= horizon:
            raise ValueError(f"mask section {t} outside 1..{horizon}")
        if any(not 1 <= c <= n for c in cols):
            raise ValueError(f"mask columns {cols} outside 1..{n}")
        if cols:
            out[t] = sum(1 << n - c for c in cols)
    return out


def _sweep(horizon, n, state_bits, branch_bits, key_of, branches_for):
    """Forward-build sections from state 0, then drop every branch that is
    not on some path ending in state 0.

    key_of(t) names all that section t depends on besides the state, and
    branches_for(key, state) yields that state's (next state, label) pairs;
    each (key, state) is expanded once, each (key, frontier) built once and
    each (section, alive set) pruned once, so equal sections share one
    tuple.  branch_bits is log2 of the most branches a state can have.
    """
    if horizon << state_bits + branch_bits > MAX_TRELLIS_WORK:
        raise ValueError(
            f"trellis too large: 2^{state_bits} states x {horizon} sections "
            f"x 2^{branch_bits} branches exceeds {MAX_TRELLIS_WORK}")
    # States run in increasing order and each row is sorted, so every
    # section comes out sorted by (from state, to state, label).
    rows, built = {}, {}
    sections = []
    frontier = frozenset((0,))
    for t in range(1, horizon + 1):
        key = key_of(t)
        hit = built.get((key, frontier))
        if hit is None:
            sec = []
            for s in sorted(frontier):
                row = rows.get((key, s))
                if row is None:
                    row = rows[key, s] = tuple(sorted(
                        Branch(s, ns, lbl)
                        for ns, lbl in branches_for(key, s)))
                sec.extend(row)
            hit = built[key, frontier] = (
                tuple(sec), frozenset([b.to_state for b in sec]))
        sec, frontier = hit
        sections.append(sec)
    # Every built section stays referenced by `built`, so its id is a key.
    pruned = {}
    alive = frozenset((0,))
    for t in range(horizon - 1, -1, -1):
        hit = pruned.get((id(sections[t]), alive))
        if hit is None:
            kept = tuple([b for b in sections[t] if b.to_state in alive])
            hit = pruned[id(sections[t]), alive] = (
                kept, frozenset([b.from_state for b in kept]))
        sections[t], alive = hit
    return Trellis(n, horizon, state_bits, tuple(sections))


def build_code_trellis(G: PolyMatrix, horizon: int, masks=None) -> Trellis:
    """Trellis of all length-`horizon` codeword block sequences of G.

    Information bits are free for the first horizon - memory(G) sections
    and zero afterwards, which drains every register and terminates all
    paths in the zero state.  masks maps a 1-based section index to columns
    whose label bit is forced to zero there.
    """
    mem = memory(G)
    if horizon < mem:
        raise ValueError("horizon too short to terminate")
    layout = _row_layout(G)
    k, n = G.rows, G.cols
    masks = _norm_masks(masks, horizon, n)
    free_until = horizon - mem

    def step(state, inputs):
        # Row i's register holds its input (bit i of inputs) above its
        # field, so bit nu - d is the input d sections ago.
        label = new_state = 0
        for i, (off, nu, taps) in enumerate(layout):
            reg = (inputs >> i & 1) << nu | state >> off & (1 << nu) - 1
            for d, cols in enumerate(taps):
                if reg >> nu - d & 1:
                    label ^= cols
            new_state |= reg >> 1 << off
        return new_state, label

    def key_of(t):
        return t <= free_until, masks.get(t, 0)

    def branches_for(key, state):
        free, forced = key
        for inputs in range(1 << k if free else 1):
            ns, label = step(state, inputs)
            if not label & forced:
                yield ns, label

    return _sweep(horizon, n, overall_constraint_length(G), k,
                  key_of, branches_for)


def build_error_trellis(H: PolyMatrix, syndrome: BlockSequence,
                        n_real=None, masks=None) -> Trellis:
    """Trellis of all error sequences producing the given syndrome.

    The horizon is the syndrome length; by default the last memory(H)
    sections are flush, with every error bit forced to zero (the trailing
    syndrome blocks come from draining the former).  Passing n_real moves
    that boundary, and masks adds per-section forced-zero columns.  A
    syndrome nobody can produce yields an empty trellis, not feasible.
    """
    m, n = H.rows, H.cols
    if syndrome.block_width != m:
        raise ValueError(
            f"syndrome width {syndrome.block_width}, expected {m}")
    horizon = len(syndrome)
    mem = memory(H)
    if n_real is None:
        n_real = horizon - mem
    if n_real < 0:
        raise ValueError(
            f"syndrome has {horizon} blocks, flush alone needs {mem}")
    layout = _row_layout(H)
    masks = _norm_masks(masks, horizon, n)

    def step(state, e):
        # Cell d of a row's register gains the parity of the errors on its
        # D^d taps; cell 0 leaves as the row's syndrome bit, row 1 first.
        out = new_state = 0
        for off, nu, taps in layout:
            reg = state >> off & (1 << nu) - 1
            for d, cols in enumerate(taps):
                reg ^= (bin(e & cols).count("1") & 1) << d
            out = out << 1 | reg & 1
            new_state |= reg >> 1 << off
        return new_state, out

    flush = (1 << n) - 1
    # (forced columns, state) -> every (next state, output, error label);
    # step does not depend on the syndrome block, which only filters.
    table = {}

    def key_of(t):
        return (syndrome.block(t - 1),
                flush if t > n_real else masks.get(t, 0))

    def branches_for(key, state):
        want, forced = key
        moves = table.get((forced, state))
        if moves is None:
            moves = table[forced, state] = [
                (*step(state, e), e) for e in range(1 << n) if not e & forced]
        return [(ns, e) for ns, out, e in moves if out == want]

    return _sweep(horizon, n, overall_constraint_length(H), n,
                  key_of, branches_for)


def enumerate_paths(trellis: Trellis):
    """Every initial-to-final label sequence, sorted lexicographically.

    The paths are counted first, and more than MAX_PATHS are refused
    before any is listed.
    """
    count = count_paths(trellis)
    if count > MAX_PATHS:
        if count >= _DECIMAL_LIMIT:
            count = f"at least 2^{count.bit_length() - 1}"
        raise ValueError(f"too many paths: {count} exceeds {MAX_PATHS}")
    # Prefixes are packed ints (see blocks.py): appending a label is one
    # shift and or, and the int order is the order of the label sequences.
    n = trellis.n
    paths = {0: [0]}
    for sec in trellis.sections:
        nxt = {}
        for s, ns, label in sec:
            prefs = paths.get(s)
            if prefs:
                nxt.setdefault(ns, []).extend([p << n | label for p in prefs])
        paths = nxt
    return [BlockSequence(n, trellis.horizon, p)
            for p in sorted(paths.get(0, []))]


def min_weight_path(trellis: Trellis):
    """Minimum Hamming-weight path and its weight, ties broken lexically.

    The result is the minimum of (weight, label sequence) over all paths,
    found in two passes (Viterbi without prefix copies; Forney, Proc. IEEE
    1973).  A backward pass gives each state the least weight still to go
    to state 0 at the end.  A forward pass then follows the set of states
    that the best prefix so far can end in, and at each section appends the
    smallest label that still completes at the optimal weight.  It is a set
    because one state may have two branches with the same label, so equal
    prefixes can reach different states.
    """
    passes = list(_backward(trellis.sections, 0, _INF, min))[::-1]
    weight = left = passes[0][1].get(0, _INF)
    if weight == _INF:
        raise ValueError("no admissible path")
    n, states, bits = trellis.n, {0}, 0
    for (moves, _), (_, after) in zip(passes, passes[1:]):
        tied = [(label, ns) for s in states for ns, w, label in moves[s]
                if w + after.get(ns, _INF) == left]
        best = min(label for label, _ in tied)
        states = {s for label, s in tied if label == best}
        bits = bits << n | best
        left -= bin(best).count("1")
    return BlockSequence(n, trellis.horizon, bits), weight


def count_paths(trellis: Trellis) -> int:
    """Exact number of paths from state 0 to state 0 at the end; a state's
    two branches with one label are two paths, as enumerate_paths lists.
    Only the latest time index's counts are held."""
    for _, counts in _backward(trellis.sections, 1, 0, add):
        pass
    return counts.get(0, 0)


def _backward(sections, end, dead, plus):
    """Per time index, from the end back to 0, each state's value over its
    paths to state 0 at the end, in the semiring of plus: min adds each
    label's weight, add does not; end is the empty path's value, dead a
    missing branch's.  Yields (per-state moves of the section leaving that
    index, None at the end; values), grouping each distinct section object
    once with _by_state."""
    distinct = {id(sec): sec for sec in sections}
    grouped = {key: _by_state(sec) for key, sec in distinct.items()}
    values = {0: end}
    yield None, values
    for sec in reversed(sections):
        tos, ws, width, moves = grouped[id(sec)]
        ends = map(values.get, tos, repeat(dead))
        ends = list(map(add, ends, ws) if plus is min else ends)
        folded = ends[::width]
        for k in range(1, width):
            folded = map(plus, folded, ends[k::width])
        values = dict(zip(moves, folded))
        yield moves, values


def _by_state(sec):
    """One section's branches grouped by from-state: flat lists of the
    to-states and label weights, state by state, each state's group padded
    to `width` entries by a dead branch to state None; width; and per
    from-state its (to, weight, label) list, in first-seen order.
    """
    moves = {}
    for s, ns, label in sec:
        moves.setdefault(s, []).append((ns, bin(label).count("1"), label))
    width = max(map(len, moves.values()), default=1)
    tos, ws = [], []
    for group in moves.values():
        pad = width - len(group)
        tos.extend([ns for ns, _, _ in group] + [None] * pad)
        ws.extend([w for _, w, _ in group] + [0] * pad)
    return tos, ws, width, moves


def trellis_dot(trellis: Trellis) -> str:
    """Graphviz rendering, one node per (time, state), deterministic order.

    Node names are t<k>/s<bits> with the state's register bits printed
    lowest bit first (row fields in matrix row order).
    """
    def node(k, s):
        bits = "".join(str(s >> i & 1) for i in range(trellis.state_bits))
        return f"t{k}/s{bits}"

    states_at = [set() for _ in range(trellis.horizon + 1)]
    for k, sec in enumerate(trellis.sections):
        for b in sec:
            states_at[k].add(b.from_state)
            states_at[k + 1].add(b.to_state)
    lines = ["digraph trellis {", "  rankdir=LR;"]
    for k, ss in enumerate(states_at):
        lines.extend(f'  "{node(k, s)}";' for s in sorted(ss))
    for k, sec in enumerate(trellis.sections):
        for b in sorted(sec):
            lbl = format(b.label, f"0{trellis.n}b")
            lines.append(
                f'  "{node(k, b.from_state)}" -> '
                f'"{node(k + 1, b.to_state)}" [label="{lbl}"];')
    lines.append("}")
    return "\n".join(lines)
