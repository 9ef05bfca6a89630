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
time-varying: shifting forces label bits to zero near the boundaries, the
ones of masks, a horizon x n BlockSequence packed as paths are.  Apart from
the masks, the flush and (on the error side) the syndrome block, every
section is the same, so each builder names a section by that key, read
from one text of each sequence.  A section is fixed by its key and the set
of states it starts from, and its pruned form by that and the set of
states still alive after it, so _sweep builds each (key, frontier) and a
Trellis prunes each (section, alive set) once, and every section equal to
one built earlier is that same tuple object.  Both builders refuse, before
any work, a trellis whose states x sections x branches per state exceed
MAX_TRELLIS_WORK.

Each path question has a pass of its own.  count_paths counts forward,
branch by branch, holding one dict of counts per time index.
min_weight_path runs a backward (min, +) pass over lists, in which the
states alive at a time index are numbered by their place among the
from-states of the section leaving it, then a forward tie walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, itemgetter
from typing import NamedTuple

from .blocks import BlockSequence, block_values
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
        object.__setattr__(self, "sections", _prune(self.sections))

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


def _forced(masks, horizon, n, flush=0):
    """The packed label bits forced to zero: those of masks, None or a
    horizon x n BlockSequence, and every bit of the last flush blocks."""
    if masks is not None and not (
            isinstance(masks, BlockSequence)
            and (masks.block_width, masks.length) == (n, horizon)):
        raise ValueError(f"masks must be {horizon} blocks of {n} bits")
    return (0 if masks is None else masks.bits) | (1 << max(flush, 0) * n) - 1


def _sweep(horizon, n, state_bits, in_bits, keys, step, branches):
    """Forward-build sections from state 0 and make them a Trellis, which
    drops every branch that is not on some path ending in state 0.

    step(state, x) gives (next state, output) for an input block x of
    in_bits bits and is linear over GF(2): step(s, x) = step(s, 0) ^
    step(0, x) in both fields.  So step(0, x) is tabled for every x on the
    first section built, after the size check, step(s, 0) is taken once per
    state, and branches(key, step(s, 0), table) yields state s's (next
    state, label) pairs in a section named key, the next of the iterable
    keys.  Each (key, state) is expanded once and each (key, frontier)
    built once, so equal sections share one tuple.
    """
    if horizon << state_bits + in_bits > MAX_TRELLIS_WORK:
        raise ValueError(
            f"trellis too large: 2^{state_bits} states x {horizon} sections "
            f"x 2^{in_bits} branches exceeds {MAX_TRELLIS_WORK}")
    # States run in increasing order and each row is sorted, so every
    # section comes out sorted by (from state, to state, label).
    rows, built, drifts, table, sections = {}, {}, {}, [], []
    frontier = frozenset((0,))
    for key in keys:
        hit = built.get((key, frontier))
        if hit is None:
            table = table or [step(0, x) for x in range(1 << in_bits)]
            sec = []
            for s in sorted(frontier):
                row = rows.get((key, s))
                if row is None:
                    if s not in drifts:
                        drifts[s] = step(s, 0)
                    row = rows[key, s] = tuple(sorted(
                        Branch(s, ns, lbl)
                        for ns, lbl in branches(key, drifts[s], table)))
                sec.extend(row)
            hit = built[key, frontier] = (
                tuple(sec), frozenset([b.to_state for b in sec]))
        sec, frontier = hit
        sections.append(sec)
    return Trellis(n, horizon, state_bits, sections)


def _prune(sections):
    """The sections without every branch that is on no path ending in state
    0, as a tuple; each (section, alive set) is pruned once, keyed by the
    section's id, so the caller must keep every given section referenced."""
    sections, pruned = list(sections), {}
    alive = frozenset((0,))
    for t in range(len(sections) - 1, -1, -1):
        hit = pruned.get((id(sections[t]), alive))
        if hit is None:
            kept = tuple([b for b in sections[t] if b[1] in alive])
            hit = pruned[id(sections[t]), alive] = (
                kept, frozenset([b[0] for b in kept]))
        sections[t], alive = hit
    return tuple(sections)


def build_code_trellis(G: PolyMatrix, horizon: int, masks=None) -> Trellis:
    """Trellis of all length-`horizon` codeword block sequences of G.

    Information bits are free for the first horizon - memory(G) sections
    and zero afterwards, which drains every register and terminates all
    paths in the zero state.  masks, None or a horizon x n BlockSequence,
    forces to zero every label bit where it has a one.
    """
    mem = memory(G)
    if horizon < mem:
        raise ValueError("horizon too short to terminate")
    layout = _row_layout(G)
    k, n = G.rows, G.cols
    keys = zip(chain(repeat(True, horizon - mem), repeat(False, mem)),
               block_values(_forced(masks, horizon, n), n, horizon))

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

    def branches(key, base, table):
        (free, forced), (drift, out0) = key, base
        for ns, label in table if free else table[:1]:
            if not (label ^ out0) & forced:
                yield drift ^ ns, label ^ out0

    return _sweep(horizon, n, overall_constraint_length(G), k,
                  keys, step, branches)


def build_error_trellis(H: PolyMatrix, syndrome: BlockSequence,
                        n_real=None, masks=None) -> Trellis:
    """Trellis of all error sequences producing the given syndrome.

    The horizon is the syndrome length; by default the last memory(H)
    sections are flush, with every error bit forced to zero (the trailing
    syndrome blocks come from draining the former).  Passing n_real moves
    that boundary, and masks, a horizon x n BlockSequence, forces to zero
    every error bit where it has a one.  A syndrome nobody can produce
    yields a trellis with no path.
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
    forced = _forced(masks, horizon, n, horizon - n_real)

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

    def branches(key, base, table):
        (want, forced), (drift, out0) = key, base
        return [(drift ^ ns, e) for e, (ns, out) in enumerate(table)
                if out ^ out0 == want and not e & forced]

    return _sweep(horizon, n, overall_constraint_length(H), n,
                  zip(block_values(syndrome.bits, m, horizon),
                      block_values(forced, n, horizon)), step, branches)


def enumerate_paths(trellis: Trellis):
    """Every initial-to-final label sequence, sorted lexicographically.

    The walk runs on the pruned sections, so every prefix held ends in a
    path of its own and no layer outgrows the path count.  A layer of more
    than MAX_PATHS prefixes refuses the listing, naming that lower bound,
    so it is refused exactly when count_paths exceeds MAX_PATHS.
    """
    # Prefixes are packed ints (see blocks.py): appending a label is one
    # shift and or, and the int order is the order of the label sequences.
    n = trellis.n
    paths = {0: [0]}
    for sec in trellis.sections:
        held = sum(len(paths.get(s, ())) for s, _, _ in sec)
        if held > MAX_PATHS:
            raise ValueError(
                f"too many paths: at least {held} exceeds {MAX_PATHS}")
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
    # Per time index, from the end back to 0: the moves of the section
    # leaving it and the least weights to go, both by position, the costs
    # with a dead slot last.  pos numbers the states the section starts
    # from ({0: 0} at the end).  Each (section, successor) pair is laid out
    # once.
    layouts, succ = {}, None
    pos, costs = {0: 0}, [0, _INF]
    passes = [(None, costs)]
    for sec in reversed(trellis.sections):
        key = id(sec), id(succ)
        if key not in layouts:
            layouts[key] = _layout(sec, pos)
        pos, get, ws, width, moves = layouts[key]
        ends = list(map(add, get(costs), ws))
        folded = ends[::width]
        for k in range(1, width):
            more = ends[k::width]
            folded = [x if x <= y else y for x, y in zip(folded, more)]
        costs, succ = [*folded, _INF], sec
        passes.append((moves, costs))
    weight = left = costs[pos.get(0, -1)]
    if weight == _INF:
        raise ValueError("no admissible path")
    passes.reverse()
    n, states, bits = trellis.n, {pos[0]}, 0
    for (moves, _), (_, after) in zip(passes, passes[1:]):
        tied = [(label, p) for s in states for p, label in moves[s]
                if bin(label).count("1") + after[p] == left]
        best = min(label for label, _ in tied)
        states = {p for label, p in tied if label == best}
        bits = bits << n | best
        left -= bin(best).count("1")
    return BlockSequence(n, trellis.horizon, bits), weight


def _layout(sec, after):
    """sec's from-states numbered in first-seen order; a getter of each
    branch's to-position in `after` (-1: the dead slot), state by state,
    each padded to `width` by a dead branch of label 0; the label weights
    in that order; width; per position its (to-position, label) list."""
    groups = {}
    for b in sec:
        groups.setdefault(b[0], []).append(b)
    width = max(map(len, groups.values()), default=1)
    flat = [b for g in groups.values()
            for b in g + [(None, None, 0)] * (width - len(g))]
    tos = [after.get(ns, -1) for _, ns, _ in flat]
    get = itemgetter(*tos) if len(tos) > 1 else lambda v: [v[p] for p in tos]
    ws = [bin(label).count("1") for _, _, label in flat]
    moves = [[(after.get(ns, -1), label) for _, ns, label in g]
             for g in groups.values()]
    return {s: i for i, s in enumerate(groups)}, get, ws, width, moves


def count_paths(trellis: Trellis) -> int:
    """Exact number of paths from state 0 to state 0 at the end; a state's
    two branches with one label are two paths, as enumerate_paths lists.
    Only the latest time index's counts are held."""
    counts = {0: 1}
    for sec in trellis.sections:
        nxt = {}
        for s, ns, _ in sec:
            if s in counts:
                nxt[ns] = nxt.get(ns, 0) + counts[s]
        counts = nxt
    return counts.get(0, 0)


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
