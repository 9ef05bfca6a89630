"""Terminated trellises for encoders and syndrome formers.

Both builders walk one linear machine, G's encoder (controller form) or
H's syndrome former (observer form; Forney, IEEE Trans. IT-16, 1970), whose
state packing, shown only in DOT node names, _machine's docstring gives.

A branch label is one n-bit block packed as in blocks.py, column 1 most
significant, so labels sort and break ties as their printed blocks do, and
a label's weight is its count of ones.

Sections are explicit branch sets because reduced trellises are
time-varying: shifting forces label bits to zero near the boundaries, the
ones of masks, a horizon x n BlockSequence packed as paths are.  Apart from
the masks, the flush and (on the error side) the syndrome block, every
section is the same, so each builder names a section by that key, read
from one text of each sequence.  A section is fixed by its key and the set
of states it starts from, and its pruned form by that and the sets of
states reached before it and still alive after it.  Both builders refuse,
before any work, a trellis whose states x sections x branches per state
exceed MAX_TRELLIS_WORK.

Past the keys, all that a build or a decode computes depends on the code
alone, so each code, a builder side and its matrix, has one _Memo that
outlives the call: its machine's response tables, sized by the code, and
dicts of the per-(key, state) rows, the (key, frontier) sections, their
pruned forms and min_weight_path's layout of each (section, successor)
pair.  An entry is kept past its call only once the call reused it, each
dict holds at most _ENTRIES, and only the _CODES codes built last keep
their memo.  So a stream of frames under one H builds, prunes and lays
out its recurring sections once, as the same tuple objects from frame to
frame, and each frame's own head and tail anew.  Entries keyed by id()
hold the objects whose ids they use, so no id is reused while its entry
lives.  A Trellis made without a code, as hand-built ones are, gets a
new memo on each call.

Each path question has a pass of its own.  count_paths counts forward,
branch by branch, holding one dict of counts per time index.
min_weight_path runs a backward (min, +) pass over lists, in which the
states alive at a time index are numbered by their place among the
from-states of the section leaving it, then a forward tie walk.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
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
# Most codes that keep a _Memo, and most entries of each kind in one.
_CODES = 8
_ENTRIES = 1024


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
    # The builders pass their code, whose _Memo then prunes and decodes
    # this trellis; it is no field, so equality and repr ignore it.
    _code: InitVar = None

    def __post_init__(self, _code):
        if len(self.sections) != self.horizon:
            raise ValueError(
                f"{len(self.sections)} sections for horizon {self.horizon}")
        object.__setattr__(self, "_code", _code)
        object.__setattr__(self, "sections", _prune(
            self.sections, _MEMOS.get(_code) or _Memo()))

    @property
    def state_count(self) -> int:
        return 1 << self.state_bits


class _Memo:
    """One code's kept tables: its machine's responses (None until _sweep
    fills them) and dicts of rows, sections, pruned forms and layouts."""

    def __init__(self):
        self.tables = None
        self.rows, self.built, self.pruned, self.layouts = {}, {}, {}, {}


_MEMOS = {}  # code -> _Memo, the least recently built first


def _recall(kept, fresh, key):
    """kept[key]; else fresh[key], the call's own entry, moved to kept (at
    most _ENTRIES of them) as the call reuses it; else None."""
    hit = kept.get(key)
    if hit is None:
        hit = fresh.get(key)
        if hit is not None:
            if len(kept) >= _ENTRIES:
                kept.clear()
            kept[key] = hit
    return hit


def _machine(M: PolyMatrix, observer: bool):
    """Per state bit, then per input bit, the response of M's machine to a
    one there alone: next_state << w | output, w = M.rows in the observer
    form (H's syndrome former) and M.cols in the controller form (G's
    encoder).  Row i's state bits are its register cells 0..nu-1, nu its
    degree, row 1 lowest.  A step moves cell c > 0 to c - 1, and cell 0
    leaves.  The encoder takes row i's input, block bit i - 1, into cell
    nu, so the cells hold past inputs, oldest lowest, and its label, column
    1 most significant, xors each cell c's D^(nu - c) taps.  The former adds
    column j's error, block bit n - j, into cell d of each row with a D^d
    term there, and emits each row's cell 0, row 1 most significant.
    """
    w = M.rows if observer else M.cols
    states, inputs = [], [0] * (M.cols if observer else M.rows)
    for i in range(1, M.rows + 1):
        nu, off = row_degree(M, i), len(states)
        cells = [1 << off + c - 1 << w if c else 0 for c in range(nu + 1)]
        if observer:
            cells[0] = 1 << M.rows - i
        for j, e in enumerate(M.row(i), 1):
            for d in exponents(e):
                if observer:  # column j's error enters cell d
                    inputs[M.cols - j] ^= cells[d]
                else:  # cell nu - d emits on column j
                    cells[nu - d] |= 1 << M.cols - j
        if not observer:
            inputs[i - 1] = cells[nu]
        states += cells[:nu]
    return states, inputs


def _xors(units):
    """The xor of each subset of units, at the index of its set bits."""
    out = [0]
    for u in units:
        out += [v ^ u for v in out]
    return out


def _forced(masks, horizon, n, flush=0):
    """The packed label bits forced to zero: those of masks, None or a
    horizon x n BlockSequence, and every bit of the last flush blocks."""
    if masks is not None and not (
            isinstance(masks, BlockSequence)
            and (masks.block_width, masks.length) == (n, horizon)):
        raise ValueError(f"masks must be {horizon} blocks of {n} bits")
    return (0 if masks is None else masks.bits) | (1 << max(flush, 0) * n) - 1


def _sweep(code, horizon, keys, branches):
    """Forward-build sections from state 0 and make them a Trellis of code,
    a builder side and its matrix M, which drops every branch on no path
    from state 0 to state 0.

    M's machine (see _machine) is linear over GF(2): on the code's first
    section built, after the size check, _sweep tables the responses of
    all input blocks and of all values of each 8-bit chunk of state bits.
    branches(key, response of s, table) yields state s's (next state,
    label) pairs in a section named key, the next of the iterable keys.
    Each (key, state) is expanded once and each (key, frontier) built once
    per code, across builds, so equal sections of this and earlier
    trellises of the code share one tuple.
    """
    side, M = code
    state_bits = overall_constraint_length(M)
    in_bits = M.cols if side == "error" else M.rows
    if horizon << state_bits + in_bits > MAX_TRELLIS_WORK:
        raise ValueError(
            f"trellis too large: 2^{state_bits} states x {horizon} sections "
            f"x 2^{in_bits} branches exceeds {MAX_TRELLIS_WORK}")
    # code's memo, made the most recent; the least recent beyond _CODES go
    memo = _MEMOS[code] = _MEMOS.pop(code, None) or _Memo()
    if len(_MEMOS) > _CODES:
        _MEMOS.pop(next(iter(_MEMOS)), None)
    rows, built = {}, {}
    # States run in increasing order and each row is sorted, so every
    # section comes out sorted by (from state, to state, label).
    sections = []
    frontier = frozenset((0,))
    for key in keys:
        hit = _recall(memo.built, built, (key, frontier))
        if hit is None:
            if memo.tables is None:
                states, inputs = _machine(M, side == "error")
                memo.tables = _xors(inputs), [
                    _xors(states[b:b + 8]) for b in range(0, state_bits, 8)]
            table, chunks = memo.tables
            sec = []
            for s in sorted(frontier):
                row = _recall(memo.rows, rows, (key, s))
                if row is None:
                    base = 0
                    for b, chunk in enumerate(chunks):
                        base ^= chunk[s >> 8 * b & 255]
                    row = rows[key, s] = tuple(sorted(
                        Branch(s, ns, lbl)
                        for ns, lbl in branches(key, base, table)))
                sec.extend(row)
            hit = built[key, frontier] = (
                tuple(sec), frozenset([b.to_state for b in sec]))
        sec, frontier = hit
        sections.append(sec)
    return Trellis(M.cols, horizon, state_bits, sections, code)


def _prune(sections, memo):
    """The sections without every branch that is on no path from state 0
    at the start to state 0 at the end, as a tuple: a backward pass keeps
    the branches into states still alive, then a forward pass those from
    states reached.  Each (section, alive or reached set) is pruned once in
    memo's pruned dict, keyed by the section's id and held by its entry."""
    sections, pruned = list(sections), {}
    for end, order in ((1, -1), (0, 1)):
        live = frozenset((0,))
        for t in range(len(sections))[::order]:
            sec = sections[t]
            key = id(sec), end, live
            hit = _recall(memo.pruned, pruned, key)
            if hit is None:
                kept = tuple([b for b in sec if b[end] in live])
                hit = pruned[key] = (
                    sec, kept, frozenset([b[1 - end] for b in kept]))
            _, sections[t], live = hit
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
    n = G.cols
    keys = zip(chain(repeat(True, horizon - mem), repeat(False, mem)),
               block_values(_forced(masks, horizon, n), n, horizon))

    def branches(key, base, table):
        free, forced = key
        rs = [r ^ base for r in (table if free else table[:1])]
        return [(r >> n, r & (1 << n) - 1) for r in rs if not r & forced]

    return _sweep(("code", G), horizon, keys, branches)


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
    forced = _forced(masks, horizon, n, horizon - n_real)

    def branches(key, base, table):
        want, forced = key
        return [(r >> m, e) for e, r in enumerate([x ^ base for x in table])
                if r & (1 << m) - 1 == want and not e & forced]

    return _sweep(("error", H), horizon,
                  zip(block_values(syndrome.bits, m, horizon),
                      block_values(forced, n, horizon)), branches)


def enumerate_paths(trellis: Trellis, packed=False):
    """Every initial-to-final label sequence, sorted lexicographically: as
    BlockSequences of horizon blocks of n bits, or with packed=True as
    their packed ints (see blocks.py), whose order is the same.

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
    paths = sorted(paths.get(0, []))
    if packed:
        return paths
    return [BlockSequence(n, trellis.horizon, p) for p in paths]


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
    # once per code, or per call on a hand-built trellis.
    memo, layouts = _MEMOS.get(trellis._code) or _Memo(), {}
    succ, pos, costs = None, {0: 0}, [0, _INF]
    passes = [(None, costs)]
    for sec in reversed(trellis.sections):
        key = id(sec), id(succ)
        hit = _recall(memo.layouts, layouts, key)
        if hit is None:
            hit = layouts[key] = (sec, succ, *_layout(sec, pos))
        _, _, pos, get, ws, width, moves = hit
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
