"""Terminated trellises for encoders and syndrome formers.

Both builders share one state convention so DOT output stays readable:
the state int concatenates one register field per matrix row, row 1 in the
lowest bits.  For the encoder (controller form) a row's field holds that
row's past inputs, oldest in the lowest bit.  For the syndrome former
(observer form of H^T) the field holds the partial-sum cells, first cell in
the lowest bit.  Paths never depend on this packing, only node names do.

Sections are explicit branch sets because reduced trellises are
time-varying: shifting makes some label bits inadmissible near the
boundaries, and those constraints arrive here as per-section masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .blocks import BlockSequence
from .gf2poly import (
    PolyMatrix,
    exponents,
    memory,
    overall_constraint_length,
    row_degree,
)


class Branch(NamedTuple):
    from_state: int
    to_state: int
    label: tuple


@dataclass(frozen=True)
class Trellis:
    n: int
    horizon: int
    state_bits: int
    sections: tuple
    feasible: bool = True

    def __post_init__(self):
        if len(self.sections) != self.horizon:
            raise ValueError(
                f"{len(self.sections)} sections for horizon {self.horizon}")

    @property
    def state_count(self) -> int:
        return 1 << self.state_bits


def _row_layout(M: PolyMatrix):
    """Per row: its register field's offset and width, and the tap
    exponents of each entry."""
    info = []
    off = 0
    for i in range(1, M.rows + 1):
        nu = row_degree(M, i)
        info.append((off, nu, [exponents(e) for e in M.row(i)]))
        off += nu
    return info


def _norm_masks(masks, horizon, n):
    out = {}
    for t, cols in (masks or {}).items():
        cols = frozenset(int(c) for c in cols)
        if not 1 <= t <= horizon:
            raise ValueError(f"mask section {t} outside 1..{horizon}")
        if any(not 1 <= c <= n for c in cols):
            raise ValueError(f"mask columns {sorted(cols)} outside 1..{n}")
        if cols:
            out[t] = cols
    return out


def _sweep(horizon, n, state_bits, branches_from):
    """Forward-build sections from state 0, then drop every branch that is
    not on some path ending in state 0."""
    sections = []
    frontier = {0}
    for t in range(1, horizon + 1):
        sec = []
        for s in sorted(frontier):
            sec.extend(Branch(s, ns, label) for ns, label in branches_from(t, s))
        sections.append(sec)
        frontier = {b.to_state for b in sec}
    alive = {0}
    for t in range(horizon - 1, -1, -1):
        kept = tuple(sorted(b for b in sections[t] if b.to_state in alive))
        sections[t] = kept
        alive = {b.from_state for b in kept}
    feasible = horizon == 0 or bool(sections[0])
    return Trellis(n, horizon, state_bits, tuple(sections), feasible)


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

    def branches_from(t, state):
        inputs_iter = (itertools.product((0, 1), repeat=k)
                       if t <= free_until else ((0,) * k,))
        forced = masks.get(t, ())
        for inputs in inputs_iter:
            ns, label = step(state, inputs)
            if any(label[j - 1] for j in forced):
                continue
            yield ns, label

    return _sweep(horizon, n, overall_constraint_length(G), branches_from)


def build_error_trellis(H: PolyMatrix, syndrome: BlockSequence,
                        n_real=None, masks=None) -> Trellis:
    """Trellis of all error sequences producing the given syndrome.

    The horizon is the syndrome length; by default the last memory(H)
    sections are flush, with every error bit forced to zero (the trailing
    syndrome blocks come from draining the former).  Passing n_real moves
    that boundary, and masks adds per-section forced-zero columns.  A
    syndrome nobody can produce yields an empty trellis with feasible set
    to False.
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

    def step(state, e_bits):
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

    def branches_from(t, state):
        forced = set(masks.get(t, ()))
        if t > n_real:
            forced.update(range(1, n + 1))
        free = [j for j in range(1, n + 1) if j not in forced]
        want = syndrome[t - 1]
        for bits in itertools.product((0, 1), repeat=len(free)):
            e = [0] * n
            for j, b in zip(free, bits):
                e[j - 1] = b
            ns, out = step(state, e)
            if tuple(out) == want:
                yield ns, tuple(e)

    return _sweep(horizon, n, overall_constraint_length(H), branches_from)


def enumerate_paths(trellis: Trellis):
    """Every initial-to-final label sequence, sorted lexicographically."""
    paths = {0: [()]}
    for sec in trellis.sections:
        nxt = {}
        for b in sec:
            for pref in paths.get(b.from_state, ()):
                nxt.setdefault(b.to_state, []).append(pref + (b.label,))
        paths = nxt
    out = [BlockSequence(trellis.n, p) for p in paths.get(0, [])]
    out.sort(key=lambda s: s.blocks)
    return out


def min_weight_path(trellis: Trellis):
    """Minimum Hamming-weight path and its weight, ties broken lexically."""
    best = {0: (0, ())}
    for sec in trellis.sections:
        nxt = {}
        for b in sec:
            if b.from_state not in best:
                continue
            w, pref = best[b.from_state]
            cand = (w + sum(b.label), pref + (b.label,))
            cur = nxt.get(b.to_state)
            if cur is None or cand < cur:
                nxt[b.to_state] = cand
        best = nxt
    if 0 not in best:
        raise ValueError("no admissible path")
    w, pref = best[0]
    return BlockSequence(trellis.n, pref), w


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
            lbl = "".join(str(x) for x in b.label)
            lines.append(
                f'  "{node(k, b.from_state)}" -> '
                f'"{node(k + 1, b.to_state)}" [label="{lbl}"];')
    lines.append("}")
    return "\n".join(lines)
