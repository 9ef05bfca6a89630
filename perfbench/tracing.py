"""Spans recorded from outside the program.

A Tracer replaces the public functions of each layer with wrappers in every
module namespace that looks them up, and counts BlockSequence
constructions by wrapping the class's __post_init__.  Span times are
perf_counter_ns integers; a span's self time is its duration minus the
durations of its direct children, so the self times of one operation add up
exactly to its root cli.main span.  Nothing under src/ is modified, and
uninstall() puts every original back.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

# Layer = module.  Span names are "<module>.<function>".
TRACED = {
    "gf2poly": ("mat_mul_transpose", "check_gh_relation",
                "overall_constraint_length", "parse_matrix"),
    "blocks": ("parse_blocks", "format_blocks"),
    "trellis": ("build_code_trellis", "build_error_trellis",
                "enumerate_paths", "min_weight_path"),
    "sequences": ("syndrome", "shift_received", "boundary_masks",
                  "reconstruct_code_paths", "verify_simultaneous_reduction"),
    "transform": ("simultaneous_reduce", "search_reduction_plan",
                  "suggest_backward_shift"),
    "cli": ("main",),
}
NAMESPACES = ("cli", "sequences", "transform", "gf2poly", "trellis", "blocks")
# Results kept until the operation ends, then profiled outside any span.
KEPT_RESULTS = frozenset({"trellis.build_code_trellis",
                          "trellis.build_error_trellis",
                          "trellis.enumerate_paths",
                          "trellis.min_weight_path"})


class Tracer:
    def __init__(self, capture_first_op: bool = False):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.edge_calls = Counter()    # (parent, child) -> calls
        self.edge_ok = Counter()       # (parent, child) -> calls that returned
        self.sequences_built = 0
        self.roots = []                # (duration, sum of self times) per op
        self.kept = []                 # (span name, result) of this op
        self.spans = [] if capture_first_op else None
        self._capture = capture_first_op
        self._stack = []               # [name, start, child_ns, id, parent id]
        self._op_self = 0
        self._next_id = 0
        self._patches = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name):
        parent = self._stack[-1][3] if self._stack else None
        self._next_id += 1
        self._stack.append([name, perf_counter_ns(), 0, self._next_id, parent])

    def _leave(self, ok, result=None):
        end = perf_counter_ns()
        name, start, child, span_id, parent_id = self._stack.pop()
        dur = end - start
        own = dur - child
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += own
        self._op_self += own
        if self._capture:
            self.spans.append((span_id, parent_id, name, start, end))
        if ok and name in KEPT_RESULTS:
            self.kept.append((name, result))
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            edge = (parent[0], name)
            self.edge_calls[edge] += 1
            self.edge_ok[edge] += ok
        else:
            self.roots.append((dur, self._op_self))
            self._op_self = 0
            self._capture = False

    def _wrap(self, name, fn):
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(False)
                raise
            leave(True, result)
            return result

        return traced

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: sys.modules[f"shifttrellis.{m}"] for m in TRACED}
        for home, names in TRACED.items():
            for fn_name in names:
                original = getattr(mods[home], fn_name)
                wrapper = self._wrap(f"{home}.{fn_name}", original)
                for ns in NAMESPACES:
                    if getattr(mods[ns], fn_name, None) is original:
                        self._patch(mods[ns], fn_name, wrapper)
        seq_cls = mods["blocks"].BlockSequence
        post_init = seq_cls.__post_init__

        def counted(seq):
            self.sequences_built += 1
            post_init(seq)

        self._patch(seq_cls, "__post_init__", counted)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def take_kept(self):
        kept, self.kept = self.kept, []
        return kept


def trellis_profile(trellis):
    """(branches, peak states at one time index, nominal states) of a built
    trellis, read from its sections."""
    sections = trellis.sections
    branches = sum(len(sec) for sec in sections)
    peak = max((len({b.from_state for b in sec}) for sec in sections),
               default=0)
    if sections:
        peak = max(peak, len({b.to_state for b in sections[-1]}))
    return branches, peak, 1 << trellis.state_bits
