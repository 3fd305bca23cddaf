"""Probes: replay a workload's candidates through public per-candidate
primitives and time the calls.

The sweeps inline their per-candidate work, and wrapping private helpers
would distort it, so these layers are measured by replay instead:
`loopless_mask_at` (generation), `Digraph.is_acyclic`,
`conditions.condition_violation` (the foot/head gates) and the derived-graph
operators.  Probe times cover the primitive calls plus a Python loop; they
are not expected to add up to the sweep's own time.
"""

from __future__ import annotations

import importlib
import itertools
from time import perf_counter as clock
from typing import Dict, List, Sequence

CHUNK = 8192

PRIMITIVES = {
    "gen": ("ccelab.enumeration", "loopless_mask_at"),
    "gate": ("ccelab.conditions", "condition_violation"),
    "digraph": ("ccelab.digraph", "Digraph"),
    "cce": ("ccelab.graphs", "cce_graph"),
    "niche": ("ccelab.graphs", "niche_graph"),
    "competition": ("ccelab.graphs", "competition_graph"),
    "interval": ("ccelab.orders", "interval_feasible_masks"),
}


class Probe:
    """Counters and timers of one probe replay over a workload."""

    def __init__(self) -> None:
        self.prim = {}
        self.missing: List[str] = []
        for key, (module, attr) in PRIMITIVES.items():
            try:
                fn = getattr(importlib.import_module(module), attr, None)
            except ImportError:
                fn = None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
            self.prim[key] = fn
        self.candidates = 0
        self.gen_calls = 0
        self.gen_s = 0.0
        self.acyclic_calls = 0
        self.acyclic_s = 0.0
        self.gate_calls = 0
        self.gate_s = 0.0
        self.gated = 0
        self.gate_passed = 0
        self.derive_calls = 0
        self.derive_s = 0.0

    # -- primitives ---------------------------------------------------------------

    def _gate(self, rows: Sequence[Sequence[int]], n: int, p: int, head: bool) -> List[bool]:
        violation = self.prim["gate"]
        start = clock()
        ok = [violation(r, n, p, head) is None for r in rows]
        self.gate_s += clock() - start
        self.gate_calls += len(rows)
        return ok

    def _gate_pair(self, outs, n: int, p: int, head: bool) -> List[int]:
        """Indices passing the out gate and then the in gate, as the sweeps do."""
        ok_out = self._gate(outs, n, p, head)
        survivors = [i for i, ok in enumerate(ok_out) if ok]
        ok_in = self._gate([_in_rows(outs[i], n) for i in survivors], n, p, head)
        return [i for i, ok in zip(survivors, ok_in) if ok]

    def _derive(self, op: str, n: int, masks: Sequence[int]) -> None:
        digraph = self.prim["digraph"]
        graphs = [digraph.from_arc_mask(n, m) for m in masks]
        fn = self.prim[op]
        start = clock()
        for d in graphs:
            fn(d)
        self.derive_s += clock() - start
        self.derive_calls += len(graphs)

    def _acyclic(self, n: int, outs) -> List[bool]:
        # Shells carry only what is_acyclic reads, so the probe times the
        # test rather than Digraph construction.
        digraph = self.prim["digraph"]
        shells = []
        for out in outs:
            d = digraph.__new__(digraph)
            d.n = n
            d.out_masks = tuple(out)
            shells.append(d)
        start = clock()
        ok = [d.is_acyclic() for d in shells]
        self.acyclic_s += clock() - start
        self.acyclic_calls += len(shells)
        return ok

    # -- sweeps -------------------------------------------------------------------

    def loopless_space(self, n: int, p: int, acyclic: bool) -> None:
        gen = self.prim["gen"]
        total = 1 << (n * n - n)
        self.candidates += total
        for a in range(0, total, CHUNK):
            start = clock()
            masks = [gen(n, c) for c in range(a, min(a + CHUNK, total))]
            self.gen_s += clock() - start
            self.gen_calls += len(masks)
            outs = [_rows(m, n) for m in masks]
            if acyclic:
                keep = [i for i, ok in enumerate(self._acyclic(n, outs)) if ok]
                masks = [masks[i] for i in keep]
                outs = [outs[i] for i in keep]
            self.gated += len(outs)
            passed = self._gate_pair(outs, n, p, False)
            self.gate_passed += len(passed)
            self._derive("cce", n, [masks[i] for i in passed])

    def props(self, n: int) -> None:
        total = 1 << (n * n)
        self.candidates += total
        for a in range(0, total, CHUNK):
            masks = range(a, min(a + CHUNK, total))
            outs = [_rows(m, n) for m in masks]
            passed = set()
            for p in (2, 3):
                if p <= n:
                    passed.update(self._gate_pair(outs, n, p, False))
            self.gated += len(outs)
            self.gate_passed += len(passed)
            self._derive("cce", n, [masks[i] for i in sorted(passed)])

    def explore(self, problem: int, n: int, p: int) -> None:
        total = 1 << (n * n)
        self.candidates += total
        for a in range(0, total, CHUNK):
            masks = range(a, min(a + CHUNK, total))
            outs = [_rows(m, n) for m in masks]
            if problem in (1, 2):
                passed = self._gate_pair(outs, n, p, problem == 2)
                op = "cce"
            else:
                ins = [_in_rows(o, n) for o in outs]
                ok = [False] * len(outs)
                for rows, head in ((outs, False), (ins, False), (outs, True), (ins, True)):
                    ok = [x or y for x, y in zip(ok, self._gate(rows, n, p, head))]
                passed = [i for i, x in enumerate(ok) if x]
                op = "niche"
            self.gated += len(outs)
            self.gate_passed += len(passed)
            self._derive(op, n, [masks[i] for i in passed])

    def order_family(self, n: int, op: str) -> None:
        """Labeled posets, which the main0/kr sweeps filter from the
        antisymmetric loopless candidates, then their derived graphs."""
        pairs = list(itertools.combinations(range(n), 2))
        self.candidates += 3 ** len(pairs)
        interval = self.prim["interval"]
        kept = []
        for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
            mask = 0
            for (u, v), c in zip(pairs, choice):
                if c:
                    mask |= 1 << (u * n + v if c == 1 else v * n + u)
            out = _rows(mask, n)
            if _transitive(out) and interval(n, out):
                kept.append(mask)
        self._derive(op, n, kept)


def _rows(mask: int, n: int) -> List[int]:
    nm = (1 << n) - 1
    return [(mask >> (v * n)) & nm for v in range(n)]


def _in_rows(out: Sequence[int], n: int) -> List[int]:
    inc = [0] * n
    for u in range(n):
        m = out[u]
        while m:
            low = m & -m
            inc[low.bit_length() - 1] |= 1 << u
            m ^= low
    return inc


def _transitive(out: Sequence[int]) -> bool:
    for row in out:
        m = row
        while m:
            low = m & -m
            if out[low.bit_length() - 1] & ~row:
                return False
            m ^= low
    return True


def _arg(args: Sequence[str], flag: str, default: int) -> int:
    return int(args[args.index(flag) + 1]) if flag in args else default


def run_probes(cmds) -> Probe:
    """Replay every sweep command of a workload; dk queries have no probe."""
    probe = Probe()
    if probe.missing:
        return probe
    for cmd in cmds:
        args = cmd.args
        n, p = _arg(args, "--n", 0), _arg(args, "--p", 2)
        if args[0] == "explore":
            probe.explore(_arg(args, "--problem", 0), n, p)
        elif args[0] == "verify":
            theorem = args[args.index("--theorem") + 1]
            if theorem in ("acyclic", "loopless"):
                probe.loopless_space(n, p, theorem == "acyclic")
            elif theorem == "props":
                probe.props(n)
            else:
                probe.order_family(n, "cce" if theorem == "main0" else "competition")
    return probe


def probe_summary(probe: Probe) -> Dict[str, float]:
    return {k: v for k, v in vars(probe).items() if isinstance(v, (int, float))}
