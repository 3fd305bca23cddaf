"""Workload definitions and golden checks for the ccelab benchmark.

A workload is a list of CLI commands.  The workload seed only reorders the
commands and, for dk-strata, relabels the input graphs; every command's
expected result is fixed in golden.json, so outputs are checked field by
field rather than byte by byte (keys the program adds later are ignored).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())

# `checked` is compared only where the program already reports it truthfully:
# acyclic counts DAGs (OEIS A003024), loopless and props count every mask.
# main0/kr report the size of the antisymmetric candidate space instead of the
# orders examined, so their `checked` is not compared.
_TRUTHFUL_CHECKED = ("acyclic", "loopless", "props")


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus what its output must contain."""

    args: Tuple[str, ...]
    golden: dict
    files: Tuple[Tuple[str, str], ...] = ()   # (name, text) written beforehand
    graph: Optional[dict] = None              # dk input after relabeling


@dataclass(frozen=True)
class Workload:
    name: str
    items: int          # fixed golden work count behind items_per_s
    item_unit: str
    threads: int
    build: Callable[[random.Random, int], List[Command]]


def _verify(theorem: str, n: int, threads: int, p: Optional[int] = None) -> Command:
    args = ["verify", "--theorem", theorem, "--n", str(n)]
    key = f"{theorem} n={n}"
    if p is not None:
        args += ["--p", str(p)]
        key += f" p={p}"
    args += ["--threads", str(threads), "--json"]
    return Command(tuple(args), GOLDEN["verify"][key])


def _explore(problem: int, p: int, n: int, threads: int) -> Command:
    args = ["explore", "--problem", str(problem), "--p", str(p), "--n", str(n),
            "--threads", str(threads), "--json"]
    return Command(tuple(args), GOLDEN["explore"][f"problem={problem} p={p} n={n}"])


def _shuffled(rng: random.Random, cmds: List[Command]) -> List[Command]:
    rng.shuffle(cmds)
    return cmds


def _dag_sweep(rng: random.Random, threads: int) -> List[Command]:
    return _shuffled(rng, [_verify("acyclic", 5, threads, p) for p in (2, 3)])


def _full_sweep(rng: random.Random, threads: int) -> List[Command]:
    cmds = [_verify("loopless", 5, threads, p) for p in (2, 3)]
    cmds.append(_verify("props", 4, threads))
    return _shuffled(rng, cmds)


def _class_survey(rng: random.Random, threads: int) -> List[Command]:
    cmds = [_verify("main0", 5, threads), _verify("kr", 5, threads)]
    cmds += [_explore(problem, 2, 4, threads) for problem in (1, 2, 3)]
    return _shuffled(rng, cmds)


def _dk_strata(rng: random.Random, threads: int) -> List[Command]:
    cmds = []
    for i, entry in enumerate(GOLDEN["dk"]):
        n = entry["n"]
        perm = list(range(n))
        rng.shuffle(perm)
        edges = sorted(
            tuple(sorted((perm[u], perm[v]))) for u, v in entry["edges"]
        )
        text = f"graph {n}\n" + "".join(f"{u} -- {v}\n" for u, v in edges)
        name = f"g{i:02d}.graph"
        args = ("dk", "--in", name, "--kmax", str(6 - n),
                "--threads", str(threads), "--json")
        cmds.append(Command(args, {"dk": entry["dk"]}, ((name, text),),
                            {"n": n, "edges": edges}))
    return _shuffled(rng, cmds)


# Items: DAGs checked; digraphs checked; digraphs examined by the three
# explore surveys plus labeled posets examined by main0 and kr; dk queries.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dag-sweep", 2 * 29_281, "DAGs", 1, _dag_sweep),
        Workload("full-sweep", 2 * 2**20 + 2**16, "digraphs", 2, _full_sweep),
        Workload("class-survey", 3 * 2**16 + 2 * 4_231, "candidates", 1, _class_survey),
        Workload("dk-strata", len(GOLDEN["dk"]), "queries", 1, _dk_strata),
    )
}


def commands(workload: str, seed: int, threads: Optional[int] = None) -> List[Command]:
    """The workload's commands for one seed; `threads` overrides --threads."""
    w = WORKLOADS[workload]
    return w.build(random.Random(seed), w.threads if threads is None else threads)


# -- golden checks -----------------------------------------------------------------


def _acyclic(n: int, arcs) -> bool:
    out = [set() for _ in range(n)]
    indeg = [0] * n
    for u, v in arcs:
        if v not in out[u]:
            out[u].add(v)
            indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return seen == n


def _check_dk(cmd: Command, out: dict) -> Optional[str]:
    from ccelab import Digraph
    from oracles import derived_edges_oracle

    want = cmd.golden["dk"]
    if out.get("dk") != want:
        return f"dk {out.get('dk')!r} != golden {want!r}"
    if want is None:
        return None
    witness = out.get("witness") or {}
    n, k = cmd.graph["n"], want
    arcs = [tuple(a) for a in witness.get("arcs", ())]
    if witness.get("n") != n + k:
        return f"witness has {witness.get('n')} vertices, want {n + k}"
    if not all(0 <= x < n + k for arc in arcs for x in arc):
        return "witness arc out of range"
    if not _acyclic(n + k, arcs):
        return "witness is not acyclic"
    _, cce, _ = derived_edges_oracle(Digraph(n + k, arcs))
    if cce != {tuple(e) for e in cmd.graph["edges"]}:
        return "witness CCE graph is not G u I_k"
    return None


def check(cmd: Command, exit_code: int, stdout: str) -> Optional[str]:
    """None when the command's result matches golden, else a reason."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return f"exit {exit_code}, output is not JSON"
    kind = cmd.args[0]
    if kind == "dk":
        want_exit = 1 if cmd.golden["dk"] is None else 0
    elif kind == "verify":
        want_exit = 0 if cmd.golden["verified"] else 1
    else:
        want_exit = 0
    if exit_code != want_exit:
        return f"exit {exit_code}, want {want_exit}"
    if kind == "dk":
        return _check_dk(cmd, out)
    fields = ["checked", "sections"] if kind == "explore" else ["verified", "counterexample"]
    if kind == "verify" and cmd.args[2] in _TRUTHFUL_CHECKED:
        fields.append("checked")
    for field in fields:
        if out.get(field) != cmd.golden[field]:
            return f"{field} differs from golden"
    return None
