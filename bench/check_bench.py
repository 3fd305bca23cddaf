"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/check_bench.py

The traced-run tests take a few minutes: they run the sweep workloads under
the tracer twice each.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import harness
import speed
from trace_run import run_traced
from workloads import GOLDEN, WORKLOADS, check, commands

BENCH_DIR = harness.BENCH_DIR

# Counts that must repeat exactly between traced runs of the same code.
COUNT_METRICS = (
    "enumeration.candidates", "enumeration.checked",
    "digraph.acyclic_probe_calls", "conditions.gate_probe_calls",
    "graphs.canonical_calls", "graphs.canonical_distinct",
    "orders.semiorder_calls", "orders.interval_calls",
    "dk.queries", "dk.strata_feasible", "dk.strata_infeasible",
    "cli.output_bytes",
)


def _traced(workload: str, seed: int, threads=None) -> dict:
    harness.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as workdir:
        result = run_traced(workload, seed, Path(workdir), harness.child_env(), threads)
    assert result["failed"] == 0, result["failures"]
    return result


def _counts(result: dict) -> dict:
    return {name: result["metrics"][name][0] for name in COUNT_METRICS}


def test_every_hook_resolves():
    probe = (
        "import tracer, probes; "
        "print(tracer.install_hooks()); print(probes.Probe().missing)"
    )
    r = subprocess.run([sys.executable, "-c", probe], cwd=BENCH_DIR,
                       env=harness.child_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["[]", "[]"]


def test_commands_depend_only_on_seed():
    for name in WORKLOADS:
        assert commands(name, 7) == commands(name, 7)
    assert commands("dk-strata", 1) != commands("dk-strata", 2)


def test_dk_inputs_are_the_33_graphs_relabeled():
    def key(n, edges):
        import itertools
        return min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in itertools.permutations(range(n))
        )

    base = {(e["n"], key(e["n"], e["edges"])) for e in GOLDEN["dk"]}
    assert len(base) == len(GOLDEN["dk"]) == 33
    relabeled = {(c.graph["n"], key(c.graph["n"], c.graph["edges"]))
                 for c in commands("dk-strata", 3)}
    assert relabeled == base


def test_tail_percentile():
    assert harness.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    assert harness.tail([float(i) for i in range(20)]) == ("max", 19.0)
    label, value = harness.tail([float(i) for i in range(1, 41)])
    assert (label, value) == ("p75.0", 30.0)      # ten samples lie above 30
    assert harness.query_tail([[1.0, 9.0, 2.0], [3.0, 4.0]]) == ("max command median", 3.5)
    assert harness.query_tail([[float(i)] for i in range(1, 41)]) == ("p75.0", 30.0)


def test_speed_kernels():
    assert speed._scan() == 543        # labeled DAGs on 4 vertices, A003024
    assert speed.speed_factor() > 0


def test_speed_clock_rescales_by_the_bracketing_factors(monkeypatch):
    factors = iter([2.0, 4.0])
    monkeypatch.setattr(harness, "speed_factor", lambda: next(factors))
    clock = harness.SpeedClock()
    child = clock.spawn([sys.executable, "-c", "pass"], BENCH_DIR, harness.child_env())
    assert child.exit_code == 0
    assert child.ref_s == pytest.approx(child.wall_s / 3.0 ** speed.ELASTICITY)
    assert clock.factors == [2.0, 4.0]


def test_golden_check_rejects_wrong_fields():
    cmd = next(c for c in commands("class-survey", 1) if c.args[0] == "explore")
    good = json.dumps({**cmd.golden, "stats": {"added": "later"}})
    assert check(cmd, 0, good) is None
    sections = json.loads(json.dumps(cmd.golden["sections"]))
    first = next(iter(sections.values()))
    first[0]["witness"]["arcs"] = first[0]["witness"]["arcs"][1:] + [[9, 9]]
    assert check(cmd, 0, json.dumps({**cmd.golden, "sections": sections}))
    assert check(cmd, 1, good)


def test_dk_witness_is_validated_independently():
    cmd = next(c for c in commands("dk-strata", 1) if c.golden["dk"] == 2
               and c.graph["n"] == 2)
    # K2 u I_2 from 2 -> {0, 1} and {0, 1} -> 3; a 2-cycle is rejected.
    good = {"dk": 2, "witness": {"n": 4, "arcs": [[2, 0], [2, 1], [0, 3], [1, 3]]}}
    assert check(cmd, 0, json.dumps(good)) is None
    cyclic = {"dk": 2, "witness": {"n": 4, "arcs": [[0, 1], [1, 0]]}}
    assert "acyclic" in check(cmd, 0, json.dumps(cyclic))
    wrong = {"dk": 2, "witness": {"n": 4, "arcs": [[2, 0], [2, 1]]}}
    assert "CCE" in check(cmd, 0, json.dumps(wrong))


@pytest.mark.parametrize("workload", ["dag-sweep", "class-survey"])
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload, 1), _traced(workload, 2)
    assert _counts(first) == _counts(second)
    assert first["detail"]["missing_hooks"] == []
    assert not first["unmeasured"].keys() & set(COUNT_METRICS)


def test_full_sweep_counts_independent_of_workers():
    two, one = _traced("full-sweep", 1), _traced("full-sweep", 1, threads=1)
    assert _counts(two) == _counts(one)
    assert two["metrics"]["enumeration.kept_ratio"][0] == 1.0
