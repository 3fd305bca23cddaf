"""Traced run of one workload: per-layer metrics from boundary spans and probes.

Each command runs once untraced through the CLI and once under tracer.py,
which calls `ccelab.cli.main` in-process with the same arguments and
records spans at the hooked module boundaries.  The probes in probes.py
then replay the workload's candidates through public primitives.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from probes import probe_summary, run_probes
from harness import BENCH_DIR, OUT_DIR, run_pass, spawn, write_inputs
from workloads import WORKLOADS, check, commands

IMPORT_REPEATS = 5
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ccelab.cli; "
    "print(time.perf_counter() - t)"
)

# What each hook (by attribute name) or probe feeds, for marking metrics
# unmeasured when the program no longer has it.
_SWEEP = ("enumeration.scan_self_s",)
HOOK_METRICS = {
    "verify_theorem_kr": _SWEEP, "verify_theorem_main0": _SWEEP,
    "verify_theorem_loopless": _SWEEP, "verify_theorem_acyclic": _SWEEP,
    "verify_theorem_props": _SWEEP, "explore_open_problem": _SWEEP,
    "double_competition_number": ("dk.queries",),
    "search_realization": ("dk.strata_feasible", "dk.strata_infeasible",
                           "dk.feasible_s", "dk.infeasible_s", "dk.stratum_max_s"),
    "canonical_form": ("graphs.canonical_calls", "graphs.canonical_distinct",
                       "graphs.canonical_s"),
    "semiorder_feasible_masks": ("orders.semiorder_calls", "orders.semiorder_s"),
    "interval_feasible_masks": ("orders.interval_calls", "orders.interval_s",
                                "enumeration.checked", "enumeration.kept_ratio"),
}
PROBE_METRICS = (
    "enumeration.candidates", "enumeration.kept_ratio", "enumeration.gen_probe_s",
    "digraph.acyclic_probe_calls", "digraph.acyclic_probe_s",
    "conditions.gate_probe_calls", "conditions.gate_probe_s",
    "conditions.pass_ratio", "graphs.derive_probe_s",
)


def _import_seconds(workdir: Path, env) -> float:
    samples = []
    for _ in range(IMPORT_REPEATS):
        child = spawn([sys.executable, "-c", _IMPORT_PROBE], workdir, env)
        samples.append(float(child.stdout.strip()))
    return statistics.median(samples)


def traced_command(cmd, workdir: Path, env, failures: List[str]):
    """Run one command under the tracer; returns (wall, record or None)."""
    spans_file = workdir / "spans.json"
    argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_file),
            "--", *cmd.args]
    child = spawn(argv, workdir, env)
    if child.exit_code != 0 or not spans_file.exists():
        failures.append(f"traced {' '.join(cmd.args)}: tracer exit {child.exit_code}")
        return child.wall_s, None
    record = json.loads(spans_file.read_text())
    spans_file.unlink()
    reason = check(cmd, record["exit_code"], record["stdout"])
    if reason:
        failures.append(f"traced {' '.join(cmd.args)}: {reason}")
    return child.wall_s, record


def _span_metrics(records) -> Dict[str, float]:
    m = {
        "enumeration.scan_self_s": 0.0, "graphs.canonical_calls": 0,
        "graphs.canonical_s": 0.0, "orders.semiorder_calls": 0,
        "orders.semiorder_s": 0.0, "orders.interval_calls": 0,
        "orders.interval_s": 0.0, "dk.queries": 0, "dk.strata_feasible": 0,
        "dk.strata_infeasible": 0, "dk.feasible_s": 0.0, "dk.infeasible_s": 0.0,
        "dk.stratum_max_s": 0.0,
    }
    per_name = {
        "graphs.canonical_form": ("graphs.canonical_calls", "graphs.canonical_s"),
        "orders.semiorder_feasible_masks": ("orders.semiorder_calls", "orders.semiorder_s"),
        "orders.interval_feasible_masks": ("orders.interval_calls", "orders.interval_s"),
    }
    for record in records:
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _tag in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, tag) in enumerate(spans):
            dur = end - start
            if name.startswith(("enumeration.verify_", "enumeration.explore_")):
                m["enumeration.scan_self_s"] += dur - child_time[i]
            elif name in per_name:
                calls, seconds = per_name[name]
                m[calls] += 1
                m[seconds] += dur
            elif name == "dk.double_competition_number":
                m["dk.queries"] += 1
            elif name == "dk.search_realization":
                m[f"dk.strata_{tag}"] += 1
                m[f"dk.{tag}_s"] += dur
                m["dk.stratum_max_s"] = max(m["dk.stratum_max_s"], dur)
    distinct = {json.dumps(g) for r in records for g in r["canonical_inputs"]}
    m["graphs.canonical_distinct"] = len(distinct)
    return m


def _checked(cmds, records, spans: Dict[str, float]) -> int:
    """Digraphs the sweeps examined: the reported `checked` where it is
    truthful, and for main0/kr the posets that reached the order tests."""
    total = 0
    for cmd, record in zip(cmds, records):
        if cmd.args[0] == "dk":
            continue
        if cmd.args[0] == "verify" and cmd.args[2] in ("main0", "kr"):
            continue
        total += json.loads(record["stdout"])["checked"]
    return total + spans["orders.interval_calls"]


def run_traced(workload: str, seed: int, workdir: Path, env, threads=None) -> dict:
    w = WORKLOADS[workload]
    cmds = commands(workload, seed, threads)
    write_inputs(cmds, workdir)
    failures: List[str] = []
    unmeasured: Dict[str, str] = {}

    import_s = _import_seconds(workdir, env)
    workers = w.threads if threads is None else threads
    serial_cmds = commands(workload, seed, 1)
    # Each command runs untraced, traced and, for parallel_eff, on one
    # worker back to back, so that a slow spell of the machine lands on
    # every side of a comparison.
    untraced, records, serial = [], [], []
    traced_wall = 0.0
    for cmd, serial_cmd in zip(cmds, serial_cmds):
        untraced += run_pass([cmd], workdir, env, failures)
        wall, record = traced_command(cmd, workdir, env, failures)
        traced_wall += wall
        if record is not None:
            records.append(record)
        if workers > 1:
            serial += run_pass([serial_cmd], workdir, env, failures)
    untraced_wall = sum(c.wall_s for c in untraced)
    attempted = len(untraced) + len(cmds) + len(serial)

    missing = sorted({h for r in records for h in r["missing_hooks"]})
    spans = _span_metrics(records)
    for hook in missing:
        for name in HOOK_METRICS[hook.rsplit(".", 1)[1]]:
            unmeasured[name] = f"hook {hook} not found"

    parallel_eff = 0.0
    if serial:
        parallel_eff = sum(c.wall_s for c in serial) / (workers * untraced_wall)
    else:
        unmeasured["enumeration.parallel_eff"] = "workload runs with one worker"

    probe = run_probes(cmds)
    if probe.missing:
        for name in PROBE_METRICS:
            unmeasured[name] = f"probe primitive {', '.join(probe.missing)} not found"

    candidates = probe.candidates
    checked = _checked(cmds, records, spans) if len(records) == len(cmds) else 0
    metrics = {
        "enumeration.candidates": (candidates, "count"),
        "enumeration.checked": (checked, "count"),
        "enumeration.kept_ratio": (checked / candidates if candidates else 0.0, "ratio"),
        "enumeration.scan_self_s": (spans["enumeration.scan_self_s"], "s"),
        "enumeration.gen_probe_s": (probe.gen_s, "s"),
        "enumeration.parallel_eff": (parallel_eff, "ratio"),
        "digraph.acyclic_probe_calls": (probe.acyclic_calls, "count"),
        "digraph.acyclic_probe_s": (probe.acyclic_s, "s"),
        "conditions.gate_probe_calls": (probe.gate_calls, "count"),
        "conditions.gate_probe_s": (probe.gate_s, "s"),
        "conditions.pass_ratio": (probe.gate_passed / probe.gated if probe.gated else 0.0,
                                  "ratio"),
        "graphs.canonical_calls": (spans["graphs.canonical_calls"], "count"),
        "graphs.canonical_distinct": (spans["graphs.canonical_distinct"], "count"),
        "graphs.canonical_s": (spans["graphs.canonical_s"], "s"),
        "graphs.derive_probe_s": (probe.derive_s, "s"),
        "orders.semiorder_calls": (spans["orders.semiorder_calls"], "count"),
        "orders.semiorder_s": (spans["orders.semiorder_s"], "s"),
        "orders.interval_calls": (spans["orders.interval_calls"], "count"),
        "orders.interval_s": (spans["orders.interval_s"], "s"),
        "dk.queries": (spans["dk.queries"], "count"),
        "dk.strata_feasible": (spans["dk.strata_feasible"], "count"),
        "dk.strata_infeasible": (spans["dk.strata_infeasible"], "count"),
        "dk.feasible_s": (spans["dk.feasible_s"], "s"),
        "dk.infeasible_s": (spans["dk.infeasible_s"], "s"),
        "dk.stratum_max_s": (spans["dk.stratum_max_s"], "s"),
        "cli.import_s": (import_s, "s"),
        "cli.output_bytes": (sum(len(c.stdout.encode()) for c in untraced), "B"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    if not candidates:
        unmeasured["enumeration.kept_ratio"] = "no sweep in this workload"
    if not probe.gen_calls:
        unmeasured["enumeration.gen_probe_s"] = "no loopless-space sweep in this workload"
    if not probe.gated:
        unmeasured["conditions.pass_ratio"] = "no gated candidates in this workload"
    if len(records) != len(cmds):
        unmeasured["enumeration.checked"] = "a traced command failed"
    for name in unmeasured:
        metrics[name] = (0, metrics[name][1])

    spans_out = OUT_DIR / f"{workload}-seed{seed}-spans.json"
    spans_out.write_text(json.dumps([
        {"command": list(cmd.args), "spans": r["spans"]} for cmd, r in zip(cmds, records)
    ]))
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "fail_frac": len(failures) / attempted,
        "metrics": metrics,
        "unmeasured": unmeasured,
        "detail": {
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "missing_hooks": missing,
            "probe": probe_summary(probe),
            "spans_file": str(spans_out),
        },
    }
