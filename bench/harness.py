"""Shared plumbing of the benchmark: child processes, statistics, environment,
and the untraced run of a workload through the CLI."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT_DIR = ROOT / ".bench_out"
COMMAND_TIMEOUT_S = 90.0
SETUP_REPEATS = 9

sys.path[:0] = [str(SRC), str(TESTS)]

from speed import ELASTICITY, ParallelSpeed, speed_factor  # noqa: E402
from workloads import WORKLOADS, check, commands  # noqa: E402


def child_env() -> Dict[str, str]:
    """Children see the package through an absolute src path, whatever
    their working directory, and no cap override."""
    env = dict(os.environ)
    env.pop("CCELAB_CAP", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class Child(NamedTuple):
    """Outcome of one child process."""

    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    timed_out: bool
    ref_s: Optional[float] = None    # wall_s at reference speed, if calibrated


def spawn(argv: Sequence[str], cwd: Path, env: Dict[str, str]) -> Child:
    """Run argv to completion; time it and read its max RSS via wait4."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)    # the CLI and its workers
            except ProcessLookupError:
                pass

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:          # interrupted: leave no child behind
            kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    # ru_maxrss is in KiB on Linux; it covers the child and its reaped workers.
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, text,
                 killed.is_set())


class SpeedClock:
    """Spawns children between host speed measurements (see speed.py) and
    gives each child's wall time at reference speed: its wall time over the
    mean of the factors measured right before and right after it, raised to
    ELASTICITY.  Children that keep `workers` CPUs busy are bracketed by the
    factor measured on that many CPUs at once.  Call close() when done."""

    def __init__(self, workers: int = 1) -> None:
        self._measure = speed_factor if workers == 1 else ParallelSpeed(workers)
        self.factors = [self._measure()]

    def close(self) -> None:
        if isinstance(self._measure, ParallelSpeed):
            self._measure.close()

    def spawn(self, argv: Sequence[str], cwd: Path, env: Dict[str, str]) -> Child:
        child = spawn(argv, cwd, env)
        self.factors.append(self._measure())
        factor = (self.factors[-2] + self.factors[-1]) / 2
        return child._replace(ref_s=child.wall_s / factor ** ELASTICITY)


def cli_argv(args: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "ccelab", *args]


def write_inputs(cmds, workdir: Path) -> None:
    for cmd in cmds:
        for name, text in cmd.files:
            (workdir / name).write_text(text)


# -- statistics ---------------------------------------------------------------------


def tail(samples: Sequence[float]):
    """(label, value): the highest percentile with at least ten samples
    beyond it, by nearest rank; the maximum when that percentile would not
    lie above the median (fewer than 21 samples)."""
    xs = sorted(samples)
    n = len(xs)
    rank = n - 10
    if 2 * rank <= n:
        return "max", xs[-1]
    return f"p{100.0 * rank / n:.1f}", xs[rank - 1]


def query_tail(per_cmd: Sequence[Sequence[float]]):
    """(label, value): tail() over every query time when some percentile
    above the median has ten samples beyond it (more than 20 samples);
    otherwise the slowest command's median, because the maximum of a few
    samples is mostly noise."""
    xs = [x for times in per_cmd for x in times]
    if 2 * (len(xs) - 10) > len(xs):
        return tail(xs)
    return "max command median", max(statistics.median(t) for t in per_cmd)


def summary(samples: Sequence[float]) -> dict:
    label, value = tail(samples)
    return {"median": statistics.median(samples), "tail": value,
            "tail_label": label, "samples": len(samples), "values": list(samples)}


# -- environment --------------------------------------------------------------------


def commit_hash() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() or None


def steal_seconds() -> Optional[float]:
    """CPU time the hypervisor took from this machine since boot, if known."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "loadavg_before": list(os.getloadavg()),
        "steal_s_before": steal_seconds(),
        "commit": commit_hash(),
    }


# -- untraced run -------------------------------------------------------------------


def measure_setup(workdir: Path, env, clock: SpeedClock) -> List[Child]:
    """CLI processes that only start and exit."""
    argv = cli_argv(["--help"])
    spawn(argv, workdir, env)          # warm the bytecode cache, untimed
    children = []
    for _ in range(SETUP_REPEATS):
        child = clock.spawn(argv, workdir, env)
        if child.exit_code != 0:
            raise RuntimeError("`python -m ccelab --help` failed")
        children.append(child)
    return children


def run_pass(cmds, workdir: Path, env, failures: List[str],
             clock: Optional[SpeedClock] = None) -> List[Child]:
    """Every command once, through the CLI; golden mismatches go to failures.
    With a clock, each child also gets its wall time at reference speed."""
    children = []
    for cmd in cmds:
        argv = cli_argv(cmd.args)
        child = clock.spawn(argv, workdir, env) if clock else spawn(argv, workdir, env)
        reason = "timeout" if child.timed_out else check(cmd, child.exit_code, child.stdout)
        if reason:
            failures.append(f"{' '.join(cmd.args)}: {reason}")
        children.append(child)
    return children


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path, env) -> dict:
    """Run the workload's command list once, then keep cycling through it
    until the next command would end after --seconds.  Every time metric is
    at reference speed (SpeedClock); the raw wall times are in the detail."""
    w = WORKLOADS[workload]
    cmds = commands(workload, seed)
    write_inputs(cmds, workdir)
    setup_clock = SpeedClock()
    setup = measure_setup(workdir, env, setup_clock)
    failures: List[str] = []
    samples: List[List[Child]] = [[] for _ in cmds]
    clock = SpeedClock(w.threads)
    try:
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            start = time.perf_counter()
            k = i % len(cmds)
            samples[k] += run_pass([cmds[k]], workdir, env, failures, clock)
            i += 1
            now = time.perf_counter()
            if i >= len(cmds) and now + (now - start) > deadline:
                break
    finally:
        clock.close()
    children = [c for per_cmd in samples for c in per_cmd]
    # One pass through the command list: each command's mean over its runs,
    # summed.  A command runs only a few times in a run (an acyclic sweep
    # takes seconds), and with so few samples the mean varies less between
    # runs than the median does.
    wall = sum(statistics.mean(c.ref_s for c in per_cmd) for per_cmd in samples)
    raw_wall = sum(statistics.mean(c.wall_s for c in per_cmd) for per_cmd in samples)
    query_ref = [c.ref_s for c in children]
    tail_label, tail_value = query_tail([[c.ref_s for c in per_cmd] for per_cmd in samples])
    setup_ref = [c.ref_s for c in setup]
    attempted = len(children)
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (w.items / wall, "1/s"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (max(c.rss_mb for c in children), "MB"),
        "query_p50_s": (statistics.median(query_ref), "s"),
        "query_tail_s": (tail_value, "s"),
    }
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "fail_frac": len(failures) / attempted,
        "metrics": metrics,
        "detail": {
            "passes": round(len(children) / len(cmds), 2),
            "raw_wall_s": raw_wall,
            "setup_s": summary(setup_ref),
            "setup_raw_s": summary([c.wall_s for c in setup]),
            "query_s": summary(query_ref),
            "query_tail_is": tail_label,
            "query_raw_s": summary([c.wall_s for c in children]),
            "setup_speed_factor": summary(setup_clock.factors),
            "speed_factor": summary(clock.factors),
            "items": w.items,
            "item_unit": w.item_unit,
        },
    }
