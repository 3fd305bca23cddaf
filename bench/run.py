"""ccelab benchmark: run one workload through the real CLI and report metrics.

    python3 bench/run.py --workload dag-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  With --trace 0 every command of the workload
runs as its own `python -m ccelab` process, repeatedly until --seconds is
used up, and the end-to-end metrics are reported.  With --trace 1 the
workload runs once untraced and once under bench/tracer.py, and the
per-layer metrics are reported (see bench/README.md).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

from harness import (OUT_DIR, SRC, TESTS, child_env, environment, run_untraced,
                     steal_seconds)


# -- reporting ----------------------------------------------------------------------


def print_table(workload: str, result: dict) -> None:
    print(f"workload {workload}: {result['attempted']} commands attempted, "
          f"{result['failed']} failed, fail_frac={result['fail_frac']:.4f} ratio")
    for name, (value, unit) in result["metrics"].items():
        note = result.get("unmeasured", {}).get(name)
        print(f"  {name:28s} {value:14.6g} {unit}" + (f"   (unmeasured: {note})" if note else ""))
    for name, s in result.get("detail", {}).items():
        if isinstance(s, dict) and "median" in s:
            print(f"  {name:28s} median {s['median']:.4f}  {s['tail_label']} "
                  f"{s['tail']:.4f}  n={s['samples']}")
        elif isinstance(s, (int, float)):
            print(f"  {name:28s} {s:.6g}")
        elif isinstance(s, str):
            print(f"  {name:28s} {s}")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    env_info = environment()
    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.trace:
            from trace_run import run_traced
            result = run_traced(args.workload, args.seed, workdir, env)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env_info["loadavg_after"] = list(os.getloadavg())
    env_info["steal_s_after"] = steal_seconds()
    result["environment"] = env_info

    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(result, indent=1, sort_keys=True, default=str))
    print_table(args.workload, result)
    print("environment: " + json.dumps(env_info, sort_keys=True))
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _require_checkout() -> None:
    for path in (SRC / "ccelab" / "__init__.py", TESTS / "oracles.py"):
        if not path.is_file():
            sys.exit(f"bench/run.py: {path} not found; run from the ccelab "
                     "repository root")


if __name__ == "__main__":
    # On SIGTERM unwind normally, so that every child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _require_checkout()
    sys.exit(main())
