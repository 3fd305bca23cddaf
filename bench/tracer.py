"""Run one ccelab CLI command in-process with spans at module boundaries.

    python3 tracer.py SPANS_OUT.json -- verify --theorem acyclic --n 5 ...

The command's arguments go to `ccelab.cli.main` unchanged.  Before that,
the public functions the CLI calls, and the public cross-module functions
as their callers look them up, are wrapped so that each call records a
span (name, start, end, parent, tag) in memory.  Per-candidate private
helpers are never wrapped.  At exit the spans, the captured standard
output, the exit code and the list of hooks that could not be found are
written to SPANS_OUT.json.

Spans are recorded in this process only: calls made inside sweep worker
processes are not seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from typing import Callable, List, Optional

_clock = time.perf_counter
_spans: List[list] = []         # [name, start, end, parent index, tag]
_stack: List[int] = []
_canonical_inputs = set()       # distinct labeled graphs given to canonical_form


def _wrap(name: str, fn: Callable, tag: Optional[Callable] = None,
          on_call: Optional[Callable] = None) -> Callable:
    def traced(*args, **kwargs):
        if on_call is not None:
            on_call(*args, **kwargs)
        index = len(_spans)
        span = [name, _clock(), 0.0, _stack[-1] if _stack else -1, None]
        _spans.append(span)
        _stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            _stack.pop()
            span[2] = _clock()
        if tag is not None:
            span[4] = tag(result)
        return result

    return traced


def _note_canonical_input(g, *_args, **_kwargs) -> None:
    _canonical_inputs.add((g.n, g.edges))


def _feasibility(result) -> str:
    return "infeasible" if result is None else "feasible"


# (module, attribute as the caller looks it up, span name, tag, on_call)
HOOKS = [
    ("ccelab.cli", "verify_theorem_kr", "enumeration.verify_theorem_kr", None, None),
    ("ccelab.cli", "verify_theorem_main0", "enumeration.verify_theorem_main0", None, None),
    ("ccelab.cli", "verify_theorem_loopless", "enumeration.verify_theorem_loopless", None, None),
    ("ccelab.cli", "verify_theorem_acyclic", "enumeration.verify_theorem_acyclic", None, None),
    ("ccelab.cli", "verify_theorem_props", "enumeration.verify_theorem_props", None, None),
    ("ccelab.cli", "explore_open_problem", "enumeration.explore_open_problem", None, None),
    ("ccelab.cli", "double_competition_number", "dk.double_competition_number", None, None),
    ("ccelab.dk", "double_competition_number", "dk.double_competition_number", None, None),
    ("ccelab.dk", "search_realization", "dk.search_realization", _feasibility, None),
    ("ccelab.enumeration", "canonical_form", "graphs.canonical_form", None,
     _note_canonical_input),
    ("ccelab.enumeration", "interval_feasible_masks", "orders.interval_feasible_masks",
     None, None),
    ("ccelab.enumeration", "semiorder_feasible_masks", "orders.semiorder_feasible_masks",
     None, None),
]


def install_hooks() -> List[str]:
    """Wrap every hook that resolves; return the ones that do not."""
    import importlib

    missing = []
    for module_name, attr, span_name, tag, on_call in HOOKS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _wrap(span_name, fn, tag, on_call))
    return missing


def main(argv: List[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT.json -- CLI ARGS...")
    start = _clock()
    import ccelab.cli

    import_s = _clock() - start
    missing = install_hooks()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        _spans.append(["cli." + cli_args[0], _clock(), 0.0, -1, None])
        _stack.append(0)
        exit_code = ccelab.cli.main(cli_args)
        _stack.pop()
        _spans[0][2] = _clock()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "exit_code": exit_code,
            "stdout": stdout.getvalue(),
            "import_s": import_s,
            "missing_hooks": missing,
            "spans": _spans,
            "canonical_inputs": sorted(
                [n, sorted(map(list, edges))] for n, edges in _canonical_inputs
            ),
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
