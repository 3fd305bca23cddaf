"""Hard resource caps for the exponential searches.

Caps refuse oversized requests outright rather than truncating silently.
Each cap is the largest size of its kind known to finish; the CCELAB_CAP
environment variable overrides every cap at once.
"""

from __future__ import annotations

import os

# kind -> largest n (dk: |V(G)| + k_max); timings on a 2-CPU VM, Python 3.11
DEFAULT_CAPS = {
    # enumerate_digraphs over all 2^(n^2) or loopless digraphs
    "general": 6,
    # the main0/kr class sweeps, one Fishburn matrix per unlabeled interval
    # order: n = 11 (1,422,074 matrices) takes ~23-33 s on one core, n = 10
    # ~3-4.7 s; n = 12 has 10.9 M matrices
    "order": 11,
    # the loopless theorem sweep: n = 7 takes ~99 s (p = 2) and ~142 s
    # (p = 3) on 2 workers
    "loopless": 7,
    # DAG enumeration and the acyclic theorem sweep (~39 s at n = 7, p = 2,
    # on 2 workers)
    "acyclic": 7,
    # the proposition bundle over all 2^(n^2) digraphs: n = 5 takes ~9 s on
    # 2 workers and ~12-16 s on one
    "props": 5,
    # explore: at n = 5 and p = 3 problem 3 takes ~31 s on one core and ~19 s
    # on 2 workers; at p = 2 each problem takes under 0.5 s at n = 5, but
    # problem 2's witness scan ~32 s at n = 6
    "explore": 5,
    # dk search, every stratum within 2 s
    "dk": 7,
}
CAP_ENV_VAR = "CCELAB_CAP"


class ResourceCapError(RuntimeError):
    """An enumeration or search request exceeded the configured hard cap."""


def check_cap(kind: str, size: int) -> None:
    """Refuse a request whose size (n; |V(G)| + k_max for dk) is above the
    cap of its kind, or CCELAB_CAP when set."""
    if size < 0:
        raise ValueError("vertex count must be non-negative")
    raw = os.environ.get(CAP_ENV_VAR)
    try:
        limit = DEFAULT_CAPS[kind] if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    if size > limit:
        what, search = (
            (f"|V(G)| + k_max = {size}", "search") if kind == "dk"
            else (f"n={size}", "enumeration")
        )
        raise ResourceCapError(
            f"{what} exceeds the {kind} {search} cap {limit} "
            f"(override with {CAP_ENV_VAR})"
        )
