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
    # the loopless theorem sweep: at p <= 3 one Fishburn matrix per interval
    # order, n = 7 in under 0.2 s; at 4 <= p <= n the gated labeled scan sets
    # the cap: n = 7 takes ~281 s at p = 4 on 2 workers, and p = 5-7 no less
    "loopless": 7,
    # DAG enumeration and the acyclic theorem sweep: at p <= 3 as loopless,
    # n = 7 in under 0.2 s; at 4 <= p <= n the gated DAG scan, n = 7 at p = 4
    # in ~117 s on 2 workers, and p = 5-7 no less
    "acyclic": 7,
    # the props clique check over all 2^(n^2) digraphs, in one process: one
    # representative per level matrix, at p = 2 only; n = 6 takes
    # ~0.6-0.7 s, n = 7 ~8.3 s on one core
    "props": 7,
    # explore: at n = 5 and p = 3 problem 3 takes ~17-19 s on one core and
    # ~10-12 s on 2 workers (load ~1); at p = 2 each problem takes under
    # 0.5 s at n = 5, but problem 2's witness scan ~32 s at n = 6
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
