"""Hard resource caps for the exponential searches.

Caps refuse oversized requests outright rather than truncating silently.
The CCELAB_CAP environment variable overrides all four defaults at once.
"""

from __future__ import annotations

import os

DEFAULT_CAP_GENERAL = 6     # all / loopless digraph enumeration
DEFAULT_CAP_ACYCLIC = 7     # DAG enumeration
DEFAULT_CAP_PROPS = 4       # proposition bundle over all 2^(n^2) digraphs
DEFAULT_CAP_DK = 7          # dk search: |V(G)| + k_max
CAP_ENV_VAR = "CCELAB_CAP"


class ResourceCapError(RuntimeError):
    """An enumeration or search request exceeded the configured hard cap."""


def resolved_cap(kind: str) -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    return {
        "general": DEFAULT_CAP_GENERAL,
        "acyclic": DEFAULT_CAP_ACYCLIC,
        "props": DEFAULT_CAP_PROPS,
        "dk": DEFAULT_CAP_DK,
    }[kind]
