"""ccelab: competition-style derived graphs of digraphs and the exact
machinery around them - neighborhood-chain conditions, semiorder and
interval-order recognition, double competition numbers, and exhaustive
theorem-verification sweeps at small vertex counts.

The public names below are imported from their submodules on first
access, so a command that never sweeps never loads the sweep code.
"""

from importlib import import_module

_EXPORTS = {
    "caps": ("ResourceCapError",),
    "conditions": (
        "ConditionKind",
        "ConditionReport",
        "foot_set_minus",
        "foot_set_plus",
        "head_set_minus",
        "head_set_plus",
        "satisfies_condition",
    ),
    "digraph": ("Digraph",),
    "dk": ("DkResult", "double_competition_number", "is_cce_of_acyclic"),
    "enumeration": (
        "ExploreClass",
        "ExploreReport",
        "dag_masks",
        "enumerate_digraphs",
        "explore_open_problem",
        "verify_theorem_kr",
        "verify_theorem_main0",
    ),
    "graphs": (
        "KrIqShape",
        "SimpleGraph",
        "canonical_form",
        "cce_graph",
        "competition_graph",
        "complete_plus_isolated",
        "decompose_kr_iq",
        "graph_from_canonical",
        "is_clique",
        "isolated_vertices",
        "niche_graph",
        "strip_isolated",
    ),
    "orders": (
        "IntervalRep",
        "SemiorderRep",
        "interval_order_from",
        "recognize_interval_order",
        "recognize_semiorder",
        "semiorder_from",
    ),
    "theorems": (
        "EnumerationFilter",
        "SweepOutcome",
        "verify_theorem_acyclic",
        "verify_theorem_loopless",
        "verify_theorem_props",
    ),
    "witnesses": ("witness_loopless", "witness_semiorder"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # also how `from ccelab import cli` falls through to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
