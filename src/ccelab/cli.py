"""Command-line front end.

Exit codes: 0 success / property verified, 1 negative result (condition
violated, recognition failed, counterexample found, dk above the searched
bound), 2 usage or parse error, 3 I/O failure, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .graphs import SimpleGraph

# Every name the handlers take from another ccelab module, by module.  A name
# imports its module on first access, so a process loads only what its own
# subcommand runs.  Handlers look each name up on this module at call time,
# as _cli.<name>, so that a caller may replace it here.
_IMPORTS = {
    "caps": ("ResourceCapError",),
    "conditions": ("ConditionKind", "satisfies_condition"),
    "dk": ("double_competition_number",),
    "enumeration": ("explore_open_problem", "verify_theorem_kr", "verify_theorem_main0"),
    "fileformats": (
        "ParseError",
        "digraph_to_json",
        "dot_derived",
        "graph_to_json",
        "intervals_to_json",
        "parse_digraph",
        "parse_graph",
        "semiorder_to_json",
        "serialize_digraph",
        "serialize_graph",
        "serialize_intervals",
        "serialize_semiorder",
    ),
    "graphs": ("cce_graph", "competition_graph", "decompose_kr_iq", "niche_graph"),
    "orders": ("recognize_interval_order", "recognize_semiorder"),
    "theorems": (
        "verify_theorem_acyclic",
        "verify_theorem_loopless",
        "verify_theorem_props",
    ),
    "witnesses": ("witness_loopless", "witness_semiorder"),
}
_MODULE_OF = {name: module for module, names in _IMPORTS.items() for name in names}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __package__), name)
    return value


EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CAP = 4

# the --kind choices, each derived by <kind>_graph
_DERIVES = ("cce", "competition", "niche")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _workers(args) -> int:
    """--threads, or for 0 the number of CPUs this process may run on."""
    if args.threads:
        return args.threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _emit(args, payload: Optional[dict], text: str, out: Optional[str] = None) -> None:
    """Write a command's result: the text to out when a file flag names one,
    then the payload as JSON on stdout under --json, else the text to stdout
    when no file took it.  An unwritable file thus fails before any
    stdout."""
    if out:
        _write(out, text)
    if args.json:
        import json

        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif not out:
        sys.stdout.write(text)


def _shape_label(g: SimpleGraph) -> str:
    shape = _cli.decompose_kr_iq(g)
    if shape is not None:
        if shape.r == 0:
            return f"I_{shape.q}"
        if shape.q == 0:
            return f"K_{shape.r}"
        return f"K_{shape.r} u I_{shape.q}"
    return "edges " + " ".join(f"{u}-{v}" for u, v in sorted(g.edges))


# -- subcommand handlers ---------------------------------------------------------


def _cmd_derive(args) -> int:
    d = _cli.parse_digraph(_read(args.infile))
    g = getattr(_cli, f"{args.kind}_graph")(d)
    _write(args.out, _cli.serialize_graph(g))
    if args.dot:
        _write(args.dot, _cli.dot_derived(d, g, args.kind))
    payload = {"kind": args.kind, "digraph": _cli.digraph_to_json(d),
               "derived": _cli.graph_to_json(g)}
    _emit(args, payload, "")            # the graph went to --out: no text
    return EXIT_OK


def _cmd_check(args) -> int:
    d = _cli.parse_digraph(_read(args.infile))
    kind = _cli.ConditionKind(args.condition)
    report = _cli.satisfies_condition(d, kind, args.p)
    witness = None if report.satisfied else sorted(report.violating_set)
    verdict = "satisfied" if report.satisfied else (
        "violated by {" + ", ".join(map(str, witness)) + "}"
    )
    payload = {"condition": args.condition, "p": args.p,
               "satisfied": report.satisfied, "witness": witness}
    _emit(args, payload, f"{kind.label(args.p)}: {verdict}\n")
    return EXIT_OK if report.satisfied else EXIT_NEGATIVE


def _cmd_recognize(args) -> int:
    d = _cli.parse_digraph(_read(args.infile))
    if args.model == "semiorder":
        rep = _cli.recognize_semiorder(d)
        to_json, serialize = _cli.semiorder_to_json, _cli.serialize_semiorder
    else:
        rep = _cli.recognize_interval_order(d)
        to_json, serialize = _cli.intervals_to_json, _cli.serialize_intervals
    if rep is None:
        _emit(args, {"model": args.model, "present": False},
              f"no {args.model} representation exists\n")
        return EXIT_NEGATIVE
    payload = {"model": args.model, "present": True, **to_json(rep)}
    _emit(args, payload, serialize(rep), args.out)
    return EXIT_OK


def _parse_shape(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected --shape r,q, got {text!r}")
    return int(parts[0]), int(parts[1])


def _cmd_witness(args) -> int:
    r, q = _parse_shape(args.shape)
    if args.model == "loopless":
        d = _cli.witness_loopless(r, q)
        text, fields = _cli.serialize_digraph(d), _cli.digraph_to_json(d)
    else:
        rep = _cli.witness_semiorder(r, q)
        text, fields = _cli.serialize_semiorder(rep), _cli.semiorder_to_json(rep)
    _emit(args, {"model": args.model, "shape": [r, q], **fields}, text, args.out)
    return EXIT_OK


def _cmd_dk(args) -> int:
    g = _cli.parse_graph(_read(args.infile))
    result = _cli.double_competition_number(g, args.kmax)
    if result is None:
        _emit(args, {"dk": None, "kmax": args.kmax},
              f"dk > {args.kmax} (no realization within the searched strata)\n")
        return EXIT_NEGATIVE
    payload = {"dk": result.k, "witness": _cli.digraph_to_json(result.witness)}
    witness = _cli.serialize_digraph(result.witness)
    if args.witness_out:
        # written before any stdout, so an unwritable path prints nothing
        _write(args.witness_out, witness)
        witness = ""
    _emit(args, payload, f"dk = {result.k}\n{witness}")
    return EXIT_OK


# the theorems whose sweep takes p
_TAKES_P = ("loopless", "acyclic")


def _progress(done: int, total: int) -> None:
    print(f"progress: {done}/{total} chunks", file=sys.stderr)


def _cmd_verify(args) -> int:
    theorem = args.theorem
    p = args.p if theorem in _TAKES_P else None
    # only the theorems that take p can split their labeled scan over workers
    sweep_args = (args.n,) if p is None else (p, args.n, _workers(args))
    outcome = getattr(_cli, f"verify_theorem_{theorem}")(
        *sweep_args, progress=_progress if args.progress else None
    )

    payload = {"theorem": theorem, "n": args.n, "p": p, "checked": outcome.checked,
               "verified": outcome.verified, "counterexample": None}
    if outcome.verified:
        text = f"{theorem}: verified ({outcome.checked} digraphs checked)\n"
    elif outcome.missing_shape is not None:
        # no digraph witnesses a missing shape, so no report file is written
        r, q, family = outcome.missing_shape
        payload["missing_shape"] = {"r": r, "q": q, "family": family}
        text = f"{theorem}: shape K_{r} u I_{q} realized by no {family}\n"
    else:
        digraph, tag = outcome.counterexample
        _write(args.report, _cli.serialize_digraph(digraph))
        payload["counterexample"] = {"tag": tag, "digraph": _cli.digraph_to_json(digraph)}
        text = f"{theorem}: counterexample found ({tag}); written to {args.report}\n"
    _emit(args, payload, text)
    return EXIT_OK if outcome.verified else EXIT_NEGATIVE


def _cmd_explore(args) -> int:
    report = _cli.explore_open_problem(
        args.problem, args.p, args.n, workers=_workers(args)
    )
    sections = sorted(report.sections.items())
    lines = [f"problem {report.problem} at p={report.p}, n={report.n}: "
             f"{report.checked} digraphs examined\n"]
    for name, classes in sections:
        lines.append(f"[{name}] {len(classes)} isomorphism classes\n")
        for c in classes:
            arcs = " ".join(f"{u}->{v}" for u, v in sorted(c.witness.arcs))
            label = _shape_label(c.graph)
            lines.append(f"  {label}   witness: {arcs or '(no arcs)'}\n")
    # the payload converts every class to JSON fields: built for --json only
    payload = None
    if args.json:
        payload = {
            "problem": report.problem, "p": report.p, "n": report.n,
            "checked": report.checked,
            "sections": {
                name: [{"graph": _cli.graph_to_json(c.graph),
                        "witness": _cli.digraph_to_json(c.witness)} for c in classes]
                for name, classes in sections
            },
        }
    _emit(args, payload, "".join(lines))
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def _threads(text: str) -> int:
    """A --threads value: a worker count, or 0 for one per usable CPU."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _with_json(p: argparse.ArgumentParser, handler) -> None:
    """Give a subparser its --json flag, as its last option, and its handler."""
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=handler)


def _fill_derive(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=_DERIVES, required=True)
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--dot", metavar="FILE", help="also write a DOT rendering")
    _with_json(p, _cmd_derive)


def _fill_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("--condition", choices=[k.value for k in _cli.ConditionKind],
                   required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    _with_json(p, _cmd_check)


def _fill_recognize(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=["semiorder", "interval"], required=True)
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    _with_json(p, _cmd_recognize)


def _fill_witness(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", required=True, metavar="R,Q")
    p.add_argument("--model", choices=["loopless", "semiorder"], default="loopless")
    p.add_argument("--out", metavar="FILE")
    _with_json(p, _cmd_witness)


def _fill_dk(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--witness-out", metavar="FILE")
    p.add_argument("--threads", type=_threads, default=0,
                   help="ignored: dk runs in one process")
    _with_json(p, _cmd_dk)


def _fill_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--theorem",
        choices=["kr", "main0", "loopless", "acyclic", "props"],
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=2,
                   help="the level p of loopless and acyclic; main0, kr and props "
                        "ignore it, and their --json reports p as null")
    p.add_argument("--report", default="counterexample.digraph", metavar="FILE")
    p.add_argument("--threads", type=_threads, default=0,
                   help="worker processes (0 = one per CPU this process may "
                        "run on) for loopless and acyclic at p >= 4; other "
                        "sweeps ignore it")
    p.add_argument("--progress", action="store_true",
                   help="print finished chunks to stderr (at p <= 3 and for "
                        "main0, kr and props, one per level count)")
    _with_json(p, _cmd_verify)


def _fill_explore(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--threads", type=_threads, default=0,
                   help="worker processes (0 = one per CPU this process may "
                        "run on) at p >= 3")
    _with_json(p, _cmd_explore)


# (name, help line, fill): the top-level parser lists every subcommand, and
# fill adds a subcommand's arguments and handler when its parser runs
_SUBCOMMANDS = (
    ("derive", "compute a derived graph of a digraph", _fill_derive),
    ("check", "check one condition at one level p", _fill_check),
    ("recognize", "find a semiorder or interval representation", _fill_recognize),
    ("witness", "emit a constructive K_r u I_q witness", _fill_witness),
    ("dk", "double competition number by exact search", _fill_dk),
    ("verify", "run a theorem-verification sweep", _fill_verify),
    ("explore", "survey an open problem's graph classes", _fill_explore),
)


class _Subparser(argparse.ArgumentParser):
    """A subcommand's parser, filled with its arguments only when it parses,
    so that a process builds no other subcommand's arguments."""

    def __init__(self, *args, fill, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def parse_known_args(self, args=None, namespace=None):
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccelab",
        description=(
            "Competition, competition-common-enemy and niche graphs of "
            "digraphs: derived graphs, neighborhood-chain conditions, order "
            "recognition, double competition numbers, and exhaustive "
            "verification sweeps at small vertex counts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)
    for name, help_line, fill in _SUBCOMMANDS:
        sub.add_parser(name, help=help_line, fill=fill)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # an except clause looks up its class only when an exception reaches it,
    # so a command that succeeds loads neither module defining these two
    try:
        return args.func(args)
    except _cli.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _cli.ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
