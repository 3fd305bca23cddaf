"""Text file formats, DOT export, and JSON codecs.

Formats are line-oriented and human-diffable:

    digraph 4          graph 4          semiorder 4 delta=1    intervals 3
    2 -> 0             0 -- 1           0: f=0                 0: [2,2]
    2 -> 1             2 -- 3           1: f=0                 1: [1,1]
    ...                                 2: f=2                 2: [0,0]
                                        3: f=-2

Blank lines and '#' comments are permitted.  Values are exact rationals:
integers, decimals, or p/q fractions.  parse(serialize(x)) == x holds for
every object this package produces.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Dict, List, Tuple

from .digraph import Digraph
from .graphs import SimpleGraph, isolated_vertices

if TYPE_CHECKING:
    from fractions import Fraction

    from .orders import IntervalRep, SemiorderRep


class ParseError(Exception):
    """A malformed input file, with 1-based line/column diagnostics."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


def _content_lines(text: str) -> List[Tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            out.append((i, stripped))
    return out


def _column_of(line: str, token: str) -> int:
    pos = line.find(token)
    return pos + 1 if pos >= 0 else 1


def _parse_header(lines, keyword: str):
    if not lines:
        raise ParseError(1, 1, f"empty input, expected '{keyword} <n>' header")
    lineno, line = lines[0]
    parts = line.split()
    if parts[0] != keyword:
        raise ParseError(lineno, 1, f"expected '{keyword}' header, got {parts[0]!r}")
    if len(parts) < 2 or not re.fullmatch(r"\d+", parts[1]):
        raise ParseError(
            lineno, _column_of(line, parts[1] if len(parts) > 1 else parts[0]),
            f"expected a vertex count after '{keyword}'",
        )
    return int(parts[1]), parts[2:], lineno, line


def _parse_value(token: str, lineno: int, line: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            lineno, _column_of(line, token), f"bad numeric value {token!r}"
        )


def format_value(v) -> str:
    from fractions import Fraction

    fr = Fraction(v)
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def _parse_plain_header(lines, keyword: str) -> int:
    """The vertex count of a header that carries nothing after it."""
    n, extra, lineno, hline = _parse_header(lines, keyword)
    if extra:
        raise ParseError(
            lineno, _column_of(hline, extra[0]), "unexpected tokens after header"
        )
    return n


def _parse_pairs(text: str, keyword: str, sep: str) -> Tuple[int, List[Tuple[int, int]]]:
    """n and the (u, v) of each `u <sep> v` line; graphs (sep '--') refuse
    loops."""
    lines = _content_lines(text)
    n = _parse_plain_header(lines, keyword)
    pairs = []
    pat = re.compile(rf"^\s*(\d+)\s*{sep}\s*(\d+)\s*$")
    for lineno, line in lines[1:]:
        m = pat.match(line)
        if not m:
            raise ParseError(lineno, 1, f"expected 'u {sep} v', got {line!r}")
        u, v = int(m.group(1)), int(m.group(2))
        if u >= n or v >= n:
            raise ParseError(
                lineno, _column_of(line, m.group(1 if u >= n else 2)),
                f"vertex out of range for n={n}",
            )
        if u == v and sep == "--":
            raise ParseError(lineno, 1, f"loop edge {u} -- {v} not allowed")
        pairs.append((u, v))
    return n, pairs


def _parse_vertex_values(
    lines, n: int, body: str, expected: str, noun: str, nouns: str
) -> List[Tuple[Fraction, ...]]:
    """The values of each vertex from the `v: <body>` lines after the header,
    one per group of the body pattern; noun and nouns name them in errors."""
    values: Dict[int, Tuple[Fraction, ...]] = {}
    pat = re.compile(rf"^\s*(\d+)\s*:\s*{body}\s*$")
    for lineno, line in lines[1:]:
        m = pat.match(line)
        if not m:
            raise ParseError(lineno, 1, f"expected 'v: {expected}', got {line!r}")
        v = int(m.group(1))
        if v >= n:
            raise ParseError(
                lineno, _column_of(line, m.group(1)), f"vertex out of range for n={n}"
            )
        if v in values:
            raise ParseError(
                lineno, _column_of(line, m.group(1)), f"duplicate {noun} for vertex {v}"
            )
        values[v] = tuple(_parse_value(t, lineno, line) for t in m.groups()[1:])
    missing = [v for v in range(n) if v not in values]
    if missing:
        raise ParseError(lines[-1][0], 1, f"missing {nouns} for vertices {missing}")
    return [values[v] for v in range(n)]


# -- digraphs -----------------------------------------------------------------


def parse_digraph(text: str) -> Digraph:
    return Digraph(*_parse_pairs(text, "digraph", "->"))


def serialize_digraph(d: Digraph) -> str:
    lines = [f"digraph {d.n}"]
    lines += [f"{u} -> {v}" for u, v in sorted(d.arcs)]
    return "\n".join(lines) + "\n"


# -- simple graphs -------------------------------------------------------------


def parse_graph(text: str) -> SimpleGraph:
    return SimpleGraph(*_parse_pairs(text, "graph", "--"))


def serialize_graph(g: SimpleGraph) -> str:
    lines = [f"graph {g.n}"]
    lines += [f"{u} -- {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


# -- order representations ------------------------------------------------------


def parse_semiorder(text: str) -> SemiorderRep:
    from .orders import SemiorderRep

    lines = _content_lines(text)
    n, extra, lineno, hline = _parse_header(lines, "semiorder")
    if len(extra) != 1 or not extra[0].startswith("delta="):
        raise ParseError(
            lineno, _column_of(hline, extra[0] if extra else "semiorder"),
            "expected delta=<value> after the vertex count",
        )
    delta = _parse_value(extra[0][len("delta="):], lineno, hline)
    values = _parse_vertex_values(
        lines, n, r"f\s*=\s*(\S+)", "f=<value>", "value", "f values"
    )
    return SemiorderRep(tuple(f for (f,) in values), delta)


def serialize_semiorder(rep: SemiorderRep) -> str:
    lines = [f"semiorder {len(rep.f)} delta={format_value(rep.delta)}"]
    lines += [f"{v}: f={format_value(fv)}" for v, fv in enumerate(rep.f)]
    return "\n".join(lines) + "\n"


def parse_intervals(text: str) -> IntervalRep:
    from .orders import IntervalRep

    lines = _content_lines(text)
    n = _parse_plain_header(lines, "intervals")
    spans = _parse_vertex_values(
        lines, n, r"\[\s*([^\s,\]]+)\s*,\s*([^\s,\]]+)\s*\]", "[lo,hi]",
        "interval", "intervals",
    )
    return IntervalRep(tuple(spans))


def serialize_intervals(rep: IntervalRep) -> str:
    lines = [f"intervals {len(rep.intervals)}"]
    lines += [
        f"{v}: [{format_value(lo)},{format_value(hi)}]"
        for v, (lo, hi) in enumerate(rep.intervals)
    ]
    return "\n".join(lines) + "\n"


# -- JSON ----------------------------------------------------------------------


def digraph_to_json(d: Digraph) -> dict:
    return {"n": d.n, "arcs": [list(a) for a in sorted(d.arcs)]}


def graph_to_json(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def semiorder_to_json(rep: SemiorderRep) -> dict:
    return {
        "delta": format_value(rep.delta),
        "f": [format_value(v) for v in rep.f],
    }


def intervals_to_json(rep: IntervalRep) -> dict:
    return {
        "intervals": [[format_value(lo), format_value(hi)] for lo, hi in rep.intervals]
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- DOT export ------------------------------------------------------------------


def dot_derived(d: Digraph, g: SimpleGraph, kind: str) -> str:
    """One DOT document showing the digraph and its derived graph side by
    side.  Isolated vertices of the derived graph get a distinct shape so
    clique-plus-isolated structure is visible in external renderers."""
    iso = isolated_vertices(g)
    out = ["digraph ccelab {", "  rankdir=LR;"]
    out.append('  subgraph cluster_digraph {')
    out.append('    label="digraph";')
    for v in range(d.n):
        out.append(f'    d{v} [label="{v}" shape=circle];')
    for u, v in sorted(d.arcs):
        out.append(f"    d{u} -> d{v};")
    out.append("  }")
    out.append(f'  subgraph cluster_derived {{')
    out.append(f'    label="{kind}";')
    out.append("    edge [dir=none];")
    for v in range(g.n):
        shape = "diamond" if v in iso else "circle"
        out.append(f'    g{v} [label="{v}" shape={shape}];')
    for u, v in sorted(g.edges):
        out.append(f"    g{u} -> g{v};")
    out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
