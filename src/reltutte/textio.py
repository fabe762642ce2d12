"""Flat text format for colored multigraphs.

One declaration per line::

    edge <edge-id> <u> <v> color=<token> [zero] [pointed]

``#`` starts a comment, vertices are created implicitly, at most one edge may
be pointed, and a pointed edge cannot also be flagged zero: every walk takes
it as a zero edge without the flag.
"""

from __future__ import annotations

from .errors import (
    DuplicateEdgeId,
    ParseError,
    PointedZeroConflict,
    TwoPointedEdges,
)
from .graph import COLOR_RE, ID_RE, POINTED_COLOR, RECOLOR_ZERO, ColoredMultigraph, EdgeRecord


def parse_graph_text(text: str, source: str = "<string>") -> ColoredMultigraph:
    edges: list[EdgeRecord] = []
    seen_ids: set[str] = set()
    pointed_line = None
    color_zero: dict[str, bool] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        loc = f"{source}:{lineno}"
        if toks[0] != "edge":
            raise ParseError(f"{loc}: unknown declaration {toks[0]!r}")
        if len(toks) < 5:
            raise ParseError(f"{loc}: expected 'edge <id> <u> <v> color=<token> [zero] [pointed]'")
        eid, u, v = toks[1], toks[2], toks[3]
        for tok in (eid, u, v):
            if not ID_RE.fullmatch(tok):
                raise ParseError(f"{loc}: bad identifier {tok!r}")
        if not toks[4].startswith("color="):
            raise ParseError(f"{loc}: expected color=<token>, got {toks[4]!r}")
        color = toks[4][len("color="):]
        if not COLOR_RE.fullmatch(color):
            raise ParseError(f"{loc}: bad color token {color!r}")
        flags = toks[5:]
        if any(f not in ("zero", "pointed") for f in flags):
            raise ParseError(f"{loc}: unknown flag in {flags}")
        is_zero = "zero" in flags
        is_pointed = "pointed" in flags
        if is_zero and is_pointed:
            raise PointedZeroConflict(f"{loc}: an edge cannot be both zero and pointed")
        if eid in seen_ids:
            raise DuplicateEdgeId(f"{loc}: duplicate edge id {eid!r}")
        seen_ids.add(eid)
        if is_pointed:
            if pointed_line is not None:
                raise TwoPointedEdges(f"{loc}: second pointed edge (first at line {pointed_line})")
            pointed_line = lineno
            if color != POINTED_COLOR:
                raise ParseError(f"{loc}: pointed edges must use color={POINTED_COLOR}")
        elif color == POINTED_COLOR:
            raise ParseError(f"{loc}: color {POINTED_COLOR!r} is reserved for the pointed edge")
        if color == RECOLOR_ZERO:
            raise ParseError(f"{loc}: color {RECOLOR_ZERO!r} is reserved for internal use")
        if not is_pointed:
            if color in color_zero and color_zero[color] != is_zero:
                raise ParseError(f"{loc}: color {color!r} is used both with and without 'zero'")
            color_zero[color] = is_zero
        edges.append(EdgeRecord(eid, u, v, color, is_zero))
    return ColoredMultigraph(edges)


def parse_graph_file(path: str) -> ColoredMultigraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    return parse_graph_text(text, source=str(path))


def format_graph(g: ColoredMultigraph, header: str | None = None) -> str:
    lines = []
    if header:
        for part in header.splitlines():
            lines.append(f"# {part}")
    for e in g.edges:
        flags = ""
        if e.is_zero:
            flags += " zero"
        if e.is_pointed:
            flags += " pointed"
        lines.append(f"edge {e.id} {e.u} {e.v} color={e.color}{flags}")
    return "\n".join(lines) + "\n"
