"""Line-oriented text formats for representations and graphs.

Instance file:
    mode vpg|epg
    line v <int>          (optional vertical reference line)
    line h <int>          (optional horizontal reference line)
    path <id> <cx> <cy> <hx> <vy>
    label <id> <role>     (optional sidecar, used by the reduction)
Graph file:
    graph <n>
    edge <u> <v>          (0-based)
'#' starts a comment; blank lines are ignored.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import ParseError
from .geometry import GridPath, Mode, Representation
from .reduction import SimpleGraph


class Instance(NamedTuple):
    rep: Representation
    labels: dict[str, str]


def _tokens(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


def _int(value: str, line_no: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {value!r}") from None


def parse_instance(text: str) -> Instance:
    """Parse an instance file into a representation plus its label sidecar."""
    mode: Mode | None = None
    vline: int | None = None
    hline: int | None = None
    paths: list[GridPath] = []
    ids: set[str] = set()
    labels: dict[str, str] = {}
    for line_no, parts in _tokens(text):
        keyword = parts[0]
        if keyword == "mode":
            if mode is not None:
                raise ParseError(line_no, "duplicate mode line")
            if len(parts) != 2 or parts[1] not in ("vpg", "epg"):
                raise ParseError(line_no, "expected 'mode vpg' or 'mode epg'")
            mode = Mode(parts[1])
        elif keyword == "line":
            if len(parts) != 3 or parts[1] not in ("v", "h"):
                raise ParseError(line_no, "expected 'line v <int>' or 'line h <int>'")
            value = _int(parts[2], line_no, "line coordinate")
            if parts[1] == "v":
                vline = value
            else:
                hline = value
        elif keyword == "path":
            if mode is None:
                raise ParseError(line_no, "path before mode line")
            if len(parts) != 6:
                raise ParseError(line_no, "expected 'path <id> <cx> <cy> <hx> <vy>'")
            pid = parts[1]
            if pid in ids:
                raise ParseError(line_no, f"duplicate path id {pid!r}")
            ids.add(pid)
            try:
                cx, cy, hx, vy = map(int, parts[2:])
            except ValueError:
                cx, cy, hx, vy = (
                    _int(parts[i], line_no, name)
                    for i, name in ((2, "cx"), (3, "cy"), (4, "hx"), (5, "vy"))
                )
            paths.append(GridPath.make(pid, cx, cy, hx, vy))
        elif keyword == "label":
            if len(parts) != 3:
                raise ParseError(line_no, "expected 'label <id> <role>'")
            if parts[1] not in ids:
                raise ParseError(line_no, f"label for unknown path id {parts[1]!r}")
            labels[parts[1]] = parts[2]
        else:
            raise ParseError(line_no, f"unknown keyword {keyword!r}")
    if mode is None:
        raise ParseError(1, "missing mode line")
    return Instance(Representation(mode, tuple(paths), vline, hline), labels)


def emit_instance(rep: Representation, labels: dict[str, str] | None = None) -> str:
    """Canonical text for a representation; parse_instance inverts it."""
    lines = [f"mode {rep.mode.value}"]
    if rep.vline is not None:
        lines.append(f"line v {rep.vline}")
    if rep.hline is not None:
        lines.append(f"line h {rep.hline}")
    for p in rep.paths:
        lines.append(
            f"path {p.id} {p.corner.x} {p.corner.y} {p.h_tip.x} {p.v_tip.y}"
        )
    for pid in sorted(labels or {}):
        lines.append(f"label {pid} {labels[pid]}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> SimpleGraph:
    """Parse a graph file."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for line_no, parts in _tokens(text):
        keyword = parts[0]
        if keyword == "graph":
            if n is not None:
                raise ParseError(line_no, "duplicate graph line")
            if len(parts) != 2:
                raise ParseError(line_no, "expected 'graph <n>'")
            n = _int(parts[1], line_no, "vertex count")
        elif keyword == "edge":
            if n is None:
                raise ParseError(line_no, "edge before graph line")
            if len(parts) != 3:
                raise ParseError(line_no, "expected 'edge <u> <v>'")
            u = _int(parts[1], line_no, "endpoint")
            v = _int(parts[2], line_no, "endpoint")
            if u == v:
                raise ParseError(line_no, "self-loop")
            edges.append((min(u, v), max(u, v)))
        else:
            raise ParseError(line_no, f"unknown keyword {keyword!r}")
    if n is None:
        raise ParseError(1, "missing graph line")
    try:
        return SimpleGraph(n, tuple(edges))
    except ValueError as exc:
        raise ParseError(1, str(exc)) from None


def emit_graph(g: SimpleGraph) -> str:
    lines = [f"graph {g.n}"]
    for u, v in g.edges:
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"
