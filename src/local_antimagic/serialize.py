"""JSON round-tripping for graphs and labelings, plus DOT export.

The on-disk document is a plain JSON object: a graph is
``{"n": int, "edges": [[u, v], ...], "provenance": [[...], ...]}`` and a
combined document wraps it as ``{"graph": ..., "labels": [...]}`` with
the labels in edge-index order.  ``write_json`` writes a document
exactly as ``json.dump(doc, fp, indent=2)`` would, byte for byte, but
streams its long lists a slice at a time.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Optional, TextIO

from .graphs import Graph
from .labelings import EdgeLabeling, induced_coloring


def graph_to_dict(g: Graph) -> dict[str, Any]:
    """The graph's own tuples, which serialize as JSON lists."""
    return {"n": g.n, "edges": g.edges, "provenance": g.provenance}


# Vertices a document without provenance may name beyond its edge ends:
# room for isolated vertices, while a count such as 1e12 is refused before
# a tuple per vertex is built for it.
_SPARE_VERTICES = 1 << 16


def graph_from_dict(data: dict[str, Any]) -> Graph:
    """``Graph`` converts the edges and provenance entries itself, and keeps
    nothing for a trivial provenance list.  A vertex count that neither the
    provenance entries nor the edges can back raises ValueError first."""
    n, edges, provenance = int(data["n"]), data["edges"], data.get("provenance") or ()
    if n > max(len(provenance), 2 * len(edges) + _SPARE_VERTICES):
        raise ValueError(f"vertex count {n} is not backed by {len(edges)} edges "
                         f"and {len(provenance)} provenance entries")
    return Graph(n, edges, provenance)


def document(g: Graph, f: Optional[EdgeLabeling] = None, **extra) -> dict[str, Any]:
    doc: dict[str, Any] = {"graph": graph_to_dict(g)}
    if f is not None:
        doc["labels"] = f.labels
    doc.update(extra)
    return doc


def parse_document(text: str) -> tuple[Graph, Optional[EdgeLabeling], dict[str, Any]]:
    """The graph, labeling (None when absent) and remaining fields of a
    document.  A malformed document raises ValueError naming the field."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"document is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("graph"), dict):
        raise ValueError("document is missing the 'graph' object")
    field = "graph"
    try:
        g = graph_from_dict(data["graph"])
        field = "labels"
        f = EdgeLabeling(data["labels"]) if "labels" in data else None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed '{field}' field: {exc!r}") from None
    extra = {k: v for k, v in data.items() if k not in ("graph", "labels")}
    return g, f, extra


# Items of a long list rendered and written per write call: a 2*10^5-edge
# document is never held as one string.
_SLICE = 4096

# What json.dump(..., indent=2) runs: with an indent, json uses its
# pure-Python encoder, one generator frame per nesting level.
_INDENTED = json.JSONEncoder(indent=2)


def write_json(value: Any, fp: TextIO, nl: str = "\n") -> None:
    """Write ``value`` to ``fp`` exactly as ``json.dump(value, fp, indent=2)``
    does, indented as when ``nl`` (a newline and an indent) starts it.
    Lists of exact ints, lists of non-empty rows of exact ints or of exact
    strs, and dicts with str keys take fast paths; any other value is
    ``json.dumps(value, indent=2)`` with the indent inserted after each
    newline, which is exact since JSON strings hold no raw newline.  A
    nested value takes no more stack frames than under ``json.dump``."""
    inner = nl + "  "
    kind = type(value)
    if (kind is list or kind is tuple) and value:
        render = _slice_renderer(value, inner)
        if render is not None:
            for start in range(0, len(value), _SLICE):
                fp.write(("[" if start == 0 else ",") + inner
                         + render(value[start:start + _SLICE]))
            fp.write(nl + "]")
            return
    elif kind is dict and value and all(type(key) is str for key in value):
        sep = "{" + inner
        for key, item in value.items():
            fp.write(sep + encode_basestring_ascii(key) + ": ")
            write_json(item, fp, inner)
            sep = "," + inner
        fp.write(nl + "}")
        return
    fp.write("".join(_INDENTED.iterencode(value)).replace("\n", nl))


def _slice_renderer(items, inner: str) -> Optional[Callable[[Any], str]]:
    """The function giving the JSON text of a slice of ``items``, items
    separated and indented as when ``inner`` starts the first, or None
    unless ``items`` takes a fast path.  A slice of rows is one %-format
    of a template with a row pattern per row length."""
    sep = "," + inner
    kinds = set(map(type, items))
    if kinds == {int}:
        return lambda part: sep.join(map(int.__repr__, part))
    if not kinds <= {list, tuple} or not all(items):
        return None
    cells = set(map(type, chain.from_iterable(items)))
    if cells == {int}:
        cell, args = "%d", tuple
    elif cells == {str}:
        cell, args = "%s", lambda texts: tuple(map(encode_basestring_ascii, texts))
    else:
        return None
    cell_sep = sep + "  "
    rows = {k: "[" + cell_sep[1:] + cell_sep.join([cell] * k) + inner + "]"
            for k in set(map(len, items))}
    return lambda part: (sep.join(map(rows.__getitem__, map(len, part)))
                         % args(chain.from_iterable(part)))


def to_dot(g: Graph, f: Optional[EdgeLabeling] = None) -> str:
    """Graphviz text; with a labeling, vertices show their induced sums
    and edges their labels."""
    sums = induced_coloring(g, f).sums if f is not None else None
    lines = ["graph {"]
    for v in range(g.n):
        name = g.vertex_name(v)
        label = name if sums is None else f"{name}\\n{sums[v]}"
        lines.append(f'  {v} [label="{label}"];')
    for i, (u, v) in enumerate(g._pairs()):
        attr = "" if f is None else f' [label="{f[i]}"]'
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines)
