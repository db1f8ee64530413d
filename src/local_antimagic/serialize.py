"""JSON round-tripping for graphs and labelings, plus DOT export.

The on-disk document is a plain JSON object: a graph is
``{"n": int, "edges": [[u, v], ...], "provenance": [[...], ...]}`` and a
combined document wraps it as ``{"graph": ..., "labels": [...]}`` with
the labels in edge-index order.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .graphs import Graph
from .labelings import EdgeLabeling, induced_coloring


def graph_to_dict(g: Graph) -> dict[str, Any]:
    return {
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "provenance": [list(p) for p in g.provenance],
    }


def graph_from_dict(data: dict[str, Any]) -> Graph:
    """``Graph`` converts the edges and provenance entries itself."""
    return Graph(int(data["n"]), data["edges"], data.get("provenance") or ())


def document(g: Graph, f: Optional[EdgeLabeling] = None, **extra) -> dict[str, Any]:
    doc: dict[str, Any] = {"graph": graph_to_dict(g)}
    if f is not None:
        doc["labels"] = list(f.labels)
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


def to_dot(g: Graph, f: Optional[EdgeLabeling] = None) -> str:
    """Graphviz text; with a labeling, vertices show their induced sums
    and edges their labels."""
    sums = induced_coloring(g, f).sums if f is not None else None
    lines = ["graph {"]
    for v in range(g.n):
        name = g.vertex_name(v)
        label = name if sums is None else f"{name}\\n{sums[v]}"
        lines.append(f'  {v} [label="{label}"];')
    for i, (u, v) in enumerate(g.edges):
        attr = "" if f is None else f' [label="{f[i]}"]'
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines)
