"""JSON round-tripping for graphs and labelings, plus DOT export.

The on-disk document is a plain JSON object: a graph is
``{"n": int, "edges": [[u, v], ...], "provenance": [[...], ...]}`` and a
combined document wraps it as ``{"graph": ..., "labels": [...]}`` with
the labels in edge-index order, then any further fields.  ``write_json``
and ``write_document`` write exactly what ``json.dump(doc, fp, indent=2)``
would, byte for byte, streaming long lists a slice at a time; a document's
edge rows are rendered from the end columns, a trivial provenance from the
vertex count.  ``parse_document`` reads a text in that layout straight
into end columns, checking each window by rendering it again; any other
JSON text goes through ``json.loads``.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from io import TextIOBase
from itertools import chain
from json.encoder import encode_basestring_ascii

from .graphs import Graph, _index, _int
from .labelings import EdgeLabeling, induced_coloring


def graph_to_dict(g: Graph) -> dict[str, object]:
    """The graph's own tuples, which serialize as JSON lists."""
    return {"n": g.n, "edges": g.edges, "provenance": g.provenance}


# Vertices a document without provenance may name beyond its edge ends:
# room for isolated vertices, while a count such as 1e12 is refused before
# a tuple per vertex is built for it.
_SPARE_VERTICES = 1 << 16


def graph_from_dict(data: dict[str, object]) -> Graph:
    """``Graph`` converts the edges and provenance entries itself, and keeps
    nothing for a trivial provenance list.  A vertex count that neither the
    provenance entries nor the edges can back raises ValueError first, then
    one that is not an int (a bool, a float, a str)."""
    n, edges, provenance = _index(data["n"]), data["edges"], data.get("provenance") or ()
    _check_backed(n, edges, provenance)
    return Graph(_int(n, "vertex count"), edges, provenance)


def _check_backed(n, edges, provenance) -> None:
    """ValueError if n, an int or a float, exceeds what the provenance
    entries or the edges can back; the count reads as an integer."""
    if type(n) in (int, float) and n > max(len(provenance), 2 * len(edges) + _SPARE_VERTICES):
        raise ValueError("vertex count %d is not backed by %d edges and %d provenance entries"
                         % (n, len(edges), len(provenance)))


def document(g: Graph, f: EdgeLabeling | None = None, /, **extra) -> dict[str, object]:
    doc: dict[str, object] = {"graph": graph_to_dict(g)}
    if f is not None:
        doc["labels"] = f.labels
    doc.update(extra)
    return doc


def parse_document(text: str) -> tuple[Graph, EdgeLabeling | None, dict[str, object]]:
    """The graph, labeling (None when absent) and remaining fields of a
    document.  A malformed document raises ValueError naming the field;
    labels must be a JSON list.  A text in the library's own layout is read
    into end columns, with the results and errors of ``json.loads``."""
    own = _own_layout(text)
    if own is not None:
        n, us, vs, provenance, labels, extra = own
        try:
            _check_backed(n, us, range(n) if provenance is None else provenance)
            g = Graph._from_ends(n, us, vs, provenance or ())
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed 'graph' field: {exc!r}") from None
        return g, None if labels is None else EdgeLabeling(labels), extra
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"document is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("graph"), dict):
        raise ValueError("document is missing the 'graph' object")
    field = "graph"
    try:
        g = graph_from_dict(data["graph"])
        field, labels = "labels", data.get("labels", [])
        if type(labels) is not list:
            raise TypeError(f"labels must be a list, not {type(labels).__name__}")
        f = EdgeLabeling(labels) if "labels" in data else None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed '{field}' field: {exc!r}") from None
    extra = {k: v for k, v in data.items() if k not in ("graph", "labels")}
    return g, f, extra


# A document as json.dump(doc, indent=2) lays it out: an edge and a trivial name
# row, the starts of their lines and of a label's; a window is read per pass.
_EDGE, _NAME = "[\n        %d,\n        %d\n      ]", '[\n        "%d"\n      ]'
_GRAPH_ITEM, _LABEL = "\n      ", "\n    "
_HEAD, _EDGES = '{\n  "graph": {\n    "n": ', ',\n    "edges": '
_PROVENANCE, _GRAPH_END, _LABELS = ',\n    "provenance": ', "\n  }", ',\n  "labels": '
_BRACKETS, _WINDOW = str.maketrans("", "", "[],"), 1 << 18


def _own_layout(text: str):
    """(n, us, vs, provenance, labels, extra), None for a trivial provenance or
    absent labels, of a text in ``write_document``'s layout, else None.  Each
    part is rendered again and compared, or read by ``json.loads`` on its own."""
    try:
        n = int(text[len(_HEAD):text.index(_EDGES)])
        at = _skip(text, 0, [_HEAD, str(n), _EDGES])
        (us, vs), at = _read_rows(text, at, _EDGE, _GRAPH_ITEM)
        at = _skip(text, at, [_PROVENANCE])
        try:
            stop, provenance = _skip(text, at, _json_rows(_NAME, _GRAPH_ITEM, [range(n)])), None
        except ValueError:
            stop = text.index(_GRAPH_END, at)
            provenance = json.loads(text[at:stop]) or ()
        at, labels = _skip(text, stop, [_GRAPH_END]), None
        if text.startswith(_LABELS, at):
            [labels], at = _read_rows(text, at + len(_LABELS), "%d", _LABEL)
        extra = json.loads("{" + text[at + 1:]) if text.startswith(",", at) else {}
        if "graph" in extra or "labels" in extra or not (extra or text[at:] in ("\n}", "\n}\n")):
            return None
        return n, tuple(us), tuple(vs), provenance, labels, extra
    except (ValueError, OverflowError, RecursionError):
        return None


def _skip(text: str, at: int, parts) -> int:
    """The position after ``parts``, in turn at ``at`` in ``text``, or ValueError."""
    for part in parts:
        if not text.startswith(part, at):
            raise ValueError(f"{part[:20]!r} is not at {at}")
        at += len(part)
    return at


def _read_rows(text: str, at: int, row: str, inner: str):
    """The columns of the ``_json_rows`` list of ``row`` at ``at`` and the position
    after it; ValueError unless each window, rendered again, gives its text."""
    width, sep, close = row.count("%"), "," + inner, inner[:-2] + "]"
    columns: list[list[int]] = [[] for _ in range(width)]
    if text.startswith("[]", at):
        return columns, at + 2
    at, lead = _skip(text, at, ["["]), ""
    end = text.find(close, at)
    while at < end:
        cut = text.find(sep + row[:row.index("%")], at + _WINDOW, end)
        window = text[at:end if cut < 0 else cut]
        values = [*map(int, window.translate(_BRACKETS).split())]
        k = len(values) // width
        if not k or k * width != len(values) or window != (
                lead + inner + sep.join([row] * k) % tuple(values)):
            raise ValueError(f"rows at {at} are not in the library's layout")
        for j, column in enumerate(columns):
            column += values[j::width]
        at, lead = at + len(window), ","
    return columns, _skip(text, at, [close])


def _rows(row: str, sep: str, columns, lead: str) -> Iterator[str]:
    """Rows of ``row``, a %-template filled from ``columns``, after ``lead``
    and joined by ``sep``, a slice of rows at a time."""
    width = len(columns)
    for start in range(0, len(columns[0]), _SLICE):
        part = [column[start:start + _SLICE] for column in columns]
        flat: list[object] = [None] * (width * len(part[0]))
        for j, column in enumerate(part):
            flat[j::width] = column
        yield (sep if start else lead) + sep.join([row] * len(part[0])) % tuple(flat)


def _json_rows(row: str, inner: str, columns) -> Iterable[str]:
    """``_rows`` as an indent=2 JSON list with its items on lines after ``inner``."""
    if not len(columns[0]):
        return ["[]"]
    return chain(_rows(row, "," + inner, columns, "[" + inner), [inner[:-2] + "]"])


def write_document(fp: TextIOBase, g: Graph, f: EdgeLabeling | None = None, /, **extra) -> None:
    """``write_json(document(g, f, **extra), fp)`` without building ``g.edges``
    or a trivial ``g.provenance``; ``extra`` holds no 'graph' or 'labels'."""
    fp.write(_HEAD + "%d" % g.n + _EDGES)
    fp.writelines(_json_rows(_EDGE, _GRAPH_ITEM, [g.us, g.vs]))
    fp.write(_PROVENANCE)
    if g._names is None:
        fp.writelines(_json_rows(_NAME, _GRAPH_ITEM, [range(g.n)]))
    else:
        write_json(g.provenance, fp, "\n    ")
    fp.write(_GRAPH_END)
    for key, value in (extra if f is None else {"labels": f.labels, **extra}).items():
        fp.write(",\n  " + encode_basestring_ascii(key) + ": ")
        write_json(value, fp, "\n  ")
    fp.write("\n}")


# Items of a long list rendered and written per write call: a 2*10^5-edge
# document is never held as one string.
_SLICE = 4096

# What json.dump(..., indent=2) runs: with an indent, json uses its
# pure-Python encoder, one generator frame per nesting level.
_INDENTED = json.JSONEncoder(indent=2)


def write_json(value: object, fp: TextIOBase, nl: str = "\n") -> None:
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


def _slice_renderer(items, inner: str) -> Callable[[object], str] | None:
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


def to_dot(g: Graph, f: EdgeLabeling | None = None) -> str:
    """Graphviz text; with a labeling, vertices show their induced sums and
    edges their labels.  Rendered from the columns, trivial names from n."""
    names = range(g.n) if g._names is None else [*map(",".join, g.provenance)]
    vertices, edges, ends = [range(g.n), names], [g.us, g.vs], ('"];', ";")
    if f is not None:
        vertices.append(induced_coloring(g, f).sums)
        edges.append(f.labels)
        ends = ('\\n%d"];', ' [label="%d"];')
    return "".join(["graph {", *_rows('  %d [label="v%s' + ends[0], "\n", vertices, "\n"),
                    *_rows("  %d -- %d" + ends[1], "\n", edges, "\n"), "\n}"])
