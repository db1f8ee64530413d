"""JSON round-tripping for graphs and labelings, plus DOT export.

The on-disk document is a plain JSON object: a graph is
``{"n": int, "edges": [[u, v], ...], "provenance": [[...], ...]}`` and a
combined document wraps it as ``{"graph": ..., "labels": [...]}`` with
the labels in edge-index order, then any further fields.  ``write_json``
and ``write_document`` write exactly what ``json.dump(doc, fp, indent=2)``
would, byte for byte, streaming long lists a slice at a time; a document's
edge rows are rendered from the end columns, a trivial provenance from the
vertex count.  ``read_document`` and ``parse_document`` read a text in
that layout straight into end columns a window at a time, checking each
window by rendering it again: edge rows, a trivial provenance and labels
pass with under two windows of unread text held, while another provenance
and each further field are read whole by ``json.loads``.  When the text
leaves that layout, what was read is rendered again and ``json.loads``
reads the whole text.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from io import TextIOBase
from itertools import chain
from json.encoder import encode_basestring_ascii

from .graphs import Graph, _index, _int
from .labelings import EdgeLabeling, induced_coloring


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
    """The document of g, f and ``extra``; the graph's tuples dump as JSON lists."""
    doc: dict[str, object] = {"graph": {"n": g.n, "edges": g.edges, "provenance": g.provenance}}
    if f is not None:
        doc["labels"] = f.labels
    doc.update(extra)
    return doc


def parse_document(text: str) -> tuple[Graph, EdgeLabeling | None, dict[str, object]]:
    """The graph, labeling (None when absent) and remaining fields of a
    document.  A malformed document raises ValueError naming the field;
    labels must be a JSON list.  A text in the library's own layout is read
    into end columns, with the results and errors of ``json.loads``."""
    at = 0

    def read(size: int) -> str:
        nonlocal at
        at += size
        return text[at - size:at]

    return _parse(_Stream(read))


def read_document(fp: TextIOBase) -> tuple[Graph, EdgeLabeling | None, dict[str, object]]:
    """``parse_document`` of the text ``fp`` holds, read a window at a time:
    a document in the library's own layout is never held whole."""
    return _parse(_Stream(fp.read))


def _parse(s: _Stream) -> tuple[Graph, EdgeLabeling | None, dict[str, object]]:
    own = _read_layout(s)
    if own is not None:
        n, us, vs, provenance, labels, extra = own
        try:
            _check_backed(n, us, range(n) if provenance is None else provenance)
            g = Graph._from_ends(n, us, vs, provenance or ())
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed 'graph' field: {exc!r}") from None
        return g, None if labels is None else EdgeLabeling(labels), extra
    text = s.whole()
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
# row, the starts of their lines and of a label's, and of each further field.
# The reader takes a window of characters per read and checks a window of rows
# at a time.
_EDGE, _NAME = "[\n        %d,\n        %d\n      ]", '[\n        "%d"\n      ]'
_GRAPH_ITEM, _LABEL = "\n      ", "\n    "
_HEAD, _EDGES = '{\n  "graph": {\n    "n": ', ',\n    "edges": '
_PROVENANCE, _GRAPH_END, _LABELS = ',\n    "provenance": ', "\n  }", ',\n  "labels": '
_FIELD, _BRACKETS, _WINDOW = ',\n  "', str.maketrans("", "", "[],"), 1 << 18


class _Stream:
    """A document's text from ``read(size)``, which gives at most ``size``
    characters and "" at the end, with ``text[at:]`` the unread part and
    ``taken`` what was read, each entry a str or a function that renders
    it again."""

    def __init__(self, read: Callable[[int], str]):
        self.read, self.text, self.at, self.taken = read, "", 0, []

    def more(self) -> bool:
        """Drop the read text and read a window, or as much as is unread, so
        that a part longer than a window is read in linear time; False at
        the end."""
        unread = self.text[self.at:]
        chunk = self.read(max(_WINDOW, len(unread)))
        self.text, self.at = unread + chunk, 0
        return bool(chunk)

    def fill(self, size: int) -> None:
        """Read on until ``size`` characters are unread or the text ends."""
        while len(self.text) - self.at < size and self.more():
            pass

    def find(self, mark: str) -> int:
        """The offset of ``mark`` in the unread text, read on until it is
        there; -1 when the text ends first."""
        seen = 0
        while (found := self.text.find(mark, self.at + seen)) < 0:
            seen = max(len(self.text) - self.at - len(mark) + 1, 0)
            if not self.more():
                return -1
        return found - self.at

    def starts(self, part: str) -> bool:
        """Whether the unread text starts with ``part``, read on as needed."""
        self.fill(len(part))
        return self.text.startswith(part, self.at)

    def take(self, size: int) -> str:
        """Read the next ``size`` characters."""
        part = self.text[self.at:self.at + size]
        self.taken.append(part)
        self.at += size
        return part

    def match(self, part: str) -> int:
        """Read the window-sized pieces of ``part`` that the text goes on
        with, up to the first that differs; how many characters matched."""
        for start in range(0, len(part), _WINDOW):
            piece = part[start:start + _WINDOW]
            if not self.starts(piece):
                return start
            self.at += len(piece)
        return len(part)

    def skip(self, part: str) -> None:
        """Read ``part``, or ValueError where the text differs from it."""
        matched = self.match(part)
        self.taken.append(part[:matched])
        if matched < len(part):
            raise ValueError(f"{part[:20]!r} is not next")

    def whole(self) -> str:
        """The whole text: what was read, rendered again, then the rest."""
        return "".join([*(p if type(p) is str else p() for p in self.taken),
                        self.text[self.at:], *iter(lambda: self.read(_WINDOW), "")])


def _read_layout(s: _Stream):
    """(n, us, vs, provenance, labels, extra), None for a trivial provenance or
    absent labels, of a document in ``write_document``'s layout, read from
    ``s`` a window at a time; None once the text leaves that layout.  Each
    part is rendered again and compared, or read by ``json.loads`` on its own."""
    try:
        s.skip(_HEAD)
        digits = s.find(_EDGES)
        if digits < 0:
            raise ValueError("no edges follow the vertex count")
        n = int(s.text[s.at:s.at + digits])
        s.skip("%d%s" % (n, _EDGES))
        us, vs = _take_rows(s, _EDGE, _GRAPH_ITEM)
        s.skip(_PROVENANCE)
        provenance = _take_names(s, n)
        s.skip(_GRAPH_END)
        labels = None
        if s.starts(_LABELS):
            s.skip(_LABELS)
            [labels] = _take_rows(s, "%d", _LABEL)
        return n, tuple(us), tuple(vs), provenance, labels, _take_fields(s)
    except UnicodeError:
        raise
    except (ValueError, OverflowError, RecursionError):
        return None


def _take_rows(s: _Stream, row: str, inner: str) -> list[list[int]]:
    """The columns of the ``_json_rows`` list of ``row`` next in ``s``; ValueError
    unless each window of rows, rendered again, gives its text."""
    width, sep, close = row.count("%"), "," + inner, inner[:-2] + "]"
    columns: list[list[int]] = [[] for _ in range(width)]
    if s.starts("[]"):
        s.skip("[]")
        return columns
    s.skip("[")
    s.taken.append(lambda: "".join(_rows(row, sep, columns, inner)))
    mark, lead = sep + row[:row.index("%")], ""
    while True:
        s.fill(_WINDOW)
        # Rows hold no '"' or '}', so the first of either bounds the list.
        bound = min([i for i in (s.text.find('"', s.at), s.text.find("}", s.at)) if i >= 0],
                    default=len(s.text))
        end = s.text.rfind(close, s.at, bound) if bound < len(s.text) else -1
        cut = end if end >= 0 else s.text.rfind(mark, s.at + 1, bound)
        if cut < 0:
            if not s.more():
                raise ValueError(f"rows at {s.at} do not end")
            continue
        if cut > s.at:
            window = s.text[s.at:cut]
            values = [*map(int, window.translate(_BRACKETS).split())]
            k = len(values) // width
            if not k or k * width != len(values) or window != (
                    lead + inner + sep.join([row] * k) % tuple(values)):
                raise ValueError(f"rows at {s.at} are not in the library's layout")
            for j, column in enumerate(columns):
                column += values[j::width]
            s.at, lead = cut, ","
        if end >= 0:
            s.skip(close)
            return columns


def _take_names(s: _Stream, n: int):
    """None after the trivial provenance of n vertices, else the provenance
    list that ``json.loads`` reads from its text, or () for an empty one."""
    parts, matched = _json_rows(_NAME, _GRAPH_ITEM, [range(n)]), 0
    s.taken.append(lambda: _head(_json_rows(_NAME, _GRAPH_ITEM, [range(n)]), matched))
    for part in parts:
        got = s.match(part)
        matched += got
        if got < len(part):
            break
    else:
        return None
    stop = s.find(_GRAPH_END)
    if stop < 0:
        raise ValueError("the graph object does not end")
    return json.loads(s.taken[-1]() + s.take(stop)) or ()


def _head(parts: Iterable[str], size: int) -> str:
    """The first ``size`` characters of the text of ``parts``."""
    text = ""
    for part in parts:
        if len(text) >= size:
            break
        text += part
    return text[:size]


def _take_fields(s: _Stream) -> dict[str, object]:
    """The fields after the graph and labels, each read by ``json.loads`` on its
    own, up to the end of the text; ValueError on a 'graph' or 'labels' field."""
    extra: dict[str, object] = {}
    while s.starts(_FIELD):
        s.skip(",\n  ")
        stop = s.find(_FIELD)
        if stop < 0:  # the last field, read to the end of the text
            stop = s.text.rfind("\n}", s.at) - s.at
            if stop < 0:
                raise ValueError("the document does not end")
        extra.update(json.loads("{\n  " + s.take(stop) + "\n}"))
    s.fill(3)
    if "graph" in extra or "labels" in extra or s.text[s.at:] not in ("\n}", "\n}\n") or s.more():
        raise ValueError("the document does not end as the library writes it")
    return extra


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
    edges their labels."""
    return "".join(_dot_parts(g, f))


def write_dot(fp: TextIOBase, g: Graph, f: EdgeLabeling | None = None) -> None:
    """Write ``to_dot(g, f)`` to ``fp`` a slice of lines at a time."""
    fp.writelines(_dot_parts(g, f))


def _dot_parts(g: Graph, f: EdgeLabeling | None) -> Iterator[str]:
    """The DOT text in slices of lines, rendered from the columns, trivial
    names from n; a ``\\`` or ``"`` in a name is escaped."""
    names = range(g.n) if g._names is None else [
        name.replace("\\", "\\\\").replace('"', '\\"') for name in map(",".join, g.provenance)]
    vertices, edges, ends = [range(g.n), names], [g.us, g.vs], ('"];', ";")
    if f is not None:
        vertices.append(induced_coloring(g, f).sums)
        edges.append(f.labels)
        ends = ('\\n%d"];', ' [label="%d"];')
    return chain(["graph {"], _rows('  %d [label="v%s' + ends[0], "\n", vertices, "\n"),
                 _rows("  %d -- %d" + ends[1], "\n", edges, "\n"), ["\n}"])
