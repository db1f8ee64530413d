"""JSON round-tripping for graphs and labelings, plus DOT export.

The on-disk document is a plain JSON object: a graph is
``{"n": int, "edges": [[u, v], ...], "provenance": [[...], ...]}`` and a
combined document wraps it as ``{"graph": ..., "labels": [...]}`` with
the labels in edge-index order, then any further fields.  ``write_json``
and ``write_document`` write exactly what ``json.dump(doc, fp, indent=2)``
would, a slice of each long list at a time: edge rows from the end columns,
a trivial provenance from n, any other from the names' columns.
``read_document`` and ``parse_document`` read that layout a window at a
time, each window checked by rendering it again: edge rows, labels and a
provenance whose names need no JSON escape (printable ASCII, no '"' or '\\')
go straight into columns with under two windows of unread text held, the
further fields to ``json.loads``.  Any other text, another provenance
included, is rendered again as far as it was read for ``json.loads``.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from io import TextIOBase
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii

from .graphs import Graph, _check_count, _columns, _index, _int
from .labelings import EdgeLabeling, induced_coloring


# Vertices a document without provenance may name beyond its edge ends:
# room for isolated vertices, while a count such as 1e12 is refused before
# a tuple per vertex is built for it.
_SPARE_VERTICES = 1 << 16


def graph_from_dict(data: dict[str, object]) -> Graph:
    """``Graph`` converts the edges and provenance entries itself.  A vertex
    count that neither the provenance entries nor the edges can back raises
    ValueError first, then one that is not an int (a bool, a float, a str)."""
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
    document, with the results and errors of ``json.loads``: a malformed
    document raises ValueError naming the field; labels must be a list."""
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
        n, us, vs, (names, count), labels, extra = own
        try:
            _check_backed(n, us, range(count))
            g = Graph._from_ends(n, us, vs, names)
            _check_count(n, range(n if names is None else count))
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
# row, the starts of their lines and of a label's, and of each further field;
# the reader's window of characters per read.
_EDGE, _NAME = "[\n        %d,\n        %d\n      ]", '[\n        "%d"\n      ]'
_GRAPH_ITEM, _LABEL = "\n      ", "\n    "
_HEAD, _EDGES = '{\n  "graph": {\n    "n": ', ',\n    "edges": '
_PROVENANCE, _GRAPH_END, _LABELS = ',\n    "provenance": ', "\n  }", ',\n  "labels": '
_FIELD, _BRACKETS, _WINDOW = ',\n  "', str.maketrans("", "", "[],"), 1 << 18
# A window of provenance rows whose names need no JSON escape is kept as its blob:
# a vertex's names joined by '"' and the vertices by '\\', which no such name holds.
_ROW_OPEN, _ROW_CLOSE = '[\n        "', '"\n      ]'
_NAME_SEP, _ROW_SEP = '",\n        "', '"\n      ],\n      [\n        "'


class _Stream:
    """A document's text from ``read(size)``, at most ``size`` characters and
    "" at the end: ``text[at:]`` is the unread part and ``taken`` what was
    read, each entry a str or a function that renders it again."""

    def __init__(self, read: Callable[[int], str]):
        self.read, self.text, self.at, self.taken = read, "", 0, []

    def more(self) -> bool:
        """Drop the read text and read a window, or as much as is unread (a long
        part then reads in linear time); False at the end."""
        unread = self.text[self.at:]
        chunk = self.read(max(_WINDOW, len(unread)))
        self.text, self.at = unread + chunk, 0
        return bool(chunk)

    def fill(self, size: int) -> None:
        """Read on until ``size`` characters are unread or the text ends."""
        while len(self.text) - self.at < size and self.more():
            pass

    def starts(self, part: str) -> bool:
        """Whether the unread text starts with ``part``, read on as needed."""
        self.fill(len(part))
        return self.text.startswith(part, self.at)

    def skip(self, part: str) -> None:
        """Read ``part``, or ValueError where the text differs from it."""
        if not self.starts(part):
            raise ValueError(f"{part[:20]!r} is not next")
        self.taken.append(part)
        self.at += len(part)

    def whole(self) -> str:
        """The whole text: what was read, rendered again, then the rest."""
        return "".join([*(p if type(p) is str else p() for p in self.taken),
                        self.text[self.at:], *iter(lambda: self.read(_WINDOW), "")])


def _read_layout(s: _Stream):
    """(n, us, vs, (names, count), labels, extra), labels None when absent, of
    a document in ``write_document``'s layout, read from ``s`` a window at a
    time; None once the text leaves that layout."""
    try:
        s.skip(_HEAD)
        s.fill(64)  # the vertex count's digits, then the edges, or else ValueError
        n = int(s.text[s.at:s.text.find(_EDGES, s.at)])
        s.skip("%d%s" % (n, _EDGES))
        us, vs = _take_rows(s, _EDGE, _GRAPH_ITEM)
        s.skip(_PROVENANCE)
        names = _take_names(s, n)
        s.skip(_GRAPH_END)
        labels = None
        if s.starts(_LABELS):
            s.skip(_LABELS)
            [labels] = _take_rows(s, "%d", _LABEL)
        return n, tuple(us), tuple(vs), names, labels, _take_fields(s)
    except UnicodeError:
        raise
    except (ValueError, OverflowError, RecursionError):
        return None


def _take_list(s: _Stream, inner: str, mark: str, take: Callable[[str, str], None],
               render: Callable[[], str], stops: tuple[str, ...]) -> None:
    """Read the indent=2 JSON list next in ``s``, items on lines after ``inner``
    and ``mark`` starting each after the first, a window of whole items at a
    time: ``take(window, lead)`` reads one (lead "," after the first) or raises
    ValueError, and ``render`` renders what it read.  The list ends before the
    first of ``stops``, which no item holds."""
    close = inner[:-2] + "]"
    if s.starts("[]"):
        return s.skip("[]")
    s.skip("[")
    s.taken.append(render)
    lead = ""
    while True:
        s.fill(_WINDOW)
        # From the last item's start: a forward search over a window costs as much as reading it.
        bound = min([i for i in (_find(s.text, stop, s.at) for stop in stops) if i >= 0],
                    default=len(s.text))
        last = s.text.rfind(mark, s.at + 1, bound)
        end = s.text.find(close, max(last, s.at), bound)
        cut = end if end >= 0 else last
        if cut < 0 and s.more():
            continue
        if cut < 0:
            raise ValueError(f"the list at {s.at} does not end")
        take(s.text[s.at:cut], lead)
        s.at, lead = cut, ","
        if end >= 0:
            return s.skip(close)


def _find(text: str, part: str, at: int) -> int:
    """``text.find(part, at)`` by a search for its last character, fast where that is rare."""
    i = at + len(part) - 2
    while (i := text.find(part[-1], i + 1)) >= 0 and not text.startswith(part, i + 1 - len(part)):
        pass
    return i + 1 - len(part) if i >= 0 else -1


def _take_rows(s: _Stream, row: str, inner: str) -> list[list[int]]:
    """The columns of the ``_json_rows`` list of ``row`` next in ``s``; ValueError
    unless each window of rows, rendered again, gives its text."""
    width, sep = row.count("%"), "," + inner
    columns: list[list[int]] = [[] for _ in range(width)]

    def take(window: str, lead: str) -> None:
        values = [*map(int, window.translate(_BRACKETS).split())]
        k = len(values) // width
        if not k or k * width != len(values) or window != (
                lead + inner + sep.join([row] * k) % tuple(values)):
            raise ValueError(f"rows at {s.at} are not in the library's layout")
        for j, column in enumerate(columns):
            column += values[j::width]

    _take_list(s, inner, sep + row[:row.index("%")], take,
               lambda: "".join(_rows(row, sep, columns, inner)), ('"', "}"))
    return columns


def _take_names(s: _Stream, n: int):
    """(names, count) of the provenance next in ``s``, read a window at a time,
    ``count`` its length: names None for the trivial one of n vertices, else a
    function giving its columns; ValueError unless each entry holds names
    that need no JSON escape."""
    chunks: list = []  # per window, a range of trivial names or a blob
    count = 0

    def take(window: str, lead: str) -> None:
        nonlocal count
        head, k = lead + _GRAPH_ITEM, window.count("[")
        chunk = range(count, count + k)
        if not window.startswith(head + _NAME % count) or window != head + _rows_text(chunk):
            chunk = window[len(head) + len(_ROW_OPEN):len(window) - len(_ROW_CLOSE)]
            chunk = chunk.replace(_ROW_SEP, "\\").replace(_NAME_SEP, '"')
            if not (chunk.isascii() and chunk.isprintable()) or window != head + _rows_text(chunk):
                raise ValueError(f"names at {s.at} need an escape or are not in the layout")
            k = chunk.count("\\") + 1
        chunks.append(chunk)
        count += k

    _take_list(s, _GRAPH_ITEM, ",\n      [", take,
               lambda: ",".join([_GRAPH_ITEM + _rows_text(c) for c in chunks]), (_GRAPH_END,))
    trivial = all(type(c) is range for c in chunks) and count in (0, n)
    return (None if trivial else lambda: _chunk_columns(chunks)), count


def _rows_text(chunk: range | str) -> str:
    """The provenance rows of a window from its range of trivial names or its blob."""
    return (("," + _GRAPH_ITEM).join([_NAME] * len(chunk)) % tuple(chunk) if type(chunk) is range
            else _ROW_OPEN + chunk.replace('"', _NAME_SEP).replace("\\", _ROW_SEP) + _ROW_CLOSE)


def _chunk_columns(chunks: list) -> tuple[list[str], list[int]]:
    """The names' columns of the windows ``_take_names`` kept."""
    flat, counts = [], []
    for chunk in chunks:
        blob = chunk if type(chunk) is str else "\\".join(map(str, chunk))
        vertices = blob.split("\\")
        flat += blob.replace("\\", '"').split('"') if '"' in blob else vertices
        counts += map((1).__add__, map(str.count, vertices, repeat('"')))
    return flat, counts


def _take_fields(s: _Stream) -> dict[str, object]:
    """The fields after the graph and labels, read by ``json.loads`` with the
    rest of the text; ValueError on a 'graph' or 'labels' field."""
    while s.more():
        pass
    rest = s.text[s.at:]
    s.skip(rest)
    extra = json.loads("{" + rest[1:]) if rest.startswith(_FIELD) else {}
    if "graph" in extra or "labels" in extra or not (extra or rest.strip(" \t\n\r") == "}"):
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
    or ``g.provenance``; ``extra`` holds no 'graph' or 'labels'."""
    fp.write(_HEAD + "%d" % g.n + _EDGES)
    fp.writelines(_json_rows(_EDGE, _GRAPH_ITEM, [g.us, g.vs]))
    fp.write(_PROVENANCE)
    if g._names is None:
        fp.writelines(_json_rows(_NAME, _GRAPH_ITEM, [range(g.n)]))
    else:
        flat, counts = _columns(g.n, g._names)
        fp.writelines(_width_rows(counts, map(encode_basestring_ascii, flat), _GRAPH_ITEM))
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
    does, indented as when ``nl`` (a newline and an indent) starts it.  Lists
    of exact ints or of rows of exact ints or strs, and dicts with str keys,
    take fast paths; any other value is ``json.dumps(value, indent=2)`` with
    the indent inserted after each newline (JSON strings hold no raw newline),
    in no more stack frames than under ``json.dump``."""
    inner = nl + "  "
    kind = type(value)
    if (kind is list or kind is tuple) and value:
        kinds = set(map(type, value))
        if kinds == {int}:
            fp.writelines(_json_rows("%d", inner, [value]))
            return
        cells = set(map(type, chain.from_iterable(value))) if kinds <= {list, tuple} else {None}
        if cells <= {int} or cells <= {str}:
            flat = chain.from_iterable(value)
            fp.writelines(_width_rows([*map(len, value)], flat if int in cells else map(
                encode_basestring_ascii, flat), inner))
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


def _width_rows(widths, cells, inner: str) -> Iterator[str]:
    """The indent=2 JSON list, items on lines after ``inner``, of rows of ``widths[i]`` cells
    filled in turn from ``cells`` (exact ints or JSON texts), one %-template per width."""
    cells, rows = iter(cells), {}
    for start in range(0, len(widths), _SLICE):
        part = widths[start:start + _SLICE]
        for k in set(part).difference(rows):
            rows[k] = "[" + ",".join([inner + "  %s"] * k) + inner + "]" if k else "[]"
        yield (("," if start else "[") + inner + ("," + inner).join(map(rows.__getitem__, part))
               % tuple(islice(cells, sum(part))))
    yield inner[:-2] + "]" if len(widths) else "[]"


def to_dot(g: Graph, f: EdgeLabeling | None = None) -> str:
    """Graphviz text; with a labeling, vertices show their induced sums and
    edges their labels."""
    return "".join(_dot_parts(g, f))


def write_dot(fp: TextIOBase, g: Graph, f: EdgeLabeling | None = None) -> None:
    """Write ``to_dot(g, f)`` to ``fp`` a slice of lines at a time."""
    fp.writelines(_dot_parts(g, f))


def _dot_parts(g: Graph, f: EdgeLabeling | None) -> Iterable[str]:
    """The DOT text in slices of lines from the columns; each vertex's names
    are joined by commas, a ``\\`` or ``"`` in a name escaped."""
    names = range(g.n)
    if g._names is not None:
        names, counts = _columns(g.n, g._names)
        text = "".join(names)
        if "\\" in text or '"' in text:
            names = [name.replace("\\", "\\\\").replace('"', '\\"') for name in names]
        if counts.count(1) != len(counts):
            names = [*map(",".join, map(islice, repeat(iter(names)), counts))]
    vertices, edges, ends = [range(g.n), names], [g.us, g.vs], ('"];', ";")
    if f is not None:
        vertices.append(induced_coloring(g, f).sums)
        edges.append(f.labels)
        ends = ('\\n%d"];', ' [label="%d"];')
    return chain(["graph {"], _rows('  %d [label="v%s' + ends[0], "\n", vertices, "\n"),
                 _rows("  %d -- %d" + ends[1], "\n", edges, "\n"), ["\n}"])
