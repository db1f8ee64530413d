"""The columnar document path: ``write_document`` and the streaming reader
of ``parse_document`` and ``read_document`` against ``json.dumps`` and
``json.loads``."""

import contextlib
import hashlib
import io
import itertools
import json
import re
import tempfile
from json.encoder import encode_basestring_ascii
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import local_antimagic.cli as cli
import local_antimagic.serialize as serialize
from local_antimagic import (
    EdgeLabeling,
    FuseCycles,
    Graph,
    MergeCycle,
    UnionSpec,
    build_construction_matrix,
    build_cycle,
    c_labeling,
    case_plan,
    merge_vertices,
    transform_cycle,
    transform_union,
    union_2labeling_family1,
    union_3labeling,
    union_graph,
)
from local_antimagic.cli import main
from local_antimagic.serialize import (
    document,
    parse_document,
    read_document,
    to_dot,
    write_document,
    write_dot,
)


def written(g, f=None, /, **extra) -> str:
    buf = io.StringIO()
    write_document(buf, g, f, **extra)
    return buf.getvalue()


class ShortReads:
    """A text stream that, as a pipe may, gives fewer characters than asked
    for: 1, 2, 3, 5, 8, 13 or 21 in turn."""

    def __init__(self, text: str):
        self.text, self.at, self.sizes = text, 0, itertools.cycle([1, 2, 3, 5, 8, 13, 21])

    def read(self, size: int) -> str:
        part = self.text[self.at:self.at + min(size, next(self.sizes))]
        self.at += len(part)
        return part


def from_file(text: str):
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as fp:
        fp.write(text)
        fp.seek(0)
        return read_document(fp)


SOURCES = {"str": parse_document, "file": from_file,
           "pipe": lambda text: read_document(ShortReads(text))}


def outcome(text: str, fallback: bool = False, source: str = "str"):
    """What the reader makes of ``text`` from ``source``, through json.loads
    alone if ``fallback``: the graph's columns and names, the labels and the
    other fields, or the ValueError text."""
    with mock.patch.object(serialize, "_read_layout", lambda s: None) if fallback \
            else contextlib.nullcontext():
        try:
            g, f, extra = SOURCES[source](text)
        except ValueError as exc:
            return "error", str(exc)
    return g.n, g.us, g.vs, g.provenance, None if f is None else f.labels, extra


def own_layout(text: str):
    """The parts that the reader takes from ``text`` in the library's
    layout, or None."""
    return serialize._read_layout(serialize._Stream(io.StringIO(text).read))


def in_windows(text: str, window: int):
    """With ``window`` characters a window, ``outcome`` of ``text`` from each
    source, and what the reader rebuilt of it when it left the layout."""
    with mock.patch.object(serialize, "_WINDOW", window):
        outcomes = {source: outcome(text, source=source) for source in SOURCES}
        s = serialize._Stream(io.StringIO(text).read)
        rebuilt = text if serialize._read_layout(s) is not None else s.whole()
    return outcomes, rebuilt


@pytest.mark.parametrize("q", [0, 1, 4095, 4096, 4097, 8193])
def test_written_documents_equal_json_dumps_across_slices(q):
    g = Graph._from_ends(q + 2, tuple(range(q)), tuple(range(1, q + 1)))  # a path
    f = EdgeLabeling(tuple(range(q, 0, -1)))
    cases = [(None, {}), (f, {}), (f, {"colors": [1, 2], "note": "é"})]
    texts = [written(g, labels, **extra) for labels, extra in cases]
    assert "edges" not in vars(g) and "provenance" not in vars(g)
    for text, (labels, extra) in zip(texts, cases):
        assert text == json.dumps(document(g, labels, **extra), indent=2)
        assert own_layout(text) is not None
        assert outcome(text) == outcome(text, fallback=True)


def test_written_merged_and_union_documents_equal_json_dumps():
    plan = case_plan(5, 3)
    for g in (merge_vertices(build_cycle(plan.n), plan), union_graph(UnionSpec((3, 4, 5)))):
        f = EdgeLabeling(tuple(range(1, g.q + 1)))
        text = written(g, f, family="x", expected_colors=[3, 4])
        assert "edges" not in vars(g)
        assert text == json.dumps(document(g, f, family="x", expected_colors=[3, 4]), indent=2)
        assert own_layout(text) is not None
        assert outcome(text) == outcome(text, fallback=True)


@st.composite
def documents(draw):
    """The text the CLI writes for a random multigraph, with trivial or
    random vertex names, labels or none, and extra fields."""
    n = draw(st.integers(0, 12))
    ends = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    pairs = [(u, v) for u, v in draw(st.lists(ends, max_size=20)) if u != v] if n > 1 else []
    names = draw(st.none() | st.lists(
        st.lists(st.text(max_size=3) | st.integers(0, 20).map(str), min_size=1, max_size=3),
        min_size=n, max_size=n))
    g = Graph(n, tuple(pairs), names or ())
    label = st.integers(-(10**20), 10**20)
    labels = draw(st.none() | st.lists(label, min_size=len(pairs), max_size=len(pairs)))
    scalars = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text()
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
    keys = st.sampled_from(["f", "g", "fp", "colors"]) | st.text(max_size=5)
    extra = draw(st.dictionaries(keys.filter(lambda k: k not in ("graph", "labels")), values,
                                 max_size=3))
    return written(g, None if labels is None else EdgeLabeling(tuple(labels)), **extra)


# Windows far smaller than a document's parts: marks, rows and fields
# straddle them, and a change is mostly met after some windows were read.
SMALL_WINDOWS = st.sampled_from([7, 64])


def plain_names(text: str) -> bool:
    """Whether every provenance name of the document ``text`` needs no JSON
    escape, so that the reader takes its provenance a window at a time."""
    names = itertools.chain.from_iterable(json.loads(text)["graph"]["provenance"])
    return all(encode_basestring_ascii(name) == f'"{name}"' for name in names)


@settings(max_examples=300, deadline=None)
@given(documents(), SMALL_WINDOWS)
def test_the_own_layout_reads_as_json_loads_does(text, window):
    # A name that needs an escape sends the whole text to json.loads.
    assert (own_layout(text) is not None) == plain_names(text)
    expected = outcome(text, fallback=True)
    assert outcome(text) == expected
    assert outcome(text + "\n") == outcome(text + "\n", fallback=True)
    assert in_windows(text, window) == (dict.fromkeys(SOURCES, expected), text)


NUMBER = re.compile(r"-?\d+")


def mutations(text: str, data) -> str:
    """``text`` with one change drawn from ``data``."""
    numbers = [m.span() for m in NUMBER.finditer(text)]
    kind = data.draw(st.sampled_from(
        ["space", "newline", "zeros", "minus-zero", "float", "exponent", "true", "null",
         "negative", "drop-key", "rename-key", "repeat-key", "reorder", "truncate",
         "labels-string", "trailing", "punctuation"]))
    if kind in ("space", "newline", "truncate"):
        at = data.draw(st.integers(0, len(text)))
        if kind == "truncate":
            return text[:at]
        return text[:at] + " \n"[kind == "newline"] + text[at:]
    if kind == "drop-key":
        key = data.draw(st.sampled_from(['"n": ', '"edges": ', '"provenance": ', '"labels": ']))
        return re.sub(",?\n *" + re.escape(key) + r"[^\n]*", "", text, count=1)
    if kind == "rename-key":
        key = data.draw(st.sampled_from(['"n"', '"edges"', '"provenance"', '"labels"', '"graph"']))
        return text.replace(key, key[:-1] + 'x"', 1)
    if kind == "repeat-key":
        key = data.draw(st.sampled_from(['"graph": 5', '"labels": []', '"x": 1, "x": 2']))
        return text[:-2] + ",\n  " + key + "\n}"
    if kind == "punctuation":
        # Often the bracket that opens a field's list, else any mark.
        openers = [m.end() - 1 for m in re.finditer(r'": \[', text)]
        marks = [i for i, c in enumerate(text) if c in '[]{},:"']
        at = data.draw(st.sampled_from(openers) if openers and data.draw(st.booleans())
                       else st.sampled_from(marks))
        return text[:at] + data.draw(st.sampled_from(list('[]{},:" '))) + text[at + 1:]
    if kind == "trailing":
        return text[:-1] + data.draw(st.sampled_from(["", "}x", "}}", "}\n\n", "} "]))
    if kind == "reorder":
        doc = json.loads(text)
        return json.dumps(dict(reversed(list(doc.items()))), indent=2)
    if kind == "labels-string":
        return re.sub(r'"labels": \[[^\]]*\]|"labels": \[\]', '"labels": "12"', text, count=1)
    if not numbers:
        return text
    start, stop = data.draw(st.sampled_from(numbers))
    token = text[start:stop]
    new = {"zeros": "0" + token.lstrip("-"), "minus-zero": "-0", "float": token + ".0",
           "exponent": "1e3", "true": "true", "null": "null", "negative": "-" + token}[kind]
    return text[:start] + new + text[stop:]


@settings(max_examples=500, deadline=None)
@given(documents(), st.data(), SMALL_WINDOWS)
def test_a_changed_document_reads_or_fails_as_under_json_loads(text, data, window):
    changed = mutations(text, data)
    expected = outcome(changed, fallback=True)
    assert outcome(changed) == expected
    assert in_windows(changed, window) == (dict.fromkeys(SOURCES, expected), changed)


@pytest.mark.parametrize(
    "text,message",
    [
        (written(build_cycle(3)).replace("2,\n        0", "-1,\n        0"),
         "malformed 'graph' field: ValueError('edge (-1,0) out of range for n=3')"),
        (written(build_cycle(3)).replace("2,\n        0", "7,\n        0"),
         "malformed 'graph' field: ValueError('edge (7,0) out of range for n=3')"),
        (written(build_cycle(3)).replace("2,\n        0", "0,\n        0"),
         "malformed 'graph' field: ValueError('loop at vertex 0 is not allowed')"),
        (written(Graph(3, (), [["a"], ["b"], ["c"]])).replace('"n": 3', '"n": 1000000'),
         "vertex count 1000000 is not backed by 0 edges and 3 provenance entries"),
    ],
    ids=["negative-end", "end-out-of-range", "loop", "unbacked-count"],
)
def test_an_own_layout_document_fails_with_the_json_loads_error(text, message):
    assert own_layout(text) is not None
    assert outcome(text) == outcome(text, fallback=True)
    assert message in outcome(text)[1]


@pytest.mark.parametrize(
    "old,new",
    [('"edges": [', '"edges": {'), ('"edges": [', '"edges": x'), ("\n    ],", "\n    },"),
     ('"provenance": [', '"provenance": {'), ('"labels": [', '"labels": ('), ("\n  ]", "\n  ]]"),
     ("      ],\n      [", "      ]\n      ["), ('"n": 5', '"n": 5.0')],
)
def test_a_broken_mark_reads_or_fails_as_under_json_loads(old, new):
    text = written(build_cycle(5), c_labeling(5))
    assert old in text
    changed = text.replace(old, new, 1)
    assert outcome(changed) == outcome(changed, fallback=True)


def test_an_own_layout_document_reaches_json_loads_only_for_extra_fields(monkeypatch):
    slices = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: slices.append(text) or loads(text, **kw))
    parse_document(written(build_cycle(5000), c_labeling(5000)) + "\n")
    assert slices == []
    # Merged and union names are read a window at a time, as edge rows are.
    plan = case_plan(5, 3)
    parse_document(written(merge_vertices(build_cycle(plan.n), plan), None, family="x"))
    assert slices == ['{\n  "family": "x"\n}']
    parse_document(written(*union_3labeling(UnionSpec((16, 16)))))
    assert slices == ['{\n  "family": "x"\n}']
    # A name that needs an escape sends the whole text to json.loads.
    text = written(Graph(2, ((0, 1),), [["a"], ['b"']]))
    parse_document(text)
    assert slices[1:] == [text]


CYCLE_TEXT = written(build_cycle(2000), c_labeling(2000), family="c", colors=[1, 2, 3])


def family_texts() -> dict[str, str]:
    """Documents of the constructions whose vertices carry original names."""
    plan, u2a = case_plan(5, 3), union_2labeling_family1(9)
    directives = [*(FuseCycles(2 * i, 2 * i + 1, 3) for i in range(4)),
                  MergeCycle(8, case_plan(1, 2))]
    matrix = build_construction_matrix(2, 1)
    return {"union3": written(*union_3labeling(UnionSpec((16, 16, 18)))),
            "union2a": written(*u2a),
            "transform-case": written(*transform_cycle(plan.n, plan), family="4m+1"),
            "transform-matrix": written(matrix.graph, matrix.labeling, steps=[1, 3]),
            "transform-union": written(*transform_union(u2a.spec, u2a.labeling, directives))}


# One edit inside a provenance: a name changed in place, or the rows around it.
NAME_EDITS = {
    "quote": lambda name: name[:2] + '\\"' + name[2:],
    "raw-quote": lambda name: name[:2] + '"' + name[2:],
    "backslash": lambda name: name[:2] + "\\\\" + name[2:],
    "raw-backslash": lambda name: name[:2] + "\\" + name[2:],
    "non-ascii": lambda name: name[:2] + "\u00e9" + name[2:],
    "space": lambda name: name[:2] + " " + name[2:],
    "int": lambda name: "7",
}
ROW_EDITS = {  # a pattern and its replacement
    "split-row": (re.escape(serialize._NAME_SEP), serialize._ROW_SEP),
    "merged-rows": (re.escape(serialize._ROW_SEP), serialize._NAME_SEP),
    "entry-too-many": (re.escape(serialize._ROW_SEP),
                       '"\n      ],\n      [\n        "x' + serialize._ROW_SEP),
    # The mark and the next row's names go.
    "entry-too-few": (re.escape(serialize._ROW_SEP) + r'[^\]]*?"(?=\n      \])', '"'),
}


def edited(text: str, edit: str, at: float) -> str | None:
    """``text`` with ``edit`` made at the share ``at`` of its provenance, or
    None where the provenance has no place for it."""
    start = text.index('"provenance": [')
    stop = text.index("\n    ]", start)
    if edit in NAME_EDITS:
        names = [m.span() for m in re.finditer(r'"[^"\n]*"', text[start:stop])][1:]
        a, b = names[int(at * (len(names) - 1))]
        return text[:start + a] + NAME_EDITS[edit](text[start + a:start + b]) + text[start + b:]
    pattern, new = ROW_EDITS[edit]
    places = [m.span() for m in re.finditer(pattern, text[start:stop])]
    if not places:
        return None
    a, b = places[int(at * (len(places) - 1))]
    return text[:start + a] + new + text[start + b:]


@pytest.mark.parametrize("at", [0.0, 0.5, 1.0], ids=["first", "middle", "last"])
@pytest.mark.parametrize("edit", [*NAME_EDITS, *ROW_EDITS])
def test_an_edited_provenance_reads_or_fails_as_under_json_loads(edit, at):
    for family, text in family_texts().items():
        changed = edited(text, edit, at)
        if changed is None:
            continue
        assert changed != text, family
        expected = outcome(changed, fallback=True)
        assert outcome(changed) == expected, family
        assert in_windows(changed, 64) == (dict.fromkeys(SOURCES, expected), changed), family


@pytest.mark.parametrize(
    "old,new",
    [("1999\n      ]", "1999 \n      ]"), ('"1999"', '"01999"'), ("\n    1001\n", "\n    1001.0\n"),
     ('"family": "c"', '"family": c'), ("\n    3\n  ]\n}", "\n    3\n  ]\n}}")],
    ids=["edge-row", "name", "label", "field", "end"],
)
def test_a_change_after_read_windows_reads_as_json_loads(old, new):
    # The reader leaves the layout only after it read windows of rows: it
    # renders those again, and json.loads reads the text it had.
    assert CYCLE_TEXT.count(old) == 1 and CYCLE_TEXT.index(old) > 1000
    changed = CYCLE_TEXT.replace(old, new)
    expected = outcome(changed, fallback=True)
    for window in (64, 1000):
        assert in_windows(changed, window) == (dict.fromkeys(SOURCES, expected), changed)


@pytest.mark.parametrize("window", [64, serialize._WINDOW])
def test_the_reader_holds_at_most_two_windows_of_unread_text(monkeypatch, window):
    held = []
    more = serialize._Stream.more

    def spy(s):
        found = more(s)
        held.append(len(s.text) - s.at)
        return found

    monkeypatch.setattr(serialize, "_WINDOW", window)
    monkeypatch.setattr(serialize._Stream, "more", spy)
    plan = case_plan(1, 2500)
    docs = [(build_cycle(20000), c_labeling(20000)),
            union_3labeling(UnionSpec((10000, 10000))), transform_cycle(plan.n, plan)]
    for g, f in docs:
        text = written(g, f, family="c")
        held.clear()
        h, labels, extra = read_document(io.StringIO(text))
        assert (h, labels, extra) == (g, f, {"family": "c"})
        assert len(held) > len(text) // window and max(held) < 2 * window


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
@pytest.mark.parametrize("mark", ["{", "\n    1001,"], ids=["first-window", "later-window"])
def test_invalid_utf8_on_stdin_exits_2(capsys, monkeypatch, errors, mark):
    # The byte replaces a brace or a label's first digit, well past the
    # first window: refused as it is decoded, or as text out of the layout.
    data = written(build_cycle(20000), c_labeling(20000)).encode()
    at = data.index(mark.encode()) + len(mark) - len(mark.lstrip())
    assert at == 0 or at > 4 * serialize._WINDOW
    data = data[:at] + b"\xff" + data[at + 1:]
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8", errors))
    assert main(["verify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


UNION_ARGS = ["transform", "union", "--orders", "3,3", "--directives",
              '[{"keep":0},{"keep":1}]']


@pytest.mark.parametrize(
    "args,stdin",
    [
        (["build", "cycle", "--m", "9"], None),
        (["label", "c", "--m", "9"], None),
        (["label", "circulant", "--m", "16", "--steps", "1,3"], None),
        (["transform", "case", "--case", "1", "--k", "2"], None),
        (["export", "json"], "label c --m 9"),
        (UNION_ARGS, "union"),
        (["label", "union2a", "--r", "5"], None),
        (["label", "union2b", "--r", "5"], None),
        (["label", "union3", "--orders", "16,18"], None),
        (["transform", "matrix", "--s", "2", "--t", "1"], None),
        (["transform", "union", "--orders", ",".join(["34"] * 8 + ["16"]), "--directives",
          '[{"fuse":[0,1],"step":3},{"fuse":[2,3],"step":3},{"fuse":[4,5],"step":3},'
          '{"fuse":[6,7],"step":3},{"merge":8,"case":1,"k":2}]'], "label union2a --r 9"),
        (["export", "json"], "label union3 --orders 16,16"),
    ],
    ids=["build", "label-c", "label-circulant", "transform-case", "export-json",
         "transform-union", "label-union2a", "label-union2b", "label-union3", "transform-matrix",
         "transform-union-fused", "export-json-union3"],
)
def test_emitted_graphs_build_no_pair_view_and_no_trivial_names(capsys, monkeypatch, args, stdin):
    # Nor names of any kind: they are rendered from their columns, and
    # ``verify`` reads the document it emits without building them.
    if stdin == "union":
        doc = document(union_graph(UnionSpec((3, 3))), EdgeLabeling((1, 4, 2, 6, 3, 5)))
        stdin = json.dumps(doc, indent=2)
    elif stdin is not None:
        assert main(stdin.split()) == 0
        stdin = capsys.readouterr().out
    graphs = []
    def spy(fp, g, *args, **extra):
        graphs.append(g)
        write_document(fp, g, *args, **extra)

    monkeypatch.setattr(cli, "write_document", spy)
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(args) == 0
    [g] = graphs
    assert "edges" not in vars(g) and "provenance" not in vars(g)
    read = []
    monkeypatch.setattr(cli, "read_document", lambda fp: read.append(read_document(fp)) or read[0])
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["verify"]) == (2 if args[0] == "build" else 0)  # a built graph has no labels
    [(h, _, _)] = read
    assert (h.n, h.us, h.vs) == (g.n, g.us, g.vs)
    assert "edges" not in vars(h) and "provenance" not in vars(h)


def test_dot_export_reads_the_columns_and_trivial_names():
    g, f = build_cycle(9), c_labeling(9)
    for labels in (f, None):
        buf = io.StringIO()
        write_dot(buf, g, labels)
        assert buf.getvalue() == to_dot(g, labels)
    assert "edges" not in vars(g) and "provenance" not in vars(g)


def test_dot_export_escapes_quotes_and_backslashes_in_names(capsys, monkeypatch):
    # A quote in a name once ended the DOT string early, and a trailing
    # backslash turned the \n between name and sum into text.
    doc = {"graph": {"n": 3, "edges": [[0, 1], [1, 2]],
                     "provenance": [['a"b'], ["d\\"], ["e", "f"]]}, "labels": [1, 2]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["export", "dot"]) == 0
    assert capsys.readouterr().out == r'''graph {
  0 [label="va\"b\n1"];
  1 [label="vd\\\n3"];
  2 [label="ve,f\n2"];
  0 -- 1 [label="1"];
  1 -- 2 [label="2"];
}
'''


# sha256 of `export dot` of each producer's document, recorded before DOT
# export rendered its lines from the end columns.
PINNED_DOT = {
    ("label", "c", "--m", "12"):
        "3253474152843a1776fa88263a0927ab20ebbca589d0353a87e9eebede9e3650",
    ("label", "union2a", "--r", "9"):
        "9ea67826a06cf29884aa7b7e8e6d7681d474d9bb42e3c6d3840a37a2c6903c8d",
    ("transform", "case", "--case", "5", "--k", "3"):
        "f54824569600a6c53d76851b79be2a199fb41b3c246e32a327815fceec6cebde",
    ("build", "cycle", "--m", "9"):
        "4c07561144f9c08dc68899d3a00cbe1a9b227a89316c038a96868f0c87dcb9b1",
}


@pytest.mark.parametrize("producer", list(PINNED_DOT), ids=lambda args: " ".join(args[:2]))
def test_dot_exports_are_pinned(capsys, monkeypatch, producer):
    assert main(list(producer)) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["export", "dot"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_DOT[producer]


def test_document_keeps_fields_named_like_its_arguments():
    g, extra = build_cycle(3), {"f": 1, "g": 2}
    doc = document(g, None, **extra)
    assert (doc["f"], doc["g"]) == (1, 2)
    assert json.dumps(doc, indent=2) == written(g, None, **extra)


def test_export_keeps_fields_named_like_the_writer_arguments(capsys, monkeypatch):
    # Fields named f or g once collided with document()'s parameters and
    # ended in a TypeError traceback.
    doc = '{"graph":{"n":2,"edges":[[0,1]]},"labels":[1],"f":1,"g":[2],"fp":null}'
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert main(["export", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {**json.loads(doc), "graph": {"n": 2, "edges": [[0, 1]],
                                                           "provenance": [["0"], ["1"]]}}
