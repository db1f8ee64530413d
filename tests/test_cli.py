import argparse
import hashlib
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from local_antimagic.cli import build_parser, main
from local_antimagic.serialize import (
    document,
    graph_from_dict,
    parse_document,
    to_dot,
    write_json,
)
import local_antimagic.circulants as circulants
import local_antimagic.cycle_merge as cycle_merge
import local_antimagic.oracle as oracle
from local_antimagic import (
    CirculantSpec,
    EdgeLabeling,
    Graph,
    UnionSpec,
    build_circulant,
    build_cycle,
    c_labeling,
    case_plan,
    merge_vertices,
    union_graph,
)

from conftest import shuffled


def run_cli(capsys, monkeypatch, args, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_graph_json_roundtrip():
    g = merge_vertices(build_cycle(16), case_plan(1, 2))
    assert graph_from_dict(document(g)["graph"]) == g


def test_document_roundtrip():
    g, f = build_cycle(6), c_labeling(6)
    g2, f2, extra = parse_document(json.dumps(document(g, f, note="x")))
    assert g2 == g and f2.labels == f.labels and extra == {"note": "x"}


def test_dot_export_contains_sums():
    g, f = build_cycle(4), c_labeling(4)
    dot = to_dot(g, f)
    assert "graph {" in dot and "v0\\n4" in dot
    assert dot.count("--") == 4


def test_build_then_verify_pipeline(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["label", "circulant", "--m", "16", "--steps", "1,3"])
    assert code == 0
    code, out = run_cli(
        capsys, monkeypatch, ["verify", "--expect-colors", "3"], stdin=out
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and sorted(report["colors"]) == [52, 66, 68]


def test_verify_rejects_wrong_expectation(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["label", "c", "--m", "8"])
    code, out = run_cli(
        capsys, monkeypatch, ["verify", "--expect-colors", "2"], stdin=out
    )
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_transform_case_command(capsys, monkeypatch):
    code, out = run_cli(
        capsys, monkeypatch, ["transform", "case", "--case", "1", "--k", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_colors"] == [28, 34, 36]
    code, _ = run_cli(capsys, monkeypatch, ["verify"], stdin=out)
    assert code == 0


def test_transform_matrix_render(capsys, monkeypatch):
    code, out = run_cli(
        capsys, monkeypatch, ["transform", "matrix", "--s", "3", "--t", "2", "--render"]
    )
    assert code == 0
    assert "456" in out and "520" in out and "516" in out


def test_transform_matrix_json_fields(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["transform", "matrix", "--s", "2", "--t", "0"])
    doc = json.loads(out)
    assert set(doc) >= {"graph", "labels", "A", "B", "M01", "Mlab", "steps"}
    assert doc["steps"] == [1, 3]


def test_transform_union_pipeline(capsys, monkeypatch):
    code, labeled = run_cli(capsys, monkeypatch, ["label", "union2a", "--r", "9"])
    assert code == 0
    directives = json.dumps(
        [{"fuse": [2 * i, 2 * i + 1], "step": 3} for i in range(4)]
        + [{"merge": 8, "case": 1, "k": 2}]
    )
    orders = ",".join(["34"] * 8 + ["16"])
    code, out = run_cli(
        capsys,
        monkeypatch,
        ["transform", "union", "--orders", orders, "--directives", directives],
        stdin=labeled,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["colors"] == [578, 612]


def test_spectrum_command(capsys, monkeypatch):
    code, out = run_cli(
        capsys,
        monkeypatch,
        ["spectrum", "--m", "16", "--steps", "1,3", "--against", "1,7"],
    )
    data = json.loads(out)
    assert code == 0
    assert data["cospectral"] is False
    assert abs(data["spectrum"][0] - 4.0) < 1e-9


def test_iso_multiplier_command(capsys, monkeypatch):
    code, out = run_cli(
        capsys,
        monkeypatch,
        ["iso", "--multiplier", "--n", "16", "--a", "3", "--b", "11"],
    )
    assert code == 0 and json.loads(out)["isomorphic"]


def test_oracle_command(capsys, monkeypatch):
    code, built = run_cli(capsys, monkeypatch, ["build", "cycle", "--m", "5"])
    code, out = run_cli(capsys, monkeypatch, ["oracle", "chi-la"], stdin=built)
    assert code == 0
    assert json.loads(out)["chi_la"] == 3


def test_oracle_stats_add_the_bounds(capsys, monkeypatch):
    code, built = run_cli(capsys, monkeypatch, ["build", "cycle", "--m", "6"])
    code, out = run_cli(capsys, monkeypatch, ["oracle", "chi-la"], stdin=built)
    assert code == 0 and list(json.loads(out)) == ["chi_la", "witness", "nodes", "seconds"]
    code, out = run_cli(capsys, monkeypatch, ["oracle", "chi-la", "--stats"], stdin=built)
    report = json.loads(out)
    assert code == 0 and (report["chi_la"], report["nodes"]) == (3, 0)
    assert report["bounds"] == {"lower": 3, "lower_source": "two-sum conditions",
                                "upper": 3, "upper_source": "cycle labeling C_6"}
    assert list(report["bounds"]) == ["lower", "lower_source", "upper", "upper_source"]
    assert report["searches"] == []
    monkeypatch.setattr("sys.stdin", io.StringIO(built))
    with pytest.raises(SystemExit) as err:
        main(["oracle", "chi-la", "--stats", "--colors", "3"])
    assert err.value.code == 2


def test_oracle_stats_list_each_k_searched(capsys, monkeypatch):
    # A bowtie (triangles 1-2-6 and 4-5-6) with pendants 0 and 3: chi_la = 5
    # and the lower bound is 3, so k = 3, 4, 5 are searched.
    g = Graph(7, ((0, 1), (1, 2), (1, 6), (2, 3), (2, 6), (4, 5), (4, 6), (5, 6)))
    code, out = run_cli(capsys, monkeypatch, ["oracle", "chi-la", "--stats"],
                        stdin=json.dumps(document(g)))
    report = json.loads(out)
    assert code == 0 and report["chi_la"] == 5
    assert [run["k"] for run in report["searches"]] == [3, 4, 5]
    assert [run["nodes"] for run in report["searches"]] == [29088, 38916, 118]
    assert sum(run["nodes"] for run in report["searches"]) == report["nodes"]
    assert all(0 <= run["seconds"] <= report["seconds"] for run in report["searches"])


def test_oracle_search_deeper_than_the_recursion_limit(capsys, monkeypatch):
    path = json.dumps(document(Graph(1501, tuple((v, v + 1) for v in range(1500)))))
    code, out = run_cli(capsys, monkeypatch,
                        ["oracle", "chi-la", "--colors", "1501", "--max-edges", "2000"], stdin=path)
    assert code == 0 and json.loads(out)["feasible"]


def test_oracle_budget_exit(capsys, monkeypatch):
    code, built = run_cli(capsys, monkeypatch, ["build", "cycle", "--m", "16"])
    code, _ = run_cli(
        capsys, monkeypatch, ["oracle", "chi-la", "--max-edges", "8"], stdin=built
    )
    assert code == 1


@pytest.mark.parametrize("flag,value", [("--max-edges", "-5"), ("--colors", "-1")])
def test_oracle_refuses_a_negative_count_as_usage(capsys, monkeypatch, flag, value):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document(build_cycle(5)))))
    with pytest.raises(SystemExit) as err:
        main(["oracle", "chi-la", flag, value])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: antimagic")
    assert "--max-edges and --colors take non-negative integers" in captured.err


def test_export_roundtrip_identity(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["label", "c", "--m", "7"])
    code, out2 = run_cli(capsys, monkeypatch, ["export", "json"], stdin=out)
    assert json.loads(out) == json.loads(out2)


def test_export_dot(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["label", "c", "--m", "5"])
    code, dot = run_cli(capsys, monkeypatch, ["export", "dot"], stdin=out)
    assert code == 0 and dot.startswith("graph {")


def test_reproduce_all(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["reproduce-all"])
    assert code == 0
    assert "FAIL" not in out
    assert out.count("ok") >= 9


def test_reproduce_all_counts_and_prints_a_failing_claim(capsys, monkeypatch):
    from local_antimagic import reproduce

    def broken():
        raise AssertionError("C_3 sums")

    monkeypatch.setattr(reproduce, "CLAIMS", [reproduce.Claim("one", broken),
                                              reproduce.Claim("two", lambda: None)])
    assert reproduce.run_all() == 1
    assert capsys.readouterr().out == "FAIL  one: AssertionError('C_3 sums')\nok    two\n"


def test_reproduce_all_fails_a_broken_claim_under_optimize():
    # -O strips assert statements; the claims must still check.
    code = (
        "import local_antimagic.reproduce as r\n"
        "r.c_labeling_sums = lambda m: ()\n"
        "r.CLAIMS[:] = r.CLAIMS[:1]\n"
        "raise SystemExit(r.run_all())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.stdout.startswith("FAIL  cycle labeling colors"), proc.stdout
    assert proc.returncode == 1


def test_error_exit_code_on_bad_parameters(capsys, monkeypatch):
    code, _ = run_cli(capsys, monkeypatch, ["label", "circulant", "--m", "9", "--steps", "1,2"])
    assert code == 2


@pytest.mark.parametrize(
    "args,stdin,message",
    [
        (["verify"], '{"graph":{"n":3},"labels":[1]}', "malformed 'graph' field: KeyError('edges')"),
        (["verify"], '{"graph":{"n":3,"edges":[[0,1],[1,2],[2,0]]},"labels":5}',
         "malformed 'labels' field"),
        (["verify"], '{"graph":{"n":3,"edges":[[0,1],[1,2]]},"labels":"12"}',
         "malformed 'labels' field: TypeError('labels must be a list, not str')"),
        (["verify"], '{"graph":[3]}', "missing the 'graph' object"),
        (["verify"], "[" * 100000, "not valid JSON"),
        (["verify"], '{"graph":{"n":3,"edges":[]}}', "no labels to verify"),
        (["verify"], '{"graph": {"n": 3, "edges": [[0, 1.9], [1, 2]]}, "labels": [1.7, 2]}',
         "malformed 'graph' field: ValueError('edge end 1.9 is not an int')"),
        (["verify"], '{"graph":{"n":3,"edges":[[0,true],[1,2]]},"labels":[1,2]}',
         "malformed 'graph' field: ValueError('edge end True is not an int')"),
        (["verify"], '{"graph":{"n":3,"edges":[[0,1],[1,2]]},"labels":[1.7,2]}',
         "malformed 'labels' field: ValueError('label 1.7 is not an int')"),
        (["verify"], '{"graph":{"n":3,"edges":[[0,1],[1,2]]},"labels":[true,2]}',
         "malformed 'labels' field: ValueError('label True is not an int')"),
        (["verify"], '{"graph":{"n":"3","edges":[[0,1],[1,2]]},"labels":[1,2]}',
         """malformed 'graph' field: ValueError("vertex count '3' is not an int")"""),
        (["verify"], '{"graph":{"n":3.0,"edges":[[0,1],[1,2]]},"labels":[1,2]}',
         "malformed 'graph' field: ValueError('vertex count 3.0 is not an int')"),
        (["verify"], '{"graph":{"n":3,"edges":[[0,1],[1,2]]},"labels":[2,2]}',
         "error: labeling must be a bijection onto 1..2, got labels 2..2, 1 distinct\n"),
        (["export", "dot"], '{"graph":{"n":2,"edges":[[0,1]]},"labels":[5]}',
         "error: labeling must be a bijection onto 1..1, got labels 5..5, 1 distinct\n"),
        (["iso", "--multiplier", "--n", "0", "--a", "1", "--b", "1"], "",
         "error: modulus must be at least 3\n"),
        (["iso", "--multiplier", "--n", "1", "--a", "1", "--b", "1"], "",
         "error: modulus must be at least 3\n"),
        (["iso", "--multiplier", "--n", "2", "--a", "1", "--b", "1"], "",
         "error: modulus must be at least 3\n"),
    ],
    ids=["no-edges", "labels-not-a-list", "labels-a-string", "graph-not-an-object",
         "nested-too-deep", "no-labels", "float-end", "bool-end", "float-label",
         "bool-label", "str-count", "float-count", "repeated-label", "label-out-of-range",
         "iso-modulus-0", "iso-modulus-1", "iso-modulus-2"],
)
def test_malformed_input_exits_2(capsys, monkeypatch, args, stdin, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args", [["verify"], ["export", "json"], ["export", "dot"]])
def test_a_str_provenance_entry_exits_2(capsys, monkeypatch, args):
    # The entry "ab" was once read as the two names a and b, with exit 0.
    doc = {"graph": {"n": 3, "edges": [[0, 1], [1, 2]], "provenance": ["ab", "c", "d"]},
           "labels": [1, 2]}
    for text in (json.dumps(doc), json.dumps(doc, indent=2)):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(args) == 2
        assert capsys.readouterr().err == ("error: malformed 'graph' field: "
                                           """ValueError("provenance entry 'ab' is not a list")\n""")


@pytest.mark.parametrize("args", [["verify"], ["export", "json"], ["export", "dot"]])
def test_a_provenance_name_that_is_neither_a_str_nor_an_int_exits_2(capsys, monkeypatch, args):
    # These names once exported as "None", "True", "1.5" and "{'a': [1]}", with exit 0.
    doc = {"graph": {"n": 3, "edges": [[0, 1], [1, 2]],
                     "provenance": [[None], [True, 1.5], [{"a": [1]}]]}, "labels": [1, 2]}
    for text in (json.dumps(doc), json.dumps(doc, indent=2)):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "error: malformed 'graph' field: "
            "ValueError('provenance name None is neither a str nor an int')\n")
    doc["graph"]["provenance"] = [[7], ["a", 8], ["b"]]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc, indent=2)))
    assert main(["export", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["graph"]["provenance"] == [["7"], ["a", "8"], ["b"]]


def test_transform_union_of_a_conflicting_labeling_is_a_failed_check(capsys, monkeypatch):
    # Two triangles at vertex 0 labeled 1, 4, 2 and 3, 6, 5: vertices 0
    # and 4 both sum to 11.  The labeling is input, so this is no bug.
    doc = document(union_graph(UnionSpec((3, 3))), EdgeLabeling((1, 4, 2, 3, 6, 5)))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    directives = '[{"keep":0},{"keep":1}]'
    assert main(["transform", "union", "--orders", "3,3", "--directives", directives]) == 1
    assert "vertices 0 and 4 share the sum 11" in capsys.readouterr().err


# The base cycle labeling replaced by 1..m in order: the combined
# circulant labeling built from it fails its own certification.
BROKEN_CONSTRUCTOR = (
    "import local_antimagic.circulants as circulants\n"
    "from local_antimagic import EdgeLabeling\n"
    "circulants.c_labeling = lambda m: EdgeLabeling(range(1, m + 1))\n"
)


def test_certification_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(circulants, "c_labeling", lambda m: EdgeLabeling(range(1, m + 1)))
    assert main(["label", "circulant", "--m", "16", "--steps", "1,3"]) == 3
    assert capsys.readouterr().err.startswith("certification failed: combined labeling of")


def test_a_wrong_search_witness_exits_3(capsys, monkeypatch):
    # The identity labeling of K_3,3 ties vertices 1 and 4.
    monkeypatch.setattr(oracle._Search, "run", lambda self, k: list(range(1, 10)))
    k33 = Graph(6, tuple((u, 3 + v) for u in range(3) for v in range(3)))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document(k33))))
    assert main(["oracle", "chi-la"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("certification failed: search witness: adjacent vertices 1 and 4 "
                            "share the sum 15\n")


def test_certification_failure_exits_3_under_optimize():
    # -O strips assert statements; the certification must still run.
    code = BROKEN_CONSTRUCTOR + (
        "from local_antimagic.cli import main\n"
        "raise SystemExit(main(['label', 'circulant', '--m', '16', '--steps', '1,3']))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("certification failed: combined labeling of")


@pytest.mark.parametrize(
    "module,args,stdin",
    [
        (cycle_merge, ["transform", "matrix", "--s", "2", "--t", "0"], None),
        (oracle, ["oracle", "chi-la"], document(build_cycle(7))),
    ],
    ids=["matrix", "oracle"],
)
@pytest.mark.parametrize(
    "labeling",
    [lambda m: EdgeLabeling((1, 1, *range(3, m + 1))), lambda m: EdgeLabeling(range(1, m + 1))],
    ids=["repeated-label", "wrong-sums"],
)
def test_broken_cycle_labeling_exits_3(capsys, monkeypatch, module, args, stdin, labeling):
    monkeypatch.setattr(module, "c_labeling", labeling)
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("certification failed: ")


def test_oracle_certifies_its_construction_under_optimize():
    # A broken cycle labeling reaches both construction branches: the cycle
    # walk, and the circulant carried onto a shuffled C_10(1,3), whose
    # labels circulants translates from its own c_labeling.
    code = (
        "import sys\n"
        "import local_antimagic.circulants as circulants\n"
        "import local_antimagic.oracle as oracle\n"
        "from local_antimagic import EdgeLabeling\n"
        "circulants.c_labeling = oracle.c_labeling = (\n"
        "    lambda m: EdgeLabeling((1, 1, *range(3, m + 1))))\n"
        "from local_antimagic.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    circulant = shuffled(build_circulant(CirculantSpec(10, (1, 3))), random.Random(8))
    cases = [
        (build_cycle(7), [], "cycle labeling C_7"),
        (circulant, ["--max-edges", "20"], "circulant labeling C_10(1, 3)"),
        (circulant, ["--max-edges", "20", "--colors", "3"], "circulant labeling C_10(1, 3)"),
    ]
    for g, args, source in cases:
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code, "oracle", "chi-la", *args],
            env=dict(os.environ, PYTHONPATH=src), input=json.dumps(document(g)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3, (args, proc.stderr)
        assert proc.stderr.startswith(
            f"certification failed: {source} carried onto the input: "
            f"labeling must be a bijection onto 1..{g.q}"), args


def test_union_input_with_a_repeated_label_exits_2(capsys, monkeypatch):
    doc = document(union_graph(UnionSpec((3, 3))), EdgeLabeling((1, 1, 3, 4, 5, 6)))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    directives = '[{"keep":0},{"keep":1}]'
    assert main(["transform", "union", "--orders", "3,3", "--directives", directives]) == 2
    assert capsys.readouterr().err.startswith("error: labeling must be a bijection onto 1..6")


def test_transform_union_without_orders_exits_2(capsys, monkeypatch):
    # An 'orders' field in the document is not read: the flag is required.
    doc = document(union_graph(UnionSpec((3, 3))), EdgeLabeling((1, 2, 3, 4, 5, 6)))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({**doc, "orders": [3, 3]})))
    with pytest.raises(SystemExit) as err:
        main(["transform", "union", "--directives", '[{"keep":0},{"keep":1}]'])
    assert err.value.code == 2
    assert "the following arguments are required: --orders" in capsys.readouterr().err


def test_transform_union_checks_orders_against_the_document(capsys, monkeypatch):
    # label union2a --r 3 is the union of cycles 10, 10 and 4; the orders
    # 12, 8 and 4 have the same edge total but build another graph.
    code, labeled = run_cli(capsys, monkeypatch, ["label", "union2a", "--r", "3"])
    assert code == 0
    directives = '[{"keep":0},{"keep":1},{"keep":2}]'
    argv = ["transform", "union", "--directives", directives, "--orders"]
    monkeypatch.setattr("sys.stdin", io.StringIO(labeled))
    assert main(argv + ["12,8,4"]) == 2
    assert capsys.readouterr() == (
        "", "error: the document's graph is not the union of --orders 12,8,4\n")
    code, out = run_cli(capsys, monkeypatch, argv + ["10,10,4"], stdin=labeled)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3543fa696ded69f9e40b8ffff5a1f219e8ec4a5d646aef321637199474d69920")


@pytest.mark.parametrize(
    "args,flag",
    [
        (["label", "circulant", "--m", "16", "--steps", "1,x"], "--steps"),
        (["build", "union", "--orders", "3,"], "--orders"),
        (["spectrum", "--m", "16", "--steps", "1,3", "--against", "1.5"], "--against"),
    ],
    ids=["steps", "orders", "against"],
)
def test_a_malformed_comma_list_is_a_usage_error(capsys, args, flag):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert f"error: argument {flag}: invalid" in capsys.readouterr().err


def test_a_request_too_large_for_memory_exits_2(capsys):
    # A tuple of 10^15 vertices is refused at once, before any allocation.
    assert main(["label", "c", "--m", str(10**15)]) == 2
    assert capsys.readouterr().err == "error: label: the request is too large for memory\n"


# Any integer or float, with vertex counts such as 1e12 that no document
# this small can back drawn often; NaN and the infinities reach int() as
# JSON floats.
NUMBERS = (
    st.integers(-3, 40)
    | st.integers()
    | st.floats()
    | st.sampled_from([1e12, 10**12, 2**70, math.inf, -math.inf, math.nan])
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
GRAPH_FIELDS = st.fixed_dictionaries(
    {}, optional={"n": JSON_VALUES, "edges": JSON_VALUES, "provenance": JSON_VALUES}
)
DOCUMENTS = st.fixed_dictionaries(
    {"graph": GRAPH_FIELDS | JSON_VALUES}, optional={"labels": JSON_VALUES}
)


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=30) | JSON_VALUES.map(json.dumps) | DOCUMENTS.map(json.dumps))
def test_parse_document_raises_only_value_error(text):
    try:
        parse_document(text)
    except ValueError:
        pass


def test_unbacked_vertex_count_is_refused_before_the_graph_is_built(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"graph":{"n":1e12,"edges":[]}}'))
    assert main(["verify"]) == 2
    assert "vertex count 1000000000000 is not backed" in capsys.readouterr().err


def test_unreadable_input_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "no" / "such.json"
    assert main(["verify", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {str(missing)!r}: No such file or directory\n"
    )
    assert main(["export", "json", str(tmp_path)]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "directives,message",
    [
        ('[{"fuse":[0,1]}]', "malformed directive {'fuse': [0, 1]}: KeyError('step')"),
        ("5", "directives must be a JSON list, not 5"),
        ("[1]", "malformed directive 1: TypeError"),
        ('[{"keep":"x"}]', "malformed directive {'keep': 'x'}: ValueError"),
        ('[{"keep":1.0}]',
         "malformed directive {'keep': 1.0}: ValueError('cycle index 1.0 is not an int')"),
    ],
    ids=["fuse-without-step", "not-a-list", "not-an-object", "index-not-an-int",
         "index-a-float"],
)
def test_malformed_directives_exit_2(capsys, monkeypatch, directives, message):
    doc = document(union_graph(UnionSpec((3, 3))), EdgeLabeling((1, 2, 3, 4, 5, 6)))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["transform", "union", "--orders", "3,3", "--directives", directives]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["label", "circulant"],
        ["label", "circulant", "--m", "16"],
        ["build", "cycle"],
        ["transform", "case", "--case", "9", "--k", "2"],
        ["transform", "matrix", "--s", "2"],
        ["iso", "--multiplier", "--n", "16"],
        ["iso"],
        ["iso", "-"],
    ],
)
def test_missing_or_invalid_flags_are_usage_errors(capsys, args):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "args", [("reproduce-all",), ("label", "circulant", "--m", "20000", "--steps", "1,3")]
)
def test_reader_closing_stdout_early_exits_quietly(args, unbuffered):
    # The read end closes before the child can write, as with `| head`
    # once it has its lines; both stdout buffering modes must stay quiet.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "local_antimagic", *args],
        env=env, stdout=write_end, stderr=subprocess.PIPE,
    )
    os.close(write_end)
    os.close(read_end)
    _, err = proc.communicate(timeout=60)
    assert err.decode() == ""
    assert proc.returncode == 141


# sha256 of the CLI outputs, recorded before the construction matrix fill,
# the circulant assembly, the shared certification and the shared table
# renderer were introduced: outputs stay byte-identical.
PINNED_DIGESTS = {
    ("transform", "matrix", "--s", "2", "--t", "0"):
        "0b7765cadba9124378686305f39646b8d950352bddbd0cc2e99d222cd2637271",
    ("transform", "matrix", "--s", "3", "--t", "2"):
        "126565f333f74cd353abdd91f98cab852b3ab45c2da272cc02d6a19d5fbad21d",
    ("transform", "matrix", "--s", "4", "--t", "1"):
        "f41929eb59cb9611af9e674c2ddae5325fd01316b3e95b10b9f5f868d20940d1",
    ("transform", "matrix", "--s", "5", "--t", "3"):
        "6265fcdd55996428edc60c61904474614b4250bb8ae12973d6720651eed22009",
    ("label", "circulant", "--m", "64", "--steps", "1,3,5"):
        "716d37bfa3d8f303a606a126eb2cc539b328849c0cf0fe35de8fad18ad41b84e",
    ("transform", "case", "--case", "1", "--k", "3"):
        "8a06b4f680207ff6d3d2a2ee94d33ffc428c048bebc8bae80ab3279ba2405d64",
    ("transform", "case", "--case", "5", "--k", "3"):
        "1a197d9879fe0c3a63fd19b2c6ae3250652e0df1b78202f4add34d4af71d10c0",
    ("transform", "case", "--case", "8", "--k", "3"):
        "d3ec47b7e31e788dc18647c07ff9baca3c4ea6d085571b675be37a9b2c8993c5",
    ("label", "union2a", "--r", "9"):
        "e2a638fef130049011fbe726f21c222035f84d063eff08a6080c7f15dde878d6",
    ("label", "union2b", "--r", "9"):
        "bd5cdf57eb54ab89e1a73cf5913adac834bab112f908fd36a73586ec2583c38a",
    ("label", "union3", "--orders", "16,20"):
        "3f42d416b46df9c484826b7d0d94a76ffb2f3582f68cbad85aaf5ab5b65e21cf",
    ("transform", "matrix", "--s", "3", "--t", "2", "--render"):
        "24a5e5f4fa7774a95e7b6f2baf5fca363fc1b6a430dcabc124caa87014b71c46",
    ("reproduce-all",):
        "59b3056a0b01822275cc8ee3a1bad7935c98c502dd91a8f5748680bdaa37ea80",
    ("spectrum", "--m", "16", "--steps", "1,3", "--against", "1,5"):
        "25c7c0b5257b69a5ad5445342b1ed4a57776a49a8022b9f7668045bd7531f8b4",
    ("iso", "--multiplier", "--n", "16", "--a", "3", "--b", "11"):
        "735829c8efa3796183ab96c82ad5aecab93440529e106878b284967376f983e0",
    ("build", "cycle", "--m", "9"):
        "90dbae2fdafbe92fd3edfbfeae90620e211b80e62415d0a267b64a1df2780665",
}


@pytest.mark.parametrize("args", list(PINNED_DIGESTS))
def test_constructor_documents_are_pinned(capsys, monkeypatch, args):
    code, out = run_cli(capsys, monkeypatch, list(args))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[args]


UNION_DIRECTIVES = json.dumps(
    [{"fuse": [2 * i, 2 * i + 1], "step": 3} for i in range(4)]
    + [{"merge": 8, "case": 1, "k": 2}]
)

# sha256 of the consumer's output in `producer | consumer`, recorded
# before the streaming JSON writer replaced json.dump.
PINNED_PIPELINES = {
    (("label", "circulant", "--m", "16", "--steps", "1,3"),
     ("verify", "--expect-colors", "3", "--two-color-check")):
        "5f71df6d718f211149ab1e9f6a97bee8ff3577cf9fd31855e89f0cfc03ac7a49",
    (("label", "union3", "--orders", "16,20"), ("export", "json")):
        "3f42d416b46df9c484826b7d0d94a76ffb2f3582f68cbad85aaf5ab5b65e21cf",
    (("transform", "case", "--case", "5", "--k", "3"), ("export", "json")):
        "1a197d9879fe0c3a63fd19b2c6ae3250652e0df1b78202f4add34d4af71d10c0",
    (("transform", "matrix", "--s", "3", "--t", "2"), ("export", "json")):
        "126565f333f74cd353abdd91f98cab852b3ab45c2da272cc02d6a19d5fbad21d",
    (("label", "union2a", "--r", "9"),
     ("transform", "union", "--orders", ",".join(["34"] * 8 + ["16"]),
      "--directives", UNION_DIRECTIVES)):
        "79e2278b6800283357be7de3b781da52c8631d9715eaaf163ebcc9bfc4d82941",
    (("build", "cycle", "--m", "5"), ("oracle", "chi-la", "--colors", "2")):
        "33b48b810f6c7c6595d4a5f6a07cb03bc3ab9a01de0fe42e0ff354788830111e",
}


@pytest.mark.parametrize(
    "producer,consumer", list(PINNED_PIPELINES), ids=lambda args: " ".join(args[:2])
)
def test_pipeline_outputs_are_pinned(capsys, monkeypatch, producer, consumer):
    code, doc = run_cli(capsys, monkeypatch, list(producer))
    assert code == 0
    code, out = run_cli(capsys, monkeypatch, list(consumer), stdin=doc)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PINNED_PIPELINES[producer, consumer]


def dumped(value) -> str:
    buf = io.StringIO()
    write_json(value, buf)
    return buf.getvalue()


WRITER_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
WRITER_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
WRITER_VALUES = st.recursive(
    WRITER_SCALARS
    | st.lists(st.integers() | st.booleans(), max_size=6)
    | st.lists(st.lists(st.integers(), max_size=3).map(tuple), max_size=4)
    | st.lists(st.lists(st.text(max_size=3), max_size=3), max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(WRITER_KEYS, inner, max_size=3),
    max_leaves=16,
)


@settings(max_examples=500, deadline=None)
@given(WRITER_VALUES)
def test_write_json_matches_json_dumps(value):
    assert dumped(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("count", [4095, 4096, 4097])
@pytest.mark.parametrize(
    "row", [lambda i: i - 2000, lambda i: (i, i + 1), lambda i: [str(i), "\u00e9\n"]],
    ids=["ints", "int-rows", "str-rows"],
)
def test_write_json_long_lists_across_slices(count, row):
    items = [row(i) for i in range(count)]
    for value in (items, tuple(items), {"graph": {"edges": items}, "labels": items}):
        assert dumped(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("opener,closer", [('{"a":', "}"), ("[", "]")], ids=["objects", "lists"])
def test_export_rewrites_the_deepest_document_it_parses(capsys, monkeypatch, opener, closer):
    # The writer must not run out of stack where json.dump did not.
    def nested(depth):
        return '{"graph":{"n":2,"edges":[[0,1]]},"x":' + opener * depth + "1.5" + closer * depth + "}"

    for depth in range(sys.getrecursionlimit(), 0, -1):
        code, out = run_cli(capsys, monkeypatch, ["export", "json"], stdin=nested(depth))
        if code != 2:
            break
    assert code == 0 and depth > 100
    g, f, extra = parse_document(nested(depth))
    assert out == json.dumps(document(g, f, **extra), indent=2) + "\n"


def run_as_main(*argv: str) -> str:
    return (
        "import runpy\n"
        f"sys.argv = ['antimagic', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('local_antimagic', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    if exc.code:\n"
        "        raise\n"
    )


VERIFY_INPUT = json.dumps(document(build_cycle(4), c_labeling(4)), indent=2)


READ_VERIFY_INPUT = f"sys.stdin = io.StringIO({VERIFY_INPUT!r})\n"


@pytest.mark.parametrize(
    "child,modules",
    [
        ("import local_antimagic\n", set()),
        (run_as_main("build", "cycle", "--m", "16"), {"cli", "serialize"}),
        (run_as_main("build", "circulant", "--m", "16", "--steps", "1,3"),
         {"cli", "serialize", "circulants"}),
        (run_as_main("label", "c", "--m", "16"), {"cli", "serialize", "circulants"}),
        (READ_VERIFY_INPUT + run_as_main("verify"), {"cli", "serialize"}),
        (READ_VERIFY_INPUT + "import tempfile\n"
         "second = tempfile.NamedTemporaryFile('w', suffix='.json')\n"
         f"second.write({VERIFY_INPUT!r})\nsecond.flush()\n"
         + run_as_main("iso", "-", "SECOND").replace("'SECOND'", "second.name"),
         {"cli", "serialize", "circulants"}),
        (run_as_main("label", "union2a", "--r", "3"), {"cli", "serialize", "unions"}),
        (run_as_main("transform", "case", "--case", "1", "--k", "50"),
         {"cli", "serialize", "circulants", "cycle_merge"}),
        (READ_VERIFY_INPUT + run_as_main("export", "dot"), {"cli", "serialize"}),
    ],
    ids=["import", "build-cycle", "build-circulant", "label-c", "verify", "iso",
         "label-union2a", "transform-case", "export-dot"],
)
def test_numpy_stays_off_the_import_path(child, modules):
    # Each command loads graphs and labelings, which all use, and only the
    # other package modules it runs, so never the oracle or reproduce-all.
    # No module loads numpy, or dataclasses and the inspect module it needs.
    code = "import io, json, sys\nout = sys.stdout\nsys.stdout = io.StringIO()\n" + child + (
        "print(json.dumps([sorted(name for name in sys.modules if name.startswith("
        "'local_antimagic.')), [name for name in ('numpy', 'dataclasses', 'inspect') "
        "if name in sys.modules]]), file=out)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    loaded, unwanted = json.loads(proc.stdout)
    expected = {"graphs", "labelings", *modules}
    assert loaded == sorted(f"local_antimagic.{name}" for name in expected)
    assert unwanted == []


def _parameters(obj) -> tuple[str, ...]:
    """A record's fields, else the names of the parameters of ``obj``."""
    try:
        return getattr(obj, "_fields", None) or tuple(inspect.signature(obj).parameters)
    except ValueError:  # an exception that keeps the built-in signature
        return ("*args",)


def _commands(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """Each command under ``parser`` with its positionals and flags."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subs:
        return [line for name, sub in subs[0].choices.items()
                for line in _commands(sub, f"{path} {name}")]
    return [" ".join([f"{path}:", *(a.option_strings[0] if a.option_strings else a.dest
                                     for a in parser._actions
                                     if not isinstance(a, argparse._HelpAction))])]


def test_every_public_option_is_listed():
    import local_antimagic
    from local_antimagic import reproduce

    # The parameters, record fields and flags are a contract as the names
    # are: a new option shows here.
    callables = {name: getattr(local_antimagic, name) for name in local_antimagic.__all__}
    callables.update({"cli.main": main, "reproduce.run_all": reproduce.run_all})
    signatures = [f"{name}({', '.join(_parameters(obj))})"
                  for name, obj in callables.items() if not inspect.ismodule(obj)]
    assert signatures + _commands(build_parser(), "antimagic") == [
        "BudgetExceeded(message, nodes)",
        "CertificationError(*args)",
        "CirculantSpec(m, steps)",
        "ConstructionMatrix(s, t, n, arrays, labels, spec, graph, labeling, coloring)",
        "EdgeLabeling(labels)",
        "FuseCycles(first, second, step)",
        "Graph(n, us, vs, provenance)",
        "InducedColoring(sums, colors, conflicts)",
        "KeepCycle(cycle)",
        "Labeled(graph, labeling, coloring)",
        "MergeCycle(cycle, plan)",
        "MergePlan(n, blocks, kinds)",
        "OracleResult(value, witness, nodes, seconds, bounds, searches)",
        "SearchBudget(max_edges, node_limit)",
        "TwoColorVerdict(bipartite, part_sizes, pendant_count, two_colors_possible)",
        "UnionSpec(orders)",
        "are_isomorphic(g1, g2)",
        "build_circulant(spec)",
        "build_construction_matrix(s, t)",
        "build_cycle(m)",
        "build_even_odd_arrays(s, t)",
        "c_labeling(m)",
        "c_labeling_sums(m)",
        "case_plan(case, k)",
        "certify_multiplier(src, dst, mult)",
        "check_two_color_necessary(g)",
        "chromatic_number(g)",
        "circulant_colors(n, t)",
        "circulant_labeling(spec)",
        "circulant_spectrum(spec)",
        "color_count(g, f)",
        "exact_chi_la(g, budget)",
        "family_colors(n)",
        "feasible_with_colors(g, k, budget)",
        "induced_coloring(g, f)",
        "labeling_matrix_view(g, f)",
        "merge_vertices(g, plan)",
        "multiplier_isomorphism(n, a, b)",
        "one_point_union(graphs, attach)",
        "spectra_equal(s1, s2)",
        "transform_cycle(n, plan)",
        "transform_union(spec, labeling, directives)",
        "union_2labeling_family1(r)",
        "union_2labeling_family2(r)",
        "union_3labeling(spec)",
        "union_graph(spec)",
        "validate_labeling(g, f)",
        "verify_case1_circulant(k)",
        "verify_vertex_map(g1, g2, mapping)",
        "cli.main(argv)",
        "reproduce.run_all()",
        "antimagic build cycle: --m",
        "antimagic build circulant: --m --steps",
        "antimagic build union: --orders",
        "antimagic label c: --m",
        "antimagic label circulant: --m --steps",
        "antimagic label union2a: --r",
        "antimagic label union2b: --r",
        "antimagic label union3: --orders",
        "antimagic transform case: --k --case",
        "antimagic transform matrix: --s --t --render",
        "antimagic transform union: --orders --directives --input",
        "antimagic verify: input --expect-colors --two-color-check",
        "antimagic spectrum: --m --steps --against",
        "antimagic iso: first second --multiplier --n --a --b",
        "antimagic oracle: mode input --max-edges --colors --stats",
        "antimagic export: format input",
        "antimagic reproduce-all:",
    ]


def test_every_public_name_resolves_and_is_listed():
    import local_antimagic

    # The public names are a contract: a change to it shows here.
    assert local_antimagic.__all__ == [
        "BudgetExceeded", "CertificationError", "CirculantSpec", "ConstructionMatrix",
        "EdgeLabeling", "FuseCycles", "Graph", "InducedColoring", "KeepCycle", "Labeled",
        "MergeCycle", "MergePlan", "OracleResult", "SearchBudget", "TwoColorVerdict", "UnionSpec",
        "are_isomorphic", "build_circulant", "build_construction_matrix", "build_cycle",
        "build_even_odd_arrays", "c_labeling", "c_labeling_sums", "case_plan",
        "certify_multiplier", "check_two_color_necessary", "chromatic_number",
        "circulant_colors", "circulant_labeling", "circulant_spectrum", "circulants",
        "color_count", "cycle_merge", "exact_chi_la", "family_colors", "feasible_with_colors",
        "graphs", "induced_coloring", "labeling_matrix_view", "labelings", "merge_vertices",
        "multiplier_isomorphism", "one_point_union", "oracle", "spectra_equal",
        "transform_cycle", "transform_union", "union_2labeling_family1",
        "union_2labeling_family2", "union_3labeling", "union_graph", "unions",
        "validate_labeling", "verify_case1_circulant", "verify_vertex_map",
    ]
    names = set(local_antimagic.__all__)
    assert all(getattr(local_antimagic, name) is not None for name in names)
    assert names <= set(dir(local_antimagic))
    star: dict = {}
    exec("from local_antimagic import *", star)
    assert names <= set(star)
    with pytest.raises(AttributeError):
        local_antimagic.no_such_name
