import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from local_antimagic.cli import main
from local_antimagic.serialize import (
    document,
    graph_from_dict,
    graph_to_dict,
    parse_document,
    to_dot,
)
import local_antimagic.circulants as circulants
from local_antimagic import (
    EdgeLabeling,
    UnionSpec,
    build_cycle,
    c_labeling,
    case_plan,
    merge_vertices,
    union_graph,
)


def run_cli(capsys, monkeypatch, args, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_graph_json_roundtrip():
    g = merge_vertices(build_cycle(16), case_plan(1, 2))
    assert graph_from_dict(graph_to_dict(g)) == g


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


def test_oracle_budget_exit(capsys, monkeypatch):
    code, built = run_cli(capsys, monkeypatch, ["build", "cycle", "--m", "16"])
    code, _ = run_cli(
        capsys, monkeypatch, ["oracle", "chi-la", "--max-edges", "8"], stdin=built
    )
    assert code == 1


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
        (["verify"], '{"graph":[3]}', "missing the 'graph' object"),
        (["verify"], "[" * 100000, "not valid JSON"),
        (["verify"], '{"graph":{"n":3,"edges":[]}}', "no labels to verify"),
    ],
    ids=["no-edges", "labels-not-a-list", "graph-not-an-object", "nested-too-deep",
         "no-labels"],
)
def test_malformed_input_exits_2(capsys, monkeypatch, args, stdin, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(args) == 2
    assert message in capsys.readouterr().err


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


# Numbers stay small because a document's vertex count sizes the graph
# it builds (n = 1e12 exhausts memory); NaN and the infinities are added
# since they reach int() as JSON floats.
NUMBERS = (
    st.integers(-3, 40)
    | st.floats(-3, 40)
    | st.sampled_from([math.inf, -math.inf, math.nan])
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
}


@pytest.mark.parametrize("args", list(PINNED_DIGESTS))
def test_constructor_documents_are_pinned(capsys, monkeypatch, args):
    code, out = run_cli(capsys, monkeypatch, list(args))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[args]
