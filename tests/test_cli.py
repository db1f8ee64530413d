import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from local_antimagic.cli import main
from local_antimagic.serialize import (
    document,
    graph_from_dict,
    graph_to_dict,
    parse_document,
    to_dot,
)
from local_antimagic import build_cycle, c_labeling, merge_vertices, case_plan


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
    assert code == 1


@pytest.mark.parametrize(
    "args",
    [
        ["label", "circulant"],
        ["label", "circulant", "--m", "16"],
        ["build", "cycle"],
        ["transform", "case", "--case", "9", "--k", "2"],
        ["transform", "matrix", "--s", "2"],
        ["iso", "--multiplier", "--n", "16"],
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


# sha256 of the CLI documents, recorded before the construction matrix
# fill and the circulant assembly were rewritten: outputs stay byte-identical.
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
}


@pytest.mark.parametrize("args", list(PINNED_DIGESTS))
def test_constructor_documents_are_pinned(capsys, monkeypatch, args):
    code, out = run_cli(capsys, monkeypatch, list(args))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[args]
