"""The benchmark's own checker on the library's constructions.

perfbench/check.py recomputes labels, sums and conflicts with numpy from
the raw edge list and compares them with closed forms written out on its
own; it never calls the library's verifier.  Running it here on one
seeded construct-verify cell per family, at about 1k edges, checks every
construction independently on each test run, not only inside perfbench.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import local_antimagic as la

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Level 3 of the cells targets 16 * 4^3 = 1024 edges.
CELLS = [req for req in gen.cv_cells(7, 1024) if req["level"] == 3]


def test_one_cell_per_family():
    assert sorted(req["family"] for req in CELLS) == sorted(gen.FAMILIES)


@pytest.mark.parametrize("req", CELLS, ids=lambda req: req["cell"])
def test_construction_passes_the_benchmark_checker(req):
    g, f = workloads.construct(req, Tracer(False))
    check.check_construction(req, g.n, g.edges, f.labels)


class LastResult(Tracer):
    """A tracer that keeps what its last call returned: in ``construct``,
    the constructor's own result."""

    def call(self, name, fn, *args, edges=None):
        self.last = super().call(name, fn, *args, edges=edges)
        return self.last


@pytest.mark.parametrize("req", [req for req in CELLS if req["family"] != "c"],
                         ids=lambda req: req["cell"])
def test_every_constructor_returns_its_certified_coloring(req):
    tracer = LastResult(False)
    workloads.construct(req, tracer)
    result = tracer.last
    assert isinstance(result, la.Labeled)
    assert result.coloring is la.induced_coloring(result.graph, result.labeling)
    fresh = la.EdgeLabeling(tuple(list(result.labeling.labels)))
    assert result.coloring == la.induced_coloring(result.graph, fresh)
    g, f = result
    assert g is result.graph and f is result.labeling


# sha256 over (n, edges, provenance, labels) of every construct-verify cell
# up to 2^14 edges, recorded before graphs kept their edges as end columns.
PINNED_CELLS = {
    7: "34d69cd13e336a80169b8f9f6d2a8c6524a37cefacab4aa7e3172d0e2b434866",
    13: "0af8687fc1ee755bc382785c0013d74abc5a0e16292d140a08f579ecf1338f69",
}


@pytest.mark.parametrize("seed", list(PINNED_CELLS))
def test_constructions_are_pinned(seed):
    digest = hashlib.sha256()
    for req in gen.cv_cells(seed, 2 ** 14):
        g, f = workloads.construct(req, Tracer(False))
        digest.update(json.dumps([g.n, g.edges, g.provenance, f.labels]).encode())
    assert digest.hexdigest() == PINNED_CELLS[seed]


def test_benchmark_checker_refutes_swapped_labels():
    req = next(req for req in CELLS if req["family"] == "c")
    g, f = workloads.construct(req, Tracer(False))
    labels = list(f.labels)
    labels[1], labels[2] = labels[2], labels[1]
    with pytest.raises(check.CheckFailed):
        check.check_construction(req, g.n, g.edges, labels)


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_oracle_corpus_passes_the_benchmark_checker(seed):
    # Every instance as the oracle-corpus workload runs it, at the small
    # node cap: a witness the benchmark would refuse fails here first.
    short, long = gen.oracle_corpus(seed, workloads.RANDOM_EDGES)
    for job in long + short:
        settled, value, witness = workloads.oracle_job(
            job, workloads.TINY.oracle_node_cap, Tracer(False))
        assert settled, job["name"]
        check.check_oracle(job, value, witness)
