"""The benchmark's own checker on the library's constructions.

perfbench/check.py recomputes labels, sums and conflicts with numpy from
the raw edge list and compares them with closed forms written out on its
own; it never calls the library's verifier.  Running it here on one
seeded construct-verify cell per family, at about 1k edges, checks every
construction independently on each test run, not only inside perfbench.
"""

import sys
from pathlib import Path

import pytest

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
