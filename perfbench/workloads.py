"""The three workloads.  Each is a closed loop with one job in flight.

A job's latency covers only the calls into the library or the CLI
processes; output checks, garbage collection and traced replays run
between jobs, outside the timed region.

construct-verify and oracle-corpus run a fixed set of cells in rounds,
and their figures use each cell's best latency of the run.  The shared
host has slow phases, in which the same Python code runs up to 1.8x
slower; a cell's best over samples spread across the run and across the
CPUs misses them, where a single sample or a run-wide median does not.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import check
from tracing import Tracer

import local_antimagic as la
from local_antimagic import cli, reproduce, serialize

# job_tail_s is this percentile on every workload.  A cli-pipeline run
# lasts at least MIN_JOBS jobs and a run of cells at least MIN_ROUNDS
# rounds, so at least ten jobs lie beyond it.  cli-pipeline runs end on
# whole blocks of the balanced stream, so every run has the same mix.
TAIL_PERCENTILE = 75
MIN_JOBS = 40
MIN_ROUNDS = 3
SETUP_REPEATS = 11
STARTUP_REPEATS = 5


@dataclass
class Sizes:
    cv_max_edges: int
    cli_max_edges: int
    oracle_node_cap: int
    min_jobs: int
    min_rounds: int


# A construct-verify round of 8 families at sizes 16 to 2^16 takes about
# 4 s, so a 30-second run gives every big cell about 7 samples and every
# small cell about 14.
FULL = Sizes(cv_max_edges=2 ** 16, cli_max_edges=2 * 10 ** 5, oracle_node_cap=1_250_000,
             min_jobs=MIN_JOBS, min_rounds=MIN_ROUNDS)
TINY = Sizes(cv_max_edges=1_024, cli_max_edges=400, oracle_node_cap=200_000, min_jobs=12,
             min_rounds=2)

ORACLE_MAX_EDGES = 20
# Edge counts of the random corpus graphs.  Their search takes under 2 ms,
# so they always rank below C_8 and leave the latency percentiles to the
# fixed instances: with these, the corpus has 17 instances, p50 falls on
# C_11 and p75 on the 2-colour counterexample.  With 7 or more edges a
# random graph takes anywhere from a millisecond to the whole node cap, and
# the seed would decide the run's figures.
RANDOM_EDGES = (2, 3, 4, 5)


@dataclass
class Outcome:
    # One (label, edges, latency_s, ok, settled, cell) tuple per job attempted.
    jobs: list[tuple] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    # Rounds of a fixed set of cells, rather than a stream of jobs.
    per_cell: bool = False
    # Percentiles by nearest rank, rather than Harrell-Davis.
    nearest_rank: bool = False
    # Checked jobs kept out of the latency figures.
    untimed: int = 0

    def record(self, label: str, latency: float, edges: int, ok: bool, settled: bool,
               error: str = "", cell: str = ""):
        self.jobs.append((label, edges, latency, ok, ok and settled, cell))
        if not ok:
            self.errors.append(error)

    @property
    def attempted(self) -> int:
        return len(self.jobs) + self.untimed

    @property
    def failed(self) -> int:
        return len(self.errors)


class CpuRotation:
    """Pins the n-th job of each cell to the n-th CPU this process may use,
    in turn.  On the shared host each CPU, on its own, often runs the same
    code 1.3 to 1.6x slower for tens of seconds while its hardware sibling
    is busy, and the two CPUs rarely slow down together.  A cell's best
    latency then comes from whichever CPU was fast at the time."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.counts: dict[str, int] = {}

    def pin(self, cell: str) -> None:
        n = self.counts.get(cell, 0)
        self.counts[cell] = n + 1
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[n % len(self.cpus)]})

    def release(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, set(self.cpus))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop(la.oracle.BUDGET_ENV, None)
    return env


def time_fresh_interpreters(root: Path, argv: list[str], repeats: int) -> list[float]:
    """Wall time of fresh interpreters running argv to completion."""
    env = child_env(root)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, cwd=root, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


SETUP_ARGV = {
    "construct-verify": ["-c", "import local_antimagic as la; g = la.build_cycle(64); "
                               "la.induced_coloring(g, la.c_labeling(64))"],
    "cli-pipeline": ["-m", "local_antimagic", "label", "c", "--m", "16"],
    "oracle-corpus": ["-c", "import local_antimagic as la; la.exact_chi_la("
                            "la.build_cycle(5), la.SearchBudget(max_edges=10))"],
}


# ------------------------------------------------------- construct-verify

def construct(req: dict, tr: Tracer):
    """Answer one construction request through the public constructors;
    returns the graph and labeling."""
    f, q = req["family"], req["q"]
    if f == "c":
        g = tr.call("graphs.build_cycle", la.build_cycle, req["m"], edges=q)
        return g, tr.call("circulants.c_labeling", la.c_labeling, req["m"], edges=q)
    if f == "circulant":
        spec = la.CirculantSpec(req["m"], req["steps"])
        return tr.call("circulants.circulant_labeling", la.circulant_labeling, spec, edges=q)
    if f == "case":
        plan = tr.call("cycle_merge.case_plan", la.case_plan, req["case"], req["k"])
        res = tr.call("cycle_merge.transform_cycle", la.transform_cycle, req["n"], plan, edges=q)
        return res.graph, res.labeling
    if f == "matrix":
        built = tr.call("cycle_merge.build_construction_matrix", la.build_construction_matrix,
                        req["s"], req["t"], edges=q)
        return built.graph, built.labeling
    if f == "union2a":
        res = tr.call("unions.union_2labeling_family1", la.union_2labeling_family1, req["r"], edges=q)
        return res.graph, res.labeling
    if f == "union2b":
        res = tr.call("unions.union_2labeling_family2", la.union_2labeling_family2, req["r"], edges=q)
        return res.graph, res.labeling
    if f == "union3":
        spec = la.UnionSpec(req["orders"])
        res = tr.call("unions.union_3labeling", la.union_3labeling, spec, edges=q)
        return res.graph, res.labeling
    r = req["r"]
    labeled = tr.call("unions.union_2labeling_family1", la.union_2labeling_family1, r, edges=q)
    plan = tr.call("cycle_merge.case_plan", la.case_plan, 1, req["k"])
    directives = [la.FuseCycles(2 * i, 2 * i + 1, req["step"]) for i in range((r - 1) // 2)]
    directives.append(la.MergeCycle(r - 1, plan))
    res = tr.call("unions.transform_union", la.transform_union, labeled.spec,
                  labeled.labeling, directives, edges=q)
    return res.graph, res.labeling


def construct_verify_job(req: dict, tr: Tracer):
    g, f = construct(req, tr)
    coloring = tr.call("labelings.induced_coloring", la.induced_coloring, g, f, edges=req["q"])
    if coloring.conflicts or len(coloring.colors) != gen.expected_color_count(req["family"]):
        raise check.CheckFailed(f"caller re-verification failed for {req}")
    return g, f


def run_construct_verify(root: Path, seed: int, seconds: float, sizes: Sizes, tr: Tracer) -> Outcome:
    """Rounds of the seed's cells, each in its own seeded order.  The cells
    of the top size level are big; the others run after every fourth big
    cell.  The run stops at the first job after --seconds, once
    MIN_ROUNDS rounds are done; a partial last round only adds samples to
    its cells."""
    cells = gen.cv_cells(seed, sizes.cv_max_edges)
    top = max(req["level"] for req in cells)
    big = [req for req in cells if req["level"] == top]
    small = [req for req in cells if req["level"] < top]
    out = Outcome(per_cell=True)
    cpus = CpuRotation()
    start = time.perf_counter()
    i = rounds = 0
    order: list[dict] = []
    while True:
        if i == len(order):
            rng = random.Random(f"construct-verify:{seed}:round{rounds}")
            order, i = gen.round_order(big, small, len(big) // 4, rng), 0
            rounds += 1
        if rounds > sizes.min_rounds and time.perf_counter() - start >= seconds:
            break
        req = order[i]
        tr.job = out.attempted
        cpus.pin(req["cell"])
        ok, error = True, ""
        with tr.span("job.construct_verify", family=req["family"], edges=req["q"]):
            t0 = time.perf_counter()
            try:
                g, f = construct_verify_job(req, tr)
            except Exception as exc:  # a crash is a failed job, never dropped
                ok, error, g = False, f"{req}: {exc!r}", None
            latency = time.perf_counter() - t0
        if ok:
            try:
                check.check_construction(req, g.n, g.edges, f.labels)
            except check.CheckFailed as exc:
                ok, error = False, f"{req}: {exc}"
        out.record(req["family"], latency, req["q"], ok, ok, error, req["cell"])
        g = f = None
        gc.collect()
        i += 1
    cpus.release()
    out.notes["rounds"] = rounds - 1 + i / len(order)
    out.notes["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


# ---------------------------------------------------------- cli-pipeline

def run_main(argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    """cli.main in this process with stdin/stdout redirected."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, buf.getvalue()


def union_input(root: Path, env: dict, req: dict) -> Path:
    """The labeled family-1 union that `transform union` reads, written
    by a `label union2a` process before the job starts.  A child process
    keeps this process small: children count the parent's resident memory
    at fork in their peak RSS.  If that process fails, no file is left,
    and the job fails on reading it."""
    path = root / "perfbench" / "out" / f"union2a-r{req['r']}.json"
    if not path.exists():
        with open(path, "w") as doc:
            proc = subprocess.run([sys.executable, "-m", "local_antimagic", "label", "union2a",
                                   "--r", str(req["r"])], cwd=root, env=env, stdout=doc)
        if proc.returncode != 0:
            path.unlink()
    return path


def run_pipeline(root: Path, env: dict, producer: list[str], consumer: list[str]):
    """producer | consumer as two fresh `python -m local_antimagic`
    processes joined by an OS pipe; returns latency, codes and output."""
    base = [sys.executable, "-m", "local_antimagic"]
    start = time.perf_counter()
    prod = subprocess.Popen(base + producer, cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        cons = subprocess.Popen(base + consumer, cwd=root, env=env, stdin=prod.stdout,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        prod.stdout.close()
        out, err = cons.communicate()
    finally:
        prod.wait()
    latency = time.perf_counter() - start
    return latency, prod.returncode, cons.returncode, out, err


def replay_pipeline(job: dict, producer: list[str], tr: Tracer) -> None:
    """Split one pipeline into parse, library and emit work in-process."""
    req, consumer = job["req"], job["consumer"]
    _, text = tr.call("cli.main", run_main, producer)
    with tr.span("serialize.parse_document", bytes=len(text.encode())):
        g, f, _ = serialize.parse_document(text)
    data = json.loads(text)["graph"]
    edges = tuple((int(u), int(v)) for u, v in data["edges"])
    prov = tuple(tuple(p) for p in data["provenance"])
    tr.call("graphs.Graph", la.Graph, int(data["n"]), edges, prov, edges=len(edges))
    construct(req, tr)
    tr.call("serialize.document", lambda: json.dumps(serialize.document(g, f), indent=2))
    tr.call("cli.main", run_main, consumer, text)
    kind = consumer[-1] if consumer[0] == "export" else "verify"
    if kind == "verify":
        tr.call("labelings.induced_coloring", la.induced_coloring, g, f, edges=g.q)
    elif kind == "dot":
        tr.call("serialize.to_dot", serialize.to_dot, g, f)
    elif kind == "matrix":
        tr.call("circulants.labeling_matrix_view", la.labeling_matrix_view, g, f, edges=g.q)
    else:
        tr.call("serialize.document", lambda: json.dumps(serialize.document(g, f), indent=2))


def replay_reproduce(tr: Tracer) -> None:
    with tr.span("reproduce.run_all"):
        for i, claim in enumerate(reproduce.CLAIMS):
            tr.call(f"reproduce.claim_{i}", claim.run)


def reference_pipeline(root: Path, env: dict, edges: int, out: Outcome) -> None:
    """`label c | verify` at the top of the stream's size range, the same
    for every seed.  It runs before the stream, so peak_rss_mb is its larger child
    and does not depend on which producers the seed gives the largest
    sizes.  Its output is checked; its latency is kept apart."""
    req = {"family": "c", "m": edges, "q": edges}
    latency, pcode, ccode, text, err = run_pipeline(
        root, env, gen.producer_argv(req), ["verify", "--expect-colors", "3"])
    out.untimed += 1
    out.notes["reference_pipeline"] = {"edges": edges, "latency_s": latency}
    try:
        if pcode != 0 or ccode != 0:
            raise check.CheckFailed(f"exit codes {pcode}/{ccode}: {err.strip()[-200:]}")
        check.check_verify_report(req, text)
    except (check.CheckFailed, ValueError, KeyError) as exc:
        out.errors.append(f"reference label c --m {edges} | verify: {exc!r}")
    out.notes["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run_cli_pipeline(root: Path, seed: int, seconds: float, sizes: Sizes, tr: Tracer) -> Outcome:
    stream = gen.Stream(seed, "cli-pipeline")
    env = child_env(root)
    out = Outcome()
    reference_pipeline(root, env, sizes.cli_max_edges, out)
    base = [sys.executable, "-m", "local_antimagic"]
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or len(out.jobs) < sizes.min_jobs \
            or i % gen.CLI_BLOCK:
        job = gen.cli_job(stream, i, sizes.cli_max_edges)
        tr.job = i
        edges, error = 0, ""
        if job["kind"] == "reproduce":
            with tr.span("cli.process", processes=1):
                t0 = time.perf_counter()
                proc = subprocess.run(base + ["reproduce-all"], cwd=root, env=env,
                                      capture_output=True, text=True)
                latency = time.perf_counter() - t0
            try:
                if proc.returncode != 0:
                    raise check.CheckFailed(f"reproduce-all exited {proc.returncode}")
                check.check_reproduce(proc.stdout, len(reproduce.CLAIMS))
            except check.CheckFailed as exc:
                error = f"reproduce-all: {exc}"
            if tr.enabled:
                replay_reproduce(tr)
        else:
            req = job["req"]
            producer = list(job["producer"])
            if req["family"] == "transform_union":
                producer += ["--input", str(union_input(root, env, req))]
            with tr.span("cli.process", processes=2):
                latency, pcode, ccode, text, err = run_pipeline(root, env, producer, job["consumer"])
            edges = req["q"]
            kind = job["consumer"][-1] if job["consumer"][0] == "export" else "verify"
            try:
                if pcode != 0 or ccode != 0:
                    raise check.CheckFailed(f"exit codes {pcode}/{ccode}: {err.strip()[-200:]}")
                check.CONSUMER_CHECKS[kind](req, text)
            except (check.CheckFailed, ValueError, KeyError) as exc:
                error = f"{' '.join(producer)[:200]} | {' '.join(job['consumer'])}: {exc!r}"
            text = None
            if tr.enabled:
                replay_pipeline(job, producer, tr)
        label = "reproduce-all" if job["kind"] == "reproduce" else \
            f"{' '.join(job['producer'][:2])} | {' '.join(job['consumer'][:2])}"
        out.record(label, latency, edges, not error, not error, error)
        gc.collect()
        i += 1
    return out


# ---------------------------------------------------------- oracle-corpus

def oracle_job(job: dict, cap: int, tr: Tracer):
    """Run one corpus instance; returns (settled, value, witness, nodes)."""
    q = len(job["edges"])
    g = tr.call("graphs.Graph", la.Graph, job["n"], job["edges"], edges=q)
    budget = la.SearchBudget(max_edges=ORACLE_MAX_EDGES, node_limit=cap)
    if job["mode"] == "chi":
        with tr.span("oracle.exact_chi_la", edges=q) as span:
            try:
                res = la.exact_chi_la(g, budget)
            except la.BudgetExceeded:
                # The nodes of the levels searched before the cap are not
                # reported by the library, so the count stays unknown.
                span.update(settled=False, nodes=None)
                return False, None, None
            span.update(settled=True, nodes=res.nodes)
        return True, res.value, res.witness.labels
    with tr.span("oracle.feasible_with_colors", edges=q) as span:
        try:
            witness = la.feasible_with_colors(g, job["k"], budget)
        except la.BudgetExceeded:
            # The search stops on the first node past the cap.
            span.update(settled=False, nodes=cap + 1)
            return False, None, None
        # A settled feasibility search does not report its node count.
        span.update(settled=True, nodes=None)
    return True, witness is not None, witness.labels if witness is not None else None


def run_oracle_corpus(root: Path, seed: int, seconds: float, sizes: Sizes, tr: Tracer) -> Outcome:
    """Whole rounds of the seed's corpus, each in its own seeded order, with
    every short instance after each long one.  The round in progress at
    --seconds finishes, so the per-round search counts repeat exactly for
    a seed."""
    out = Outcome(per_cell=True, nearest_rank=True)
    short, long = gen.oracle_corpus(seed, RANDOM_EDGES)
    cpus = CpuRotation()
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds or rounds < sizes.min_rounds:
        rng = random.Random(f"oracle-corpus:{seed}:round{rounds}")
        for job in gen.round_order(long, short, len(long), rng):
            tr.job = out.attempted
            cpus.pin(job["name"])
            error = ""
            with tr.span("job.oracle", instance=job["name"]):
                t0 = time.perf_counter()
                try:
                    settled, value, witness = oracle_job(job, sizes.oracle_node_cap, tr)
                except Exception as exc:  # a crash is a failed job, never dropped
                    error, settled = f"{job['name']}: {exc!r}", False
                latency = time.perf_counter() - t0
            if settled:
                try:
                    check.check_oracle(job, value, witness)
                except check.CheckFailed as exc:
                    error = f"{job['name']} {job['edges']}: {exc}"
            out.record(job["name"], latency, len(job["edges"]), not error, settled, error,
                       job["name"])
            gc.collect()
        rounds += 1
    cpus.release()
    out.notes["rounds"] = rounds
    out.notes["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


RUNNERS = {
    "construct-verify": run_construct_verify,
    "cli-pipeline": run_cli_pipeline,
    "oracle-corpus": run_oracle_corpus,
}


def percentile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a Beta-weighted mean
    of all order statistics.  Job latencies cluster by job type, and a
    single order statistic jumps across the gaps between clusters."""
    import numpy as np

    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf = np.concatenate(([0.0], cdf / cdf[-1], [1.0]))
    full = np.concatenate(([0.0], grid, [1.0]))
    weights = np.diff(np.interp(np.arange(n + 1) / n, full, cdf))
    return float(weights @ x)


def nearest_rank(samples: list[float], p: float) -> float:
    """The smallest sample with at least p percent of samples at or below it."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def summarize(out: Outcome, setup: list[float]) -> dict[str, float]:
    """End-to-end metrics.  On a run of cells, every cell counts once, at
    its best latency of the run; the tail's sample count is the jobs of
    the cells beyond it.  A corpus of fixed instances has one latency
    cluster per instance; there the nearest-rank percentile stays inside
    one cluster, where a smoothed estimate would mix neighbours."""
    if out.per_cell:
        best: dict[str, tuple[int, float]] = {}
        runs: dict[str, int] = {}
        for _, q, t, _, _, cell in out.jobs:
            best[cell] = (q, min(t, best.get(cell, (q, t))[1]))
            runs[cell] = runs.get(cell, 0) + 1
        samples = list(best.values())
    else:
        samples = [(q, t) for _, q, t, _, _, _ in out.jobs]
    latencies = [t for _, t in samples]
    with_edges = [(q, t) for q, t in samples if q]
    estimate = nearest_rank if out.nearest_rank else percentile
    tail = estimate(latencies, TAIL_PERCENTILE)
    out.notes["tail_percentile"] = TAIL_PERCENTILE
    out.notes["tail_samples_beyond"] = (
        sum(runs[cell] for cell, (_, t) in best.items() if t > tail) if out.per_cell
        else sum(1 for t in latencies if t > tail))
    out.notes["jobs"] = len(out.jobs)
    if out.per_cell:
        out.notes["cells"] = len(samples)
    out.notes["error_rate"] = out.failed / out.attempted
    return {
        "setup_s": statistics.median(setup),
        "job_p50_s": estimate(latencies, 50),
        "job_tail_s": tail,
        "jobs_per_s": len(latencies) / sum(latencies),
        "edges_per_s": sum(q for q, _ in with_edges) / sum(t for _, t in with_edges),
        "peak_rss_mb": out.notes["peak_rss_mb"],
        "settled_frac": settled_frac(out),
    }


def settled_frac(out: Outcome) -> float:
    """Jobs settled and checked over jobs attempted; on a run of cells,
    cells whose every job settled over cells."""
    if not out.per_cell:
        return sum(1 for job in out.jobs if job[4]) / len(out.jobs)
    unsettled = {job[5] for job in out.jobs if not job[4]}
    cells = {job[5] for job in out.jobs}
    return 1 - len(unsettled) / len(cells)
