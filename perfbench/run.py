"""Benchmark of the local_antimagic library and its CLI.

    python3 perfbench/run.py --workload construct-verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Each run also writes a results file with its metadata,
and a traced run writes its spans, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("construct-verify", "cli-pipeline", "oracle-corpus")
CALIBRATION_LOOPS = 1_000_000


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def calibrate() -> float:
    """A fixed pure-Python loop; slow host periods show up here."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i
    return time.perf_counter() - start


def source_id() -> dict:
    """The git commit when there is one, and always a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def results_path(workload: str, seed: int, trace: int, tiny: bool) -> Path:
    size = "-tiny" if tiny else ""
    return OUT / f"{workload}-seed{seed}-trace{trace}{size}.json"


def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    import numpy
    import workloads as wl
    from tracing import Tracer, per_layer_metrics

    spec = benchmark_spec()
    sizes = wl.TINY if tiny else wl.FULL
    calib_start = calibrate()
    setup = wl.time_fresh_interpreters(ROOT, wl.SETUP_ARGV[workload], wl.SETUP_REPEATS)
    startup = (wl.time_fresh_interpreters(ROOT, ["-c", "import local_antimagic"], wl.STARTUP_REPEATS)
               if trace else [])
    tracer = Tracer(bool(trace))
    out = wl.RUNNERS[workload](ROOT, seed, seconds, sizes, tracer)
    calib_end = calibrate()

    e2e = wl.summarize(out, setup)
    layer = {}
    if trace:
        layer = per_layer_metrics(tracer.spans, out.notes.get("rounds", 1))
        layer["cli.startup_s"] = sorted(startup)[len(startup) // 2]
        layer["host.calib_s"] = (calib_start + calib_end) / 2
        for m in spec["per_layer"]:
            layer.setdefault(m["name"], 0.0)
        tracer.write(OUT / f"spans-{workload}-seed{seed}{'-tiny' if tiny else ''}.jsonl")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": (layer if trace else e2e)[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), **source_id(),
        "host.calib_s": {"start": calib_start, "end": calib_end},
        "setup_samples_s": setup,
        "end_to_end": e2e, "per_layer": layer, **out.notes,
        "attempted": out.attempted, "failed": out.failed, "errors": out.errors[:20],
        "jobs_run": [{"job": label, "cell": cell, "edges": q, "latency_s": t, "ok": ok,
                      "settled": st}
                     for label, q, t, ok, st, cell in out.jobs],
    }
    untraced = results_path(workload, seed, 0, tiny)
    if trace and untraced.exists():
        base = json.loads(untraced.read_text())["end_to_end"]
        record["tracing_overhead"] = {k: e2e[k] / base[k] - 1 for k in e2e if base.get(k)}
    results_path(workload, seed, trace, tiny).write_text(json.dumps(record, indent=2) + "\n")

    for name, v in {**e2e, "error_rate": out.notes["error_rate"]}.items():
        print(f"{workload:>16}  {name:<14} {v:.6g}")
    print(f"{workload:>16}  tail = p{out.notes['tail_percentile']} of {out.notes['jobs']} jobs, "
          f"{out.notes['tail_samples_beyond']} beyond")
    for name, v in record.get("tracing_overhead", {}).items():
        print(f"{workload:>16}  tracing overhead {name:<14} {v:+.1%}")
    for error in out.errors[:5]:
        print(f"{workload:>16}  FAILED {error}", file=sys.stderr)
    return {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, tiny: bool, traces=(0, 1)) -> dict:
    """Every workload, each in its own worker process, with and without
    tracing; checks that each prints every declared metric with its unit."""
    spec = benchmark_spec()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in traces:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared:
                raise SystemExit(f"{workload} trace={trace}: metrics {sorted(printed)} "
                                 f"differ from the declared {sorted(declared)}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = value
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for a quick check")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at tiny sizes, traced and untraced; "
                             "fails unless every metric is printed and no job failed")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "local_antimagic" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    if args.smoke:
        result = run_all(args.seed, 2, tiny=True)
        ok = result["correct"] and result["failed"] == 0
        print(f"smoke {'passed' if ok else 'FAILED'}: {result['attempted']} jobs, "
              f"{result['failed']} failed")
        print(json.dumps(result))
        return 0 if ok else 1
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.tiny, traces=(args.trace,))
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
