"""Spans around the benchmark's own calls into the library's layers.

A span has a name ``<layer>.<function>``, start and end times, the span
that was open when it started, the job it belongs to, and counts such as
edges, bytes or search nodes.  Spans stay in memory until the run ends.
With tracing off, ``call`` is a plain function call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

# A graph with at most this many edges counts as small.
SMALL_EDGES = 256


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.job: Optional[int] = None

    @contextmanager
    def span(self, name: str, **counts):
        """Record the enclosed block as one span; counts may be added to
        the yielded dict before the block ends."""
        if not self.enabled:
            yield counts
            return
        index = len(self.spans)
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "job": self.job, "start": time.perf_counter(), "end": None, **counts}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, edges: Optional[int] = None):
        if not self.enabled:
            return fn(*args)
        with self.span(name, edges=edges):
            return fn(*args)

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({"id": i, **s}) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span time not covered by child spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, covered in zip(spans, child_time):
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - covered
    return out


def _sum(spans, key="dur"):
    return sum(s[key] for s in spans)


def per_layer_metrics(spans: list[dict], rounds: int = 1) -> dict[str, float]:
    """The per-layer figures derived from one run's spans.  The oracle
    counts are per round of the corpus, so they repeat exactly for a seed
    however many rounds the run had time for."""
    for s in spans:
        s["dur"] = s["end"] - s["start"]
    by_layer: dict[str, list[dict]] = {}
    for s in spans:
        by_layer.setdefault(layer_of(s["name"]), []).append(s)

    def named(suffix):
        return [s for s in spans if s["name"] == suffix]

    def per_edge(layer):
        timed = [s for s in by_layer.get(layer, []) if s.get("edges")]
        edges = sum(s["edges"] for s in timed)
        return (1e9 * _sum(timed) / edges if edges else 0.0), edges

    m: dict[str, float] = {}
    for layer in ("graphs", "labelings", "circulants", "cycle_merge", "unions"):
        m[f"{layer}.busy_s"] = _sum(by_layer.get(layer, []))
        m[f"{layer}.ns_per_edge"], edges = per_edge(layer)
        if layer in ("graphs", "labelings"):
            m[f"{layer}.edges"] = edges
            small = [s for s in by_layer.get(layer, []) if s.get("edges") and s["edges"] <= SMALL_EDGES]
            m[f"{layer}.small_us_per_call"] = 1e6 * _sum(small) / len(small) if small else 0.0
    m["cycle_merge.matrix_s"] = _sum(named("cycle_merge.build_construction_matrix"))
    m["unions.transform_s"] = _sum(named("unions.transform_union"))

    oracle = by_layer.get("oracle", [])
    counted = [s for s in oracle if s.get("nodes") is not None]
    nodes = sum(s["nodes"] for s in counted)
    m["oracle.busy_s"] = _sum(oracle)
    m["oracle.calls"] = len(oracle) // rounds
    m["oracle.nodes"] = nodes // rounds
    m["oracle.nodes_per_s"] = nodes / _sum(counted) if counted else 0.0
    m["oracle.settled"] = sum(1 for s in oracle if s.get("settled")) // rounds
    m["oracle.budget_exhausted"] = sum(1 for s in oracle if s.get("settled") is False) // rounds

    parse = named("serialize.parse_document")
    m["serialize.parse_s"] = _sum(parse)
    m["serialize.document_s"] = _sum(named("serialize.document"))
    m["serialize.bytes"] = sum(s.get("bytes", 0) for s in parse)
    m["serialize.parse_MB_per_s"] = m["serialize.bytes"] / 1e6 / m["serialize.parse_s"] if parse else 0.0

    process = named("cli.process")
    m["cli.process_s"] = _sum(process)
    m["cli.main_s"] = _sum(named("cli.main"))
    m["cli.processes"] = sum(s.get("processes", 0) for s in process)

    run_all = named("reproduce.run_all")
    m["reproduce.run_all_s"] = _sum(run_all) / len(run_all) if run_all else 0.0
    for s in spans:
        if s["name"].startswith("reproduce.claim_"):
            key = s["name"] + "_s"
            m[key] = m.get(key, 0.0) + s["dur"] / len(run_all)

    for layer, t in self_times(spans).items():
        m[f"{layer}.self_s"] = t
    return m
