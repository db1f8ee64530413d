"""The benchmark's own output checks.

Nothing here calls the library's verifier: labels, sums and conflicts are
recomputed with numpy from the raw edge list, and the expected sums are
the closed forms of each family, written out independently.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def expected_sums(req: dict) -> tuple[frozenset[int], int | None]:
    """Closed-form induced sums of a request and, for unions, the sum at
    the central vertex 0."""
    f = req["family"]
    if f == "c":
        m = req["m"]
        return frozenset({m // 2 + 2, m + 1, m + 2}), None
    if f == "circulant":
        n, t = req["m"] // 2, len(req["steps"]) - 1
        return frozenset({(t + 1) * (2 * n * t + n + 2),
                          (t + 1) * (2 * n * t + 2 * n + 1),
                          (t + 1) * (2 * n * t + 2 * n + 2)}), None
    if f == "case":
        m, r = divmod(req["n"], 4)
        return frozenset({
            0: (6 * m + 4, 8 * m + 4, 8 * m + 2),
            1: (2 * m + 2, 8 * m + 6, 8 * m + 4),
            2: (6 * m + 6, 8 * m + 8, 8 * m + 6),
            3: (10 * m + 12, 8 * m + 10, 8 * m + 8),
        }[r]), None
    if f == "matrix":
        # Groups of g cycle vertices of the canonical labeling of C_n;
        # the group of v_0 trades one even sum n+2 for n/2+2.
        g, n = 2 ** (req["s"] - 1), req["q"]
        return frozenset({g * (n + 1), g * (n + 2), (g - 1) * (n + 2) + n // 2 + 2}), None
    if f == "union2a":
        r = req["r"]
        return frozenset({4 * r * r - 4 * r + 1, 4 * r * r - 2 * r}), 4 * r * r - 2 * r
    if f == "union2b":
        r = req["r"]
        return frozenset({2 * r * r - r, 2 * r * r + r}), 2 * r * r + r
    if f == "union3":
        m, c = sum(req["orders"]), len(req["orders"])
        return frozenset({m, m + 1, c * m + m // 2}), c * m + m // 2
    if f == "transform_union":
        # Fused pairs and the case-1 merge double every family-1 sum.
        r = req["r"]
        return frozenset({2 * (4 * r * r - 4 * r + 1), 2 * (4 * r * r - 2 * r)}), None
    raise ValueError(f"unknown family {f}")


def induced_sums(n: int, edges, labels):
    """Edge endpoint arrays, induced vertex sums and the label array."""
    q = len(labels)
    flat = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64, count=2 * q)
    u, v = flat[0::2], flat[1::2]
    lab = np.fromiter(labels, dtype=np.int64, count=q)
    _require(q == 0 or (flat.min() >= 0 and flat.max() < n), "edge endpoint out of range")
    sums = np.bincount(u, weights=lab, minlength=n) + np.bincount(v, weights=lab, minlength=n)
    return u, v, sums.astype(np.int64), lab


def check_labeling(n: int, edges, labels, k_max: int | None = None):
    """Bijection onto 1..q and no adjacent equal sums; returns the set of
    sums and the per-vertex sums."""
    _require(len(edges) == len(labels), f"{len(edges)} edges but {len(labels)} labels")
    q = len(labels)
    u, v, sums, lab = induced_sums(n, edges, labels)
    _require(np.array_equal(np.sort(lab), np.arange(1, q + 1)), "labels are not a bijection onto 1..q")
    _require(not np.any(u == v), "loop edge")
    clash = np.flatnonzero(sums[u] == sums[v])
    _require(clash.size == 0, f"adjacent equal sums on edge {clash[:1].tolist()}")
    colors = set(np.unique(sums).tolist())
    if k_max is not None:
        _require(len(colors) <= k_max, f"{len(colors)} sums, at most {k_max} allowed")
    return colors, sums


def check_construction(req: dict, n: int, edges, labels):
    """A construction of the request: shape, labeling and closed-form sums.
    Returns the per-vertex sums."""
    _require(len(edges) == req["q"], f"expected {req['q']} edges, got {len(edges)}")
    colors, sums = check_labeling(n, edges, labels)
    expected, central = expected_sums(req)
    _require(colors == expected, f"sums {sorted(colors)[:4]} differ from closed form {sorted(expected)}")
    if central is not None:
        _require(int(sums[0]) == central, f"central sum {int(sums[0])} != {central}")
    return sums


# ------------------------------------------------------------------ CLI

def check_verify_report(req: dict, text: str) -> None:
    report = json.loads(text)
    expected, central = expected_sums(req)
    _require(report.get("ok") is True and report.get("local_antimagic") is True, "verify did not report ok")
    _require(report.get("conflicts") == [], "verify reported conflicts")
    _require(set(report["colors"]) == expected, "verify colors differ from the closed form")
    _require(report.get("expected_colors") == len(expected), "verify checked another color count")
    if central is not None:
        _require(report["sums"][0] == central, "central sum differs from the closed form")


def check_json_export(req: dict, text: str) -> None:
    doc = json.loads(text)
    g = doc["graph"]
    check_construction(req, g["n"], [tuple(e) for e in g["edges"]], doc["labels"])


_DOT_NODE = re.compile(r'^  (\d+) \[label="[^"]*\\n(-?\d+)"\];$')
_DOT_EDGE = re.compile(r'^  (\d+) -- (\d+) \[label="(\d+)"\];$')


def check_dot_export(req: dict, text: str) -> None:
    lines = text.rstrip("\n").split("\n")
    _require(lines[0] == "graph {" and lines[-1] == "}", "not a DOT graph")
    shown, edges, labels = {}, [], []
    for line in lines[1:-1]:
        node, edge = _DOT_NODE.match(line), _DOT_EDGE.match(line)
        if node:
            shown[int(node.group(1))] = int(node.group(2))
        elif edge:
            edges.append((int(edge.group(1)), int(edge.group(2))))
            labels.append(int(edge.group(3)))
        else:
            raise CheckFailed(f"unparsable DOT line {line[:60]!r}")
    n = len(shown)
    sums = check_construction(req, n, edges, labels)
    _require([shown[v] for v in range(n)] == sums.tolist(), "DOT vertex sums differ")


def check_matrix_export(req: dict, text: str) -> None:
    rows = [line.split() for line in text.rstrip("\n").split("\n")]
    n = len(rows) - 1
    _require(rows[0] == [str(v) for v in range(n)] + ["Sum"], "bad matrix header")
    edges, labels = [], []
    for u in range(n):
        row = rows[u + 1]
        _require(len(row) == n + 2 and row[0] == str(u), f"bad matrix row {u}")
        cells = [None if c == "*" else int(c) for c in row[1:-1]]
        _require(sum(c for c in cells if c is not None) == int(row[-1]), f"row {u} sum")
        for v in range(u + 1, n):
            if cells[v] is not None:
                edges.append((u, v))
                labels.append(cells[v])
    check_construction(req, n, edges, labels)


CONSUMER_CHECKS = {
    "verify": check_verify_report,
    "json": check_json_export,
    "dot": check_dot_export,
    "matrix": check_matrix_export,
}


def check_reproduce(text: str, claims: int) -> None:
    lines = text.strip().split("\n")
    _require(len(lines) == claims, f"{len(lines)} claim lines, expected {claims}")
    bad = [line for line in lines if not line.startswith("ok ")]
    _require(not bad, f"claim not ok: {bad[:1]}")


# --------------------------------------------------------------- oracle

def chromatic_number(n: int, edges) -> int:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    color = [-1] * n

    def colorable(v: int, k: int) -> bool:
        if v == n:
            return True
        for c in range(k):
            if all(color[w] != c for w in adj[v]):
                color[v] = c
                if colorable(v + 1, k):
                    return True
        color[v] = -1
        return False

    return next(k for k in range(1, n + 1) if colorable(0, k))


def brute_force_chi_la(n: int, edges) -> int:
    """Minimum distinct sums over all q! labelings (small q only)."""
    best = None
    q = len(edges)
    for perm in itertools.permutations(range(1, q + 1)):
        sums = [0] * n
        for (u, v), x in zip(edges, perm):
            sums[u] += x
            sums[v] += x
        if all(sums[u] != sums[v] for u, v in edges):
            c = len(set(sums))
            if best is None or c < best:
                best = c
    _require(best is not None, "no local antimagic labeling exists")
    return best


BRUTE_FORCE_MAX_EDGES = 7


def check_oracle(job: dict, value, witness) -> None:
    """Check one settled oracle answer.  For 'chi' jobs value is the
    reported minimum; for 'feasible' jobs it is True/False."""
    n, edges = job["n"], job["edges"]
    if job["mode"] == "feasible":
        if job["known"] is not None:
            _require(value == job["known"], f"feasibility {value}, known {job['known']}")
        if value:
            check_labeling(n, edges, witness, k_max=job["k"])
        return
    colors, _ = check_labeling(n, edges, witness)
    _require(len(colors) == value, f"witness has {len(colors)} sums, reported {value}")
    _require(value >= chromatic_number(n, edges), "chi_la below the chromatic number")
    if job["known"] is not None:
        _require(value == job["known"], f"chi_la {value}, known {job['known']}")
    if len(edges) <= BRUTE_FORCE_MAX_EDGES:
        _require(value == brute_force_chi_la(n, edges), "brute force disagrees")
