"""Seeded request generation for the three workloads.

Every request is a plain dict; the library sees only the arguments built
from it.  construct-verify and oracle-corpus repeat a fixed set of seeded
cells, one request each, in rounds.  cli-pipeline draws from a seeded
stream that is balanced over the log-size range and over the families, so
a run that stops after N jobs has nearly the same mix whatever N the host
allows.
"""

from __future__ import annotations

import json
import math
import random

# Construction families; on cli-pipeline each is one producer command.
FAMILIES = (
    "c", "circulant", "case", "matrix", "union2a", "union2b", "union3", "transform_union",
)
CLI_CONSUMERS = ("verify", "export dot", "export matrix", "export json")

# Offset of the cycle order n = 8k + offset for each named merge case.
CASE_OFFSET = {1: 0, 2: 4, 3: 2, 4: 6, 5: 1, 6: 5, 7: 3, 8: 7}

# The block-matrix construction does work quadratic in its order; above
# 2^15 edges a single build takes tens of seconds.
MATRIX_MAX_EDGES = 2 ** 15
# `export matrix` renders an n x n text table; larger graphs are verified.
MATRIX_EXPORT_MAX_N = 64


def radical_inverse(i: int, base: int) -> float:
    """Van der Corput radical inverse of i in the given base."""
    x, f = 0.0, 1.0 / base
    while i:
        i, d = divmod(i, base)
        x += d * f
        f /= base
    return x


BLOCK = 8
# Octile order inside a block (bit reversal), so a partial block still
# spreads over the size range.
OCTILE_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)
# cli-pipeline runs one `reproduce-all` after each block of pipelines.
CLI_BLOCK = BLOCK + 1


class Stream:
    """Job stream balanced over sizes and categories.

    Job i lies in block i // 8.  The eight jobs of a block take one size
    from each octile of the log-size range.  Categories (producers) follow
    a cyclic Latin square whose rows advance in bit-reversed order: every
    2, 4 and 8 blocks give each category one job in every half, quarter
    and octile of the range.  Within an octile the size sits at a point
    fixed by the pass (block // 8) and the octile, plus a small seeded
    jitter; the octiles of a block sit at spread-out points, so the size
    mix of a partial pass stays balanced.  A second Latin square over four
    values picks the CLI consumer.

    The squares are the same for every seed, so runs of the same number
    of blocks give the same producers and consumers the same sizes.  A
    run holds only 5 blocks, and with seeded squares the seed decided
    which 5 of the 8 producers got the largest sizes, which moved
    edges_per_s by 15% between seeds.  The seed draws the jitter and each
    request's details.
    """

    def __init__(self, seed: int, tag: str):
        self.seed = seed
        self.tag = tag

    def point(self, i: int) -> tuple[float, int, int]:
        """Size quantile in [0, 1), category 0..7 and minor choice 0..3."""
        b, p = divmod(i, BLOCK)
        octile = OCTILE_ORDER[p]
        jitter = (random.Random(f"{self.tag}:{self.seed}:{i}:size").random() - 0.5) / 16
        point = (radical_inverse(b // BLOCK + 1, 2) + octile * 3 / 7) % 1.0
        offset = min(max(point + jitter, 0.0), 0.999)
        category = (OCTILE_ORDER[b % BLOCK] + octile) % BLOCK
        minor = (OCTILE_ORDER[b % 4] // 2 + octile) % 4
        return (octile + offset) / BLOCK, category, minor

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.tag}:{self.seed}:{i}")


def log_uniform(u: float, lo: float, hi: float) -> int:
    return int(round(lo * (hi / lo) ** u))


def _coprime_steps(m: int, rng: random.Random, count: int) -> tuple[int, ...]:
    """Step 1 plus up to count-1 distinct coprime steps below m/2."""
    pool = [a for a in range(2, (m + 1) // 2) if math.gcd(a, m) == 1] if m < 400 else None
    chosen: set[int] = set()
    while len(chosen) < count - 1:
        if pool is not None:
            pool = [a for a in pool if a not in chosen]
            if not pool:
                break
            chosen.add(rng.choice(pool))
        else:
            a = rng.randrange(2, (m + 1) // 2)
            if math.gcd(a, m) == 1:
                chosen.add(a)
    return (1,) + tuple(sorted(chosen))


def _union3_orders(target: int, rng: random.Random) -> tuple[int, ...]:
    target = max(target, 32)
    cycles = rng.randint(2, max(2, min(6, target // 16)))
    base = target / cycles
    orders = []
    for _ in range(cycles):
        a = int(round(base * rng.uniform(0.75, 1.25) / 2)) * 2
        orders.append(max(16, a))
    return tuple(orders)


def _union_fuse_step(n: int, rng: random.Random) -> int:
    """A fusion step coprime to the cycle order, from the first three odd
    steps that are (3, 5 and 7 unless one divides n)."""
    steps = [a for a in range(3, n // 2, 2) if math.gcd(a, n) == 1][:3]
    return rng.choice(steps)


def family_request(family: str, target: int, rng: random.Random) -> dict:
    """Parameters of one construction of the family with about target edges."""
    if family == "c":
        m = max(3, target)
        return {"family": family, "m": m, "q": m}
    if family == "circulant":
        count = rng.randint(1, 4)
        m = max(6, int(round(target / count / 2)) * 2)
        steps = _coprime_steps(m, rng, count)
        return {"family": family, "m": m, "steps": steps, "q": m * len(steps)}
    if family == "case":
        case = rng.randint(1, 8)
        k = max(2, int(round((target - CASE_OFFSET[case]) / 8)))
        n = 8 * k + CASE_OFFSET[case]
        return {"family": family, "case": case, "k": k, "n": n, "q": n}
    if family == "matrix":
        target = min(max(target, 16), MATRIX_MAX_EDGES)
        s = max(2, int((math.log2(target / 2) + 1) // 2))
        t = max(0, int(round(target / 2 ** (2 * s - 1))) - 2)
        while 2 ** (2 * s - 1) * (t + 2) > MATRIX_MAX_EDGES:
            t -= 1
        n = 2 ** (2 * s - 1) * (t + 2)
        return {"family": family, "s": s, "t": t, "q": n}
    if family == "union2a":
        r = max(3, int(round((1 + math.sqrt(1 + target)) / 2)))
        return {"family": family, "r": r, "q": 4 * r * r - 4 * r}
    if family == "union2b":
        r = int(round((1 + math.sqrt(1 + 8 * (target + 1))) / 4))
        r = max(5, r if r % 2 else r + 1)
        return {"family": family, "r": r, "q": 2 * r * r - r - 1}
    if family == "union3":
        orders = _union3_orders(target, rng)
        return {"family": family, "orders": orders, "q": sum(orders)}
    if family == "transform_union":
        # Family-1 union with r = 4k+1: its r-1 long cycles are fused in
        # pairs and the short cycle of order 8k is merged by case 1.
        r = (1 + math.sqrt(1 + target)) / 2
        k = max(2, int(round((r - 1) / 4)))
        r = 4 * k + 1
        step = _union_fuse_step(4 * r - 2, rng)
        return {"family": family, "r": r, "k": k, "step": step, "q": 4 * r * r - 4 * r}
    raise ValueError(f"unknown family {family}")


def cv_cells(seed: int, max_edges: int) -> list[dict]:
    """construct-verify's cells: one request per family and size level.

    Level L targets 16 * 4^L edges, up to max_edges.  Each family's size
    sits at a small seeded offset from its level, at most 1/16 of a level
    (9%) either way.  The eight families of a level take eight stratified
    offsets in seeded order, so a level's total size hardly moves with the
    seed.  The seed also draws each request's details.
    """
    levels = int(math.log(max_edges / 16, 4) + 1e-9) + 1
    cells = []
    for level in range(levels):
        order = random.Random(f"construct-verify:{seed}:{level}:offsets").sample(
            range(BLOCK), BLOCK)
        for family, stratum in zip(FAMILIES, order):
            rng = random.Random(f"construct-verify:{seed}:{level}:{family}")
            offset = ((stratum + rng.random()) / BLOCK - 0.5) / 8
            req = family_request(family, round(16 * 4 ** (level + offset)), rng)
            req["cell"] = f"{family}@{level}"
            req["level"] = level
            cells.append(req)
    return cells


def round_order(big: list, small: list, groups: int, rng: random.Random) -> list:
    """One round of cells: the big cells in seeded order, cut into groups,
    each group followed by every small cell in seeded order.  A small cell
    thus runs `groups` times a round, at times spread over the round, and
    a big cell once."""
    big = rng.sample(big, len(big))
    order = []
    for g in range(groups):
        order += big[g * len(big) // groups:(g + 1) * len(big) // groups]
        order += rng.sample(small, len(small))
    return order


def _orders_text(orders) -> str:
    return ",".join(str(a) for a in orders)


def producer_argv(req: dict) -> list[str]:
    """The `label` or `transform` command that builds the request."""
    f = req["family"]
    if f == "c":
        return ["label", "c", "--m", str(req["m"])]
    if f == "circulant":
        return ["label", "circulant", "--m", str(req["m"]), "--steps", _orders_text(req["steps"])]
    if f == "union2a":
        return ["label", "union2a", "--r", str(req["r"])]
    if f == "union2b":
        return ["label", "union2b", "--r", str(req["r"])]
    if f == "union3":
        return ["label", "union3", "--orders", _orders_text(req["orders"])]
    if f == "case":
        return ["transform", "case", "--case", str(req["case"]), "--k", str(req["k"])]
    if f == "matrix":
        return ["transform", "matrix", "--s", str(req["s"]), "--t", str(req["t"])]
    r, k = req["r"], req["k"]
    directives = [{"fuse": [2 * i, 2 * i + 1], "step": req["step"]} for i in range((r - 1) // 2)]
    directives.append({"merge": r - 1, "case": 1, "k": k})
    orders = (4 * r - 2,) * (r - 1) + (2 * r - 2,)
    return ["transform", "union", "--orders", _orders_text(orders),
            "--directives", json.dumps(directives, separators=(",", ":"))]


def expected_color_count(family: str) -> int:
    return 2 if family in ("union2a", "union2b", "transform_union") else 3


def cli_job(stream: Stream, i: int, max_edges: int) -> dict:
    """One cli-pipeline job: a producer | consumer pair, or reproduce-all."""
    b, slot = divmod(i, CLI_BLOCK)
    if slot == BLOCK:
        return {"kind": "reproduce"}
    j = b * BLOCK + slot  # index among the pipeline jobs
    u, category, minor = stream.point(j)
    family = FAMILIES[category]
    req = family_request(family, log_uniform(u, 16, max_edges), stream.rng(j))
    consumer = CLI_CONSUMERS[minor]
    if consumer == "export matrix" and not matrix_exportable(req):
        consumer = "verify"
    if consumer == "verify":
        cargv = ["verify", "--expect-colors", str(expected_color_count(family))]
    else:
        cargv = consumer.split()
    return {"kind": "pipeline", "req": req, "producer": producer_argv(req), "consumer": cargv}


def matrix_exportable(req: dict) -> bool:
    """True when the request builds a simple graph with at most
    MATRIX_EXPORT_MAX_N vertices, so its label matrix is defined and small."""
    f = req["family"]
    if f in ("c", "circulant"):
        n = req["m"]
    elif f == "matrix":
        n = req["q"] // 2 ** (req["s"] - 1)
    elif f in ("union2a", "union2b"):
        n = req["q"] - (req["r"] - 1)
    elif f == "union3":
        n = req["q"] - (len(req["orders"]) - 1)
    else:  # merges can create parallel edges
        return False
    return n <= MATRIX_EXPORT_MAX_N


# ---------------------------------------------------------------- oracle

def cycle_edges(m: int) -> tuple[tuple[int, int], ...]:
    return tuple((j, (j + 1) % m) for j in range(m))


def complete_bipartite_edges(a: int, b: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, a + j) for i in range(a) for j in range(b))


def circulant_edges(m: int, steps) -> tuple[tuple[int, int], ...]:
    return tuple((j, (j + a) % m) for a in steps for j in range(m))


# The 2-colour counterexample: a 7-vertex path with chords 0-3 and 1-4.
COUNTEREXAMPLE = (7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (1, 4)))


def random_connected(rng: random.Random, q: int) -> tuple[int, tuple]:
    """A random connected simple graph with q edges and 3..8 vertices: a
    random spanning tree plus random extra edges."""
    sizes = [n for n in range(3, 9) if n - 1 <= q <= n * (n - 1) // 2]
    n = rng.choice(sizes)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(rest)
    edges.update(rest[: q - (n - 1)])
    return n, tuple(sorted(edges))


def oracle_corpus(seed: int, random_edges: tuple[int, ...]) -> tuple[list[dict], list[dict]]:
    """The fixed corpus plus one seeded random graph per entry of
    random_edges (its edge count): the instances that settle in under
    about 0.1 s, and the longer ones."""
    short = [{"name": f"C{m}", "mode": "chi", "n": m, "edges": cycle_edges(m), "known": 3}
             for m in range(6, 14)]
    n, e = COUNTEREXAMPLE
    short.append({"name": "counterexample", "mode": "chi", "n": n, "edges": e, "known": 3})
    rng = random.Random(f"oracle:{seed}")
    for j, q in enumerate(random_edges):
        n, e = random_connected(rng, q)
        short.append({"name": f"random{j}", "mode": "chi", "n": n, "edges": e, "known": None})
    long = [
        {"name": "K33", "mode": "chi", "n": 6, "edges": complete_bipartite_edges(3, 3),
         "known": 3},
        {"name": "K44_k3", "mode": "feasible", "k": 3, "n": 8,
         "edges": complete_bipartite_edges(4, 4), "known": True},
        # Frontier instances: today both exhaust the node cap.  K_{4,4}
        # has equal parts, so 2 colours are impossible; C_10(1,3) has a
        # 3-colour labeling by the combined circulant construction.
        {"name": "K44_k2", "mode": "feasible", "k": 2, "n": 8,
         "edges": complete_bipartite_edges(4, 4), "known": False},
        {"name": "C10_1_3_k3", "mode": "feasible", "k": 3, "n": 10,
         "edges": circulant_edges(10, (1, 3)), "known": True},
    ]
    return short, long
