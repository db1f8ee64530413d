"""Re-derive every headline result of the library in one pass.

Each claim is a named callable that raises AssertionError (or any
exception) when the computation no longer reproduces the recorded
outcome.  The checks raise explicitly rather than with ``assert``, so
they still run under ``python -O``.  ``run_all`` executes them in order
and reports per-claim status; the CLI exposes this as
``antimagic reproduce-all``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .graphs import CirculantSpec, Graph, build_circulant, build_cycle
from .labelings import (
    check_two_color_necessary,
    color_count,
    induced_coloring,
)
from .circulants import (
    c_labeling,
    c_labeling_sums,
    circulant_colors,
    circulant_labeling,
    circulant_spectrum,
    multiplier_isomorphism,
    spectra_equal,
)
from .cycle_merge import (
    build_construction_matrix,
    case_plan,
    transform_cycle,
    verify_case1_circulant,
)
from .unions import (
    FuseCycles,
    MergeCycle,
    UnionSpec,
    transform_union,
    union_2labeling_family1,
    union_2labeling_family2,
    union_3labeling,
)
from .oracle import BudgetExceeded, exact_chi_la, feasible_with_colors


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def counterexample_graph() -> Graph:
    """A 7-vertex path with two chords: its bipartition sizes pass the
    divisibility conditions for 2 colors, yet it needs at least 3."""
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (1, 4))
    return Graph(7, edges)


def claim_cycle_colors():
    for m in range(3, 201):
        count, classes = color_count(build_cycle(m), c_labeling(m))
        _check(frozenset(classes) == frozenset(c_labeling_sums(m)), f"C_{m} sums")
        _check(count == 3, f"C_{m} has {count} sums, not 3")


def claim_circulant_colors():
    for m in range(6, 62, 2):
        half = (m + 1) // 2
        coprime = [a for a in range(1, half) if math.gcd(a, m) == 1]
        for t in range(min(3, len(coprime))):
            steps = tuple(coprime[: t + 1])
            graph, labeling = circulant_labeling(CirculantSpec(m, steps))
            coloring = induced_coloring(graph, labeling)
            _check(
                coloring.colors == circulant_colors(m // 2, t), f"C_{m}{steps} sums"
            )


def claim_c16_pair():
    s13 = circulant_spectrum(CirculantSpec(16, (1, 3)))
    s17 = circulant_spectrum(CirculantSpec(16, (1, 7)))
    _check(not spectra_equal(s13, s17), "spectra are equal")
    _check(abs(s13[0] - 4.0) < 1e-9 and abs(s17[0] - 4.0) < 1e-9, "eigenvalue 4")
    _check(abs(s13[8] + 4.0) < 1e-9 and abs(s17[8] + 4.0) < 1e-9, "eigenvalue -4")
    multiplier_isomorphism(16, 3, 11)
    multiplier_isomorphism(16, 5, 13)


def claim_cycle_transforms():
    for case in range(1, 9):
        for k in range(2, 7):
            plan = case_plan(case, k)
            transform_cycle(plan.n, plan)


def claim_case1_circulants():
    for k in range(2, 7):
        verify_case1_circulant(k)


def claim_construction_matrices():
    for s in (2, 3):
        for t in (0, 1, 2):
            built = build_construction_matrix(s, t)
            _check(len(built.spec.steps) == 2 ** (s - 1), f"step count, s={s} t={t}")
    built = build_construction_matrix(3, 2)
    _check(built.spec == CirculantSpec(32, (1, 7, 9, 15)), f"spec {built.spec}")
    _check(set(built.row_sums) == {456, 520}, "row sums")
    _check(built.row_sums.count(456) == 1, "row sum 456 count")
    _check(set(built.col_sums) == {516}, "column sums")


def claim_union_families():
    for r in (9, 13):
        result = union_2labeling_family1(r)
        _check(
            result.colors == frozenset({4 * r * r - 4 * r + 1, 4 * r * r - 2 * r}),
            f"family 1, r={r}",
        )
    for r in (9, 17):
        result = union_2labeling_family2(r)
        _check(
            result.colors == frozenset({2 * r * r - r, 2 * r * r + r}),
            f"family 2, r={r}",
        )
    for orders in ((16, 16), (16, 20), (20, 20, 24)):
        spec = UnionSpec(orders)
        result = union_3labeling(spec)
        m = spec.m
        _check(
            result.colors == frozenset({m, m + 1, spec.r * m + m // 2}),
            f"3-sum union {orders}",
        )


def claim_transform_union():
    r = 9
    labeled = union_2labeling_family1(r)
    directives = [FuseCycles(2 * i, 2 * i + 1, 3) for i in range(4)]
    directives.append(MergeCycle(8, case_plan(1, 2)))
    result = transform_union(labeled.spec, labeled.labeling, directives)
    _check(result.colors == frozenset({578, 612}), f"colors {sorted(result.colors)}")


def claim_small_oracle():
    for m in range(3, 8):
        _check(exact_chi_la(build_cycle(m)).value == 3, f"chi_la(C_{m})")
    g = counterexample_graph()
    verdict = check_two_color_necessary(g)
    # Passes the bipartition-size conditions, yet 2 colors are impossible.
    _check(
        verdict.bipartite and verdict.sizes_distinct and verdict.divisibility_ok,
        "bipartition-size conditions",
    )
    _check(verdict.forced_at_least_three, "not forced to 3 sums")
    _check(feasible_with_colors(g, 2) is None, "2-sum labeling found")
    _check(feasible_with_colors(g, 3) is not None, "no 3-sum labeling")


@dataclass(frozen=True)
class Claim:
    name: str
    run: Callable[[], None]


CLAIMS = [
    Claim("cycle labeling colors, m = 3..200", claim_cycle_colors),
    Claim("combined circulant colors, even m <= 60", claim_circulant_colors),
    Claim("C_16(1,3) vs C_16(1,7): spectra and multipliers", claim_c16_pair),
    Claim("cycle merge transforms, cases 1-8, k = 2..6", claim_cycle_transforms),
    Claim("case-1 merges are C_{4k}(1,2k-1)", claim_case1_circulants),
    Claim("construction matrices, s in {2,3}, t in {0,1,2}", claim_construction_matrices),
    Claim("union labelings with 2 and 3 colors", claim_union_families),
    Claim("transformed union colors {578, 612}", claim_transform_union),
    Claim("exact search on small cycles and the 2-color counterexample", claim_small_oracle),
]


def run_all(report: Callable[[str], None] = print) -> int:
    """Run every claim; returns the number of failures."""
    failures = 0
    for claim in CLAIMS:
        try:
            claim.run()
        except BudgetExceeded as exc:
            report(f"skip  {claim.name}: {exc}")
        except Exception as exc:
            failures += 1
            report(f"FAIL  {claim.name}: {exc!r}")
        else:
            report(f"ok    {claim.name}")
    return failures
