"""Local antimagic labelings of cycles, circulants, merged cycles, and
one-point unions of cycles, with an exact small-instance search."""

from importlib import import_module as _import_module

from .graphs import CertificationError, Graph, build_cycle
from .labelings import (
    EdgeLabeling,
    InducedColoring,
    Labeled,
    TwoColorVerdict,
    check_two_color_necessary,
    color_count,
    induced_coloring,
    validate_labeling,
)

__version__ = "0.1.0"

# The construction modules and the oracle are imported on first use of one
# of their names, so that a process loads only what it runs: a CLI command
# imports the modules it needs itself.  The first use imports all four; their
# names then become globals and the hook goes: CPython 3.11 does not
# specialise attribute reads on a module with __getattr__ (4x slower).
_LAZY = ("circulants", "cycle_merge", "unions", "oracle")
_LAZY_NAMES = frozenset({
    *_LAZY, "BudgetExceeded", "CirculantSpec", "ConstructionMatrix", "FuseCycles",
    "KeepCycle", "MergeCycle", "MergePlan", "OracleResult", "SearchBudget", "UnionSpec",
    "are_isomorphic", "build_circulant", "build_construction_matrix", "build_even_odd_arrays",
    "c_labeling", "c_labeling_sums", "case_plan", "certify_multiplier", "chromatic_number",
    "circulant_colors", "circulant_labeling", "circulant_spectrum", "exact_chi_la",
    "family_colors", "feasible_with_colors", "labeling_matrix_view", "merge_vertices",
    "multiplier_isomorphism", "one_point_union", "spectra_equal", "transform_cycle",
    "transform_union", "union_2labeling_family1", "union_2labeling_family2", "union_3labeling",
    "union_graph", "verify_case1_circulant", "verify_vertex_map",
})

__all__ = sorted({*(name for name in globals() if not name.startswith("_")), *_LAZY_NAMES})


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module in _LAZY:
        source = vars(_import_module(f".{module}", __name__))
        globals().update((key, source[key]) for key in _LAZY_NAMES.intersection(source))
    globals().pop("__getattr__", None)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES})
