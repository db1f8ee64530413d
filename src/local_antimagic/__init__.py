"""Local antimagic labelings of cycles, circulants, merged cycles, and
one-point unions of cycles, with an exact small-instance search."""

from importlib import import_module as _import_module

from .graphs import CertificationError, Graph, build_cycle
from .labelings import (
    EdgeLabeling,
    InducedColoring,
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
_LAZY = {
    "circulants": ("CirculantSpec", "are_isomorphic", "build_circulant", "c_labeling",
                   "c_labeling_sums", "certify_multiplier", "circulant_colors",
                   "circulant_labeling", "circulant_spectrum", "labeling_matrix_view",
                   "multiplier_isomorphism", "spectra_equal", "verify_vertex_map"),
    "cycle_merge": ("ConstructionMatrix", "MergePlan", "build_construction_matrix",
                    "build_even_odd_arrays", "case_plan", "family_colors", "merge_vertices",
                    "transform_cycle", "verify_case1_circulant"),
    "unions": ("FuseCycles", "KeepCycle", "MergeCycle", "UnionSpec", "one_point_union",
               "transform_union", "union_2labeling_family1", "union_2labeling_family2",
               "union_3labeling", "union_graph"),
    "oracle": ("BudgetExceeded", "OracleResult", "SearchBudget", "chromatic_number",
               "exact_chi_la", "feasible_with_colors"),
}
_LAZY_NAMES = frozenset(_LAZY).union(*_LAZY.values())

__all__ = sorted({*(name for name in globals() if not name.startswith("_")), *_LAZY_NAMES})


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _LAZY.items():
        source = _import_module(f".{module}", __name__)
        globals().update((key, getattr(source, key)) for key in names)
    globals().pop("__getattr__", None)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES})
