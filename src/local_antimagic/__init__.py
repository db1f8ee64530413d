"""Local antimagic labelings of cycles, circulants, merged cycles, and
one-point unions of cycles, with an exact small-instance search."""

from .graphs import (
    CertificationError,
    CirculantSpec,
    Graph,
    MergePlan,
    are_isomorphic,
    build_circulant,
    build_cycle,
    delete_edge,
    merge_vertices,
    one_point_union,
    partite_classes,
    verify_vertex_map,
)
from .labelings import (
    EdgeLabeling,
    InducedColoring,
    TwoColorVerdict,
    check_edge_deletion_lemma,
    check_nonreg_conditions,
    check_two_color_necessary,
    color_count,
    complement_labeling,
    deleted_edge_labeling,
    induced_coloring,
    is_local_antimagic,
    two_color_identity_holds,
    validate_labeling,
)
from .circulants import (
    c_labeling,
    c_labeling_sums,
    certify_multiplier,
    circulant_colors,
    circulant_labeling,
    circulant_spectrum,
    labeling_matrix_view,
    multiplier_isomorphism,
    spectra_equal,
)
from .cycle_merge import (
    ConstructionMatrix,
    build_construction_matrix,
    build_even_odd_arrays,
    case_plan,
    family_colors,
    transform_cycle,
    verify_case1_circulant,
)
from .unions import (
    FuseCycles,
    KeepCycle,
    MergeCycle,
    UnionSpec,
    transform_union,
    union_2labeling_family1,
    union_2labeling_family2,
    union_3labeling,
    union_graph,
)
from .oracle import (
    BudgetExceeded,
    OracleResult,
    SearchBudget,
    chromatic_number,
    exact_chi_la,
    feasible_with_colors,
)

__version__ = "0.1.0"
