"""Exact invariants of lattice simplices via finite abelian residue groups.

The package represents a lattice simplex by the finite subgroup of (Q/Z)^e
cut out by its vertices, computes h*-polynomials, degrees and volumes from
element heights, constructs the weight-uniform code families and their block
sums, solves the maximal null-block partition problem behind Cayley
decompositions, realizes groups as integer vertex sets (and back), and runs
bounded exhaustive searches that confirm the extremal dimension bounds at
desk scale.
"""

from ._kernels import active_backend
from .cayley import (
    CayleyPartition,
    ConjectureReport,
    cayley_upper_bound_distinct_halves,
    code_partition,
    conjecture_report,
    is_null,
    max_cayley_blocks,
    validate_partition,
)
from .classify import (
    BoundsCheck,
    ClassificationReport,
    SearchBudget,
    check_bounds,
    enumerate_groups,
    support_cover_multiplicities,
    verify_main1,
    verify_main2,
)
from .codes import (
    BinaryMatrix,
    counterexample_simplex,
    half_matrix,
    projective_matrix,
    simplex_code_group,
    support_matrix,
    support_rigidity_check,
)
from .geometry import (
    EhrhartTable,
    LatticeSimplex,
    count_lattice_points,
    ehrhart_table,
    h_star_from_counts,
    hermite_normal_form,
    lambda_from_vertices,
    min_interior_dilation,
    realize_vertices,
    smith_normal_form,
)
from .groups import (
    CanonicalForm,
    HStarPolynomial,
    LambdaGroup,
    atoms,
    canonical_form,
    check_weight_bound,
    close,
    degree,
    direct_sum,
    f,
    greedy_support_cover,
    h_star,
    half_lemma_witness,
    is_lattice_pyramid,
    restrict,
    trivial_group,
    volume,
)
from .residues import Residue, ResidueVector, add, height, support, weight

__version__ = "0.1.0"

__all__ = [
    "ResidueVector", "Residue", "add", "support", "weight", "height",
    "LambdaGroup", "HStarPolynomial", "CanonicalForm", "close",
    "trivial_group", "f", "h_star", "degree", "volume",
    "is_lattice_pyramid", "greedy_support_cover", "atoms",
    "check_weight_bound", "half_lemma_witness", "restrict", "direct_sum",
    "canonical_form", "BinaryMatrix", "projective_matrix", "half_matrix",
    "support_matrix", "simplex_code_group", "support_rigidity_check",
    "counterexample_simplex", "CayleyPartition", "ConjectureReport",
    "is_null", "max_cayley_blocks", "validate_partition",
    "cayley_upper_bound_distinct_halves", "code_partition",
    "conjecture_report", "LatticeSimplex", "EhrhartTable",
    "hermite_normal_form", "smith_normal_form", "realize_vertices",
    "lambda_from_vertices", "count_lattice_points", "ehrhart_table",
    "h_star_from_counts", "min_interior_dilation", "SearchBudget",
    "ClassificationReport", "BoundsCheck", "enumerate_groups",
    "verify_main1", "verify_main2", "check_bounds",
    "support_cover_multiplicities", "active_backend",
]
