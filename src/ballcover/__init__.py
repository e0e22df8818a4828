"""Explicit coverings of unit balls in finite-dimensional lp spaces.

Constructions (simplex, tight-frame, incoherent-dictionary, axis/basis,
iterated), numerical certification against proof-level margins, constructive
uncovered-point witnesses, and covering-number bound evaluators.
"""

from .bounds import (
    BoundConstants,
    BoundTableRow,
    VolumetricBounds,
    covering_bound_table,
    mu_from_delta,
    ndmu_upper,
    ndmux_upper,
    table_to_csv,
    volumetric_bounds,
)
from .coverings import (
    BallCovering,
    axis_cover,
    basis_cover,
    dictionary_cover_banach,
    dictionary_cover_l2,
    etf_cover,
    iterate_cover,
    simplex_cover_shrunk,
    simplex_cover_unit,
)
from .dictionaries import (
    Dictionary,
    coherence_banach,
    coherence_matrix,
    greedy_maximal_dictionary,
    numeric_rank,
)
from .frames import TightFrame, etf_from_hadamard, verify_frame_identities
from .hadamard import (
    HadamardMatrix,
    MAX_ORDER,
    kronecker,
    sylvester,
    verify_hadamard,
)
from .spaces import (
    LpSpace,
    SmoothnessMajorant,
    norm,
    norming_coords,
    norms,
    sample_sphere,
    smoothness_majorant_for,
    solve_step_size,
    solve_step_size_bisect,
)
from .verify import (
    CoverageReport,
    VertexCoverReport,
    adversarial_search,
    affine_hull_distance,
    certify_maximality,
    certify_sampling,
    harden_dictionary,
    linf_vertex_check,
    min_distances,
    simplex_dichotomy_check,
    uncovered_witness,
)

__version__ = "0.1.0"
