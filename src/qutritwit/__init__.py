"""Two-qutrit entanglement witnesses from a two-parameter family of positive
maps: construction, classification, certificates, and numerical oracles."""

from .gellmann import OrthonormalBasis, build_gellmann, default_basis
from .linalg import is_psd, min_eigenvalue, partial_transpose, trace_pair
from .maps import (
    Decomposability,
    LinearMap3,
    MapClass,
    MapParams,
    Positivity,
    apply_D,
    apply_phi,
    apply_phi_tilde,
    classify,
    dual,
    improper_coeffs,
    improper_rotation,
    n_abc,
    on_ellipse,
    phi_from_rotation,
    phi_map,
    phi_tilde_map,
    rotation_block,
    slice_params,
    so2_coeffs,
    so2_rotation,
    stochastic_matrix,
)
from .oracles import (
    ProductVectorPair,
    SeeSawConfig,
    indecomposability_certificate,
    is_block_positive,
    is_cp_choi,
    min_product_expectation,
    span_rank,
    zero_product_vectors,
)
from .spa import SpaComponents, SpaResult, critical_p, critical_p_from_witness, spa_mix, spa_region, spa_state
from .states import (
    BipartiteState,
    detection_value,
    detection_value_numeric,
    detects_rho_family,
    is_ppt,
    max_entangled_projector,
    rho_eps,
    sigma_diag,
    sigma_pair,
)
from .witnesses import (
    DecompositionCertificate,
    WitnessMatrix,
    choi_witness,
    decompose_tilde,
    exact_witness_entries,
    matrix_entries,
    mix_witnesses,
    permutation_unitary,
    witness_matrix,
    witness_tilde_matrix,
    witness_u,
)

__version__ = "0.1.0"
