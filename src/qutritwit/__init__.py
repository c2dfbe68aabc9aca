"""Two-qutrit entanglement witnesses from a two-parameter family of positive
maps: construction, classification, certificates, and numerical oracles.

The scalar geometry (parameters, classification, detection interval,
critical weight, SPA region, indecomposability certificate) is imported
with the package; every other name loads its module on first access, and
numpy with every module but forms.
"""

from importlib import import_module

from .geometry import (
    Decomposability,
    MapClass,
    MapParams,
    Positivity,
    classify,
    critical_p,
    detection_value,
    detects_rho_family,
    dual,
    improper_coeffs,
    indecomposability_certificate,
    n_abc,
    on_ellipse,
    slice_params,
    so2_coeffs,
    spa_region,
)

# Module -> the public names it provides, resolved by __getattr__ (PEP 562).
_LAZY = {
    "forms": ("exact_witness_entries",),
    "linalg": ("is_psd", "min_eigenvalue", "partial_transpose", "trace_pair"),
    "maps": (
        "LinearMap3",
        "apply_D",
        "apply_phi",
        "apply_phi_tilde",
        "improper_rotation",
        "phi_from_rotation",
        "phi_map",
        "phi_tilde_map",
        "rotation_block",
        "so2_rotation",
        "stochastic_matrix",
    ),
    "oracles": (
        "ProductVectorPair",
        "SeeSawConfig",
        "min_product_expectation",
        "span_rank",
        "zero_product_vectors",
    ),
    "witnesses": (
        "BipartiteState",
        "DecompositionCertificate",
        "SpaComponents",
        "SpaResult",
        "WitnessMatrix",
        "choi_witness",
        "critical_p_from_witness",
        "decompose_tilde",
        "is_cp_choi",
        "is_ppt",
        "rho_eps",
        "sigma_pair",
        "spa_mix",
        "spa_state",
        "witness_matrix",
        "witness_tilde_matrix",
        "witness_u",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


__version__ = "0.1.0"
