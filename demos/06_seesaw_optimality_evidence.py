"""Optimality evidence via zero-expectation product vectors.

A witness is optimal if its zero set {psi (x) phi : <psi phi|W|psi phi> = 0}
spans the whole 9-dimensional space.  The see-saw search collects such
vectors numerically: the reduction witness reaches span rank 9, the two Choi
witnesses stop at 7, and intermediate boundary angles are recorded as
measured (no asserted target).

Run:  python demos/06_seesaw_optimality_evidence.py   (takes a few seconds)
"""

import numpy as np

from qutritwit import (
    MapParams,
    SeeSawConfig,
    min_product_expectation,
    so2_coeffs,
    span_rank,
    witness_matrix,
    zero_product_vectors,
)

cfg = SeeSawConfig(rng_seed=7)

print("block-positivity estimates (upper bounds on the product minimum):")
for label, p in [("reduction", MapParams(0, 1, 1)), ("Choi", MapParams(1, 1, 0)),
                 ("inside the set", MapParams(0.7, 0.8, 0.5)), ("outside the set", MapParams(0.5, 0.1, 0.1))]:
    est = min_product_expectation(witness_matrix(p).matrix, cfg)
    print(f"  {label:15s}: {est.value:+.3e}")

print("\nzero-vector harvest and span ranks (200 restarts, seed 7):")
for abc in [(0, 1, 1), (1, 1, 0), (1, 0, 1)]:
    W = witness_matrix(MapParams(*abc)).matrix
    zeros = zero_product_vectors(W, cfg)
    print(f"  W{abc}: {len(zeros):3d} distinct zeros, span rank {span_rank(zeros)}")

print("\nmeasured span ranks along the rotation boundary (recorded, not asserted):")
for alpha in np.linspace(0, np.pi, 7):
    p = so2_coeffs(alpha)
    zeros = zero_product_vectors(witness_matrix(p).matrix, cfg)
    a, b, c = p.asfloats()
    print(f"  alpha = {alpha:5.3f}  (a,b,c) = ({a:.3f}, {b:.3f}, {c:.3f})  rank = {span_rank(zeros)}")
