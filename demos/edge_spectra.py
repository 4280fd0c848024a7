# Spectra of the single-edge Steiner hypermatrix, exactly and in floats:
# the integer polynomial Q whose roots are the nontrivial eigenvalues,
# the block matrix whose characteristic polynomial is (t + 1)^(k-1) Q,
# the real closed-form eigenvalues `spectrum` prints, and the NQZ power
# iteration converging on the spectral radius.

import math

import numpy as np

from steiner_spectra import (
    block_matrix_K2,
    build_steiner_hypermatrix,
    char_poly_exact,
    charpoly_D_dim2,
    edge_charpoly,
    hyperdet,
    nqz_spectral_radius,
    path_graph,
    spectral_radius_K2,
)

for k in (3, 4, 5, 6):
    m = k - 1
    q = edge_charpoly(k)
    block = char_poly_exact(block_matrix_K2(k))
    factored = np.convolve([math.comb(m, i) for i in range(m + 1)], q).tolist()
    assert list(block) == factored
    det = hyperdet(build_steiner_hypermatrix(path_graph(2), k))
    assert q[0] == det
    radius = spectral_radius_K2(k)
    assert sum(c * radius**i for i, c in enumerate(q)) == 0
    print(f"k = {k}")
    print(f"  Q(t), ascending coefficients: {q}")
    print(f"  block matrix charpoly = (t + 1)^{m} Q(t): {list(block) == factored}")
    print(f"  constant term {q[0]}  (hyperdet {det})")
    print(f"  spectral radius 2^{m} - 1 = {radius}, a root of Q")
    for p in charpoly_D_dim2(k):
        print(f"  eigenvalue {p.value:+.6f}  multiplicity {p.multiplicity}")
    print()

# the closed form stops at two vertices; NQZ handles any tree.
# watch the enclosure tighten on the 4-vertex star at k = 3
from steiner_spectra import tree_from_prufer

enc = nqz_spectral_radius(build_steiner_hypermatrix(tree_from_prufer((1, 1)), 3), 1e-10)
print("NQZ on the 4-vertex star, k = 3:")
for i, (lo, hi) in enumerate(enc.history[:8], start=1):
    print(f"  iter {i:>2}  [{lo:.10f}, {hi:.10f}]")
print(f"  converged to {enc.value:.10f} after {enc.iterations} iterations")
