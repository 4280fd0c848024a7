# Spectra of the single-edge Steiner hypermatrix, three ways:
# the closed form, the shifted all-ones characteristic polynomial,
# and the NQZ power iteration converging on the spectral radius.

from steiner_spectra import (
    build_steiner_hypermatrix,
    charpoly_D_dim2,
    constant_term,
    eigenvalues_K2,
    hyperdet,
    multiset_equal,
    nqz_spectral_radius,
    path_graph,
    spectral_radius_K2,
)

for k in (3, 4, 5, 6):
    closed = eigenvalues_K2(k)
    bridged = charpoly_D_dim2(k)
    assert multiset_equal(closed, bridged)
    print(f"k = {k}")
    for p in sorted(closed, key=lambda p: p.value.real):
        v = p.value
        shown = f"{v.real:+.6f}" if abs(v.imag) < 1e-12 else f"{v:+.6f}"
        print(f"  eigenvalue {shown}  multiplicity {p.multiplicity}")
    det = hyperdet(build_steiner_hypermatrix(path_graph(2), k))
    print(f"  constant term {constant_term(bridged).real:+.1f}  (hyperdet {det})")
    print(f"  spectral radius 2^{k-1} - 1 = {spectral_radius_K2(k)}")
    print()

# the closed form stops at two vertices; NQZ handles any tree.
# watch the enclosure tighten on the 4-vertex star at k = 3
from steiner_spectra import tree_from_prufer

enc = nqz_spectral_radius(build_steiner_hypermatrix(tree_from_prufer((1, 1)), 3), 1e-10)
print("NQZ on the 4-vertex star, k = 3:")
for i, (lo, hi) in enumerate(enc.history[:8], start=1):
    print(f"  iter {i:>2}  [{lo:.10f}, {hi:.10f}]")
print(f"  converged to {enc.value:.10f} after {enc.iterations} iterations")
