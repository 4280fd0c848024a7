"""Wendt's determinant table and its hyperdeterminant disguise.

W_m is the determinant of the m x m circulant of binomial coefficients.
The order-k Steiner hypermatrix of a single edge has hyperdeterminant
(-1)^(k-1) W_{k-1}, so the k = 7 and k = 13 vanishing points are just
Lehmer's "6 divides m" criterion wearing a different hat.
"""

from steiner_spectra import (
    build_steiner_hypermatrix,
    hyperdet,
    lehmer_vanishes,
    path_graph,
    wendt,
)

print(f"{'m':>3}  {'W_m':>24}  6|m")
for m in range(1, 17):
    print(f"{m:>3}  {wendt(m):>24}  {lehmer_vanishes(m)}")

print()
print(f"{'k':>3}  {'hyperdet D_k(K2)':>24}  {'(-1)^(k-1) W_(k-1)':>24}")
for k in range(2, 15):
    d = hyperdet(build_steiner_hypermatrix(path_graph(2), k))
    signed = (-1) ** (k - 1) * wendt(k - 1)
    assert d == signed
    print(f"{k:>3}  {d:>24}  {signed:>24}")
