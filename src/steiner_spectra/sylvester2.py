"""Hyperdeterminants of order-k dimension-2 symmetric hypermatrices.

A dimension-2 symmetric hypermatrix is determined by its profile
(a_0, ..., a_k), a_t being the entry with t coordinates equal to the
second index.  Its hyperdeterminant is the determinant of a 2(k-1) square
Sylvester-style matrix built from two binomial-weighted bands: the
paper's dimension-2 formula.  `hyperdet` reaches the same matrix as the
Macaulay matrix of the gradient system; this module keeps the formula
for the demos, as an independent test reference, and as the builder of
the K_2 block matrix of `spectra.block_matrix_K2`.
"""

from __future__ import annotations

import math

from .exact import IntMatrix, det_exact
from .hypermatrix import SymmetricHypermatrix


def sylvester_matrix(profile, k: int) -> IntMatrix:
    """The 2(k-1) x 2(k-1) banded matrix whose determinant is the dim-2 hyperdeterminant.

    Rows 1..k-1 shift the band (a_0, C(k-1,1)a_1, ..., C(k-1,k-2)a_{k-2}, a_{k-1})
    one column right per row; rows k..2(k-1) do the same with the band built
    from (a_1, ..., a_k).
    """
    profile = list(profile)
    if len(profile) != k + 1:
        raise ValueError(f"profile must have length k+1 = {k + 1}, got {len(profile)}")
    if k < 2:
        raise ValueError("order must be at least 2")
    size = 2 * (k - 1)
    top = [math.comb(k - 1, t) * profile[t] for t in range(k)]
    bottom = [math.comb(k - 1, t) * profile[t + 1] for t in range(k)]
    rows = []
    for band in (top, bottom):
        for shift in range(k - 1):
            row = [0] * size
            row[shift : shift + k] = band
            rows.append(row)
    return IntMatrix(rows)


def hyperdet_dim2(a: SymmetricHypermatrix) -> int:
    """Exact hyperdeterminant of a dimension-2 symmetric hypermatrix."""
    if a.dim != 2:
        raise ValueError("hyperdet_dim2 requires dimension 2")
    return det_exact(sylvester_matrix(a.dim2_profile(), a.order))
