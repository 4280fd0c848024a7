"""Wendt's binomial circulant determinant and the vanishing classification.

W_m is the determinant of the m x m circulant whose first row is
(C(m,0), C(m,1), ..., C(m,m-1)).  It vanishes exactly when 6 divides m,
which drives the full classification of when the order-k Steiner
distance hyperdeterminant of a tree on n vertices is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import circulant, circulant_det_oracle, det_exact


def wendt_matrix(m: int):
    if m < 1:
        raise ValueError("m must be at least 1")
    return circulant([math.comb(m, j) for j in range(m)])


def wendt(m: int) -> int:
    """Exact value of Wendt's determinant W_m."""
    return det_exact(wendt_matrix(m))


def wendt_oracle(m: int) -> int:
    """Independent W_m: the circulant eigenvalue product as the exact resultant
    Res(x^m - 1, sum_{j<m} C(m, j) x^j), by Euclid over Q (`circulant_det_oracle`)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return circulant_det_oracle([math.comb(m, j) for j in range(m)])


def lehmer_vanishes(m: int) -> bool:
    """Whether W_m = 0, decided arithmetically: true exactly when 6 | m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return m % 6 == 0


# branch labels for the vanishing classification
BRANCH_SINGLETON = "n=1"
BRANCH_ODD_ORDER = "odd k, n >= 3"
BRANCH_WENDT = "k = 1 (mod 6), n = 2"
BRANCH_NONZERO = "nonvanishing"


@dataclass(frozen=True)
class VanishingVerdict:
    """Classification of whether the order-k hyperdeterminant vanishes on n vertices."""

    k: int
    n: int
    vanishes: bool
    branch: str

    def to_json_dict(self) -> dict:
        return {"k": self.k, "n": self.n, "vanishes": self.vanishes, "branch": self.branch}


def theorem1_vanishes(k: int, n: int) -> VanishingVerdict:
    """Decide vanishing of the order-k Steiner distance hyperdeterminant.

    Holds for every tree on n vertices (not for K_3 at k = 3): the answer
    depends only on (k, n).  Zero cases: n = 1; odd k with n >= 3; and
    n = 2 with k = 1 (mod 6), where the value is a signed Wendt determinant.
    """
    if k < 2:
        raise ValueError("order k must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return VanishingVerdict(k, n, True, BRANCH_SINGLETON)
    if k % 2 == 1 and n >= 3:
        return VanishingVerdict(k, n, True, BRANCH_ODD_ORDER)
    if n == 2 and lehmer_vanishes(k - 1):
        return VanishingVerdict(k, n, True, BRANCH_WENDT)
    return VanishingVerdict(k, n, False, BRANCH_NONZERO)
