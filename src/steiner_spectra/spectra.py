"""Spectra of Steiner distance hypermatrices.

Closed forms: the characteristic polynomial of the all-ones hypermatrix
J_n^k (eigenvalues indexed by weak compositions of n into k-1 parts, the
count vectors of the size-n multisets over 1..k-1, with rational
multiplicities), the two-vertex family D_k(K_2) obtained from it by a
shift of -1, and the block-matrix route that reaches the same eigenvalues
through a 2(k-1) x 2(k-1) integer matrix: the very Macaulay matrix of
D_k(K_2) whose determinant `hyperdet` takes.  An explicit unimodular
similarity takes it to block lower triangular form with diagonal blocks
-I_{k-1} and Wendt's circulant W_{k-1}, checked exactly in integers at
every k, so hyperdet(D_k(K_2)) = (-1)^{k-1} W_{k-1}.  `edge_charpoly`
gives the exact integer polynomial Q_{k-1} = det(tI - W_{k-1}) whose roots
are the nontrivial D_k(K_2) eigenvalues, from the resultant oracle alone;
the float eigenvalue lists serve output only.

Numerics: an NQZ-style power iteration producing certified enclosures of
the spectral radius of any nonnegative symmetric hypermatrix whose slices
each carry a positive off-diagonal entry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact import IntMatrix, circulant_det_oracle
from .graphs import complete_graph
from .hypermatrix import (
    SymmetricHypermatrix,
    build_steiner_hypermatrix,
    multinomial_weight,
    multisets,
)
from .resultant import gradient_system, macaulay_matrix
from .wendt import wendt_matrix

MERGE_TOL = 1e-9


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its (exact, positive, rational) multiplicity."""

    value: complex
    multiplicity: Fraction

    def __post_init__(self):
        if self.multiplicity <= 0:
            raise ValueError("multiplicity must be positive")


def merge_eigenpairs(pairs: Sequence[EigenPair]) -> list[EigenPair]:
    """Sum multiplicities of values equal within MERGE_TOL*(1 + max modulus)."""
    if not pairs:
        return []
    eps = MERGE_TOL * (1.0 + max(abs(p.value) for p in pairs))
    ordered = sorted(pairs, key=lambda p: (p.value.real, p.value.imag))
    merged: list[list] = []
    for p in ordered:
        for cluster in merged:
            if abs(cluster[0] - p.value) <= eps:
                cluster[1] += p.multiplicity
                break
        else:
            merged.append([p.value, p.multiplicity])
    return [EigenPair(v, m) for v, m in merged]


def charpoly_allones(n: int, k: int) -> list[EigenPair]:
    """Eigenvalues of the order-k dimension-n all-ones hypermatrix.

    Zero with multiplicity (n-1)(k-1)^{n-1}, plus one value per weak
    composition r of n into k-1 parts: (sum_j r_j w^j)^{k-1} with
    w = e^{2 pi i/(k-1)}, carrying multiplicity multinomial(n; r)/(k-1).
    The weak compositions are the count vectors of the size-n multisets
    over 1..k-1 (r_j = how often j occurs), and multinomial(n; r) is the
    multiset's `multinomial_weight`.  Merged multiplicities are integral;
    the total is n(k-1)^{n-1}.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 2:
        raise ValueError("order k must be at least 2")
    parts = k - 1
    omega = cmath.exp(2j * math.pi / parts)
    powers = [omega**j for j in range(1, parts + 1)]
    pairs = []
    zero_mult = Fraction((n - 1) * parts ** (n - 1))
    if zero_mult > 0:
        pairs.append(EigenPair(0j, zero_mult))
    for ms in multisets(parts, n):
        s = sum(ms.count(j) * w for j, w in enumerate(powers, 1))
        pairs.append(EigenPair(s**parts, Fraction(multinomial_weight(ms), parts)))
    merged = merge_eigenpairs(pairs)
    if sum(p.multiplicity for p in merged) != n * parts ** (n - 1):
        raise ArithmeticError("total multiplicity mismatch after merging")
    for p in merged:
        if p.multiplicity.denominator != 1:
            raise ArithmeticError(f"non-integral merged multiplicity {p.multiplicity}")
    return merged


def charpoly_D_dim2(k: int) -> list[EigenPair]:
    """Spectrum of D_k(K_2) as the all-ones spectrum at n = 2 shifted by -1."""
    shifted = [EigenPair(p.value - 1, p.multiplicity) for p in charpoly_allones(2, k)]
    return merge_eigenpairs(shifted)


def spectral_radius_K2(k: int) -> int:
    """Closed-form spectral radius of D_k(K_2)."""
    if k < 2:
        raise ValueError("order k must be at least 2")
    return 2 ** (k - 1) - 1


def edge_charpoly(k: int) -> tuple:
    """Ascending integer coefficients of Q_m(t) = prod_d (t - ((1 + w^d)^m - 1)),
    m = k - 1, w = e^{2 pi i/m}: the nontrivial part of the D_k(K_2) spectrum.

    Q_m(t) = det(tI - W_m), the circulant with first row
    (t - 1, -C(m, 1), ..., -C(m, m-1)), so `circulant_det_oracle` gives it
    at t = 0..m, a resultant with no determinant routine involved, and
    Newton's forward differences interpolate it exactly in Fractions.  A
    non-integral coefficient raises ArithmeticError.
    """
    if k < 2:
        raise ValueError("order k must be at least 2")
    m = k - 1
    row = [-math.comb(m, j) for j in range(1, m)]
    values = [circulant_det_oracle([t - 1] + row) for t in range(m + 1)]
    coeffs = [Fraction(0)] * (m + 1)
    binom = [Fraction(1)]  # ascending coefficients of C(t, j)
    for j in range(m + 1):
        for i, c in enumerate(binom):
            coeffs[i] += values[0] * c
        values = [b - a for a, b in zip(values, values[1:])]
        binom = [(lo - j * hi) / (j + 1) for lo, hi in zip([0] + binom, binom + [0])]
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError(f"non-integral coefficient in Q_{m}: {coeffs}")
    return tuple(int(c) for c in coeffs)


# ---------------------------------------------------------------------------
# NQZ power iteration


@dataclass
class RadiusEnclosure:
    """Certified enclosure [lo, hi] of a spectral radius, value = midpoint."""

    value: float
    lo: float
    hi: float
    iterations: int
    history: list = field(default_factory=list)  # (lo, hi) per iteration

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "lo": self.lo,
            "hi": self.hi,
            "iterations": self.iterations,
        }


class NoConvergence(RuntimeError):
    """Iteration cap reached; carries the last enclosure."""

    def __init__(self, message: str, enclosure: RadiusEnclosure):
        super().__init__(message)
        self.enclosure = enclosure


NQZ_MAX_ITER = 10_000
# default enclosure width of the NQZ radius for sweeps, rankings and the CLI
NQZ_TOL = 1e-8


def nqz_spectral_radius(
    a: SymmetricHypermatrix, tol: float, max_iter: int = NQZ_MAX_ITER
) -> RadiusEnclosure:
    """Spectral radius of a nonnegative symmetric hypermatrix with certified bounds.

    Power iteration x <- normalize(contract(a, x)^(1/(k-1))) from the
    all-ones vector.  Each step yields lo = min_i y_i/x_i^{k-1} and
    hi = max_i; the true radius always lies in [lo, hi], and the width
    shrinks monotonically.  Stops when hi - lo < tol.  Raises
    NoConvergence after max_iter steps, or as soon as the width stops
    shrinking while tol is at most 8 ulp of hi: below the float64
    resolution of the radius, more steps cannot close the gap.
    """
    if not tol > 0:  # also rejects NaN
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if a.dim < 2:
        raise ValueError("dimension must be at least 2")
    positive_slice = [False] * a.dim
    for key, v in a.entries.items():
        if v < 0:
            raise ValueError(f"negative entry {v} at {key}")
        if v > 0 and len(set(key)) > 1:
            for i in set(key):
                positive_slice[i - 1] = True
    if not all(positive_slice):
        bad = positive_slice.index(False) + 1
        raise ValueError(f"slice {bad} has no positive off-diagonal entry")

    km1 = a.order - 1
    x = np.ones(a.dim)
    history = []
    prev_width = math.inf
    for it in range(1, max_iter + 1):
        y = a.contract(x)
        ratios = y / x**km1
        lo, hi = float(ratios.min()), float(ratios.max())
        width = hi - lo
        # certified bounds can only tighten; tiny slack absorbs roundoff
        if width > prev_width + 1e-9 * (1.0 + abs(hi)):
            raise ArithmeticError(f"enclosure widened at iteration {it}: {width} > {prev_width}")
        stalled = width >= prev_width
        prev_width = width
        history.append((lo, hi))
        if width < tol:
            return RadiusEnclosure((lo + hi) / 2, lo, hi, it, history)
        if stalled and tol <= 8 * math.ulp(hi):
            raise NoConvergence(
                f"tol {tol} is below the float64 resolution of the radius {hi}: "
                f"the width stalled at {width} after {it} iterations",
                RadiusEnclosure((lo + hi) / 2, lo, hi, it, history),
            )
        x = y ** (1.0 / km1)
        x /= x.max()
    last = RadiusEnclosure((history[-1][0] + history[-1][1]) / 2, *history[-1], max_iter, history)
    raise NoConvergence(f"no convergence to {tol} within {max_iter} iterations", last)


# ---------------------------------------------------------------------------
# Block-matrix route to the K_2 spectrum


def block_matrix_K2(k: int) -> IntMatrix:
    """The 2(k-1) x 2(k-1) block matrix [[A, B+I], [A+I, B]]: the Macaulay
    matrix of D_k(K_2), whose determinant `hyperdet` takes.

    D_k(K_2) has profile (0, 1, ..., 1, 0), so its Sylvester bands give the
    strictly triangular binomial blocks A[i][j] = C(k-1, j-i) (j > i) and
    B[i][j] = C(k-1, k-1-(i-j)) (j < i), and A + B + I is Wendt's
    circulant W_{k-1}.
    """
    return macaulay_matrix(gradient_system(build_steiner_hypermatrix(complete_graph(2), k)))[0]


def block_matrix_check(k: int) -> bool:
    """Confirm the block matrix S = [[A, B+I],[A+I, B]] carries the closed-form spectrum.

    With the unimodular P = [[I, -I], [0, I]], P S P^-1 = [[-I, 0], [A+I, A+B+I]]:
    the check makes those two block additions on S's array and compares the
    upper block row and the lower right block, which must be Wendt's
    circulant W = `wendt_matrix(k - 1)`, exactly, so it holds at every k.
    Hence charpoly(S) = (lambda + 1)^{k-1} charpoly(W).  W's eigenvalues, the
    discrete Fourier transform of its first row, are (1+w^j)^{k-1} - 1; S's
    constant term is (-1)^{k-1} W_{k-1}, and W's Perron root, its row sum,
    is 2^{k-1} - 1.
    """
    if k < 2:
        raise ValueError("order k must be at least 2")
    m = k - 1
    s = block_matrix_K2(k)._a.copy()
    s[:m] -= s[m:]
    s[:, m:] += s[:, :m]
    upper = np.eye(m, 2 * m, dtype=int)  # the block row [I, 0]
    return np.array_equal(s[:m], -upper) and np.array_equal(s[m:, m:], wendt_matrix(m)._a)
