"""Spectra of Steiner distance hypermatrices.

Closed forms: the characteristic polynomial of the all-ones hypermatrix
J_n^k (eigenvalues indexed by weak compositions of n into k-1 parts, the
count vectors of the size-n multisets over 1..k-1, with rational
multiplicities), the two-vertex family D_k(K_2) obtained from it by a
shift of -1, and the block-matrix route that reaches the same eigenvalues
through a 2(k-1) x 2(k-1) integer matrix: the Sylvester matrix of
D_k(K_2) (`sylvester2.sylvester_matrix`), whose determinant is also the
hyperdeterminant.

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

import mpmath
import numpy as np

from .exact import IntMatrix, char_poly_exact
from .hypermatrix import SymmetricHypermatrix, multinomial_weight, multisets
from .sylvester2 import sylvester_matrix

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


def total_multiplicity(pairs: Sequence[EigenPair]) -> Fraction:
    return sum((p.multiplicity for p in pairs), Fraction(0))


def multiset_equal(a: Sequence[EigenPair], b: Sequence[EigenPair]) -> bool:
    """Multiset equality of eigenpairs, values compared within relative MERGE_TOL."""
    am, bm = merge_eigenpairs(a), merge_eigenpairs(b)
    if len(am) != len(bm):
        return False
    mods = [abs(p.value) for p in am] + [abs(p.value) for p in bm]
    eps = MERGE_TOL * (1.0 + max(mods, default=0.0))
    return all(
        abs(pa.value - pb.value) <= eps and pa.multiplicity == pb.multiplicity
        for pa, pb in zip(am, bm)
    )


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
    if total_multiplicity(merged) != n * parts ** (n - 1):
        raise ArithmeticError("total multiplicity mismatch after merging")
    for p in merged:
        if p.multiplicity.denominator != 1:
            raise ArithmeticError(f"non-integral merged multiplicity {p.multiplicity}")
    return merged


def eigenvalues_K2(k: int) -> list[EigenPair]:
    """Spectrum of the order-k Steiner distance hypermatrix of an edge.

    -1 with multiplicity k-1, together with (1 + w^j)^{k-1} - 1 for
    j = 0..k-2, w = e^{2 pi i/(k-1)}.
    """
    if k < 2:
        raise ValueError("order k must be at least 2")
    parts = k - 1
    pairs = [EigenPair(-1 + 0j, Fraction(parts))]
    for j in range(parts):
        w = cmath.exp(2j * math.pi * j / parts)
        pairs.append(EigenPair((1 + w) ** parts - 1, Fraction(1)))
    return merge_eigenpairs(pairs)


def charpoly_D_dim2(k: int) -> list[EigenPair]:
    """Spectrum of D_k(K_2) as the all-ones spectrum at n = 2 shifted by -1."""
    shifted = [EigenPair(p.value - 1, p.multiplicity) for p in charpoly_allones(2, k)]
    return merge_eigenpairs(shifted)


def spectral_radius_K2(k: int) -> int:
    """Closed-form spectral radius of D_k(K_2)."""
    if k < 2:
        raise ValueError("order k must be at least 2")
    return 2 ** (k - 1) - 1


def constant_term(pairs: Sequence[EigenPair]) -> complex:
    """Constant term prod (-value)^multiplicity of the monic polynomial with these roots."""
    out = complex(1)
    for p in pairs:
        if p.multiplicity.denominator != 1:
            raise ValueError("constant term needs integral multiplicities")
        out *= (-p.value) ** int(p.multiplicity)
    return out


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
    shrinks monotonically.  Stops when hi - lo < tol.
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
        prev_width = width
        history.append((lo, hi))
        if width < tol:
            return RadiusEnclosure((lo + hi) / 2, lo, hi, it, history)
        x = y ** (1.0 / km1)
        x /= x.max()
    last = RadiusEnclosure((history[-1][0] + history[-1][1]) / 2, *history[-1], max_iter, history)
    raise NoConvergence(f"no convergence to {tol} within {max_iter} iterations", last)


# ---------------------------------------------------------------------------
# Block-matrix route to the K_2 spectrum

BLOCK_CHECK_MAX_K = 14


def block_matrix_K2(k: int) -> IntMatrix:
    """The 2(k-1) x 2(k-1) block matrix [[A, B+I], [A+I, B]].

    A and B are the strictly triangular binomial bands A[i][j] = C(k-1, j-i)
    (j > i) and B[i][j] = C(k-1, k-1-(i-j)) (j < i), so this is the
    Sylvester matrix of D_k(K_2), whose profile is (0, 1, ..., 1, 0).
    """
    if k < 2:
        raise ValueError("order k must be at least 2")
    return sylvester_matrix((0,) + (1,) * (k - 1) + (0,), k)


def _poly_from_roots_mpmath(roots) -> list:
    coeffs = [mpmath.mpc(1)]
    for r in roots:
        nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    return coeffs

def block_matrix_check(k: int) -> bool:
    """Confirm the block matrix [[A, B+I],[A+I, B]] carries the closed-form spectrum.

    Compares the exact integer characteristic polynomial of the block
    matrix against the monic polynomial rebuilt at high precision from
    the closed-form roots: -1 (multiplicity k-1) and (1+w^j)^{k-1} - 1.
    """
    if k < 2:
        raise ValueError("order k must be at least 2")
    if k > BLOCK_CHECK_MAX_K:
        raise ValueError(f"exact char poly path capped at k = {BLOCK_CHECK_MAX_K}")
    exact = char_poly_exact(block_matrix_K2(k))
    m = k - 1
    with mpmath.workdps(50):
        roots = [mpmath.mpc(-1)] * m
        for j in range(m):
            w = mpmath.exp(2j * mpmath.pi * j / m)
            roots.append((1 + w) ** m - 1)
        coeffs = _poly_from_roots_mpmath(roots)
        rounded = []
        for c in coeffs:
            n = int(mpmath.nint(mpmath.re(c)))
            if abs(c - n) > mpmath.mpf("0.25"):
                raise ArithmeticError("root-product coefficient too far from an integer")
            rounded.append(n)
    return tuple(rounded) == exact
