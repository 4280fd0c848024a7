"""Spectra of Steiner distance hypermatrices.

Closed forms: the spectrum of the all-ones hypermatrix J_n^k, listed
over its index set (zero, and (1 + sum_i w^{a_i})^{k-1} over
a in Z_{k-1}^{n-1}, one entry per multiset of residues with its integer
multiplicity), the real spectrum of the two-vertex family
D_k(K_2) = J - I, and the block-matrix route that reaches the same
eigenvalues through a 2(k-1) x 2(k-1) integer matrix: the very Macaulay
matrix of D_k(K_2) whose determinant `hyperdet` takes.  An explicit
unimodular similarity takes it to block lower triangular form with
diagonal blocks -I_{k-1} and Wendt's circulant W_{k-1}, checked exactly
in integers at every k, so hyperdet(D_k(K_2)) = (-1)^{k-1} W_{k-1}.
`edge_charpoly` gives the exact integer polynomial
Q_{k-1} = det(tI - W_{k-1}) whose roots are the nontrivial D_k(K_2)
eigenvalues, from their power sums by Newton's identities; the float
eigenvalue lists serve output only.

Numerics: an NQZ-style power iteration giving float64 Collatz-Wielandt bounds
(rounding not covered: ROADMAP item 21) on the spectral radius of any nonnegative
symmetric hypermatrix whose slices each carry a positive off-diagonal entry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .exact import IntMatrix
from .graphs import complete_graph
from .hypermatrix import (
    SymmetricHypermatrix,
    build_steiner_hypermatrix,
    multinomial_weight,
    multisets,
)
from .resultant import gradient_system, macaulay_matrix
from .wendt import wendt_matrix


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its positive integer multiplicity."""

    value: complex
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity <= 0:
            raise ValueError("multiplicity must be positive")


def charpoly_allones(n: int, k: int) -> list[EigenPair]:
    """Eigenvalues of the order-k dimension-n all-ones hypermatrix.

    With m = k - 1 and w = e^{2 pi i/m}: zero with multiplicity
    (n-1)m^{n-1}, then the m^{n-1} values (1 + sum_i w^{a_i})^m over
    a in Z_m^{n-1}, one entry per multiset c of n - 1 residues carrying
    `multinomial_weight(c)`, the number of a that sort to c.  So every
    multiplicity is an integer and the total is n m^{n-1}; equal values
    from different c stay separate entries.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 2:
        raise ValueError("order k must be at least 2")
    m = k - 1
    powers = [cmath.exp(2j * math.pi * a / m) for a in range(m)]
    pairs = [EigenPair(0j, (n - 1) * m ** (n - 1))]
    for c in multisets(m, n - 1):
        s = 1 + sum(powers[a % m] for a in c)
        pairs.append(EigenPair(s**m, multinomial_weight(c)))
    return pairs


def charpoly_D_dim2(k: int) -> list[EigenPair]:
    """Spectrum of D_k(K_2) = J - I, real, ascending by (value, multiplicity).

    With m = k - 1: -1 on the -I_m block, and the eigenvalues
    (1 + w^d)^m - 1 = (-1)^d (2 cos(pi d/m))^m - 1, d in Z_m, of Wendt's
    symmetric circulant W_m: 2^m - 1 once (d = 0), -1 at d = m/2 for even
    m, and each 1 <= d < m/2 twice (d and m - d).  From m = 1024 on
    2^m - 1 is past the float64 limit, so such orders are refused.
    """
    if k < 2:
        raise ValueError("order k must be at least 2")
    m = k - 1
    if m >= 1024:
        raise ValueError(f"order k = {k} puts 2^{m} - 1 past the float64 limit: need k <= 1024")
    pairs = [EigenPair(-1.0, m + (m + 1) % 2), EigenPair(2.0**m - 1, 1)]
    for d in range(1, (m + 1) // 2):
        pairs.append(EigenPair((-1) ** d * (2 * math.cos(math.pi * d / m)) ** m - 1, 2))
    return sorted(pairs, key=lambda p: (p.value, p.multiplicity))


def spectral_radius_K2(k: int) -> int:
    """Closed-form spectral radius of D_k(K_2)."""
    if k < 2:
        raise ValueError("order k must be at least 2")
    return 2 ** (k - 1) - 1


def _from_power_sums(p) -> tuple:
    """Ascending coefficients of the monic integer polynomial whose roots have the power
    sums p = (p_1, ..., p_n): Newton's j e_j = sum_i (-1)^(i-1) e_(j-i) p_i, divided exactly."""
    e = [1]
    for j in range(1, len(p) + 1):
        s = sum((-1) ** i * e[j - 1 - i] * p[i] for i in range(j))
        if s % j:
            raise ArithmeticError(f"non-integral e_{j} = {s}/{j} from the power sums {tuple(p)}")
        e.append(s // j)
    return tuple((-1) ** j * c for j, c in enumerate(e))[::-1]


def edge_charpoly(k: int) -> tuple:
    """Ascending integer coefficients of Q_m(t) = prod_d (t - ((1 + w^d)^m - 1)),
    m = k - 1, w = e^{2 pi i/m}: the nontrivial part of the D_k(K_2) spectrum,
    Q_m(t) = det(tI - W_m).  The mu_d = (1 + w^d)^m have the power sums
    p_j = m sum_{i = 0 mod m} C(mj, i), as sum_d w^(di) is m if m | i, else 0;
    Newton's identities give P(t) = prod_d (t - mu_d), and Q_m(t) = P(t + 1)."""
    if k < 2:
        raise ValueError("order k must be at least 2")
    m = k - 1
    p = [m * sum(math.comb(m * j, i) for i in range(0, m * j + 1, m)) for j in range(1, m + 1)]
    coeffs = _from_power_sums(p)
    return tuple(sum(c * math.comb(j, i) for j, c in enumerate(coeffs)) for i in range(k))


# ---------------------------------------------------------------------------
# NQZ power iteration


@dataclass
class RadiusEnclosure:
    """Float64 Collatz-Wielandt bounds [lo, hi] on a spectral radius, value = midpoint."""

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
    """Iteration cap reached or width stalled; carries the last enclosure."""

    def __init__(self, message: str, enclosure: RadiusEnclosure):
        super().__init__(message)
        self.enclosure = enclosure


NQZ_MAX_ITER = 10_000
# default enclosure width of the NQZ radius for sweeps, rankings and the CLI
NQZ_TOL = 1e-8


def nqz_spectral_radius(a: SymmetricHypermatrix, tol: float) -> RadiusEnclosure:
    """Spectral radius of a nonnegative symmetric hypermatrix, with Collatz-Wielandt bounds.

    Power iteration x <- normalize(contract(a, x)^(1/(k-1))) from the
    all-ones vector.  Each step yields lo = min_i y_i/x_i^{k-1} and
    hi = max_i.  In exact arithmetic the radius lies in [lo, hi] and the
    width shrinks monotonically; here both are float64 ratios and rounding
    is not accounted for (ROADMAP item 21).  Stops when hi - lo < tol.
    Raises NoConvergence after NQZ_MAX_ITER steps, or as soon as the width
    stops shrinking while tol is at most 8 ulp of hi: below the float64
    resolution of the radius, more steps cannot close the gap.
    """
    if not tol > 0:  # also rejects NaN
        raise ValueError("tol must be positive")
    if a.dim < 2:
        raise ValueError("dimension must be at least 2")
    km1 = a.order - 1
    # row i holds every entry whose index has i, off-diagonal iff x_i's exponent is below k - 1
    _, _, counts, weights = a.gradient_forms()
    if (weights < 0).any():
        key, v = next((key, v) for key, v in a.entries.items() if v < 0)
        raise ValueError(f"negative entry {v} at {key}")
    off_diagonal = ((weights > 0) & (counts.T < km1)).any(axis=1)
    if not off_diagonal.all():
        raise ValueError(f"slice {off_diagonal.argmin() + 1} has no positive off-diagonal entry")

    x = np.ones(a.dim)
    history = []
    prev_width = math.inf
    for it in range(1, NQZ_MAX_ITER + 1):
        y = a.contract(x)
        ratios = y / x**km1
        lo, hi = float(ratios.min()), float(ratios.max())
        width = hi - lo
        # the bounds only tighten; tiny slack absorbs roundoff
        if width > prev_width + 1e-9 * (1.0 + abs(hi)):
            raise ArithmeticError(f"enclosure widened at iteration {it}: {width} > {prev_width}")
        history.append((lo, hi))
        enc = RadiusEnclosure((lo + hi) / 2, lo, hi, it, history)
        if width < tol:
            return enc
        if width >= prev_width and tol <= 8 * math.ulp(hi):
            raise NoConvergence(
                f"tol {tol} is below the float64 resolution of the radius {hi}: "
                f"the width stalled at {width} after {it} iterations",
                enc,
            )
        prev_width = width
        x = y ** (1.0 / km1)
        x /= x.max()
    raise NoConvergence(f"no convergence to {tol} within {NQZ_MAX_ITER} iterations", enc)


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
