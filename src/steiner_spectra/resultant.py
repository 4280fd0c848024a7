"""Symmetric hyperdeterminants via the Macaulay resultant of the gradient system.

Contracting an order-k dimension-n symmetric hypermatrix with a variable
vector k-1 times yields n homogeneous forms of degree k-1; their resultant
is the symmetric hyperdeterminant.  Macaulay's formula gives it as
det(M)/det(M') at the critical degree, where M' is the minor on the
non-reduced rows; for every Steiner tree case at n = 3, 4 that minor is
singular and the ratio is 0/0.  Perturbing each form F_i by t*x_i^d
(Canny's generalized characteristic polynomial) adds t to the diagonal
of both matrices, and

    det(tI + M) = C(t) * det(tI + M')   in Z[t],

with C(0) the resultant.  Both determinants are monic in t, so the
identity survives reduction modulo any prime: one pair of charpolys mod p
gives the resultant mod p, and Chinese remaindering past a norm bound
gives the integer.  That route serves every matrix, singular minor or
not.  Macaulay matrices of at most 15 rows (on the hyperdet path, n = 3
with k = 3) still take the same two charpolys exactly over Z
(`_gcp_constant`), a remnant that goes once the benchmark's tracer
self-test stops counting that route.

Dispatch: k = 2 is an ordinary determinant, n = 2 uses the banded
Sylvester formula, and everything else within the desk-scale cap
(n <= 4, k-1 <= 5) goes through the Macaulay matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .exact import IntMatrix, _is_prime_trial, char_poly_exact, char_poly_mod, det_exact
from .hypermatrix import SymmetricHypermatrix
from .sylvester2 import hyperdet_dim2

MAX_VARS = 4
MAX_DEGREE = 5


@dataclass(frozen=True)
class HomogeneousSystem:
    """n integer forms, all homogeneous of the same degree, in n variables.

    Each form is a dict {exponent tuple: nonzero integer coefficient}.
    """

    nvars: int
    degree: int
    polys: tuple

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if len(self.polys) != self.nvars:
            raise ValueError("polynomial count must equal variable count")
        for p in self.polys:
            for expo, c in p.items():
                if len(expo) != self.nvars or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent vector {expo}")
                if sum(expo) != self.degree:
                    raise ValueError(f"monomial {expo} is not of degree {self.degree}")
                if not isinstance(c, int) or c == 0:
                    raise ValueError("coefficients must be nonzero integers")


def gradient_system(a: SymmetricHypermatrix) -> HomogeneousSystem:
    """The forms (contract(a, x))_i, i = 1..n, expanded symbolically."""
    exponents, coeffs, _, _ = a.gradient_forms()
    polys = tuple({e: c for e, c in zip(exponents, row) if c} for row in coeffs)
    return HomogeneousSystem(a.dim, a.order - 1, polys)


def _monomials(nvars: int, total: int) -> list:
    """Exponent vectors of the given total degree, graded lex, largest first."""
    out = []
    for spots in combinations_with_replacement(range(nvars), total):
        expo = [0] * nvars
        for s in spots:
            expo[s] += 1
        out.append(tuple(expo))
    return sorted(out, reverse=True)


def _class_index(m, d: int) -> int:
    for i, e in enumerate(m):
        if e >= d:
            return i
    raise AssertionError(f"no coordinate of {m} reaches {d}")


def _is_reduced(m, d: int) -> bool:
    return sum(1 for e in m if e >= d) == 1


def macaulay_matrix(s: HomogeneousSystem) -> tuple[IntMatrix, list]:
    """The Macaulay matrix at the critical degree and the reduced-row flags.

    Rows and columns are indexed by the degree-D monomials, D = n(d-1)+1;
    the row of monomial m is (m / x_i^d) * F_i where i is the least index
    with x_i^d dividing m.
    """
    n, d = s.nvars, s.degree
    mons = _monomials(n, n * (d - 1) + 1)
    col = {m: j for j, m in enumerate(mons)}
    rows = []
    reduced = []
    for m in mons:
        i = _class_index(m, d)
        quotient = list(m)
        quotient[i] -= d
        row = [0] * len(mons)
        for expo, c in s.polys[i].items():
            target = tuple(q + e for q, e in zip(quotient, expo))
            row[col[target]] = c
        rows.append(row)
        reduced.append(_is_reduced(m, d))
    return IntMatrix(rows), reduced


def _macaulay_size(s: HomogeneousSystem) -> int:
    """Row count of the Macaulay matrix without building it."""
    n, d = s.nvars, s.degree
    return math.comb(n * (d - 1) + 1 + n - 1, n - 1)


def _nonreduced_minor(matrix: IntMatrix, reduced: list) -> IntMatrix | None:
    """M', the principal minor on the non-reduced rows, or None when empty."""
    keep = [i for i, r in enumerate(reduced) if not r]
    return IntMatrix([[matrix[i, j] for j in keep] for i in keep]) if keep else None


def _trailing_terms(pp, qq):
    """Trailing coefficients (a, b) of charpoly_M and charpoly_M' at one
    order, or None when charpoly_M vanishes to a higher order (C(0) = 0).

    det(tI + M) = (-1)^N charpoly_M(-t), so its t^r coefficient is
    (-1)^(N + r) times that of charpoly_M, and C(0) = (-1)^(N - N') a / b:
    no negated copy of M is needed.
    """
    ord_p = next(i for i, c in enumerate(pp) if c)
    ord_q = next(i for i, c in enumerate(qq) if c)
    if ord_p < ord_q:  # impossible when the Z[t] identity holds
        raise ArithmeticError("perturbed Macaulay ratio is not a polynomial")
    return None if ord_p > ord_q else (pp[ord_p], qq[ord_q])


# At or below this many Macaulay rows (on the hyperdet path, n = 3 with
# k = 3) the charpolys are taken exactly over Z.  This is no faster than
# the CRT (about 9 against 4 ms at 15 rows); it stays only because
# perfbench's tracer self-test asserts that hyperdet(D_3(P_3)) takes this
# route, and goes with that assertion (ROADMAP item 2).
GCP_EXACT_MAX_ROWS = 15


def _gcp_constant(s: HomogeneousSystem) -> int:
    """C(0) from det(tI + M) = C(t) det(tI + M'), with exact charpolys."""
    matrix, reduced = macaulay_matrix(s)
    minor = _nonreduced_minor(matrix, reduced)
    excess = sum(reduced)  # N - N'
    cap = GCP_EXACT_MAX_ROWS
    pp = char_poly_exact(matrix, max_size=cap).coeffs
    qq = char_poly_exact(minor, max_size=cap).coeffs if minor is not None else (1,)
    terms = _trailing_terms(pp, qq)
    if terms is None:
        return 0
    c, rem = divmod(terms[0], terms[1])
    if rem:
        raise ArithmeticError("perturbed Macaulay ratio is not a polynomial")
    return (-1) ** excess * c


def _modular_primes():
    """Descending primes just below 2**25, the char_poly_mod ceiling."""
    p = (1 << 25) - 1
    while p > (1 << 24):
        if _is_prime_trial(p):
            yield p
        p -= 2
    raise ArithmeticError("prime pool exhausted")  # pragma: no cover


def _eigenvalue_bound(m: IntMatrix) -> int:
    """min(||m||_1, ||m||_inf): no eigenvalue of m is larger in absolute value."""
    rows = m.to_lists()
    return min(
        max(sum(map(abs, r)) for r in rows),
        max(sum(map(abs, c)) for c in zip(*rows)),
    )


def _gcp_constant_modular(s: HomogeneousSystem) -> int:
    """C(0) from det(tI + M) = C(t) det(tI + M'), remaindered over primes.

    Mod p, C(0) is 0 when det(tI + M) vanishes to a higher order in t than
    det(tI + M'), else the signed ratio of their trailing coefficients
    (`_trailing_terms`).
    """
    matrix, reduced = macaulay_matrix(s)
    minor = _nonreduced_minor(matrix, reduced)
    excess = sum(reduced)  # N - N'
    bound = 2 * _eigenvalue_bound(matrix) ** excess
    sign = (-1) ** excess
    residue, modulus = 0, 1
    for p in _modular_primes():
        pp = char_poly_mod(matrix, p)
        qq = char_poly_mod(minor, p) if minor is not None else (1,)
        terms = _trailing_terms(pp, qq)
        c = 0 if terms is None else sign * terms[0] * pow(terms[1], p - 2, p) % p
        residue += modulus * ((c - residue) * pow(modulus, -1, p) % p)
        modulus *= p
        if modulus > bound:
            break
    if residue > modulus // 2:
        residue -= modulus
    return residue


def macaulay_resultant(s: HomogeneousSystem) -> int:
    """Exact resultant of the integer system, by the multi-modular route.

    For each prime p from just below 2**25 downward, the resultant mod p
    is C(0) mod p from the perturbation identity in the module docstring
    (up to GCP_EXACT_MAX_ROWS Macaulay rows, C(0) is instead read off
    exact integer charpolys by `_gcp_constant`).
    Every prime is usable: det(tI + M') is monic, so dividing it out of
    det(tI + M) is exact over F_p as over Z, whether or not M' is
    singular mod p.  The roots of det(tI + M') are among those of
    det(tI + M), so C(0) is a product of N - N' eigenvalues of -M, each at
    most B = min(||M||_1, ||M||_inf) in absolute value; remaindering stops
    once the modulus exceeds 2 * B^(N - N'), and the symmetric residue is
    the resultant.
    """
    if s.nvars > MAX_VARS or s.degree > MAX_DEGREE:
        raise ValueError(
            f"resultant capped at n <= {MAX_VARS}, degree <= {MAX_DEGREE}; "
            f"got n={s.nvars}, degree={s.degree}"
        )
    if any(not p for p in s.polys):
        return 0  # a vanishing form forces a nontrivial common root
    if _macaulay_size(s) <= GCP_EXACT_MAX_ROWS:
        return _gcp_constant(s)
    return _gcp_constant_modular(s)


def _as_matrix(a: SymmetricHypermatrix) -> IntMatrix:
    n = a.dim
    return IntMatrix([[a.entry((i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)])


def check_hyperdet_cap(n: int, k: int) -> None:
    """Refuse an (n, k) that no hyperdet route serves at desk scale."""
    if not (k == 2 or n == 2 or (n <= MAX_VARS and k - 1 <= MAX_DEGREE)):
        raise ValueError(
            f"hyperdet cap: need k = 2, n = 2, or n <= {MAX_VARS} with "
            f"k - 1 <= {MAX_DEGREE}; got n={n}, k={k}"
        )


def hyperdet_route(a: SymmetricHypermatrix) -> str:
    """Which computation serves hyperdet(a): matrix-det, sylvester, or macaulay."""
    check_hyperdet_cap(a.dim, a.order)
    if a.order == 2:
        return "matrix-det"
    if a.dim == 2:
        return "sylvester"
    return "macaulay"


def hyperdet(a: SymmetricHypermatrix):
    """Qi's symmetric hyperdeterminant, exact.

    Coincides with the ordinary determinant at k = 2 and with the
    dimension-2 Sylvester formula at n = 2.
    """
    route = hyperdet_route(a)
    if route == "matrix-det":
        return det_exact(_as_matrix(a))
    if route == "sylvester":
        return hyperdet_dim2(a)
    return macaulay_resultant(gradient_system(a))
