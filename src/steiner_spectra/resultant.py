"""Symmetric hyperdeterminants via the Macaulay resultant of the gradient system.

Contracting an order-k dimension-n symmetric hypermatrix with a variable
vector k-1 times yields n homogeneous forms of degree k-1; their resultant
is the symmetric hyperdeterminant, and every hyperdet is computed so.
Macaulay's formula gives it as det(M)/det(M') at the critical degree,
where M' is the minor on the non-reduced rows.  M is indexed by the
monomials of `hypermatrix.exponent_vectors`, the enumerator the gradient
table uses too.  At k = 2 (M is the hypermatrix) and n = 2 (M is
the Sylvester matrix of `sylvester2`, which for D_k(K_2) is the block
matrix of `spectra.block_matrix_K2`) every row is reduced, M' is empty
and the resultant is det(M).  For every Steiner tree case at
n = 3, 4 the minor is singular and the ratio is 0/0.  Perturbing each
form F_i by t*x_i^d (Canny's generalized characteristic polynomial) adds
t to the diagonal of both matrices, and

    det(tI + M) = C(t) * det(tI + M')   in Z[t],

with C(0) the resultant.  Both determinants are monic in t, so the
identity survives reduction modulo any prime: one pair of charpolys mod p
gives the resultant mod p, and Chinese remaindering past
2 ||M||_inf^(N - N') gives the integer, with ||M||_inf read off the
forms.  The primes come down from `exact._float_exact_bound` of M's row
count, about 2**21.9 at 560 rows, the bound below which `char_poly_mod`
takes them: there its float64 BLAS products are exact.  Macaulay
matrices of at most 15 rows (on the hyperdet path, n = 3 with k = 3)
still take the same two charpolys exactly over Z (`_gcp_constant`), a
remnant that goes once the benchmark's tracer self-test stops counting
that route.

One cap, `check_hyperdet_cap` (k = 2, n = 2, or n <= 4 with k - 1 <= 5),
bounds `hyperdet` and `macaulay_resultant` alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (
    IntMatrix,
    _float_exact_bound,
    _is_prime_trial,
    char_poly_exact,
    char_poly_mod,
    det_exact,
)
from .hypermatrix import SymmetricHypermatrix, exponent_vectors

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


def _class_index(m, d: int) -> int:
    for i, e in enumerate(m):
        if e >= d:
            return i
    raise AssertionError(f"no coordinate of {m} reaches {d}")


def _is_reduced(m, d: int) -> bool:
    return sum(1 for e in m if e >= d) == 1


def macaulay_matrix(s: HomogeneousSystem) -> tuple[IntMatrix, list]:
    """The Macaulay matrix at the critical degree and the reduced-row flags.

    Rows and columns are indexed by the degree-D monomials, D = n(d-1)+1,
    in `exponent_vectors` order; the row of monomial m is (m / x_i^d) * F_i
    where i is the least index with x_i^d dividing m.
    """
    n, d = s.nvars, s.degree
    mons = exponent_vectors(n, n * (d - 1) + 1)
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


def _nonreduced_minor(matrix: IntMatrix, reduced: list) -> IntMatrix | None:
    """M', the principal minor on the non-reduced rows, or None when empty."""
    keep = [i for i, r in enumerate(reduced) if not r]
    return IntMatrix([[row[j] for j in keep] for row in map(matrix.row, keep)]) if keep else None


def _trailing_terms(pp, qq):
    """Trailing coefficients (a, b) of charpoly_M and charpoly_M' at one
    order, signed so that C(0) = a / b, or None when charpoly_M vanishes to
    a higher order (C(0) = 0).

    det(tI + M) = (-1)^N charpoly_M(-t), so its t^r coefficient is
    (-1)^(N + r) times that of charpoly_M, and C(0) = (-1)^(N - N') a / b:
    no negated copy of M is needed, and N - N' is read off the lengths.
    """
    ord_p = next(i for i, c in enumerate(pp) if c)
    ord_q = next(i for i, c in enumerate(qq) if c)
    if ord_p < ord_q:  # impossible when the Z[t] identity holds
        raise ArithmeticError("perturbed Macaulay ratio is not a polynomial")
    sign = -1 if (len(pp) - len(qq)) % 2 else 1
    return None if ord_p > ord_q else (sign * pp[ord_p], qq[ord_q])


# At or below this many Macaulay rows (on the hyperdet path, n = 3 with
# k = 3) the charpolys are taken exactly over Z.  This is no faster than
# the CRT (about 9 against 4 ms at 15 rows); it stays only because
# perfbench's tracer self-test asserts that hyperdet(D_3(P_3)) takes this
# route, and goes with that assertion (ROADMAP item 2).
GCP_EXACT_MAX_ROWS = 15


def _gcp_constant(matrix: IntMatrix, reduced: list) -> int:
    """C(0) from det(tI + M) = C(t) det(tI + M'), with exact charpolys."""
    minor = _nonreduced_minor(matrix, reduced)
    pp = char_poly_exact(matrix)
    qq = char_poly_exact(minor) if minor is not None else (1,)
    terms = _trailing_terms(pp, qq)
    if terms is None:
        return 0
    c, rem = divmod(terms[0], terms[1])
    if rem:
        raise ArithmeticError("perturbed Macaulay ratio is not a polynomial")
    return c


def _modular_primes(rows: int):
    """Descending odd primes below `_float_exact_bound(rows)`, down to half of it.

    char_poly_mod takes exactly these primes for a matrix of `rows` rows,
    or fewer: about 2**21.9 at 560 rows and 2**21 at the 2000-row ceiling.
    """
    top = _float_exact_bound(rows)
    p = top - 1 if top % 2 == 0 else top - 2
    while p > top // 2:
        if _is_prime_trial(p):
            yield p
        p -= 2
    raise ArithmeticError("prime pool exhausted")  # pragma: no cover


def _gcp_constant_modular(s: HomogeneousSystem, matrix: IntMatrix, reduced: list) -> int:
    """C(0) from det(tI + M) = C(t) det(tI + M'), remaindered over primes,
    for M = macaulay_matrix(s).

    Mod p, C(0) is 0 when det(tI + M) vanishes to a higher order in t than
    det(tI + M'), else the signed ratio of their trailing coefficients
    (`_trailing_terms`).
    """
    minor = _nonreduced_minor(matrix, reduced)
    # ||M||_inf: a row of M is one form's coefficients in distinct columns,
    # and every form owns at least the row of x_i^D
    norm = max(sum(map(abs, f.values())) for f in s.polys)
    bound = 2 * norm ** sum(reduced)  # N - N' eigenvalues
    residue, modulus = 0, 1
    for p in _modular_primes(matrix.rows):
        pp = char_poly_mod(matrix, p)
        qq = char_poly_mod(minor, p) if minor is not None else (1,)
        terms = _trailing_terms(pp, qq)
        c = 0 if terms is None else terms[0] * pow(terms[1], p - 2, p) % p
        residue += modulus * ((c - residue) * pow(modulus, -1, p) % p)
        modulus *= p
        if modulus > bound:
            break
    if residue > modulus // 2:
        residue -= modulus
    return residue


def macaulay_resultant(s: HomogeneousSystem) -> int:
    """Exact resultant of a system within the hyperdet cap at k = degree + 1.

    The Macaulay matrix M is built once.  When M' is empty the resultant
    is det(M).  Otherwise it is C(0) of the perturbation identity, from
    exact charpolys up to GCP_EXACT_MAX_ROWS rows (`_gcp_constant`) and
    else mod primes (`_modular_primes`), taken downward from the bound
    below which char_poly_mod of M accepts them.  Every prime is usable:
    det(tI + M') is monic, so dividing it out of det(tI + M) is exact over
    F_p as over Z, whether or not M' is singular mod p.  The roots of
    det(tI + M') are among those of det(tI + M), so C(0) is a product of
    N - N' eigenvalues of -M, each at most B = ||M||_inf = max_i ||F_i||_1
    in absolute value; remaindering stops once the modulus exceeds
    2 * B^(N - N'), and the symmetric residue is the resultant.
    """
    check_hyperdet_cap(s.nvars, s.degree + 1)
    if any(not p for p in s.polys):
        return 0  # a vanishing form forces a nontrivial common root
    matrix, reduced = macaulay_matrix(s)
    if all(reduced):
        return det_exact(matrix)
    if matrix.rows <= GCP_EXACT_MAX_ROWS:
        return _gcp_constant(matrix, reduced)
    return _gcp_constant_modular(s, matrix, reduced)


def check_hyperdet_cap(n: int, k: int) -> None:
    """Refuse an (n, k) beyond desk scale, for hyperdet and macaulay_resultant alike."""
    if not (k == 2 or n == 2 or (n <= MAX_VARS and k - 1 <= MAX_DEGREE)):
        raise ValueError(
            f"hyperdet cap: need k = 2, n = 2, or n <= {MAX_VARS} with "
            f"k - 1 <= {MAX_DEGREE}; got n={n}, k={k}"
        )


def hyperdet_route(a: SymmetricHypermatrix) -> str:
    """Refuse a over the cap; else name its Macaulay matrix M: matrix-det
    (k = 2, M = a) or sylvester (n = 2), both det(M), or macaulay."""
    check_hyperdet_cap(a.dim, a.order)
    if a.order == 2:
        return "matrix-det"
    if a.dim == 2:
        return "sylvester"
    return "macaulay"


def hyperdet(a: SymmetricHypermatrix):
    """Qi's symmetric hyperdeterminant, exact: the resultant of the gradient system.

    Coincides with the ordinary determinant at k = 2 and with the
    dimension-2 Sylvester formula at n = 2: there M is a or that matrix.
    """
    hyperdet_route(a)
    return macaulay_resultant(gradient_system(a))
