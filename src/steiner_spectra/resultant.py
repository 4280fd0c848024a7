"""Symmetric hyperdeterminants via the Macaulay resultant of the gradient system.

Contracting an order-k dimension-n symmetric hypermatrix with a variable
vector k-1 times yields n homogeneous forms of degree k-1; their resultant
is the symmetric hyperdeterminant, and every hyperdet is computed so.
Macaulay's formula gives it as det(M)/det(M') at the critical degree,
where M' is the minor on the non-reduced rows.  M is indexed by the
monomials of `hypermatrix.exponent_vectors`, the enumerator the gradient
table uses too.  At k = 2 (M is the hypermatrix) and n = 2 (M is the
Sylvester matrix of the paper's dimension-2 formula, and for D_k(K_2) the
block matrix that `spectra.block_matrix_check` certifies) every row is
reduced, M' is empty and the resultant is det(M).  For every Steiner tree
case at n = 3, 4 the minor is singular and the ratio is 0/0.  Perturbing each
form F_i by t*x_i^d (Canny's generalized characteristic polynomial) adds
t to the diagonal of both matrices, and

    det(tI + M) = C(t) * det(tI + M')   in Z[t],

with C(0) the resultant.  Both determinants are monic in t, so the
identity survives reduction modulo any prime: C(t) mod p is the exact
quotient of one pair of charpolys mod p, a nonzero remainder is an
error, and Chinese remaindering of C(0) past twice a bound on |C(0)|
gives the integer.  C(0) is a product of N - N' eigenvalues of -M, and
`_gcp_constant_modular` bounds it by Weyl's inequality and AM-GM through
S, the sum of the squared entries inside M's strongly connected diagonal
blocks; the bound takes 15 primes on the benchmark's 560-row system.
The primes are `exact._crt_primes` of M's row count and that bound, from
about 2**21.9 down at 560 rows: primes `char_poly_mod` takes.  Only Q(0)
is read, so after the first prime, when the diagonal blocks of M and M'
were all nonsingular there, both give just the lowest term of their
charpolys, from block determinants: Q(0) is the ratio of the two lowest
coefficients when their orders agree and 0 when M's is higher.  That
skips the remainder check, so one more prime checks the CRT value.  On
the paper's trees both matrices take that route at every even k.
Before the CRT, a zero is decided exactly: the resultant vanishes iff
the forms share a nontrivial root, and `line_root` looks for one on the
line through e_1 - e_2 along e_1 - e_3 with a Euclid gcd over Q of the
forms' restrictions.  On every Steiner tree at odd k (case (a) of the
paper) the restrictions are one polynomial, so those hyperdets take no
prime; where no root is found the CRT runs as before.
Macaulay matrices of at most 15 rows (on the hyperdet path, n = 3 with
k = 3) still take the same two charpolys exactly over Z (`_gcp_constant`),
a remnant that goes once the benchmark's tracer self-test stops counting
that route.

One cap, `check_hyperdet_cap` (k = 2, n <= 2, or n <= 4 with k - 1 <= 5),
bounds `hyperdet` and `macaulay_resultant` alike.  At n = 1, M is the
single coefficient of the one form.  `HomogeneousSystem` reads its
exponents and coefficients by `exact._integer`, so a system given numpy
integers is the system of the same Python ints, and a float is refused
when the system is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exact import (
    IntMatrix,
    _charpoly_plan,
    _crt_primes,
    _integer,
    _lowest_term,
    _modular_primes,
    _size,
    char_poly_exact,
    char_poly_mod,
    det_exact,
    lowest_charpoly_term_mod,
    poly_gcd,
)
from .hypermatrix import SymmetricHypermatrix, exponent_vectors

MAX_VARS = 4
MAX_DEGREE = 5


@dataclass(frozen=True)
class HomogeneousSystem:
    """n integer forms, all homogeneous of the same degree, in n variables.

    Each form is a dict {exponent tuple: nonzero integer coefficient}.  The
    constructor reads nvars and degree by `exact._size`, every exponent
    and coefficient by `exact._integer`, and keeps them, as Python ints,
    in dicts of its own, so a caller's later edits to the dicts it passed
    do not reach the system.
    """

    nvars: int
    degree: int
    polys: tuple

    def __post_init__(self):
        object.__setattr__(self, "nvars", _size(self.nvars, 1, "nvars"))
        object.__setattr__(self, "degree", _size(self.degree, 1, "degree"))
        if len(self.polys) != self.nvars:
            raise ValueError("polynomial count must equal variable count")
        polys = []
        for p in self.polys:
            form = {}
            for expo, c in p.items():
                e = tuple(_integer(x, "exponent") for x in expo)
                if len(e) != self.nvars or any(x < 0 for x in e):
                    raise ValueError(f"bad exponent vector {expo}")
                if sum(e) != self.degree:
                    raise ValueError(f"monomial {expo} is not of degree {self.degree}")
                c = _integer(c, "coefficient")
                if c == 0:
                    raise ValueError("coefficients must be nonzero integers")
                form[e] = c
            polys.append(form)
        object.__setattr__(self, "polys", tuple(polys))


def gradient_system(a: SymmetricHypermatrix) -> HomogeneousSystem:
    """The forms (contract(a, x))_i, i = 1..n, expanded symbolically."""
    exponents, coeffs, _, _ = a.gradient_forms()
    polys = tuple({e: c for e, c in zip(exponents, row) if c} for row in coeffs)
    return HomogeneousSystem(a.dim, a.order - 1, polys)


def macaulay_matrix(s: HomogeneousSystem) -> tuple[IntMatrix, list]:
    """The Macaulay matrix at the critical degree and the reduced-row flags.

    Rows and columns are the degree-D monomials, D = n(d-1)+1, in
    `exponent_vectors` order; the row of m is (m / x_i^d) * F_i for the
    least i with x_i^d | m, reduced when no other x_j^d divides m.  Each
    F_i fills its rows at once, in one int64 array (object on overflow).
    At n = 2 the rows of F_1 and of F_2 are the paper's two Sylvester
    bands, each shifted one column right per row.
    """
    n, d = s.nvars, s.degree
    mons = exponent_vectors(n, n * (d - 1) + 1)
    col = {m: j for j, m in enumerate(mons)}
    exps = np.array(mons)
    divides = exps >= d
    owner = divides.argmax(axis=1)  # the least i; D > n(d - 1), so some x_i^d divides m
    fits = all(-(2**63) <= c < 2**63 for form in s.polys for c in form.values())
    matrix = np.zeros((len(mons), len(mons)), dtype=np.int64 if fits else object)
    for i, form in enumerate(s.polys):
        rows = np.flatnonzero(owner == i)
        shifts = np.array(list(form), dtype=int).reshape(-1, n) - d * (np.arange(n) == i)
        cols = [[col[tuple(t)] for t in ts] for ts in (exps[rows, None] + shifts).tolist()]
        matrix[rows[:, None], cols] = np.array(list(form.values()), dtype=matrix.dtype)
    return IntMatrix(matrix), (divides.sum(axis=1) == 1).tolist()


def _nonreduced_minor(matrix: IntMatrix, reduced: list) -> IntMatrix:
    """M', the principal minor on the non-reduced rows; some row is not
    reduced, since an all-reduced M never reaches the charpoly routes."""
    keep = np.flatnonzero(np.logical_not(reduced))
    return IntMatrix(matrix._a[np.ix_(keep, keep)])


def _charpoly_quotient(pp, qq, p=None) -> np.ndarray:
    """Ascending coefficients of Q = charpoly_M / charpoly_M', over Z
    (Python ints) or, given p, over F_p (int64 residues).

    charpoly_M' is monic, so the long division needs no inverse, and a
    nonzero remainder means the perturbation identity failed: it raises
    ArithmeticError.  Mod p the residues are reduced only where a quotient
    coefficient is read and where the remainder is tested; in between an
    entry takes at most N updates, each below p**2, well inside int64.
    det(tI + M) = (-1)^N charpoly_M(-t), so C(t) = (-1)^(N - N') Q(-t).
    """
    r = np.array(pp, dtype=np.int64 if p else object)
    q = np.array(qq, dtype=r.dtype)
    dq = q.size - 1
    quot = np.zeros(r.size - dq, dtype=r.dtype)
    for i in reversed(range(quot.size)):
        quot[i] = r[i + dq] % p if p else r[i + dq]
        r[i : i + dq + 1] -= quot[i] * q
    if any(r[:dq] % p if p else r[:dq]):
        raise ArithmeticError("perturbed Macaulay ratio is not a polynomial")
    return quot


# At or below this many Macaulay rows (on the hyperdet path, n = 3 with
# k = 3) the charpolys are taken exactly over Z.  This is no faster than
# the CRT (about 9 against 4 ms at 15 rows); it stays only because
# perfbench's tracer self-test asserts that hyperdet(D_3(P_3)) takes this
# route, and goes with that assertion (ROADMAP item 2).
GCP_EXACT_MAX_ROWS = 15


def _gcp_constant(matrix: IntMatrix, reduced: list) -> int:
    """C(0) from det(tI + M) = C(t) det(tI + M'), with exact charpolys,
    for a nonempty M'."""
    qq = char_poly_exact(_nonreduced_minor(matrix, reduced))
    return (-1) ** sum(reduced) * _charpoly_quotient(char_poly_exact(matrix), qq)[0]


def _gcp_constant_modular(matrix: IntMatrix, reduced: list) -> int:
    """C(0) from det(tI + M) = C(t) det(tI + M'), remaindered over primes,
    for a nonempty M': mod p, C(0) is (-1)^(N - N') Q(0) for the quotient
    Q of the two charpolys (`_charpoly_quotient`).

    The primes are the fewest whose product exceeds
    2 (isqrt(ceil(S^k / k^k)) + 1), k = N - N', with S the block mass of
    M: the sum of the squared entries inside its strongly connected
    diagonal blocks (`exact._charpoly_plan`).  That is more than 2 |C(0)|,
    so the symmetric residue is C(0):
    - the roots of C are a sub-multiset of the eigenvalues of -M, so
      |C(0)| is a product of k of M's eigenvalues in absolute value;
    - M is block triangular up to a symmetric permutation, so its
      eigenvalues are those of D = blockdiag(its strongly connected
      diagonal blocks);
    - by Weyl's inequality the product of D's k largest |eigenvalues| is
      at most the product of its k largest singular values sigma_i;
    - by AM-GM that product is at most (sum of sigma_i^2 / k)^(k/2)
      <= (||D||_F^2 / k)^(k/2), and ||D||_F^2 = S, the block mass.
    So |C(0)|^2 <= S^k / k^k, and |C(0)| < isqrt(ceil(S^k / k^k)) + 1,
    all in Python ints.

    The first prime takes both whole charpolys, the quotient and its
    remainder check.  When every diagonal block of more than one row, in
    M and in M', is nonsingular there (the lowest order of each charpoly
    is that of its 1-row blocks' product), both give at the later primes
    only the lowest nonzero term of their charpoly, (a, alpha) for M and
    (b, beta) for M', from block determinants
    (`exact.lowest_charpoly_term_mod`).  charpoly_M = Q charpoly_M' makes
    the lowest terms multiply, so Q(0) = alpha / beta if a = b, Q(0) = 0
    if a > b, and a < b raises ArithmeticError.  Such a value must agree
    with the next prime of `exact._modular_primes` too, or it raises
    ArithmeticError.  Otherwise both keep whole charpolys, and the
    remainder check runs at every prime.
    """
    minor = _nonreduced_minor(matrix, reduced)
    k = sum(reduced)  # N - N'
    _, _, mass = _charpoly_plan(matrix)
    primes = _crt_primes(matrix.rows, 2 * (math.isqrt(-(-(mass**k) // k**k)) + 1))
    pair = (matrix, minor)
    first = primes[0]
    charpolys = [char_poly_mod(m, first) for m in pair]
    by_det = all(
        _lowest_term(cp, first)[0] == _lowest_term(_charpoly_plan(m)[0], first)[0]
        for m, cp in zip(pair, charpolys)
    )

    def quotient_constant(p):
        """Q(0) mod p, by the route by_det picked."""
        if not by_det:
            return int(_charpoly_quotient(*(char_poly_mod(m, p) for m in pair), p)[0])
        (a, alpha), (b, beta) = (lowest_charpoly_term_mod(m, p) for m in pair)
        if a < b:
            raise ArithmeticError("charpoly of M has a lower order than that of M'")
        return alpha * pow(beta, -1, p) % p if a == b else 0

    constants = [int(_charpoly_quotient(*charpolys, first)[0])]
    constants += [quotient_constant(p) for p in primes[1:]]
    sign, residue, modulus = (-1) ** k, 0, 1
    for p, q in zip(primes, constants):
        c = sign * q
        residue += modulus * ((c - residue) * pow(modulus, -1, p) % p)
        modulus *= p
    if residue > modulus // 2:
        residue -= modulus
    if by_det and len(primes) > 1:
        check = next(itertools.islice(_modular_primes(matrix.rows), len(primes), None))
        if (residue - sign * quotient_constant(check)) % check:
            raise ArithmeticError("CRT value disagrees with the check prime")
    return residue


def line_root(s: HomogeneousSystem) -> bool:
    """Whether the forms of s, n >= 3, share a root on the line u + t v,
    u = e_1 - e_2 and v = e_1 - e_3: a certificate that their resultant is 0.

    Each form is restricted to the line in Python ints: at
    x = (1 + t, -1, -t, 0, ..., 0) a monomial is (-1)^(e_2 + e_3) t^(e_3)
    (1 + t)^(e_1), or 0 when a later variable divides it.  Their t^degree
    coefficients are the F_i(v): if all are 0, v, the line's point at
    t = infinity, is a common root.  Otherwise a root alpha of the gcd over
    Q of the restrictions not identically 0 (`exact.poly_gcd`) gives the
    common zero u + alpha v, nonzero as u and v are independent, so a gcd of
    positive degree proves the resultant vanishes (Cox, Little & O'Shea,
    Using Algebraic Geometry, ch. 3).  False proves nothing: a common root
    may lie off the line.  On a Steiner tree at odd k every form is
    -sum_e a_e(x)^(k - 1) on sum x = 0, where the line lies, so the n
    restrictions are one polynomial of degree k - 1.
    """
    if s.nvars < 3:
        raise ValueError("the line needs at least three variables")
    restrictions = []
    for form in s.polys:
        r = [0] * (s.degree + 1)
        for e, c in form.items():
            if not any(e[3:]):
                c *= (-1) ** (e[1] + e[2])
                for i in range(e[0] + 1):
                    r[e[2] + i] += c * math.comb(e[0], i)
        restrictions.append(r)
    if not any(r[-1] for r in restrictions):
        return True
    return len(functools.reduce(poly_gcd, filter(any, restrictions))) > 1


def macaulay_resultant(s: HomogeneousSystem) -> int:
    """Exact resultant of a system within the hyperdet cap at k = degree + 1.

    The Macaulay matrix M is built once.  When M' is empty the resultant
    is det(M).  Otherwise it is C(0) of the perturbation identity, from
    exact charpolys up to GCP_EXACT_MAX_ROWS rows (`_gcp_constant`).  Past
    that, a common root of the forms on one line (`line_root`) proves the
    resultant is 0 before any prime; else C(0) is taken mod primes
    (`_crt_primes`), downward from the bound
    below which char_poly_mod of M accepts them.  Every prime is usable:
    det(tI + M') is monic, so C(t) is the exact quotient over F_p as over
    Z, whether or not M' is singular mod p, and a nonzero remainder is an
    error.  The roots of det(tI + M') are among those of det(tI + M), so
    C(0) is a product of k = N - N' eigenvalues of -M.  Remaindering takes
    the fewest primes whose product exceeds twice a bound on that product
    (`_gcp_constant_modular`), and the symmetric residue is the
    resultant.  A zero form leaves its rows of M zero, so it needs no
    special case: det(M) and C(0) vanish, and with every form zero every
    restriction to the line is 0, so `line_root` closes (the CRT would
    close at one prime, with a block mass of 0).  After the first prime,
    M and M' may both give only the lowest term of their charpolys, from
    block determinants, and then one more prime checks the value.
    """
    check_hyperdet_cap(s.nvars, s.degree + 1)
    matrix, reduced = macaulay_matrix(s)
    if all(reduced):
        return det_exact(matrix)
    if matrix.rows <= GCP_EXACT_MAX_ROWS:
        return _gcp_constant(matrix, reduced)
    if line_root(s):
        return 0
    return _gcp_constant_modular(matrix, reduced)


def check_hyperdet_cap(n: int, k: int) -> None:
    """Refuse an (n, k) beyond desk scale, for hyperdet and macaulay_resultant alike."""
    if not (k == 2 or n <= 2 or (n <= MAX_VARS and k - 1 <= MAX_DEGREE)):
        raise ValueError(
            f"hyperdet cap: need k = 2, n <= 2, or n <= {MAX_VARS} with "
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
    dimension-2 Sylvester formula at n = 2: there the resultant is det(M),
    M being a or the Sylvester matrix (`block_matrix_K2(k)` for D_k(K_2)).
    """
    hyperdet_route(a)
    return macaulay_resultant(gradient_system(a))
