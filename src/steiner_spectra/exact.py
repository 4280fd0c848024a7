"""Exact integer linear algebra: Bareiss determinants, circulants, characteristic polynomials.

`IntMatrix` holds each matrix as one read-only numpy array: int64 when
every entry fits, else dtype object of Python ints.  Every exact
determinant comes from one fraction-free Bareiss elimination along a
stack of matrices (`det_stack`), in int64 when Hadamard's bound proves
it exact, else on Python ints; `det_exact` is its stack of one matrix.
Everything here is arbitrary precision, the circulant oracle's
resultant included, except `char_poly_mod`, which works over F_p, for
the resultant's CRT.  Once per matrix it splits the
nonzero pattern into strongly connected components, read off the
reachability closure of the pattern (repeated squaring of a 0/1 matrix);
per prime it runs a blocked Hessenberg reduction in float64 on each
block of more than one row.  `lowest_charpoly_term_mod` gives only the
lowest nonzero term of that charpoly, from a left-looking LU
determinant (`_det_mod`, a quarter to a third of the Hessenberg cost)
of each block that is nonsingular mod p.
Entries stay in (-p, p) and every dot product has at most rows + 64
terms, so for the primes it accepts, those below
`_float_exact_bound(rows)`, where p * p * (rows + 64) < 2**53, every
BLAS product is exact; `_modular_primes(rows)` lists them downward and
`_crt_primes` takes the fewest whose product passes a bound.
Both charpolys, exact (`char_poly_exact`) and modular, are tuples of
ascending coefficients.  One Euclid sequence over Q on ascending
coefficient lists (`_remainders`) gives `poly_gcd`, for the line-root
certificate, and `poly_resultant`, the circulant oracle's Res(x^m - 1, c).
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction

import numpy as np


class IntMatrix:
    """Dense matrix of exact integers: one read-only numpy array, int64 when
    every entry fits, else dtype object of Python ints.  Only the
    constructor picks the dtype; entries leave as Python ints.
    """

    __slots__ = ("rows", "cols", "_a", "_plan")

    def __init__(self, data):
        a = np.array(data)
        if a.ndim != 2 or not a.size:
            raise ValueError("matrix must be a nonempty 2-d array of rows")
        if np.can_cast(a.dtype, np.int64):
            a = a.astype(np.int64, copy=False)
        else:
            # numpy's promotion can round (-1 beside 2**63 gives float64), so
            # the entries are read again as given, uint64 among them; floats
            # would silently break the exact eliminations downstream, other
            # integral types become int
            a = np.array(data, dtype=object)
            entries = a.reshape(-1)  # a view: writes land in a
            for i, v in enumerate(entries):
                if type(v) is not int:
                    if not isinstance(v, numbers.Integral):
                        raise ValueError(f"non-integer entry: {v!r}")
                    entries[i] = int(v)
            try:
                a = a.astype(np.int64)
            except OverflowError:
                pass  # some entry needs more than 64 bits: a stays object
        a.flags.writeable = False  # so _charpoly_plan may keep what it reads off a
        self.rows, self.cols = a.shape
        self._a = a
        self._plan = None  # char_poly_mod's set-up, see _charpoly_plan

    def __getitem__(self, ij):
        return int(self._a[ij])

    def to_lists(self) -> list:
        return self._a.tolist()

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and np.array_equal(self._a, other._a)

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})"


def circulant(first_row) -> IntMatrix:
    """Circulant matrix: row i is the cyclic right-shift of ``first_row`` by i."""
    row = list(first_row)
    m = len(row)
    if m == 0:
        raise ValueError("empty row")
    return IntMatrix([row[-i:] + row[:-i] for i in range(m)])


def det_stack(stack) -> np.ndarray:
    """Exact determinants of a (count, n, n) integer stack, by one
    fraction-free Bareiss elimination along the whole stack.

    The stack is held as (n, n, count), so every vector operation runs
    along it.  Step k swaps up, in each matrix whose a[k, k] is 0, the
    first row below with a nonzero column-k entry, and flips that
    matrix's sign.  A matrix with none has det 0; it keeps the previous
    pivot as its pivot, which leaves its trailing block as it was, so its
    later divisions stay exact.  The trailing block T then becomes
    (a[k, k] * T - outer(column k, row k)) // (the previous pivot), an
    exact division.

    Every entry so computed is a minor of the input (Bareiss, Math. Comp.
    22, 1968), so by Hadamard each product before a division is at most
    R^n, R the largest squared row norm (at least 1).  The elimination
    runs in int64 when 2 R^n < 2^63, and on Python ints (dtype object)
    otherwise: numpy's int64 wraps without a warning, so this test alone
    keeps the int64 path exact.  The determinants come back in the dtype
    the elimination ran in.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3 or not 0 < stack.shape[1] == stack.shape[2]:
        raise ValueError("determinant requires a nonempty square matrix")
    count, n, _ = stack.shape
    # the largest |entry|, taken as Python ints: abs(-2**63) wraps in int64
    top = max(int(stack.max(initial=0)), -int(stack.min(initial=0)))
    dtype = object
    if n * top * top < 2**63:  # the squared row norms fit in int64
        squares = stack.astype(np.int64)
        squares *= squares
        if 2 * int(squares.sum(axis=2).max(initial=1)) ** n < 2**63:
            dtype = np.int64
    a = np.moveaxis(stack, 0, -1).astype(dtype, order="C")
    sign = np.ones(count, dtype)
    prev = np.ones(count, dtype)
    for k in range(n - 1):
        zero = np.flatnonzero(a[k, k] == 0)
        if zero.size:
            # a matrix with no pivot swaps in row k + 1 to no effect
            column = a[k + 1 :, k, zero] != 0
            below = k + 1 + column.argmax(axis=0)
            row = a[k, k:, zero]
            a[k, k:, zero] = a[below, k:, zero]
            a[below, k:, zero] = row
            sign[zero] *= -1
            dead = zero[~column.any(axis=0)]
            sign[dead] = 0
            a[k, k, dead] = prev[dead]
        pivot = a[k, k]
        trailing = a[k + 1 :, k + 1 :]
        trailing *= pivot
        trailing -= a[k + 1 :, k, None] * a[k, None, k + 1 :]
        trailing //= prev
        prev = pivot
    return sign * a[n - 1, n - 1]


def det_exact(m: IntMatrix):
    """Exact determinant of m as a Python int: `det_stack` of the stack of m alone."""
    return int(det_stack(m._a[None])[0])


CHARPOLY_EXACT_MAX_ROWS = 40


def char_poly_exact(m: IntMatrix) -> tuple:
    """Ascending coefficients of det(lambda*I - m), by the Faddeev-LeVerrier
    recurrence, all-integer: the same format as `char_poly_mod`.

    It runs on a copy of m's array as Python ints (dtype object), with
    numpy's `dot` and `trace`.  The per-step divisions are exact for
    integer input, so no rationals appear.  Cost is n matrix products,
    O(n^4), so matrices of more than `CHARPOLY_EXACT_MAX_ROWS` rows are
    refused.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.rows
    if n > CHARPOLY_EXACT_MAX_ROWS:
        raise ValueError(f"matrix size {n} exceeds the charpoly cap of {CHARPOLY_EXACT_MAX_ROWS}")
    a = m._a.astype(object)
    # M_1 = I, c_1 = -tr(A); M_{j+1} = A M_j + c_j I, c_{j+1} = -tr(A M_{j+1})/(j+1)
    mk = np.eye(n, dtype=object)
    coeffs = [1]  # leading coefficient of lambda^n
    for step in range(1, n + 1):
        mk = a.dot(mk)
        c = -mk.trace() // step
        coeffs.append(c)
        mk.flat[:: n + 1] += c
    return tuple(reversed(coeffs))  # ascending: (c_n, ..., c_1, 1)


@functools.cache
def _is_prime_trial(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


# row ceiling of char_poly_mod, a cost ceiling only: its float64 and int64
# products are exact at any row count once p * p * (rows + 64) < 2**53
_MOD_MAX_ROWS = 2000


def _strong_components(pattern) -> list:
    """Strongly connected components of the nonzero pattern of a square array.

    The digraph has an edge i -> j for every nonzero off-diagonal entry
    pattern[i, j]; diagonal entries are ignored.  i and j share a
    component when each reaches the other.  Reachability is the closure
    of the 0/1 pattern with a unit diagonal, squared until it stops
    growing: at most ceil(log2 n) + 1 float32 products, each clipped back
    to 0/1, so its sums stay at most n < 2**24 and are exact.  Each
    component is a sorted list of indices, filed under the least index it
    holds.  A component reaches strictly more vertices than any component
    it has an edge to, so sorting by reach count, fewest first (ties by
    least index), puts them in reverse topological order: listing them
    last to first permutes the matrix to block upper triangular form.
    """
    reach = (pattern != 0).astype(np.float32)
    np.fill_diagonal(reach, 1)
    count = np.count_nonzero(reach)
    while True:
        reach = reach @ reach
        np.minimum(reach, 1, out=reach)
        grown = np.count_nonzero(reach)  # the closure only grows
        if grown == count:
            break
        count = grown
    reaches = np.count_nonzero(reach, axis=1).tolist()
    components = {}
    for v, least in enumerate(np.logical_and(reach, reach.T).argmax(axis=1).tolist()):
        components.setdefault(least, []).append(v)
    return sorted(components.values(), key=lambda c: reaches[c[0]])


# columns per panel of the blocked Hessenberg reduction
_PANEL = 32


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce the float64 integers x (|x| < 2**53) into (-p, p), in place.

    Up to 256 entries, one np.remainder call: exact (it rests on fmod) and
    cheapest there, but several times slower per entry than the four
    vector operations of x - p * floor(x / p), which larger arrays take.
    That uses a true division: the rounded quotient is off by at most one,
    so the result is the residue or the residue minus p, and a multiple of
    p gives exactly 0.  A product with a rounded 1/p instead can leave a
    multiple of p as +-p, which breaks the zero tests of the pivot search.
    """
    if x.size <= 256:
        return np.remainder(x, p, out=x)
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _float_exact_bound(rows: int) -> int:
    """Primes below this keep p * p * (rows + 2 * _PANEL) < 2**53.

    Every dot product of `_char_poly_hessenberg` on a block of at most
    `rows` rows has at most rows + 2 * _PANEL terms, each a product of two
    entries in (-p, p), so below such a prime plain float64 BLAS products
    are exact.
    """
    return math.isqrt((1 << 53) // (rows + 2 * _PANEL))


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


def _crt_primes(rows: int, bound: int) -> list:
    """The fewest leading primes of `_modular_primes(rows)` whose product
    exceeds bound; at least one, so the per-prime checks run at bound 0."""
    primes, product = [], 1
    for p in _modular_primes(rows):
        primes.append(p)
        product *= p
        if product > bound:
            return primes


def _check_mod_args(m: IntMatrix, p: int) -> None:
    """Refuse what char_poly_mod and lowest_charpoly_term_mod cannot take:
    a matrix that is not square or has more than `_MOD_MAX_ROWS` rows, or
    a modulus that is not a prime below `_float_exact_bound(m.rows)`."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    if m.rows > _MOD_MAX_ROWS:
        raise ValueError(
            f"matrix size {m.rows} exceeds the modular charpoly cap of {_MOD_MAX_ROWS}"
        )
    bound = _float_exact_bound(m.rows)
    if not 2 <= p < bound or not _is_prime_trial(p):
        raise ValueError(f"modulus must be a prime below {bound} for {m.rows} rows")


def _char_poly_hessenberg(h: np.ndarray, p: int) -> np.ndarray:
    """Ascending int64 coefficients of det(lambda*I - h) over F_p.

    h is a float64 array of integers in (-p, p), overwritten by its
    similarity reduction to upper Hessenberg form.  Step j takes as pivot
    the first entry of column j below the subdiagonal that is nonzero mod
    p, swaps it onto the subdiagonal and scales it to 1 (row j + 1 by its
    inverse, column j + 1 by it), then clears the rest of column j with
    row operations and keeps the transform a similarity with one column
    addition, col_{j+1} += h[:, j+2:] @ f for the multipliers f.  A column
    with no pivot leaves a zero subdiagonal, which splits the matrix into
    diagonal blocks whose charpolys multiply.

    The steps run in panels of _PANEL columns (delayed updates, as in
    FFLAS-FFPACK).  Inside a panel the columns up to e (the panel's last
    step j reaches column e = j + 1) are updated at once; the trailing
    columns are held as A0 - G @ R, A0 their values at the start of the
    panel, G the multipliers and R the pivot rows of the panel's steps.
    A step then costs one matrix-vector product with h[:, j+2:] plus thin
    corrections through G and R, and the panel ends with one product
    G @ R and one reduction.  The pivot row, and a trailing column swapped
    in as pivot column, are brought up to date when they are needed.

    Entries stay in (-p, p) (`_reduce`), and every dot product has at most
    n + 2 * _PANEL terms, so for p below `_float_exact_bound(n)` all of it
    is exact float64 arithmetic.  Inside each diagonal block the
    leading-principal-minor recurrence
    p_c = x p_{c-1} - sum_{i <= c} h[i, c] p_{i-1} is one vector-matrix
    product per step.
    """
    n = h.shape[0]
    starts = [0]
    for c0 in range(0, n - 1, _PANEL):
        e = min(c0 + _PANEL, n - 1)
        lazy = n - e - 1  # trailing columns e + 1 .. n - 1
        g = np.zeros((n, _PANEL))
        r = np.zeros((_PANEL, lazy))
        t = 0  # steps of this panel with row operations so far
        for j in range(c0, e):
            nz = h[j + 1 :, j].nonzero()[0]
            if nz.size == 0:
                starts.append(j + 1)
                continue
            piv = j + 1 + int(nz[0])
            if piv != j + 1:
                h[[j + 1, piv]] = h[[piv, j + 1]]
                if t:
                    g[[j + 1, piv], :t] = g[[piv, j + 1], :t]
                if piv <= e:
                    h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
                else:
                    col = h[:, piv] - g[:, :t] @ r[:t, piv - e - 1]
                    h[:, piv] = h[:, j + 1]
                    h[:, j + 1] = _reduce(col, p)
                    r[:t, piv - e - 1] = 0
            if t:
                row = h[j + 1, e + 1 :]
                row -= r[:t].T @ g[j + 1, :t]
                _reduce(row, p)
                g[j + 1, :t] = 0
            # the pivot becomes 1: row j + 1 is scaled by its inverse now;
            # scaling column j + 1 by it commutes with the row operations,
            # so it joins the column addition
            pivot = int(h[j + 1, j]) % p
            if pivot != 1:
                h[j + 1, j:] *= pow(pivot, p - 2, p)
                _reduce(h[j + 1, j:], p)
            f = h[j + 2 :, j].copy()
            if f.any():
                below = h[j + 2 :, j + 1 : e + 1]
                below -= f[:, None] * h[j + 1, j + 1 : e + 1]
                _reduce(below, p)
                h[j + 2 :, j] = 0
                col = h[:, j + 1] * pivot + h[:, j + 2 :] @ f
                if lazy:
                    g[j + 2 :, t] = f
                    r[t] = h[j + 1, e + 1 :]
                    t += 1
                    rf = _reduce(r[:t] @ f[e - j - 1 :], p)
                    col -= g[:, :t] @ rf
                h[:, j + 1] = _reduce(col, p)
            elif pivot != 1:
                h[:, j + 1] = _reduce(h[:, j + 1] * pivot, p)
        if t:
            trailing = h[c0 + 2 :, e + 1 :]
            trailing -= g[c0 + 2 :, :t] @ r[:t]
            _reduce(trailing, p)
    charpoly = np.ones(1, dtype=np.int64)
    for s, e in zip(starts, starts[1:] + [n]):
        size = e - s
        polys = np.zeros((size + 1, size + 1))
        polys[0, 0] = 1
        for c in range(1, size + 1):
            polys[c, 1 : c + 1] = polys[c - 1, :c]
            polys[c, :c] -= polys[:c, :c].T @ h[s : s + c, s + c - 1]
            _reduce(polys[c, :c], p)
        charpoly = np.convolve(charpoly, polys[size].astype(np.int64) % p) % p
    return charpoly


def _det_mod(a: np.ndarray, p: int) -> int:
    """det(a) mod p, in [0, p), for a square float64 array of integers in
    (-p, p), which is overwritten by its LU factors.

    Left-looking (Crout) LU.  Step j first brings column j up to date,
    from the diagonal down, less the multipliers of the earlier steps
    times its entries in their pivot rows.  It takes as pivot the first
    entry of that column that is nonzero mod p and swaps its row up, which
    flips the sign; a column with none means det = 0, returned at once.
    The pivot row gets the same update across every column right of j, so
    the pivot rows are final when later columns read them, and the
    multipliers a[i, j] / pivot are stored in column j.  Each step is two
    matrix-vector products.

    Entries stay in (-p, p) (`_reduce`), and every product has at most
    n - 1 terms below p**2, so an unreduced entry stays below
    p + (n - 1) * p**2 < 2**53 for p below `_float_exact_bound(n)`.
    """
    n = a.shape[0]
    det = 1
    for j in range(n):
        column = a[j:, j]
        if j:
            column -= a[j:, :j] @ a[:j, j]
            _reduce(column, p)
        nz = column.nonzero()[0]
        if nz.size == 0:
            return 0
        piv = j + int(nz[0])
        if piv != j:
            a[[j, piv]] = a[[piv, j]]
            det = -det
        pivot = int(a[j, j]) % p
        det = det * pivot % p
        if j + 1 < n:
            if j:
                row = a[j, j + 1 :]
                row -= a[j, :j] @ a[:j, j + 1 :]
                _reduce(row, p)
            a[j + 1 :, j] = _reduce(a[j + 1 :, j] * pow(pivot, -1, p), p)
    return det


def _charpoly_plan(m: IntMatrix) -> tuple:
    """The prime-independent part of char_poly_mod(m, p), built on first use.

    Returns the product of the 1-row diagonal blocks' charpolys x - m_ii as
    an ascending tuple of integers, the larger diagonal blocks as slices
    of m's array, in the dtype IntMatrix chose for it, and the blocks'
    mass: the sum of the squares of every entry inside a diagonal block,
    1-row blocks included, as a Python int.  The mass is ||D||_F^2 for
    D = blockdiag(blocks), which has m's eigenvalues, and the resultant's
    CRT bounds a product of them by it (`resultant._gcp_constant_modular`).
    The blocks are the strongly connected components of the integer
    pattern (`_strong_components`, a few BLAS products on the reachability
    closure); an entry that vanishes over Z vanishes mod every p, so the
    block triangular form holds for every prime.  IntMatrix's array is
    read-only, so the plan stays valid.
    """
    if m._plan is None:
        linear = [1]
        blocks = []
        mass = 0
        for component in _strong_components(m._a):
            if len(component) == 1:
                d = m[component[0], component[0]]
                linear = [x - d * y for x, y in zip([0] + linear, linear + [0])]
                mass += d * d
            else:
                block = m._a[np.ix_(component, component)]
                blocks.append(block)
                mass += sum(x * x for x in block[block != 0].tolist())
        m._plan = (tuple(linear), blocks, mass)
    return m._plan


def char_poly_mod(m: IntMatrix, p: int) -> tuple:
    """Ascending coefficients of det(lambda*I - m) modulo a prime p below
    `_float_exact_bound(m.rows)`.

    The strongly connected components of the off-diagonal nonzero pattern
    (`_strong_components`) give a symmetric permutation of m to block
    upper triangular form, which leaves the charpoly unchanged: it is the
    product of the diagonal blocks' charpolys.  That split, and the
    product of the 1-row blocks' x - m_ii, are worked out once per matrix
    (`_charpoly_plan`); per prime only the larger blocks are reduced mod p
    and go through a blocked Hessenberg reduction in float64 with a
    leading-principal-minor recurrence (`_char_poly_hessenberg`), whose
    cost is cubic in the block size.  Macaulay matrices are sparse, and
    their patterns fall apart into many components.

    Every sum, float64 in the reduction of a block and int64 where the
    blocks' charpolys multiply, has at most rows + 64 terms below p**2, so
    below that bound it stays under 2**53 and the arithmetic is exact.
    Other moduli are refused.
    """
    _check_mod_args(m, p)
    linear, blocks, _ = _charpoly_plan(m)
    charpoly = np.array([c % p for c in linear], dtype=np.int64)
    for block in blocks:
        h = (block % p).astype(np.float64)
        charpoly = np.convolve(charpoly, _char_poly_hessenberg(h, p)) % p
    return tuple(int(c) for c in charpoly)


def _lowest_term(poly, p: int) -> tuple:
    """(order, coefficient in [0, p)) of the lowest term of the ascending
    coefficients poly that is nonzero mod p; poly is monic, so one is."""
    order = next(i for i, c in enumerate(poly) if c % p)
    return order, int(poly[order]) % p


def lowest_charpoly_term_mod(m: IntMatrix, p: int) -> tuple:
    """`_lowest_term(char_poly_mod(m, p), p)`, mostly from determinants.

    The lowest term of a product is the product of the lowest terms, so
    it is read off the diagonal blocks of `_charpoly_plan`: the 1-row
    blocks' product x - m_ii as one polynomial, and each larger block B
    that is nonsingular mod p as (0, (-1)^rows det B), from the LU of
    `_det_mod` at a quarter to a third of the cost of the Hessenberg
    reduction.  A block singular mod p takes `_char_poly_hessenberg` after
    all.  The matrices and moduli are those char_poly_mod accepts
    (`_check_mod_args`).
    """
    _check_mod_args(m, p)
    linear, blocks, _ = _charpoly_plan(m)
    order, coeff = _lowest_term(linear, p)
    for block in blocks:
        det = _det_mod((block % p).astype(np.float64), p)
        if det:
            coeff = coeff * (-1) ** len(block) * det % p
        else:
            low, c = _lowest_term(_char_poly_hessenberg((block % p).astype(np.float64), p), p)
            order += low
            coeff = coeff * c % p
    return order, coeff


def _remainders(f, g) -> list:
    """Euclid's remainder sequence over Q of f and g, ascending coefficients:
    f, g, f mod g, ... to the last nonzero one, each a trimmed Fraction list."""

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    seq = [trim([Fraction(c) for c in f]), trim([Fraction(c) for c in g])]
    while seq[-1]:
        r, b = seq[-2], seq[-1]
        while len(r) >= len(b):
            q, shift = r[-1] / b[-1], len(r) - len(b)
            r = trim(r[:shift] + [c - q * d for c, d in zip(r[shift:], b)])
        seq.append(r)
    return seq[:-1]


def poly_gcd(f, g) -> tuple:
    """Monic gcd over Q, a tuple of Fractions, of two nonzero polynomials (ascending)."""
    a = _remainders(f, g)[-1]
    return tuple(c / a[-1] for c in a)


def poly_resultant(f, g) -> int:
    """Res(f, g) of integer polynomials (ascending coefficients) along `_remainders`:
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) for r = a mod b,
    Res(b, c) = c^(deg b) for a constant c, and 0 when the sequence ends above degree 0
    or an input is 0 (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, ch. 3)."""
    seq = _remainders(f, g)
    if len(seq) < 2 or not seq[0] or len(seq[-1]) > 1:
        return 0
    res = seq[-1][0] ** (len(seq[-2]) - 1)
    for a, b, r in zip(seq, seq[1:], seq[2:]):
        res *= (-1) ** ((len(a) - 1) * (len(b) - 1)) * b[-1] ** (len(a) - len(r))
    return int(res)


def circulant_det_oracle(first_row) -> int:
    """Independent exact oracle for circulant determinants: the eigenvalue
    product prod_j c(w^j) over the m-th roots of unity, c(x) = sum_i row[i] x^i,
    is Res(x^m - 1, c), taken by `poly_resultant` with no determinant routine."""
    row = list(first_row)
    if not row:
        raise ValueError("empty row")
    for v in row:
        if not isinstance(v, numbers.Integral):
            raise ValueError(f"non-integer entry: {v!r}")
    return poly_resultant([-1] + [0] * (len(row) - 1) + [1], [int(v) for v in row])
