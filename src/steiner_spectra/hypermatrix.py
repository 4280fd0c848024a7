"""Symmetric hypermatrices stored by index multiset.

An order-k dimension-n symmetric hypermatrix keeps one exact integer per
multiset of k indices from 1..n (C(n+k-1, k) values instead of n^k).  Its
gradient forms F_i = (A x^{k-1})_i, the tensor action behind H-eigenvalues
and the system whose resultant is the hyperdeterminant, are listed once
per hypermatrix (`gradient_forms`): one exponent vector per degree-(k-1)
monomial and one integer coefficient per (form, monomial), the multinomial
weight times the entry, rather than all n^{k-1} terms.  The exact and the
numpy `contract` and `resultant.gradient_system` all read that table.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter

import numpy as np

from .graphs import Graph, steiner_distance


def multisets(dim: int, size: int):
    """Sorted index tuples of the given size over 1..dim."""
    return itertools.combinations_with_replacement(range(1, dim + 1), size)


def multinomial_weight(ms) -> int:
    """Number of distinct orderings of the multiset ms."""
    w = math.factorial(len(ms))
    for c in Counter(ms).values():
        w //= math.factorial(c)
    return w


class SymmetricHypermatrix:
    """Order-k, dimension-n symmetric array with exact integer entries."""

    __slots__ = ("order", "dim", "entries", "_forms")

    def __init__(self, order: int, dim: int, entries: dict):
        if order < 2:
            raise ValueError("order must be at least 2")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        expected = math.comb(dim + order - 1, order)
        if len(entries) != expected:
            raise ValueError(
                f"expected {expected} multiset entries, got {len(entries)}"
            )
        for key in entries:
            if len(key) != order or tuple(sorted(key)) != key:
                raise ValueError(f"key {key} is not a sorted order-{order} tuple")
            if key[0] < 1 or key[-1] > dim:
                raise ValueError(f"key {key} out of range 1..{dim}")
        self.order = order
        self.dim = dim
        self.entries = dict(entries)
        self._forms = None

    @classmethod
    def from_function(cls, order: int, dim: int, fn) -> "SymmetricHypermatrix":
        return cls(order, dim, {ms: fn(ms) for ms in multisets(dim, order)})

    @classmethod
    def all_ones(cls, order: int, dim: int) -> "SymmetricHypermatrix":
        return cls.from_function(order, dim, lambda ms: 1)

    def entry(self, idx) -> int:
        """Entry at an arbitrary (unsorted) index tuple."""
        return self.entries[tuple(sorted(idx))]

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricHypermatrix)
            and self.order == other.order
            and self.dim == other.dim
            and self.entries == other.entries
        )

    # -- contraction --------------------------------------------------

    def gradient_forms(self) -> tuple:
        """The forms F_i = (A x^{k-1})_i as one table, built once.

        Returns (exponents, coeffs, counts, weights): exponents[m] is the
        exponent vector of the m-th degree-(k-1) monomial, in multiset
        order, and coeffs[i-1][m] = multinomial(ms_m) * entry((i,) + ms_m)
        is its integer coefficient in F_i.  counts (int64) and weights
        (float64) hold the same two tables as numpy arrays.
        """
        if self._forms is None:
            exponents, coeffs = [], [[] for _ in range(self.dim)]
            for ms in multisets(self.dim, self.order - 1):
                exponents.append(tuple(ms.count(j) for j in range(1, self.dim + 1)))
                w = multinomial_weight(ms)
                for i, row in enumerate(coeffs, 1):
                    row.append(w * self.entries[tuple(sorted((i,) + ms))])
            self._forms = (
                exponents,
                coeffs,
                np.array(exponents, dtype=np.int64),
                np.array(coeffs, dtype=np.float64),
            )
        return self._forms

    def contract(self, x):
        """(A x^{k-1})_i = sum over k-1 index tuples of entry * x products.

        Exact inputs (ints, Fractions) stay exact; float inputs return
        floats; a numpy array takes a vectorized path and returns an array.
        """
        if len(x) != self.dim:
            raise ValueError(f"vector length {len(x)} != dimension {self.dim}")
        exponents, coeffs, counts, weights = self.gradient_forms()
        if isinstance(x, np.ndarray):
            return weights @ np.prod(np.power(x[np.newaxis, :], counts), axis=1)
        monos = [math.prod(v**e for v, e in zip(x, expo) if e) for expo in exponents]
        return [sum(c * p for c, p in zip(row, monos) if c) for row in coeffs]

    # -- structure maps ------------------------------------------------

    def relabel(self, perm) -> "SymmetricHypermatrix":
        """Push entries through a vertex permutation (dict or sequence of 1..n)."""
        if not isinstance(perm, dict):
            perm = {i + 1: p for i, p in enumerate(perm)}
        if sorted(perm) != list(range(1, self.dim + 1)) or sorted(
            perm.values()
        ) != list(range(1, self.dim + 1)):
            raise ValueError("perm must be a bijection on 1..n")
        moved = {}
        for key, val in self.entries.items():
            moved[tuple(sorted(perm[i] for i in key))] = val
        return SymmetricHypermatrix(self.order, self.dim, moved)

    def dim2_profile(self) -> tuple:
        """Profile (a_0, ..., a_k) with a_t the entry whose index holds t twos."""
        if self.dim != 2:
            raise ValueError("profile is defined only for dimension 2")
        k = self.order
        return tuple(self.entries[(1,) * (k - t) + (2,) * t] for t in range(k + 1))

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "dim": self.dim,
            "entries": [[list(k), int(v)] for k, v in sorted(self.entries.items())],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SymmetricHypermatrix":
        entries = {tuple(k): int(v) for k, v in obj["entries"]}
        return cls(int(obj["order"]), int(obj["dim"]), entries)

    @classmethod
    def from_json(cls, text: str) -> "SymmetricHypermatrix":
        return cls.from_json_dict(json.loads(text))


def build_steiner_hypermatrix(g: Graph, k: int) -> SymmetricHypermatrix:
    """Order-k Steiner distance hypermatrix: entry at (v_1..v_k) is d({v_1..v_k})."""
    if k < 2:
        raise ValueError("order must be at least 2")
    if not g.is_connected():
        raise ValueError("disconnected graph")
    by_support = {}
    entries = {}
    for ms in multisets(g.n, k):
        supp = frozenset(ms)
        if supp not in by_support:
            by_support[supp] = steiner_distance(g, supp)
        entries[ms] = by_support[supp]
    return SymmetricHypermatrix(k, g.n, entries)
