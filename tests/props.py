"""Shared randomized property runners.

Each runner draws `cases` instances from a seeded RNG and raises
AssertionError on the first violation, so module tests can run small
counts and the acceptance suite can run the full ones.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations, product

import numpy as np

from steiner_spectra import (
    Graph,
    SymmetricHypermatrix,
    build_steiner_hypermatrix,
    charpoly_allones,
    graphs,
    hyperdet,
    nqz_spectral_radius,
    tree_from_prufer,
)
from steiner_spectra.exact import poly_gcd
from steiner_spectra.harness import report_json
from steiner_spectra.hypermatrix import multisets

# The benchmark's crt-degenerate system: four quartic forms in four
# variables, four +-1 terms each, so B = 4; its 560-row Macaulay matrix
# has 256 reduced rows and e1 is a common root.
CRT_DEGENERATE_FORMS = (
    {(0, 1, 3, 0): 1, (3, 0, 1, 0): 1, (1, 0, 3, 0): -1, (0, 0, 2, 2): 1},
    {(0, 3, 0, 1): 1, (1, 1, 2, 0): 1, (0, 0, 2, 2): 1, (2, 0, 1, 1): 1},
    {(2, 0, 0, 2): 1, (1, 0, 0, 3): -1, (2, 1, 0, 1): -1, (2, 2, 0, 0): 1},
    {(0, 1, 2, 1): -1, (0, 4, 0, 0): -1, (1, 1, 2, 0): 1, (0, 0, 4, 0): -1},
)


def steiner_by_edge_subsets(g: Graph, s):
    """Oracle: try every edge subset, smallest one whose span connects s."""
    s = set(s)
    edges = sorted(g.edges)
    for size in range(len(edges) + 1):
        for sub in combinations(edges, size):
            verts = set(s)
            for u, v in sub:
                verts.add(u)
                verts.add(v)
            # connectivity of the chosen subgraph over `verts`
            adj = {v: set() for v in verts}
            for u, v in sub:
                adj[u].add(v)
                adj[v].add(u)
            seen = set()
            stack = [next(iter(s))]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(adj[v] - seen)
            if s <= seen:
                return size
    raise AssertionError("unreachable")


def graph_canonical_form_by_permutations(g: Graph) -> str:
    """Reference canonical form: relabel the edge list under each of the n!
    permutations in turn and keep the least sorted list."""
    best = None
    for perm in permutations(range(1, g.n + 1)):
        relab = sorted(
            (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1])) for u, v in g.edges
        )
        if best is None or relab < best:
            best = relab
    return f"n{g.n}:" + ";".join(f"{u}-{v}" for u, v in best)


def bfs_rows(n: int, edges) -> list:
    """Reference hop distances on 1..n: one `graphs._bfs_dist` row per
    vertex, -1 between components."""
    adj = Graph.from_edges(n, edges).adjacency()
    return [graphs._bfs_dist(adj, v, n)[1:] for v in range(1, n + 1)]


def edge_block_charpoly(q) -> tuple:
    """(t + 1)^m * q(t), ascending, for q of degree m: the characteristic
    polynomial of -I_m + W_m that `block_matrix_K2(m + 1)` must have when
    q is `edge_charpoly(m + 1)`."""
    m = len(q) - 1
    out = [0] * (2 * m + 1)
    for i in range(m + 1):
        for j, c in enumerate(q):
            out[i + j] += math.comb(m, i) * c
    return tuple(out)


def sweep_report_json_reference(report, witness=None) -> str:
    """Reference sweep encoder: one {"prufer", "canonical", **values} dict
    per row, in one dict of the whole report (plus "witness" when given),
    all through one `report_json` call."""
    obj = {
        "n": report.n,
        "k": report.k,
        "mode": report.mode,
        "seed": report.seed,
        "records": [
            {"prufer": list(seq), "canonical": key, **report.classes[key]}
            for seq, key in report.records
        ],
        "verdicts": report.verdicts,
    }
    if witness:
        obj["witness"] = witness
    return report_json(obj)


def poly_at(p, x):
    """Value at x of the polynomial with ascending coefficients p."""
    return sum(c * x**i for i, c in enumerate(p))


def random_hypermatrix(rng: random.Random, order: int, dim: int, lo=0, hi=3):
    entries = {ms: rng.randint(lo, hi) for ms in multisets(dim, order)}
    return SymmetricHypermatrix(order, dim, entries)


def naive_contract(a: SymmetricHypermatrix, x):
    """Direct sum over all n^(k-1) ordered index tuples."""
    n, k = a.dim, a.order
    out = []
    for i in range(1, n + 1):
        acc = 0
        for rest in product(range(1, n + 1), repeat=k - 1):
            term = a.entry((i,) + rest)
            for j in rest:
                term = term * x[j - 1]
            acc += term
        out.append(acc)
    return out


def run_contraction_vs_naive(cases: int, seed: int) -> int:
    """contract() against the brute-force summation, exact and float paths."""
    rng = random.Random(seed)
    for case in range(cases):
        n = rng.randint(1, 3)
        k = rng.randint(2, 4)
        a = random_hypermatrix(rng, k, n)
        x = [rng.randint(-3, 3) for _ in range(n)]
        assert a.contract(x) == naive_contract(a, x), (case, a, x)
        xf = np.array([float(v) for v in x])
        got = a.contract(xf)
        want = naive_contract(a, [float(v) for v in x])
        assert np.allclose(got, want, atol=1e-9), (case, a, x)
    return cases


def run_relabel_invariance(cases: int, seed: int) -> int:
    """hyperdet must be blind to vertex relabeling."""
    rng = random.Random(seed)
    for case in range(cases):
        n = rng.randint(2, 3)
        k = rng.choice([2, 3, 4]) if n == 2 else rng.choice([2, 3])
        if n == 2:
            a = random_hypermatrix(rng, k, n, lo=0, hi=4)
        else:
            seq = tuple(rng.randint(1, n) for _ in range(n - 2))
            a = build_steiner_hypermatrix(tree_from_prufer(seq), k)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert hyperdet(a.relabel(perm)) == hyperdet(a), (case, a, perm)
    return cases


def run_multiplicity_integrality(cases: int, seed: int) -> int:
    """charpoly_allones: positive integer multiplicities, total n(k-1)^(n-1),
    and sum mult * value = n(k-1)^(n-1), the all-ones hypermatrix's trace
    (Hu, Huang, Ling & Qi, JSC 2013)."""
    rng = random.Random(seed)
    for case in range(cases):
        n = rng.randint(2, 4)
        k = rng.randint(2, 6)
        pairs = charpoly_allones(n, k)
        total = sum(p.multiplicity for p in pairs)
        assert total == n * (k - 1) ** (n - 1), (case, n, k, total)
        for p in pairs:
            assert isinstance(p.multiplicity, int) and p.multiplicity > 0, (case, n, k, p)
        trace = sum(p.multiplicity * p.value for p in pairs)
        scale = sum(p.multiplicity * abs(p.value) for p in pairs)
        assert abs(trace - n * (k - 1) ** (n - 1)) <= 1e-9 * scale, (case, n, k, trace)
    return cases


def run_nqz_monotonicity(cases: int, seed: int) -> int:
    """Enclosure widths never grow along the iteration history."""
    rng = random.Random(seed)
    for case in range(cases):
        n = rng.randint(2, 6)
        k = rng.randint(2, 4)
        if n == 2:
            g = tree_from_prufer(())
        else:
            g = tree_from_prufer(tuple(rng.randint(1, n) for _ in range(n - 2)))
        enc = nqz_spectral_radius(build_steiner_hypermatrix(g, k), 1e-6)
        widths = [hi - lo for lo, hi in enc.history]
        slack = 1e-9 * (1.0 + abs(enc.hi))
        for earlier, later in zip(widths, widths[1:]):
            assert later <= earlier + slack, (case, n, k, widths)
        assert enc.lo - slack <= enc.value <= enc.hi + slack, (case, n, k)
    return cases
