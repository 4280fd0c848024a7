"""Release acceptance suite.

Each check prints one `ACCEPTANCE NN PASS/FAIL - name` line past the
capture machinery, so a full run reads as a checklist. Assertions carry
the details; the stated runtime budget is part of each check.

Criterion 8 is marked slow: `pytest -m "not slow"` skips it.
"""

import json
import time
from contextlib import contextmanager

import pytest

from props import (
    edge_block_charpoly,
    poly_at,
    run_contraction_vs_naive,
    run_multiplicity_integrality,
    run_nqz_monotonicity,
    run_relabel_invariance,
)
from steiner_spectra import (
    build_steiner_hypermatrix,
    block_matrix_check,
    block_matrix_K2,
    canonical_key,
    char_poly_exact,
    edge_charpoly,
    enumerate_labeled_trees,
    extremal_radius,
    graham_pollak_check,
    hyperdet,
    hyperdet_route,
    nqz_spectral_radius,
    path_graph,
    resultant,
    theorem1_vanishes,
    wendt,
)
from steiner_spectra.wendt import wendt_oracle

# Anchor for the (k, n) = (4, 4) run; every labeled tree reproduces it.
HYPERDET_4_4 = -5341361925940627788443972735581814784000000


@contextmanager
def criterion(num: int, name: str, capsys, limit: float | None = None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if limit is not None and elapsed > limit:
            raise AssertionError(f"runtime {elapsed:.1f}s over the {limit:.0f}s budget")
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {name} ({elapsed:.1f}s)")


def tree_class_reps(n):
    reps = {}
    for _seq, tree in enumerate_labeled_trees(n):
        reps.setdefault(canonical_key(tree), tree)
    return [tree for _key, tree in sorted(reps.items())]


def test_01_wendt_table(capsys):
    with criterion(
        1, "Wendt table m=1..12 vs exact resultant oracle, zeros at {6,12}", capsys, limit=1.0
    ):
        table = {m: wendt(m) for m in range(1, 13)}
        for m, v in table.items():
            assert v == wendt_oracle(m), (m, v)
        assert {m for m, v in table.items() if v == 0} == {6, 12}


def test_02_wendt_identity(capsys):
    with criterion(
        2, "hyperdet of the edge hypermatrix is signed Wendt, k=2..16", capsys, limit=5.0
    ):
        zeros = set()
        for k in range(2, 17):
            d = hyperdet(build_steiner_hypermatrix(path_graph(2), k))
            assert d == (-1) ** (k - 1) * wendt(k - 1), k
            if d == 0:
                zeros.add(k)
        assert zeros == {7, 13}


def test_03_classifier_vs_computed_hyperdets(capsys, monkeypatch):
    # what decided each Macaulay resultant past the 15-row exact route: the
    # line-root certificate, or its miss and then the CRT
    seen = []

    def line_root(s, check=resultant.line_root):
        seen.append("line-root" if check(s) else "no root")
        return seen[-1] == "line-root"

    def crt(*args, run=resultant._gcp_constant_modular):
        seen.append("crt")
        return run(*args)

    monkeypatch.setattr(resultant, "line_root", line_root)
    monkeypatch.setattr(resultant, "_gcp_constant_modular", crt)
    with criterion(
        3, "vanishing classifier agrees with every computed hyperdet", capsys, limit=1800.0
    ):
        for k in range(2, 17):
            a = build_steiner_hypermatrix(path_graph(2), k)
            assert hyperdet_route(a) in ("matrix-det", "sylvester")
            assert (hyperdet(a) == 0) == theorem1_vanishes(k, 2).vanishes, k
        # one hyperdet per unlabeled class; labeled invariance is criterion 10's job
        for n in (3, 4):
            reps = tree_class_reps(n)
            for k in (3, 4, 5):
                claim = theorem1_vanishes(k, n).vanishes
                for tree in reps:
                    a = build_steiner_hypermatrix(tree, k)
                    assert hyperdet_route(a) == "macaulay"
                    seen.clear()
                    d = hyperdet(a)
                    if k == 4:
                        assert d != 0 and not claim, (n, k)
                        assert seen == ["no root", "crt"], (n, k)
                    else:
                        assert d == 0 and claim, (n, k)
                        # (3, 3) has 15 Macaulay rows, taken exactly
                        assert seen == ([] if (n, k) == (3, 3) else ["line-root"]), (n, k)


def test_04_charpoly_bridge(capsys):
    with criterion(
        4, "edge charpoly is (t+1)^(k-1) Q exactly, constant term is the det, k=2..16", capsys,
        limit=1.0,
    ):
        for k in range(2, 17):
            q = edge_charpoly(k)
            p = char_poly_exact(block_matrix_K2(k))
            assert p == edge_block_charpoly(q), k
            assert p[0] == hyperdet(build_steiner_hypermatrix(path_graph(2), k)), k
            assert poly_at(q, 2 ** (k - 1) - 1) == 0, k


def test_05_nqz_radius_closed_form(capsys):
    with criterion(
        5, "NQZ radius of the edge hypermatrix hits 2^(k-1)-1, k=3..8", capsys
    ):
        for k in range(3, 9):
            t0 = time.perf_counter()
            enc = nqz_spectral_radius(build_steiner_hypermatrix(path_graph(2), k), 1e-8)
            assert abs(enc.value - (2 ** (k - 1) - 1)) <= 1e-8, k
            assert time.perf_counter() - t0 < 1.0, k


def test_06_graham_pollak(capsys):
    with criterion(
        6, "distance determinant (1-n)(-2)^(n-2) on every labeled tree, n=2..7", capsys,
        limit=120.0,
    ):
        report = graham_pollak_check(7)
        assert report["pass"]
        for row in report["per_n"]:
            n = row["n"]
            assert row["trees"] == n ** (n - 2)
            assert row["expected"] == (1 - n) * (-2) ** (n - 2)
            assert row["failures"] == []


def test_07_block_reduction(capsys):
    with criterion(7, "block matrix similarity check, k=2..40", capsys, limit=10.0):
        for k in range(2, 41):
            assert block_matrix_check(k), k


@pytest.mark.slow
def test_08_conjecture1_at_4_4(capsys):
    with criterion(
        8, "all 16 labeled trees share one hyperdet at (k,n)=(4,4), sign -1", capsys,
        limit=3600.0,
    ):
        dets = [
            hyperdet(build_steiner_hypermatrix(tree, 4))
            for _seq, tree in enumerate_labeled_trees(4)
        ]
        assert len(set(dets)) == 1, sorted(set(dets))
        assert dets[0] < 0
        assert dets[0] == HYPERDET_4_4


def test_09_extremal_radius_evidence(capsys):
    # report-only: the question is open, so the check is completion plus
    # determinism, never the verdict itself
    with criterion(9, "extremal radius sweep completes deterministically", capsys):
        for n in range(3, 7):
            for k in (3, 4):
                first = extremal_radius(n, k)
                again = extremal_radius(n, k)
                assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
                assert isinstance(first["top_is_path"], bool)
                assert len(first["entries"]) >= 1


def test_10_property_suites(capsys):
    with criterion(10, "randomized property suites, 1000 cases each", capsys):
        assert run_contraction_vs_naive(1000, seed=1001) == 1000
        assert run_relabel_invariance(1000, seed=1002) == 1000
        assert run_multiplicity_integrality(1000, seed=1003) == 1000
        assert run_nqz_monotonicity(1000, seed=1004) == 1000
