"""Sweep machinery: tree-by-tree hyperdeterminants and spectral radii,
conjecture verdicts, the distance-determinant regression, and extremal
spectral-radius rankings, all emitting deterministic JSON-ready reports.

Dedup happens through canonical forms, so a labeled sweep over n^(n-2)
trees pays for one hyperdeterminant per isomorphism class; results are
optionally persisted in an append-only JSON-lines cache.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from multiprocessing import Pool

from .exact import det_exact
from .graphs import (
    Graph,
    all_connected_graphs,
    canonical_key,
    distance_matrix,
    enumerate_labeled_trees,
    path_graph,
)
from .hypermatrix import build_steiner_hypermatrix
from .resultant import MAX_DEGREE, MAX_VARS, hyperdet
from .spectra import nqz_spectral_radius


def report_json(obj) -> str:
    """Canonical JSON byte layout: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "))


class ResultCache:
    """Append-only JSON-lines store keyed by (canonical form, k, quantity)."""

    def __init__(self, path):
        self.path = str(path)
        self._data = {}
        self._lock = threading.Lock()
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    self._data[tuple(rec["key"])] = rec["value"]
        except FileNotFoundError:
            pass

    def get(self, canonical: str, k: int, quantity: str):
        return self._data.get((canonical, k, quantity))

    def put(self, canonical: str, k: int, quantity: str, value) -> None:
        key = (canonical, k, quantity)
        with self._lock:
            if key in self._data:
                return
            self._data[key] = value
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"key": list(key), "value": value}) + "\n")


@dataclass
class SweepRecord:
    prufer: tuple
    canonical: str
    det: int | None = None
    radius: dict | None = None  # enclosure as {"value","lo","hi","iterations"}

    def to_json_dict(self) -> dict:
        out = {"prufer": list(self.prufer), "canonical": self.canonical}
        if self.det is not None:
            out["det"] = self.det
        if self.radius is not None:
            out["radius"] = self.radius
        return out


@dataclass
class SweepReport:
    n: int
    k: int
    mode: str
    seed: int
    records: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "mode": self.mode,
            "seed": self.seed,
            "records": [r.to_json_dict() for r in self.records],
            "verdicts": self.verdicts,
        }

    def to_json(self) -> str:
        return report_json(self.to_json_dict())


def hyperdet_cap_ok(n: int, k: int) -> bool:
    return k == 2 or n == 2 or (n <= MAX_VARS and k - 1 <= MAX_DEGREE)


def _class_job(args):
    """Worker task: all requested quantities for one isomorphism class."""
    edges, n, k, want_det, want_radius, tol = args
    g = Graph.from_edges(n, edges)
    a = build_steiner_hypermatrix(g, k)
    out = {}
    if want_det:
        out["det"] = hyperdet(a)
    if want_radius:
        out["radius"] = nqz_spectral_radius(a, tol).to_json_dict()
    return out


def _radius_quantity(tol: float) -> str:
    return f"radius:{tol:g}"


def sweep_trees(
    n: int,
    k: int,
    det: bool = False,
    radius: bool = False,
    mode: str = "labeled",
    tol: float = 1e-8,
    seed: int = 0,
    jobs: int = 1,
    cache: ResultCache | None = None,
    relabel_checks: int = 10,
) -> SweepReport:
    """Evaluate every labeled tree on n vertices at order k.

    Hyperdeterminants and NQZ radii are computed once per canonical class
    and fanned back out to the n^(n-2) labeled records (mode "labeled") or
    kept one-per-class (mode "unlabeled").  Verdicts: conjecture1 = all
    dets equal; conjecture2 = nonzero dets carry sign (-1)^(n-1), reported
    "not-applicable" when every det is zero; question2 = the top radius
    enclosure belongs to a path, counting enclosure-overlap ties in the
    path's favor and reporting them.

    Relabeling spot-checks rerun hyperdet on `relabel_checks` randomly
    permuted hypermatrices and demand identical values.
    """
    if mode not in ("labeled", "unlabeled"):
        raise ValueError(f"unknown mode {mode!r}")
    if det and not hyperdet_cap_ok(n, k):
        raise ValueError(
            f"hyperdet cap: need k = 2, n = 2, or n <= {MAX_VARS} with "
            f"k - 1 <= {MAX_DEGREE}; got n={n}, k={k}"
        )

    trees = list(enumerate_labeled_trees(n))
    keys = [canonical_key(g) for _, g in trees]
    reps: dict = {}
    for (seq, g), ckey in zip(trees, keys):
        reps.setdefault(ckey, (seq, g))

    # resolve each class from the cache, then batch the misses
    values = {ckey: {} for ckey in reps}
    pending = []
    for ckey, (_, g) in reps.items():
        want_det = det and (cache is None or cache.get(ckey, k, "det") is None)
        want_radius = radius and (
            cache is None or cache.get(ckey, k, _radius_quantity(tol)) is None
        )
        if cache is not None:
            if det and not want_det:
                values[ckey]["det"] = cache.get(ckey, k, "det")
            if radius and not want_radius:
                values[ckey]["radius"] = cache.get(ckey, k, _radius_quantity(tol))
        if want_det or want_radius:
            pending.append(
                (ckey, (tuple(g.sorted_edges()), n, k, want_det, want_radius, tol))
            )

    if pending:
        if jobs > 1:
            with Pool(processes=min(jobs, len(pending))) as pool:
                results = pool.map(_class_job, [args for _, args in pending])
        else:
            results = [_class_job(args) for _, args in pending]
        for (ckey, _), out in zip(pending, results):
            values[ckey].update(out)
            if cache is not None:
                if "det" in out:
                    cache.put(ckey, k, "det", out["det"])
                if "radius" in out:
                    cache.put(ckey, k, _radius_quantity(tol), out["radius"])

    records = []
    if mode == "labeled":
        for (seq, g), ckey in zip(trees, keys):
            v = values[ckey]
            records.append(SweepRecord(seq, ckey, v.get("det"), v.get("radius")))
    else:
        for ckey, (seq, g) in reps.items():
            v = values[ckey]
            records.append(SweepRecord(seq, ckey, v.get("det"), v.get("radius")))

    report = SweepReport(n, k, mode, seed, records)
    if det:
        _relabel_spot_checks(reps, values, n, k, seed, relabel_checks)
        report.verdicts.update(_det_verdicts(records, n))
    if radius:
        report.verdicts.update(_radius_verdicts(records, n))
    return report


def _relabel_spot_checks(reps, values, n, k, seed, count) -> None:
    """hyperdet must not move under random vertex permutations."""
    if count <= 0 or n < 2:
        return
    rng = random.Random(seed)
    items = sorted(reps)
    for _ in range(count):
        ckey = rng.choice(items)
        _, g = reps[ckey]
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        a = build_steiner_hypermatrix(g, k).relabel(perm)
        got = hyperdet(a)
        if got != values[ckey]["det"]:
            raise ArithmeticError(
                f"relabeling changed hyperdet on {ckey}: {got} != {values[ckey]['det']}"
            )


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _det_verdicts(records, n: int) -> dict:
    dets = [r.det for r in records]
    distinct = sorted(set(dets))
    verdicts = {"conjecture1": len(distinct) == 1}
    if verdicts["conjecture1"]:
        verdicts["common_det"] = distinct[0]
    nonzero = [d for d in dets if d != 0]
    if not nonzero:
        verdicts["conjecture2"] = "not-applicable"
    else:
        expected = (-1) ** (n - 1)
        verdicts["conjecture2"] = all(_sign(d) == expected for d in nonzero)
    return verdicts


def _radius_verdicts(records, n: int) -> dict:
    top = max(records, key=lambda r: (r.radius["value"], r.canonical))
    ties = sorted(
        {r.canonical for r in records if r.radius["hi"] >= top.radius["lo"]}
    )
    path_key = canonical_key(path_graph(n))
    verdicts = {"question2": path_key in ties}
    if len(ties) > 1:
        verdicts["question2_ties"] = ties
    return verdicts


def falsifying_witness(report: SweepReport) -> dict | None:
    """The serialized counterexample behind a failed verdict, if any."""
    v = report.verdicts
    by_det: dict = {}
    for r in report.records:
        if r.det is not None:
            by_det.setdefault(r.det, r)
    if v.get("conjecture1") is False:
        trees = [
            {"prufer": list(r.prufer), "det": r.det, "canonical": r.canonical}
            for _, r in sorted(by_det.items(), key=lambda kv: str(kv[0]))
        ]
        return {"verdict": "conjecture1", "witness": trees}
    if v.get("conjecture2") is False:
        expected = (-1) ** (report.n - 1)
        for r in report.records:
            if r.det and _sign(r.det) != expected:
                return {
                    "verdict": "conjecture2",
                    "witness": [{"prufer": list(r.prufer), "det": r.det}],
                }
    if v.get("question2") is False:
        top = max(report.records, key=lambda r: (r.radius["value"], r.canonical))
        return {
            "verdict": "question2",
            "witness": [
                {
                    "prufer": list(top.prufer),
                    "canonical": top.canonical,
                    "radius": top.radius,
                }
            ],
        }
    return None


def graham_pollak_check(n_max: int) -> dict:
    """det(distance matrix) = (1-n)(-2)^(n-2) over every labeled tree, n = 2..n_max."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    per_n = []
    for n in range(2, n_max + 1):
        expected = (1 - n) * (-2) ** (n - 2)
        trees = 0
        failures = []
        for seq, g in enumerate_labeled_trees(n):
            trees += 1
            d = det_exact(distance_matrix(g))
            if d != expected:
                failures.append({"prufer": list(seq), "det": d})
        per_n.append(
            {
                "n": n,
                "trees": trees,
                "expected": expected,
                "pass": not failures,
                "failures": failures[:5],
            }
        )
    return {"n_max": n_max, "per_n": per_n, "pass": all(e["pass"] for e in per_n)}


EXTREMAL_TREE_CAP = 7
EXTREMAL_GRAPH_CAP = 5


def extremal_radius(n: int, k: int, scope: str = "trees", tol: float = 1e-8) -> dict:
    """NQZ spectral radii over all trees (or connected graphs), ranked descending.

    Evidence report: flags whether a path sits on top, lists degree
    sequences alongside the radii, and never asserts the open question.
    """
    if scope == "trees":
        if not 2 <= n <= EXTREMAL_TREE_CAP:
            raise ValueError(f"tree scope capped at 2 <= n <= {EXTREMAL_TREE_CAP}")
        pool = (g for _, g in enumerate_labeled_trees(n))
    elif scope == "connected-graphs":
        if not 2 <= n <= EXTREMAL_GRAPH_CAP:
            raise ValueError(f"graph scope capped at 2 <= n <= {EXTREMAL_GRAPH_CAP}")
        pool = all_connected_graphs(n)
    else:
        raise ValueError(f"unknown scope {scope!r}")

    reps: dict = {}
    for g in pool:
        reps.setdefault(canonical_key(g), g)

    path_key = canonical_key(path_graph(n))
    entries = []
    for ckey in sorted(reps):
        g = reps[ckey]
        degs = sorted((len(v) for v in g.adjacency().values()), reverse=True)
        enc = nqz_spectral_radius(build_steiner_hypermatrix(g, k), tol)
        entries.append(
            {
                "canonical": ckey,
                "edges": [list(e) for e in g.sorted_edges()],
                "degree_sequence": degs,
                "is_path": ckey == path_key,
                "radius": enc.to_json_dict(),
            }
        )
    entries.sort(key=lambda e: (-e["radius"]["value"], e["canonical"]))
    top = entries[0]
    ties = [
        e["canonical"] for e in entries if e["radius"]["hi"] >= top["radius"]["lo"]
    ]
    return {
        "n": n,
        "k": k,
        "scope": scope,
        "tol": tol,
        "entries": entries,
        "top_is_path": top["is_path"],
        "ties": ties if len(ties) > 1 else [],
    }
