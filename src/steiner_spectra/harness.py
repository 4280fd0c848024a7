"""Sweep machinery: tree-by-tree hyperdeterminants and spectral radii,
conjecture verdicts, the distance-determinant regression, and extremal
spectral-radius rankings, all emitting deterministic JSON-ready reports.

Sweeps and rankings share one pass that evaluates each isomorphism
class once (by canonical form), so a labeled sweep over n^(n-2) trees
pays for one hyperdeterminant per class; results are optionally
persisted in an append-only JSON-lines cache.  A labeled tree costs a
Prüfer decode and a canonical key; a `Graph` is built only for the first
tree of each class.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import warnings
from dataclasses import dataclass, field
from multiprocessing import Pool

from .exact import IntMatrix, det_exact
from .graphs import (
    Graph,
    all_connected_graphs,
    canonical_key,
    distance_rows,
    enumerate_tree_edges,
    path_graph,
    tree_key,
)
from .hypermatrix import build_steiner_hypermatrix
from .resultant import check_hyperdet_cap, hyperdet
from .spectra import NQZ_TOL, nqz_spectral_radius


def report_json(obj) -> str:
    """Canonical JSON byte layout: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "))


class CacheLineError(json.JSONDecodeError):
    """A cache line, not the last one, that is not JSON.

    Its message names the cache file and the line in it; json's own
    position counts lines within that one line only.
    """

    def __init__(self, path: str, line: int, exc: json.JSONDecodeError):
        super().__init__(exc.msg, exc.doc, exc.pos)
        self.path = path
        self.line = line

    def __str__(self):
        return f"{self.path}: line {self.line}: {self.msg}: column {self.colno}"


class ResultCache:
    """Append-only JSON-lines store keyed by (canonical form, k, quantity).

    A write cut short by a crash leaves a torn final line: loading skips
    it with a warning, and the next `put` truncates it away and starts on
    a fresh line.  Any other line that is not JSON raises CacheLineError,
    and a JSON line that is not a record (`_record_problem`) raises
    ValueError; both name the path and the line.
    """

    def __init__(self, path):
        self.path = str(path)
        self._data = {}
        self._lock = threading.Lock()
        # file length to truncate to before the next record, when the file
        # does not end in a complete line
        self._resume_at = None
        try:
            with open(self.path, "rb") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return
        offset = 0
        for i, line in enumerate(lines):
            if line.strip():
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    if i < len(lines) - 1:
                        raise CacheLineError(self.path, i + 1, exc) from None
                    warnings.warn(f"{self.path}: skipped a torn final line", stacklevel=2)
                    self._resume_at = offset
                    break
                problem = _record_problem(rec)
                if problem:
                    raise ValueError(f"{self.path}: line {i + 1}: {problem}")
                self._data[tuple(rec["key"])] = rec["value"]
            offset += len(line)
        if lines and not lines[-1].endswith(b"\n") and self._resume_at is None:
            self._resume_at = offset  # a whole record that lost its newline

    def get(self, canonical: str, k: int, quantity: str):
        return self._data.get((canonical, k, quantity))

    def put(self, canonical: str, k: int, quantity: str, value) -> None:
        key = (canonical, k, quantity)
        with self._lock:
            if key in self._data:
                return
            self._data[key] = value
            with open(self.path, "a", encoding="utf-8") as fh:
                if self._resume_at is not None:
                    # the leading newline ends a kept record and leaves a
                    # blank line, which loading skips, after a cut one
                    fh.truncate(self._resume_at)
                    fh.write("\n")
                    self._resume_at = None
                fh.write(json.dumps({"key": list(key), "value": value}) + "\n")


def _record_problem(rec) -> str | None:
    """Why a parsed cache line is not a record, or None when it is one.

    A record is {"key": [canonical, k, quantity], "value": v}.  Sweeps
    read only quantities of the current CACHE_VERSION, so only there is v
    checked: an int for "det:", and for "radius:" the enclosure object
    {"value", "lo", "hi", "iterations"} (numbers, iterations an int).  The
    type tests are exact, because bool is an int subclass.
    """
    if not isinstance(rec, dict):
        return "not a JSON object"
    key, value = rec.get("key"), rec.get("value")
    if not (
        isinstance(key, list)
        and len(key) == 3
        and isinstance(key[0], str)
        and type(key[1]) is int
        and isinstance(key[2], str)
    ):
        return f"key {key!r} is not [str, int, str]"
    quantity = key[2]
    if not quantity.endswith(f":{CACHE_VERSION}"):
        return None
    if quantity.startswith("det:"):
        if type(value) is not int:
            return f"det value {value!r} is not an integer"
    elif quantity.startswith("radius:"):
        if not (
            isinstance(value, dict)
            and all(type(value.get(f)) in (int, float) for f in ("value", "lo", "hi"))
            and type(value.get("iterations")) is int
        ):
            return f"radius value {value!r} is not an enclosure"
    return None


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


def _class_job(args):
    """Worker task: all requested quantities for one isomorphism class."""
    g, k, want_det, want_radius, tol = args
    a = build_steiner_hypermatrix(g, k)
    out = {}
    if want_det:
        out["det"] = hyperdet(a)
    if want_radius:
        out["radius"] = nqz_spectral_radius(a, tol).to_json_dict()
    return out


# Part of every cache quantity name: change it when a stored value's
# algorithm or format changes, so that older records are misses.
CACHE_VERSION = "v2"


def _labeled_trees(n):
    """(Prüfer sequence, edges, canonical key) of every labeled tree on n vertices."""
    for seq, edges in enumerate_tree_edges(n):
        yield seq, edges, tree_key(n, edges)


def _evaluate_classes(n, items, k, det, radius, tol, jobs=1, cache=None):
    """Evaluate each class of the (label, edges, canonical key) items once.

    Returns `labeled`, the (label, key) pairs in item order; `reps`, the
    first item per class as key -> (label, Graph), the only Graphs built;
    and each class's {"det", "radius"} values: cache hits first, then one
    `_class_job` per miss, serial or in a worker pool.
    """
    labeled, reps = [], {}
    for label, edges, key in items:
        key = sys.intern(key)  # one string per class
        labeled.append((label, key))
        if key not in reps:
            reps[key] = (label, Graph.from_edges(n, edges))
    names = {  # cache quantities
        "det": f"det:{CACHE_VERSION}",
        "radius": f"radius:{float(tol)!r}:{CACHE_VERSION}",
    }
    wanted = [q for q, on in (("det", det), ("radius", radius)) if on]
    values = {}
    pending = []
    for ckey, (_, g) in reps.items():
        found = values[ckey] = {}
        for q in wanted:
            if cache is not None and cache.get(ckey, k, names[q]) is not None:
                found[q] = cache.get(ckey, k, names[q])
        missing = [q for q in wanted if q not in found]
        if missing:
            pending.append((ckey, (g, k, "det" in missing, "radius" in missing, tol)))

    if jobs > 1 and pending:
        with Pool(processes=min(jobs, len(pending))) as pool:
            results = pool.map(_class_job, [args for _, args in pending])
    else:
        results = [_class_job(args) for _, args in pending]
    for (ckey, _), out in zip(pending, results):
        values[ckey].update(out)
        if cache is not None:
            for q, value in out.items():
                cache.put(ckey, k, names[q], value)
    return labeled, reps, values


# at most how many distinct classes a det sweep re-checks under a random relabeling
RELABEL_CHECKS = 10


def sweep_trees(
    n: int,
    k: int,
    det: bool = False,
    radius: bool = False,
    mode: str = "labeled",
    tol: float = NQZ_TOL,
    seed: int = 0,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> SweepReport:
    """Evaluate every labeled tree on n vertices at order k.

    Hyperdeterminants and NQZ radii are computed once per canonical class
    and fanned back out to the n^(n-2) labeled records (mode "labeled") or
    kept one-per-class (mode "unlabeled").  Verdicts: conjecture1 = all
    dets equal; conjecture2 = nonzero dets carry sign (-1)^(n-1), reported
    "not-applicable" when every det is zero; question2 = the top radius
    enclosure belongs to a path, counting enclosure-overlap ties in the
    path's favor and reporting them.

    Relabeling spot-checks rerun hyperdet on up to RELABEL_CHECKS distinct
    classes, each under one random vertex permutation, all drawn with
    `seed`, and demand identical values.
    """
    if mode not in ("labeled", "unlabeled"):
        raise ValueError(f"unknown mode {mode!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if det:
        check_hyperdet_cap(n, k)

    labeled, reps, values = _evaluate_classes(
        n, _labeled_trees(n), k, det, radius, tol, jobs, cache
    )
    if mode == "unlabeled":
        labeled = [(seq, ckey) for ckey, (seq, _) in reps.items()]
    records = [
        SweepRecord(seq, ckey, values[ckey].get("det"), values[ckey].get("radius"))
        for seq, ckey in labeled
    ]

    report = SweepReport(n, k, mode, seed, records)
    if det:
        _relabel_spot_checks(reps, values, n, k, seed)
        report.verdicts.update(_det_verdicts(records, n))
    if radius:
        report.verdicts.update(_radius_verdicts(records, n))
    return report


def _relabel_spot_checks(reps, values, n, k, seed) -> None:
    """hyperdet must not move under random vertex permutations."""
    rng = random.Random(seed)
    for ckey in rng.sample(sorted(reps), min(RELABEL_CHECKS, len(reps))):
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


def _by_radius(r) -> tuple:
    """Ranking key: the largest radius value first, then the smaller canonical key."""
    return (-r.radius["value"], r.canonical)


def _radius_ties(records, top) -> list:
    """Canonical keys, in record order, whose enclosure reaches the top's lower end."""
    return [r.canonical for r in records if r.radius["hi"] >= top.radius["lo"]]


def _radius_verdicts(records, n: int) -> dict:
    ties = sorted(set(_radius_ties(records, min(records, key=_by_radius))))
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
        top = min(report.records, key=_by_radius)
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
        for seq, edges in enumerate_tree_edges(n):
            trees += 1
            d = det_exact(IntMatrix(distance_rows(n, edges)))
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


def extremal_radius(n: int, k: int, scope: str = "trees", tol: float = NQZ_TOL) -> dict:
    """NQZ spectral radii over all trees (or connected graphs), ranked descending.

    Evidence report: flags whether a path sits on top, lists degree
    sequences alongside the radii, and never asserts the open question.
    """
    if scope == "trees":
        if not 2 <= n <= EXTREMAL_TREE_CAP:
            raise ValueError(f"tree scope capped at 2 <= n <= {EXTREMAL_TREE_CAP}")
        items = _labeled_trees(n)
    elif scope == "connected-graphs":
        if not 2 <= n <= EXTREMAL_GRAPH_CAP:
            raise ValueError(f"graph scope capped at 2 <= n <= {EXTREMAL_GRAPH_CAP}")
        items = ((None, g.edges, canonical_key(g)) for g in all_connected_graphs(n))
    else:
        raise ValueError(f"unknown scope {scope!r}")

    _, reps, values = _evaluate_classes(n, items, k, False, True, tol)
    records = [SweepRecord(label, c, radius=values[c]["radius"]) for c, (label, _) in reps.items()]
    ranked = sorted(records, key=_by_radius)
    ties = _radius_ties(ranked, ranked[0])
    path_key = canonical_key(path_graph(n))
    entries = []
    for r in ranked:
        g = reps[r.canonical][1]
        degs = sorted(map(len, g.adjacency()[1:]), reverse=True)
        entries.append(
            {
                "canonical": r.canonical,
                "edges": [list(e) for e in g.sorted_edges()],
                "degree_sequence": degs,
                "is_path": r.canonical == path_key,
                "radius": r.radius,
            }
        )
    return {
        "n": n,
        "k": k,
        "scope": scope,
        "tol": tol,
        "entries": entries,
        "top_is_path": entries[0]["is_path"],
        "ties": ties if len(ties) > 1 else [],
    }
