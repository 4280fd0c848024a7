"""Sweep machinery: tree-by-tree hyperdeterminants and spectral radii,
conjecture verdicts, the distance-determinant regression, and extremal
spectral-radius rankings, all emitting deterministic JSON-ready reports.

Sweeps and rankings share one pass that evaluates each isomorphism
class once (by canonical form), so a labeled sweep over n^(n-2) trees
pays for one hyperdeterminant per class; results are optionally
persisted in an append-only JSON-lines cache.  Sweeps, tree rankings and
the Graham-Pollak check walk the labeled trees in the numpy blocks of
`graphs.labeled_tree_blocks`: a block is decoded in lockstep and keyed by
one `tree_keys` call, and a `Graph` is built only for the first tree of
each class.  One cap, `TREE_WALK_CAP`, bounds all three walks, each
refusing before it walks.  A sweep report holds each class's values once,
beside one (Prüfer sequence, class key) row per labeled tree; verdicts,
witnesses and rankings read those values, and its JSON encodes them once,
in pieces that the CLI writes as they come.
"""

from __future__ import annotations

import json
import math
import random
import sys
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exact import _size, det_stack
from .graphs import (
    Graph,
    all_connected_graphs,
    canonical_key,
    canonical_keys,
    distance_stack,
    labeled_tree_blocks,
    path_graph,
    tree_keys,
)
from .hypermatrix import build_steiner_hypermatrix
from .resultant import check_hyperdet_cap, hyperdet
from .spectra import NQZ_TOL, nqz_spectral_radius


def report_json(obj) -> str:
    """Canonical JSON byte layout: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "))


class ResultCache:
    """Append-only JSON-lines store keyed by (canonical form, k, quantity).

    A write cut short by a crash leaves a torn final line: loading skips
    it with a warning, and the next `put` truncates it away and starts on
    a fresh line.  Any other bad line, one that is not UTF-8, not JSON or
    a JSON line that is not a record (`_record_problem`), raises one
    ValueError that names the path and the line.
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
                    rec = json.loads(line.decode("utf-8"))
                    problem = _record_problem(rec)
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    if i == len(lines) - 1:
                        warnings.warn(f"{self.path}: skipped a torn final line", stacklevel=2)
                        self._resume_at = offset
                        break
                    if isinstance(exc, UnicodeDecodeError):
                        problem = f"not UTF-8 ({exc.reason}): byte {exc.start + 1}"
                    else:
                        problem = f"{exc.msg}: column {exc.colno}"
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
    {"value", "lo", "hi", "iterations"} (finite lo <= value <= hi, since
    json reads NaN and Infinity, and iterations an int >= 1).  The type
    tests are exact, because bool is an int subclass.
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
            and -math.inf < value["lo"] <= value["value"] <= value["hi"] < math.inf
            and value["iterations"] >= 1
        ):
            return f"radius value {value!r} is not an enclosure"
    return None


@dataclass
class SweepReport:
    """A sweep's class table and its rows.

    `classes` maps each canonical key to its {"det", "radius"} values, in
    the order the walk first met the class; `records` holds one
    (Prüfer sequence, canonical key) row per labeled tree, or per class in
    mode "unlabeled".
    """

    n: int
    k: int
    mode: str
    seed: int
    classes: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def to_json(self, witness: dict | None = None) -> str:
        """`report_json` of the report with one {"prufer", "canonical", **values}
        object per row, plus "witness" when given: `json_chunks`, joined."""
        return "".join(self.json_chunks(witness))

    def json_chunks(self, witness: dict | None = None):
        """`to_json`'s text in pieces, so a writer holds one piece at a time:
        the frame up to the records list, one piece per row, then the rest of
        the frame.  Each class is encoded once, with a 0 in place of the
        Prüfer list that each of its rows splices in."""
        cut = {}
        for key, values in self.classes.items():
            fragment = report_json({"canonical": key, "prufer": 0, **values})
            head, _, tail = fragment.partition('"prufer": 0')
            cut[key] = (head + '"prufer": [', "]" + tail)
        frame = {"n": self.n, "k": self.k, "mode": self.mode, "seed": self.seed}
        frame.update(records=0, verdicts=self.verdicts)
        if witness:
            frame["witness"] = witness
        head, _, tail = report_json(frame).partition('"records": 0')
        yield head + '"records": ['
        comma = ""
        for seq, key in self.records:
            yield f"{comma}{cut[key][0]}{','.join(map(str, seq))}{cut[key][1]}"
            comma = ","
        yield "]" + tail


def _class_job(g, k, want_det, want_radius, tol):
    """All requested quantities for one isomorphism class."""
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
    """(Prüfer sequence, edges, canonical key) of every labeled tree on n
    vertices, keyed a block at a time."""
    for seqs, edges in labeled_tree_blocks(n):
        yield from zip(map(tuple, seqs.tolist()), edges, tree_keys(n, edges))


def _evaluate_classes(n, items, k, det, radius, tol, cache=None):
    """Evaluate each class of the (label, edges, canonical key) items once.

    Returns `labeled`, the (label, key) pairs in item order; `reps`, the
    first item per class as key -> (label, Graph), the only Graphs built;
    and each class's {"det", "radius"} values, class by class: cache hits,
    else one `_class_job`, whose values are cached as soon as it is done.
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
    for ckey, (_, g) in reps.items():
        found = values[ckey] = {}
        for q in wanted:
            if cache is not None and cache.get(ckey, k, names[q]) is not None:
                found[q] = cache.get(ckey, k, names[q])
        missing = [q for q in wanted if q not in found]
        if missing:
            out = _class_job(g, k, "det" in missing, "radius" in missing, tol)
            found.update(out)
            if cache is not None:
                for q, value in out.items():
                    cache.put(ckey, k, names[q], value)
    return labeled, reps, values


# largest n whose n^(n-2) labeled trees are walked: 262,144 at n = 8
TREE_WALK_CAP = 8


def sweep_trees(
    n: int,
    k: int,
    det: bool = False,
    radius: bool = False,
    mode: str = "labeled",
    tol: float = NQZ_TOL,
    seed: int = 0,
    cache: ResultCache | None = None,
) -> SweepReport:
    """Evaluate every labeled tree on n vertices at order k.

    Hyperdeterminants and NQZ radii are computed once per canonical class
    and held once, in the report's class table; its rows name the class of
    each of the n^(n-2) labeled trees (mode "labeled") or of each class's
    first tree (mode "unlabeled").  Verdicts: conjecture1 = all
    dets equal; conjecture2 = nonzero dets carry sign (-1)^(n-1), reported
    "not-applicable" when every det is zero; question2 = the top radius
    enclosure belongs to a path, counting enclosure-overlap ties in the
    path's favor and reporting them.

    A det sweep reruns hyperdet on every class, in sorted key order, under
    one vertex permutation each, all drawn with `seed`, and demands
    identical values.  n is capped at `TREE_WALK_CAP`.
    """
    n, k = _size(n, 2, "n"), _size(k, 2, "order k")
    if mode not in ("labeled", "unlabeled"):
        raise ValueError(f"unknown mode {mode!r}")
    if det:
        check_hyperdet_cap(n, k)
    if n > TREE_WALK_CAP:
        raise ValueError(f"sweep capped at n <= {TREE_WALK_CAP}")

    rows, reps, classes = _evaluate_classes(n, _labeled_trees(n), k, det, radius, tol, cache)
    if mode == "unlabeled":
        rows = [(seq, ckey) for ckey, (seq, _) in reps.items()]

    report = SweepReport(n, k, mode, seed, classes, rows)
    if det:
        _relabel_spot_checks(reps, classes, n, k, seed)
        report.verdicts.update(_det_verdicts([v["det"] for v in classes.values()], n))
    if radius:
        report.verdicts.update(_radius_verdicts({c: v["radius"] for c, v in classes.items()}, n))
    return report


def _relabel_spot_checks(reps, values, n, k, seed) -> None:
    """hyperdet must not move when each class is relabeled by a seeded permutation."""
    rng = random.Random(seed)
    for ckey in sorted(reps):
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


def _det_verdicts(dets, n: int) -> dict:
    distinct = sorted(set(dets))
    verdicts = {"conjecture1": len(distinct) == 1}
    if verdicts["conjecture1"]:
        verdicts["common_det"] = distinct[0]
    nonzero = [d for d in distinct if d != 0]
    if not nonzero:
        verdicts["conjecture2"] = "not-applicable"
    else:
        expected = (-1) ** (n - 1)
        verdicts["conjecture2"] = all(_sign(d) == expected for d in nonzero)
    return verdicts


def _ranked(radii: dict) -> list:
    """The keys of {key: enclosure}, the largest radius value first, then the smaller key."""
    return sorted(radii, key=lambda c: (-radii[c]["value"], c))


def _radius_verdicts(radii: dict, n: int) -> dict:
    """Question 2 for sweeps and rankings alike: is the path among the top's ties?

    Ties: the classes whose enclosure reaches the top's lower end, by canonical key.
    """
    top = radii[_ranked(radii)[0]]
    ties = sorted(c for c, r in radii.items() if r["hi"] >= top["lo"])
    verdicts = {"question2": canonical_key(path_graph(n)) in ties}
    if len(ties) > 1:
        verdicts["question2_ties"] = ties
    return verdicts


def falsifying_witness(report: SweepReport) -> dict | None:
    """The serialized counterexample behind a failed verdict, if any: classes
    in the order the walk met them, each named by its first row.  A report
    with no failed verdict returns None before it reads a row."""
    v = report.verdicts
    if not any(v.get(name) is False for name in ("conjecture1", "conjecture2", "question2")):
        return None
    first = {}
    for seq, key in report.records:
        first.setdefault(key, seq)
    dets = {c: values["det"] for c, values in report.classes.items() if "det" in values}
    if v.get("conjecture1") is False:
        by_det: dict = {}
        for c, d in dets.items():
            by_det.setdefault(d, c)
        trees = [
            {"prufer": list(first[c]), "det": d, "canonical": c} for d, c in sorted(by_det.items())
        ]
        return {"verdict": "conjecture1", "witness": trees}
    if v.get("conjecture2") is False:
        expected = (-1) ** (report.n - 1)
        for c, d in dets.items():
            if d and _sign(d) != expected:
                return {"verdict": "conjecture2", "witness": [{"prufer": list(first[c]), "det": d}]}
    if v.get("question2") is False:
        radii = {c: values["radius"] for c, values in report.classes.items()}
        top = _ranked(radii)[0]
        return {
            "verdict": "question2",
            "witness": [{"prufer": list(first[top]), "canonical": top, "radius": radii[top]}],
        }
    return None


def graham_pollak_check(n_max: int) -> dict:
    """det(distance matrix) = (1-n)(-2)^(n-2) over every labeled tree, n = 2..n_max.

    Trees come from `labeled_tree_blocks`; each block's distance matrices
    come from one `distance_stack`, and one `det_stack` gives all their
    exact determinants, each compared with the expected value.  The first
    five failures of each n, in Prüfer order, are kept with their
    determinant; a row passes when no tree fails.  n_max is capped at
    `TREE_WALK_CAP`.
    """
    n_max = _size(n_max, 2, "n_max")
    if n_max > TREE_WALK_CAP:
        raise ValueError(f"gp-check capped at n_max <= {TREE_WALK_CAP}")
    per_n = []
    for n in range(2, n_max + 1):
        expected = (1 - n) * (-2) ** (n - 2)
        trees = failed = 0
        failures = []
        for seqs, edges in labeled_tree_blocks(n):
            dets = det_stack(distance_stack(n, edges))
            bad = np.flatnonzero(dets != expected)
            for i in bad[: 5 - len(failures)]:
                failures.append({"prufer": seqs[i].tolist(), "det": int(dets[i])})
            trees += len(seqs)
            failed += len(bad)
        per_n.append(
            {
                "n": n,
                "trees": trees,
                "expected": expected,
                "pass": not failed,
                "failures": failures,
            }
        )
    return {"n_max": n_max, "per_n": per_n, "pass": all(e["pass"] for e in per_n)}


EXTREMAL_GRAPH_CAP = 5


def extremal_radius(n: int, k: int, scope: str = "trees", tol: float = NQZ_TOL) -> dict:
    """NQZ spectral radii over all trees (or connected graphs), ranked descending.

    Evidence report: degree sequences alongside the radii, and question 2
    as a sweep decides it (`_radius_verdicts`); never asserts the open question.
    """
    n, k = _size(n, 2, "n"), _size(k, 2, "order k")
    if scope == "trees":
        if n > TREE_WALK_CAP:
            raise ValueError(f"tree scope capped at 2 <= n <= {TREE_WALK_CAP}")
        items = _labeled_trees(n)
    elif scope == "connected-graphs":
        if n > EXTREMAL_GRAPH_CAP:
            raise ValueError(f"graph scope capped at 2 <= n <= {EXTREMAL_GRAPH_CAP}")
        graphs = list(all_connected_graphs(n))
        items = ((None, g.edges, key) for g, key in zip(graphs, canonical_keys(graphs)))
    else:
        raise ValueError(f"unknown scope {scope!r}")

    _, reps, values = _evaluate_classes(n, items, k, False, True, tol)
    radii = {c: v["radius"] for c, v in values.items()}
    verdicts = _radius_verdicts(radii, n)
    path_key = canonical_key(path_graph(n))
    entries = []
    for c in _ranked(radii):
        g = reps[c][1]
        degs = sorted(map(len, g.adjacency()[1:]), reverse=True)
        entries.append(
            {
                "canonical": c,
                "edges": [list(e) for e in g.sorted_edges()],
                "degree_sequence": degs,
                "is_path": c == path_key,
                "radius": radii[c],
            }
        )
    return {
        "n": n,
        "k": k,
        "scope": scope,
        "tol": tol,
        "entries": entries,
        "top_is_path": verdicts["question2"],
        "ties": verdicts.get("question2_ties", []),
    }
