#!/usr/bin/env python3
"""Closed-loop benchmark of the steiner_spectra package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, never
from an installed copy.  One process, one caller, jobs=1: each top-level
call starts after the previous one returns.  A pass issues every call of
the workload once and checks each output against pinned anchors; passes
repeat while the next one is expected to end within --seconds (at least
one pass).  A call that raises or returns a wrong value counts as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  ref_wall_s   median seconds per pass, checks included, rescaled to the
               reference core speed (speed.py): raw wall time on a shared
               host swings by up to 2x with other tenants' load
  setup_s      median over fresh interpreters of package import plus
               input generation, rescaled the same way
  peak_rss_mb  peak resident memory of this process
--trace 1 runs one untraced pass, then one pass with the package's
functions wrapped (tracer.py), and prints the per-layer metrics in raw
seconds.

The last stdout line is the result object; the line before it holds the
environment, the raw and rescaled per-pass times, the median probe kernel
time and the failure ratio.  Both, and for a traced run every span, are
also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

from speed import SpeedProbe
from tracer import END, START, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5


def load_package():
    src = ROOT / "src"
    if not (src / "steiner_spectra" / "__init__.py").is_file():
        raise SystemExit(f"error: no steiner_spectra package under {src}")
    sys.path.insert(0, str(src))
    import steiner_spectra

    if Path(steiner_spectra.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: imported steiner_spectra from {steiner_spectra.__file__}")
    return steiner_spectra


class Call(NamedTuple):
    label: str
    run: Callable[[dict], bool]  # takes the pass state, returns "output is correct"


class Pass(NamedTuple):
    t0: float  # perf_counter at the start and the end of the pass
    t1: float
    rows: list  # per call: label, seconds, ok

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


# ---------------------------------------------------------------------------
# Workloads.  WORKLOADS maps a name to a function (package, seed) -> [Call];
# that function is the input generation that setup_s times.

# Signed Wendt determinants W_1..W_15 from the mpmath eigenvalue-product
# oracle; hyperdet(D_k(K_2)) = (-1)^(k-1) W_(k-1).
WENDT = (
    1, -3, 28, -375, 3751, 0, 6835648, -1343091375, 364668913756,
    -210736858987743, 101832157445630503, 0,
    487627751563388801409591, -4875797582053878382039400448,
    58623274842128064372315087290368,
)
HYPERDET_4_4 = -5341361925940627788443972735581814784000000
# Single tree class at n = 3 (the path); values pinned from this package.
HYPERDET_3_4 = 8023601152
HYPERDET_3_6 = 43782435923605828680933188175642624

TREE_CLASSES = {
    2: {"path": [(1, 2)]},
    3: {"path": [(1, 2), (2, 3)]},
    4: {"path": [(1, 2), (2, 3), (3, 4)], "star": [(1, 2), (1, 3), (1, 4)]},
}
# Criterion 03 without (4, 5).  Every Macaulay minor here is singular: the
# exact Faddeev-LeVerrier route serves (3,3),(3,4),(3,5),(4,3), and random
# substitution with Bareiss ratios serves (3,6),(4,4).
EXACT_CASES = ((3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4))
# At (4, 4) the substitution route's cost changes up to 2x with the labeling
# (how many random substitutions fail, how large the entries grow), so
# there the classes keep their own labeling: the seed must not set the cost.
UNRELABELED = {(4, 4)}
EXPECTED = {(3, 3): 0, (3, 4): HYPERDET_3_4, (3, 5): 0, (3, 6): HYPERDET_3_6,
            (4, 3): 0, (4, 4): HYPERDET_4_4}


def relabeled_tree(pkg, n, edges, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return pkg.Graph.from_edges(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])


def hyperdet_call(pkg, label, g, k, expected):
    def run(state):
        v = pkg.hyperdet(pkg.build_steiner_hypermatrix(g, k))
        return v == expected and (v == 0) == pkg.theorem1_vanishes(k, g.n).vanishes

    return Call(label, run)


def exact_routes(pkg, seed):
    rng = random.Random(seed)
    calls = []
    for k in range(2, 17):
        g = relabeled_tree(pkg, 2, TREE_CLASSES[2]["path"], rng)
        expected = (-1) ** (k - 1) * WENDT[k - 2]
        calls.append(hyperdet_call(pkg, f"hyperdet n2 k{k}", g, k, expected))
    for n, k in EXACT_CASES:
        for cls, edges in TREE_CLASSES[n].items():
            if (n, k) in UNRELABELED:
                g = pkg.Graph.from_edges(n, edges)
            else:
                g = relabeled_tree(pkg, n, edges, rng)
            calls.append(hyperdet_call(pkg, f"hyperdet n{n} k{k} {cls}", g, k, EXPECTED[n, k]))
    return calls


# Four quartic forms in four variables.  The Macaulay matrix has 560 rows
# and its 304-row non-reduced minor is singular, so macaulay_resultant
# takes the modular CRT route, as hyperdet(D_5(T)) does on 4-vertex trees.
# With four +-1 terms per form the CRT bound is 2 * 4^256, met by 21
# primes; D_5(T) needs about 96 primes and over two minutes per call.  No
# form has an x1^4 term, so e1 is a common root and the resultant is 0.
CRT_FORMS = (
    {(0, 1, 3, 0): 1, (3, 0, 1, 0): 1, (1, 0, 3, 0): -1, (0, 0, 2, 2): 1},
    {(0, 3, 0, 1): 1, (1, 1, 2, 0): 1, (0, 0, 2, 2): 1, (2, 0, 1, 1): 1},
    {(2, 0, 0, 2): 1, (1, 0, 0, 3): -1, (2, 1, 0, 1): -1, (2, 2, 0, 0): 1},
    {(0, 1, 2, 1): -1, (0, 4, 0, 0): -1, (1, 1, 2, 0): 1, (0, 0, 4, 0): -1},
)


def crt_degenerate(pkg, seed):
    # x_j -> eps_j x_j conjugates both Macaulay matrices by a +-1 diagonal,
    # so every seed does the same elimination work on a different system.
    rng = random.Random(seed)
    eps = [rng.choice((-1, 1)) for _ in range(4)]
    polys = tuple(
        {m: c * math.prod(e**p for e, p in zip(eps, m)) for m, c in form.items()}
        for form in CRT_FORMS
    )
    system = pkg.HomogeneousSystem(4, 4, polys)
    return [Call(f"macaulay_resultant eps={eps}", lambda state: pkg.macaulay_resultant(system) == 0)]


def tree_sweep(pkg, seed):
    def extremal(n, k, scope, classes):
        def run(state):
            r = pkg.extremal_radius(n, k, scope)
            values = [e["radius"]["value"] for e in r["entries"]]
            return (
                len(r["entries"]) == classes
                and r["top_is_path"] is True
                and values == sorted(values, reverse=True)
                and all(
                    e["radius"]["lo"] <= e["radius"]["value"] <= e["radius"]["hi"]
                    and e["radius"]["hi"] - e["radius"]["lo"] < r["tol"]
                    for e in r["entries"]
                )
            )

        return Call(f"extremal_radius {n} {k} {scope}", run)

    def graham_pollak(state):
        r = pkg.graham_pollak_check(7)
        return r["pass"] is True and [e["trees"] for e in r["per_n"]] == [
            n ** (n - 2) for n in range(2, 8)
        ]

    cache_path = OUT / f"cache-{os.getpid()}.jsonl"

    def sweep_cold(state):
        cache_path.unlink(missing_ok=True)
        report = pkg.sweep_trees(7, 4, radius=True, seed=seed, cache=pkg.ResultCache(cache_path))
        state["cold"] = report.to_json()
        return len(report.records) == 7**5 and report.verdicts.get("question2") is True

    def sweep_warm(state):
        # a fresh ResultCache reads back what the cold sweep appended
        report = pkg.sweep_trees(7, 4, radius=True, seed=seed, cache=pkg.ResultCache(cache_path))
        cache_path.unlink()
        return report.to_json() == state["cold"]

    # the two sweeps stay adjacent and in order; the seed orders the rest
    units = [
        [extremal(7, 3, "trees", 11)],
        [extremal(7, 4, "trees", 11)],
        [extremal(5, 4, "connected-graphs", 21)],
        [Call("graham_pollak_check 7", graham_pollak)],
        [Call("sweep_trees 7 4 cold", sweep_cold), Call("sweep_trees 7 4 warm", sweep_warm)],
    ]
    random.Random(seed).shuffle(units)
    return [call for unit in units for call in unit]


WORKLOADS = {
    "crt-degenerate": crt_degenerate,
    "exact-routes": exact_routes,
    "tree-sweep": tree_sweep,
}


# ---------------------------------------------------------------------------
# Passes


def run_pass(calls, tracer=None) -> Pass:
    """Issue every call once, in order."""
    state = {}
    rows = []
    t0 = time.perf_counter()
    for call_id, call in enumerate(calls):
        c0 = time.perf_counter()
        try:
            if tracer is None:
                ok = call.run(state)
            else:
                tracer.call_id = call_id
                with tracer.span("bench.call"):
                    ok = call.run(state)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        rows.append({"call": call.label, "s": time.perf_counter() - c0, "ok": bool(ok)})
    return Pass(t0, time.perf_counter(), rows)


def setup_seconds(workload: str, seed: int) -> list:
    """Import-plus-generation time at reference speed, each sample in a
    fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Per-layer instrumentation


def instrument(tracer: Tracer, pkg) -> Callable[[], dict]:
    """Wrap the package's layer functions; return a reader of their metrics.

    Every wrapped function yields `<layer>.<function>.{calls,s,self_s}`.
    Counts added here: the largest matrix given to det_exact and
    char_poly_mod, zero determinants, NQZ iterations, cache hits and misses,
    distinct primes per resultant, the route that served each hyperdet, and
    macaulay_matrix.per_hyperdet: builds beyond the one each resultant
    needs, per resultant.
    """
    exact, resultant, graphs = pkg.exact, pkg.resultant, pkg.graphs
    hypermatrix, spectra, harness = pkg.hypermatrix, pkg.spectra, pkg.harness
    counts = tracer.counts
    primes = set()  # (enclosing macaulay_resultant span, prime)

    def det_hook(tr, i, args, result):
        counts["exact.det_exact.max_rows"] = max(counts["exact.det_exact.max_rows"], args[0].rows)
        counts["exact.det_exact.zero_results"] += result == 0

    def char_poly_mod_hook(tr, i, args, result):
        counts["exact.char_poly_mod.max_rows"] = max(
            counts["exact.char_poly_mod.max_rows"], args[0].rows
        )
        primes.add((tr.enclosing(i, "resultant.macaulay_resultant"), args[1]))

    def hyperdet_hook(tr, i, args, result):
        a, span = args[0], tr.spans[i]
        counts[f"resultant.hyperdet_s.n{a.dim}k{a.order}"] += span[END] - span[START]

    def hyperdet_route_hook(tr, i, args, result):
        if result != "macaulay":
            counts[f"resultant.route.{result}"] += 1

    def nqz_hook(tr, i, args, result):
        counts["spectra.nqz_spectral_radius.iterations"] += result.iterations

    def cache_get_hook(tr, i, args, result):
        counts["harness.cache.misses" if result is None else "harness.cache.hits"] += 1

    for owner, attr, name, hook in [
        (exact, "det_exact", None, det_hook),
        (exact, "char_poly_exact", None, None),
        (exact, "char_poly_mod", None, char_poly_mod_hook),
        (resultant, "hyperdet", None, hyperdet_hook),
        (resultant, "hyperdet_route", None, hyperdet_route_hook),
        (resultant, "gradient_system", None, None),
        (resultant, "macaulay_matrix", None, None),
        (resultant, "macaulay_resultant", None, None),
        (graphs, "enumerate_labeled_trees", None, None),
        (graphs, "all_connected_graphs", None, None),
        (graphs, "canonical_key", None, None),
        (graphs, "steiner_distance", None, None),
        (graphs, "distance_matrix", None, None),
        (hypermatrix, "build_steiner_hypermatrix", None, None),
        (hypermatrix.SymmetricHypermatrix, "contract", "hypermatrix.contract", None),
        (spectra, "nqz_spectral_radius", None, nqz_hook),
        (harness, "sweep_trees", None, None),
        (harness, "extremal_radius", None, None),
        (harness, "graham_pollak_check", None, None),
        (harness.ResultCache, "__init__", "harness.cache.load", None),
        (harness.ResultCache, "get", "harness.cache.get", cache_get_hook),
        (harness.ResultCache, "put", "harness.cache.put", None),
    ]:
        layer = name or f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer.patch(owner, attr, lambda fn: tracer.wrap(layer, fn, hook))

    # Which macaulay_resultant route produced the value: the outermost route
    # helper that returned one (the substitution route calls the ratio one).
    for attr, route in [
        ("_macaulay_ratio", "ratio"),
        ("_gcp_constant", "gcp-exact"),
        ("_resultant_by_substitution", "substitution"),
        ("_gcp_constant_modular", "crt"),
    ]:
        def route_hook(tr, outermost, result, route=route):
            if outermost and result is not None:
                counts[f"resultant.route.{route}"] += 1

        tracer.patch(resultant, attr, lambda fn: tracer.marker(fn, route_hook))

    def read() -> dict:
        total, own = tracer.totals()
        out = dict(counts)
        for name, n in tracer.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        resultants = tracer.calls["resultant.macaulay_resultant"]
        if resultants:
            wasted = tracer.calls["resultant.macaulay_matrix"] - resultants
            out["resultant.macaulay_matrix.per_hyperdet"] = wasted / resultants
        out["resultant.crt.primes"] = len(primes)
        lookups = counts["harness.cache.hits"] + counts["harness.cache.misses"]
        if lookups:
            out["harness.cache.hit_ratio"] = counts["harness.cache.hits"] / lookups
        out["harness.cache.load_s"] = total["harness.cache.load"]
        out["harness.cache.put_calls"] = tracer.calls["harness.cache.put"]
        out["trace.spans"] = len(tracer.spans)
        return out

    return read


# ---------------------------------------------------------------------------


def environment(pkg, seed: int) -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2": bool(getattr(pkg.exact, "_HAVE_GMPY2", importlib.util.find_spec("gmpy2"))),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_probe:
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            WORKLOADS[args.workload](load_package(), args.seed)
            t1 = time.perf_counter()
        print(probe.rescale(t0, t1))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup = setup_seconds(args.workload, args.seed)
    pkg = load_package()
    calls = WORKLOADS[args.workload](pkg, args.seed)
    OUT.mkdir(exist_ok=True)

    passes = []
    metrics = {}
    host = None  # raw pass times and probe figures of an untraced run
    if args.trace:
        passes.append(run_pass(calls))
        tracer = Tracer()
        try:
            read = instrument(tracer, pkg)
            passes.append(run_pass(calls, tracer))
        finally:
            tracer.restore()
        metrics = read()
        metrics["trace.wall_s"] = passes[1].wall
        metrics["trace.overhead_s"] = passes[1].wall - passes[0].wall
        metrics["exact.char_poly_mod.share"] = metrics.get("exact.char_poly_mod.s", 0) / passes[1].wall
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.to_json_dict(), separators=(",", ":")))
    else:
        with SpeedProbe() as probe:
            start = time.perf_counter()
            while not passes or time.perf_counter() - start + passes[-1].wall <= args.seconds:
                passes.append(run_pass(calls))
        ref = [probe.rescale(p.t0, p.t1) for p in passes]
        metrics["ref_wall_s"] = statistics.median(ref)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        host = {
            "wall_s": statistics.median(p.wall for p in passes),
            "ref_s_per_pass": ref,
            "probe_kernel_s": statistics.median(probe.kernel_times),
            "probe_share": sum(probe.durations) / (passes[-1].t1 - start),
        }

    rows = [row for p in passes for row in p.rows]
    attempted, failed = len(rows), sum(not row["ok"] for row in rows)
    details = {
        "environment": environment(pkg, args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "fail_ratio": failed / attempted,
        "setup_samples_s": setup,
        "speed": host,
        "passes": [{"s": p.wall, "calls": p.rows} for p in passes],
        "metrics": metrics,
    }
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=1))
    print(json.dumps({k: details[k] for k in ("environment", "workload", "fail_ratio", "speed")}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
