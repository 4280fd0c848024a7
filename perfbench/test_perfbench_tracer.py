"""Self-test of the benchmark's tracer: wrapping is transparent, restore is
complete, and self time is span time minus child time.

    python3 perfbench/test_perfbench_tracer.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

import run
from tracer import Tracer

pkg = run.load_package()


def package_bindings():
    """Every attribute of every steiner_spectra module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "steiner_spectra" or name.startswith("steiner_spectra.")):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    out[name, attr, member] = id(inner)
    return out


def sample_outputs(tmp_path):
    g = pkg.Graph.from_edges(3, [(2, 1), (2, 3)])
    cache = tmp_path / "cache.jsonl"
    cache.unlink(missing_ok=True)
    cold = pkg.sweep_trees(4, 3, radius=True, cache=pkg.ResultCache(cache)).to_json()
    warm = pkg.sweep_trees(4, 3, radius=True, cache=pkg.ResultCache(cache)).to_json()
    return {
        "hyperdet": [pkg.hyperdet(pkg.build_steiner_hypermatrix(g, k)) for k in (2, 3)],
        "dim2": pkg.hyperdet(pkg.build_steiner_hypermatrix(pkg.path_graph(2), 7)),
        "trees": [(seq, t.sorted_edges()) for seq, t in pkg.enumerate_labeled_trees(4)],
        "extremal": pkg.extremal_radius(4, 3, "connected-graphs"),
        "gp": pkg.graham_pollak_check(5),
        "sweeps": (cold, warm),
    }


def test_wrapping_is_transparent_and_restored(tmp_path):
    before = package_bindings()
    plain = sample_outputs(tmp_path)
    tracer = Tracer()
    try:
        read = run.instrument(tracer, pkg)
        assert package_bindings() != before
        assert pkg.resultant.det_exact is pkg.exact.det_exact is pkg.det_exact
        assert pkg.exact.det_exact.__name__ == "det_exact"
        traced = sample_outputs(tmp_path)
    finally:
        tracer.restore()
    assert traced == plain
    assert package_bindings() == before
    metrics = read()
    assert metrics["resultant.hyperdet.calls"] == 3
    assert metrics["resultant.route.matrix-det"] == 1
    assert metrics["resultant.route.sylvester"] == 1
    assert metrics["resultant.route.gcp-exact"] == 1
    assert metrics["harness.cache.hits"] == 2 * metrics["harness.cache.misses"]
    assert metrics["harness.cache.put_calls"] == metrics["harness.cache.misses"]
    assert metrics["graphs.enumerate_labeled_trees.calls"] > 0
    assert metrics["trace.spans"] == len(tracer.spans)


def test_restore_after_an_exception():
    before = package_bindings()
    tracer = Tracer()
    try:
        run.instrument(tracer, pkg)
        with pytest.raises(ValueError):
            pkg.hyperdet(pkg.build_steiner_hypermatrix(pkg.path_graph(5), 4))
    finally:
        tracer.restore()
    assert package_bindings() == before
    assert not tracer._stack


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    # root [0,10] holds a [1,4] and b [5,9]; b holds c [6,7]
    tracer.spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 7.0, 2, 0],
        ["a", 11.0, 12.5, -1, 1],
    ]
    total, own = tracer.totals()
    assert total == {"root": 10.0, "a": 4.5, "b": 4.0, "c": 1.0}
    assert own == {"root": 3.0, "a": 4.5, "b": 3.0, "c": 1.0}


def test_recorded_nesting_and_call_ids():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: leaf(leaf(x)))
    tracer.call_id = 7
    assert outer(1) == 3
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert {s[4] for s in tracer.spans} == {7}
    total, own = tracer.totals()
    assert own["outer"] == pytest.approx(total["outer"] - total["leaf"], abs=1e-12)
    assert tracer.calls == {"outer": 1, "leaf": 2}


def test_generator_gets_a_span_per_resumption():
    tracer = Tracer()

    def count(n):
        yield from range(n)

    wrapped = tracer.wrap("gen", count)
    assert list(wrapped(3)) == [0, 1, 2]
    assert tracer.calls["gen"] == 1
    assert len(tracer.spans) == 4  # three items and the exhausting resumption
    for _ in wrapped(5):
        break
    assert not tracer._stack


def test_marker_counts_only_outermost_results():
    tracer = Tracer()
    seen = []
    inner = tracer.marker(lambda: "inner", lambda tr, outermost, r: seen.append((r, outermost)))
    outer = tracer.marker(lambda: inner(), lambda tr, outermost, r: seen.append(("outer", outermost)))
    outer()
    assert seen == [("inner", False), ("outer", True)]
    assert tracer.spans == []


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
