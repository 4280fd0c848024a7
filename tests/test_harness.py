import hashlib
import json
import math
import re
import time
import warnings

import pytest

from steiner_spectra.harness import (
    CACHE_VERSION,
    EXTREMAL_GRAPH_CAP,
    TREE_WALK_CAP,
    ResultCache,
    SweepReport,
    _class_job,
    extremal_radius,
    falsifying_witness,
    graham_pollak_check,
    report_json,
    sweep_trees,
)
from steiner_spectra.exact import IntMatrix, det_exact
from steiner_spectra.graphs import canonical_key, path_graph, star_graph, tree_from_prufer
from steiner_spectra.hypermatrix import build_steiner_hypermatrix
from steiner_spectra.resultant import check_hyperdet_cap
from steiner_spectra.spectra import nqz_spectral_radius
from steiner_spectra.wendt import wendt

from props import bfs_rows, sweep_report_json_reference


def _fail_on_double_star(*args):
    """`_class_job`, except that it raises on the double star, the third class at n = 6."""
    if sorted(map(len, args[0].adjacency()[1:])) == [1, 1, 1, 1, 3, 3]:
        raise RuntimeError("job failed on the double star")
    return _class_job(*args)


def _falsified_sweep(monkeypatch, verdict):
    """A labeled sweep at n = 5 whose class values fail `verdict`.

    The classes, in the order the walk meets them: the star at (1, 1, 1),
    the spider at (1, 1, 2) and the path at (1, 2, 3).  conjecture1: the
    star and the spider share the det 50, the path keeps 32; conjecture2:
    every det turns negative, so conjecture 1 still holds; question2: the
    spider's radius rises above the path's.  The fake dets are not what a
    relabeled hyperdet gives, so the relabel check (tested in
    TestSweepTrees) is off here.
    """
    import steiner_spectra.harness as harness

    path_key, star_key = canonical_key(path_graph(5)), canonical_key(star_graph(5))

    def fake(*args):
        out = _class_job(*args)
        key = canonical_key(args[0])
        if verdict == "conjecture1" and key != path_key:
            out["det"] = 50
        elif verdict == "conjecture2":
            out["det"] = -out["det"]
        elif verdict == "question2" and key not in (path_key, star_key):
            r = out["radius"]
            out["radius"] = {**r, "value": r["value"] + 10, "lo": r["lo"] + 10, "hi": r["hi"] + 10}
        return out

    monkeypatch.setattr(harness, "_class_job", fake)
    monkeypatch.setattr(harness, "_relabel_spot_checks", lambda *args: None)
    if verdict == "question2":
        return sweep_trees(5, 3, radius=True)
    return sweep_trees(5, 2, det=True)


class TestReportJson:
    def test_sorted_and_compact(self):
        assert report_json({"b": 1, "a": [2, 3]}) == '{"a": [2,3],"b": 1}'

    def test_deterministic(self):
        obj = {"z": 0, "m": {"y": 1, "x": 2}}
        assert report_json(obj) == report_json(json.loads(report_json(obj)))


class TestResultCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        c = ResultCache(path)
        assert c.get("abc", 3, "det") is None
        c.put("abc", 3, "det", -12)
        assert c.get("abc", 3, "det") == -12
        # a fresh instance reads the same value back from disk
        again = ResultCache(path)
        assert again.get("abc", 3, "det") == -12

    def test_no_duplicate_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        c = ResultCache(path)
        c.put("abc", 3, "det", 5)
        c.put("abc", 3, "det", 5)
        assert len(path.read_text().strip().splitlines()) == 1

    def test_distinct_quantities_coexist(self, tmp_path):
        c = ResultCache(tmp_path / "c.jsonl")
        c.put("abc", 3, "det", 1)
        c.put("abc", 3, "radius:1e-08", {"value": 2.0})
        c.put("abc", 4, "det", 7)
        assert c.get("abc", 3, "det") == 1
        assert c.get("abc", 4, "det") == 7
        assert c.get("abc", 3, "radius:1e-08") == {"value": 2.0}

    def test_torn_final_line_is_skipped_then_cut(self, tmp_path):
        path = tmp_path / "c.jsonl"
        c = ResultCache(path)
        c.put("abc", 3, "det", -12)
        c.put("abd", 3, "radius:1e-08", {"value": 2.5})
        half = json.dumps({"key": ["abe", 3, "det"], "value": 123456789})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(half[: len(half) // 2])  # a write cut short by a crash
        with pytest.warns(UserWarning, match="torn final line"):
            torn = ResultCache(path)
        assert torn.get("abc", 3, "det") == -12
        assert torn.get("abd", 3, "radius:1e-08") == {"value": 2.5}
        assert torn.get("abe", 3, "det") is None
        torn.put("abf", 4, "det", 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = ResultCache(path)
        assert again.get("abc", 3, "det") == -12
        assert again.get("abd", 3, "radius:1e-08") == {"value": 2.5}
        assert again.get("abe", 3, "det") is None
        assert again.get("abf", 4, "det") == 7

    def test_record_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"key": ["abc", 3, "det"], "value": 5}))
        c = ResultCache(path)
        assert c.get("abc", 3, "det") == 5
        c.put("abd", 3, "det", 6)
        again = ResultCache(path)
        assert (again.get("abc", 3, "det"), again.get("abd", 3, "det")) == (5, 6)

    def test_malformed_middle_line_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"key": ["abc", 3, "det"], "value": 5})
        path.write_text(good + "\n" + good[:10] + "\n" + good + "\n")
        message = rf"^{re.escape(str(path))}: line 2: .*: column \d+$"
        with pytest.raises(ValueError, match=message) as excinfo:
            ResultCache(path)
        assert excinfo.type is ValueError

    def test_middle_line_that_is_not_utf8_raises(self, tmp_path):
        # b"\xff\xfe" would pass for a UTF-16 mark if json read the bytes
        path = tmp_path / "c.jsonl"
        good = json.dumps({"key": ["abc", 3, "det"], "value": 5}).encode()
        path.write_bytes(good + b"\n\xff\xfe" + good + b"\n" + good + b"\n")
        message = rf"^{re.escape(str(path))}: line 2: not UTF-8 .*: byte 1$"
        with pytest.raises(ValueError, match=message) as excinfo:
            ResultCache(path)
        assert excinfo.type is ValueError

    def test_final_line_that_is_not_utf8_is_skipped_then_cut(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"key": ["abc", 3, "det"], "value": 5}).encode()
        path.write_bytes(good + b"\n" + good[:20] + b"\xe2\x82")  # cut inside a character
        with pytest.warns(UserWarning, match="torn final line"):
            torn = ResultCache(path)
        assert torn.get("abc", 3, "det") == 5
        torn.put("abd", 3, "det", 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = ResultCache(path)
        assert (again.get("abc", 3, "det"), again.get("abd", 3, "det")) == (5, 6)

    def test_json_line_that_is_not_a_record_is_an_error(self, tmp_path, capsys):
        from steiner_spectra.cli import main

        radius_key = [canonical_key(path_graph(3)), 3, f"radius:{1e-8!r}:{CACHE_VERSION}"]

        def enclosure(value, lo, hi, iterations=1):
            return {"value": value, "lo": lo, "hi": hi, "iterations": iterations}

        good = json.dumps({"key": ["abc", 3, f"det:{CACHE_VERSION}"], "value": 5})
        for bad, problem in [
            ({"a": 1}, "is not [str, int, str]"),
            ([1, 2], "not a JSON object"),
            ({"key": radius_key, "value": 5}, "is not an enclosure"),
            ({"key": ["abc", 3, f"det:{CACHE_VERSION}"], "value": True}, "is not an integer"),
            ({"key": ["abc", True, f"det:{CACHE_VERSION}"], "value": 5}, "is not [str, int, str]"),
            # json reads NaN and Infinity; an enclosure is finite, ordered and iterated
            ({"key": radius_key, "value": enclosure(math.nan, 4.0, 7.0)}, "is not an enclosure"),
            ({"key": radius_key, "value": enclosure(5.0, -math.inf, 7.0)}, "is not an enclosure"),
            ({"key": radius_key, "value": enclosure(5.0, 4.0, math.inf)}, "is not an enclosure"),
            ({"key": radius_key, "value": enclosure(5.0, 6.0, 7.0)}, "is not an enclosure"),
            ({"key": radius_key, "value": enclosure(5.0, 4.0, 6.0, 0)}, "is not an enclosure"),
        ]:
            path = tmp_path / "c.jsonl"
            path.write_text(good + "\n" + json.dumps(bad) + "\n")
            with pytest.raises(ValueError, match=r"c\.jsonl: line 2: .*" + re.escape(problem)):
                ResultCache(path)
            argv = ["sweep", "--n", "3", "--k", "3", "--radius", "--cache", str(path)]
            assert main(argv) == 1, bad
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:") and "Traceback" not in err


class TestCaps:
    def test_hyperdet_cap(self):
        for n, k in [(10, 2), (2, 16), (4, 6), (1, 7), (1, 40)]:
            check_hyperdet_cap(n, k)
        for n, k in [(5, 3), (3, 7)]:
            with pytest.raises(ValueError, match="cap"):
                check_hyperdet_cap(n, k)

    def test_sweep_refuses_past_the_tree_cap_at_once(self):
        # 9^7 = 4,782,969 labeled trees at cap + 1; at k = 2 the hyperdet cap
        # admits every n, so the tree cap is what refuses a det sweep too
        for n in (TREE_WALK_CAP + 1, 10, 10**9):
            for kwargs in ({"k": 3, "radius": True}, {"k": 2, "det": True}):
                t0 = time.perf_counter()
                with pytest.raises(ValueError, match=f"sweep capped at n <= {TREE_WALK_CAP}"):
                    sweep_trees(n, **kwargs)
                assert time.perf_counter() - t0 < 1.0


class TestSweepTrees:
    def test_labeled_record_count(self):
        rep = sweep_trees(4, 2, det=True)
        assert len(rep.records) == 16  # n^(n-2)
        assert rep.mode == "labeled"

    def test_unlabeled_classes(self):
        rep = sweep_trees(4, 2, det=True, mode="unlabeled")
        assert len(rep.records) == 2  # path and star

    def test_k2_dets_follow_distance_determinant(self):
        rep = sweep_trees(4, 2, det=True)
        assert rep.verdicts["conjecture1"] is True
        assert rep.verdicts["common_det"] == (1 - 4) * (-2) ** 2
        assert rep.verdicts["conjecture2"] is True

    def test_n2_det_is_signed_wendt(self):
        for k in range(2, 7):
            rep = sweep_trees(2, k, det=True)
            assert rep.verdicts["common_det"] == (-1) ** (k - 1) * wendt(k - 1), k

    def test_vanishing_sweep_not_applicable(self):
        rep = sweep_trees(3, 3, det=True)
        assert rep.verdicts["conjecture1"] is True
        assert rep.verdicts["common_det"] == 0
        assert rep.verdicts["conjecture2"] == "not-applicable"

    def test_zero_wendt_order(self):
        rep = sweep_trees(2, 7, det=True)
        assert rep.verdicts["common_det"] == 0
        assert rep.verdicts["conjecture2"] == "not-applicable"

    def test_radius_verdict(self):
        rep = sweep_trees(4, 3, radius=True)
        assert rep.verdicts["question2"] is True
        # every row's class carries a radius and no det
        assert {key for _, key in rep.records} == set(rep.classes)
        assert all(set(values) == {"radius"} for values in rep.classes.values())

    def test_validations(self):
        with pytest.raises(ValueError, match="mode"):
            sweep_trees(3, 3, det=True, mode="nope")
        with pytest.raises(ValueError, match="cap"):
            sweep_trees(5, 3, det=True)

    def test_cache_persists_and_reruns_identically(self, tmp_path):
        cache = ResultCache(tmp_path / "c.jsonl")
        first = sweep_trees(4, 3, det=True, cache=cache).to_json()
        assert (tmp_path / "c.jsonl").exists()
        cached = ResultCache(tmp_path / "c.jsonl")
        second = sweep_trees(4, 3, det=True, cache=cached).to_json()
        assert first == second

    def test_cache_values_short_circuit_work(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c.jsonl")
        sweep_trees(4, 3, det=True, cache=cache)

        import steiner_spectra.harness as harness

        def boom(*args):
            raise AssertionError("cache miss where a hit was expected")

        monkeypatch.setattr(harness, "_class_job", boom)
        rep = sweep_trees(4, 3, det=True, cache=cache)
        assert rep.verdicts["conjecture1"] is True

    def test_other_cache_version_is_a_miss(self, tmp_path, monkeypatch):
        import steiner_spectra.harness as harness

        fresh = sweep_trees(4, 3, det=True, radius=True).to_json()
        path = tmp_path / "c.jsonl"
        old = ResultCache(path)
        for key in {r["canonical"] for r in json.loads(fresh)["records"]}:
            # wrong values under the unversioned names and an older version
            for quantity in ("det", "det:v1", "radius:1e-08", "radius:1e-08:v1"):
                old.put(key, 3, quantity, 12345)
        jobs = []
        real = harness._class_job

        def counted(*args):
            jobs.append(args[2:4])
            return real(*args)

        monkeypatch.setattr(harness, "_class_job", counted)
        cache = ResultCache(path)
        assert sweep_trees(4, 3, det=True, radius=True, cache=cache).to_json() == fresh
        assert jobs == [(True, True), (True, True)]  # both classes recomputed
        det = {r["canonical"]: r["det"] for r in json.loads(fresh)["records"]}
        for key, value in det.items():
            assert cache.get(key, 3, f"det:{CACHE_VERSION}") == value
        assert sweep_trees(4, 3, det=True, radius=True, cache=ResultCache(path)).to_json() == fresh
        assert len(jobs) == 2  # the versioned records are hits

    def test_radius_records_are_keyed_by_the_exact_tolerance(self, tmp_path):
        # the two tolerances agree to 6 significant digits but straddle the
        # 4th enclosure width of D_3(P_4), so they stop at different iterations
        d3p4 = build_steiner_hypermatrix(path_graph(4), 3)
        lo, hi = nqz_spectral_radius(d3p4, tol=1e-12).history[3]
        width = hi - lo
        cache = ResultCache(tmp_path / "c.jsonl")
        sweep_trees(4, 3, radius=True, tol=width * (1 + 1e-9), cache=cache)
        tight = width * (1 - 1e-9)
        fresh = sweep_trees(4, 3, radius=True, tol=tight).to_json()
        assert sweep_trees(4, 3, radius=True, tol=tight, cache=cache).to_json() == fresh

    def test_classes_done_before_a_failure_stay_cached(self, tmp_path, monkeypatch):
        import steiner_spectra.harness as harness

        classes = sweep_trees(6, 3, radius=True, mode="unlabeled").classes
        monkeypatch.setattr(harness, "_class_job", _fail_on_double_star)
        path = tmp_path / "c.jsonl"
        with pytest.raises(RuntimeError, match="double star"):
            sweep_trees(6, 3, radius=True, cache=ResultCache(path))
        assert len(path.read_text().splitlines()) == 2
        cache = ResultCache(path)
        quantity = f"radius:{1e-8!r}:{CACHE_VERSION}"
        radii = [values["radius"] for values in classes.values()]
        assert [cache.get(key, 3, quantity) for key in classes] == radii[:2] + [None] * 4

    def test_relabel_spot_check_catches_bad_hyperdet(self, monkeypatch):
        import steiner_spectra.harness as harness

        real = harness.hyperdet
        calls = {"n": 0}

        def flaky(a):
            calls["n"] += 1
            v = real(a)
            # corrupt only the relabel-verification calls, not the sweep body
            return v + 1 if calls["n"] > 2 else v

        monkeypatch.setattr(harness, "hyperdet", flaky)
        with pytest.raises(ArithmeticError, match="relabel"):
            sweep_trees(4, 2, det=True)

    @pytest.mark.parametrize("n,classes", [(4, 2), (7, 11)])
    def test_relabel_spot_checks_distinct_classes(self, n, classes, monkeypatch):
        import steiner_spectra.harness as harness

        built = []
        real = harness.build_steiner_hypermatrix

        def spy(g, k):
            built.append(canonical_key(g))
            return real(g, k)

        monkeypatch.setattr(harness, "build_steiner_hypermatrix", spy)
        sweep_trees(n, 2, det=True, seed=3)
        checks = built[classes:]  # the class jobs come first
        assert len(built[:classes]) == len(set(built[:classes])) == classes
        assert len(checks) == len(set(checks)) == classes
        assert checks == sorted(checks)  # every class, in sorted key order

    def test_det_report_is_pinned(self):
        # exact integers only, so the bytes do not depend on the platform
        report = sweep_trees(5, 2, det=True, seed=5).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "f6d992fd9dce4a0e367045864b6ee0d2a95dc95873d5174af3671415503381f8"
        )

    def test_labeled_n7_report_is_pinned(self):
        # all 16,807 Prüfer records at n = 7, exact integers only
        report = sweep_trees(7, 2, det=True, seed=3).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "f38a418ae80cf65f657e72a292cd3d75f9254b6cfb28ef1478e73e89ee605d7f"
        )

    def test_crt_det_report_is_pinned(self):
        # the CRT route: P_3 at k = 6 is a 95-row Macaulay block per prime
        report = sweep_trees(3, 6, det=True, seed=5).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "11a8889b5e0b9bd80ceeba77892a3ec1a3e43e3ea4c4b9a535452fafe05d325d"
        )

    def test_seed_recorded(self):
        rep = sweep_trees(3, 2, det=True, seed=7)
        assert rep.seed == 7
        assert json.loads(rep.to_json())["seed"] == 7


class TestSweepJson:
    """`SweepReport.to_json` against the reference that encodes one dict per row."""

    @pytest.mark.parametrize(
        "n,k,kwargs",
        [
            (2, 3, {"det": True, "radius": True}),  # the one Prüfer list is empty
            (4, 3, {"det": True, "radius": True}),
            (6, 3, {"radius": True, "mode": "unlabeled"}),
        ],
    )
    def test_matches_the_reference(self, n, k, kwargs):
        rep = sweep_trees(n, k, **kwargs)
        assert rep.to_json() == sweep_report_json_reference(rep)

    def test_keys_that_hold_quotes_backslashes_and_the_placeholders(self):
        keys = ['"prufer": 0', 'a"b', "c\\d", '\\"records": 0']
        rep = SweepReport(
            n=5,
            k=3,
            mode='"records": 0',
            seed=1,
            classes={
                key: {"det": -i, "radius": {"value": 2.0 + i, "lo": 1.5 + i, "hi": 2.5 + i}}
                for i, key in enumerate(keys)
            },
            records=[
                ((1, 2, 3), keys[0]),
                ((), keys[1]),
                ((4,), keys[2]),
                ((5, 5, 5), keys[3]),
                ((2, 1, 1), keys[0]),
            ],
            verdicts={"question2": False, "question2_ties": sorted(keys[2:])},
        )
        witness = falsifying_witness(rep)
        assert witness["witness"][0]["canonical"] == keys[3]
        assert rep.to_json() == sweep_report_json_reference(rep)
        assert rep.to_json(witness) == sweep_report_json_reference(rep, witness)
        assert json.loads(rep.to_json(witness))["records"][4]["canonical"] == keys[0]

    @pytest.mark.parametrize("verdict", ["conjecture1", "conjecture2", "question2"])
    def test_matches_the_reference_with_each_witness(self, monkeypatch, verdict):
        rep = _falsified_sweep(monkeypatch, verdict)
        witness = falsifying_witness(rep)
        assert witness["verdict"] == verdict
        assert rep.to_json(witness) == sweep_report_json_reference(rep, witness)

    @pytest.mark.parametrize("rows", [1, 2, 7, 125, 126, 4096])
    def test_chunks_at_every_size_join_to_the_reference(self, rows):
        # one piece per row: the sweep's own 125 rows at n = 5, fewer, more
        rep = sweep_trees(5, 2, det=True, radius=True)
        assert len(rep.records) == 125
        rep.records = (rep.records * -(-rows // 125))[:rows]
        chunks = list(rep.json_chunks())
        assert len(chunks) == 2 + rows  # the frame's head and tail
        assert "".join(chunks) == rep.to_json() == sweep_report_json_reference(rep)
        empty = SweepReport(n=5, k=2, mode="labeled", seed=0)
        assert "".join(empty.json_chunks()) == sweep_report_json_reference(empty)


class TestFalsifyingWitness:
    def test_none_when_all_verdicts_hold(self):
        rep = sweep_trees(4, 2, det=True)
        assert falsifying_witness(rep) is None

    def test_a_passing_report_is_not_walked(self):
        class Unread(list):
            def __iter__(self):
                raise AssertionError("records walked")

        for kwargs in ({"det": True}, {"radius": True}, {"det": True, "radius": True}):
            rep = sweep_trees(4, 3, **kwargs)
            assert all(v is not False for v in rep.verdicts.values())
            rep.records = Unread(rep.records)
            assert falsifying_witness(rep) is None

    def test_conjecture1_witness(self):
        rep = SweepReport(
            n=3,
            k=4,
            mode="labeled",
            seed=0,
            classes={
                "a": {"det": 5},
                "b": {"det": 7},
                "c": {"det": 9},
                "d": {"det": 10},
                "e": {"det": -5},
                "f": {"det": -40},
                "g": {"det": 9},
            },
            records=[((i,), key) for i, key in enumerate("abcdefg", 1)],
            verdicts={"conjecture1": False},
        )
        w = falsifying_witness(rep)
        assert w["verdict"] == "conjecture1"
        # one tree per distinct determinant, the first seen, in numeric order
        assert [t["det"] for t in w["witness"]] == [-40, -5, 5, 7, 9, 10]
        assert [t["prufer"] for t in w["witness"]] == [[6], [5], [1], [2], [3], [4]]

    def test_conjecture2_witness(self):
        rep = SweepReport(
            n=3,
            k=4,
            mode="labeled",
            seed=0,
            classes={"a": {"det": 9}, "b": {"det": -9}},  # expected sign is +... n=3
            records=[((1,), "a"), ((2,), "b")],
            verdicts={"conjecture1": True, "conjecture2": False},
        )
        w = falsifying_witness(rep)
        assert w["verdict"] == "conjecture2"
        assert w["witness"][0]["det"] == -9

    def test_question2_witness(self):
        rep = SweepReport(
            n=4,
            k=3,
            mode="labeled",
            seed=0,
            classes={
                "star": {"radius": {"value": 9.0, "lo": 9.0, "hi": 9.0}},
                "path": {"radius": {"value": 5.0, "lo": 5.0, "hi": 5.0}},
            },
            records=[((1, 1), "star"), ((2, 3), "path")],
            verdicts={"question2": False},
        )
        w = falsifying_witness(rep)
        assert w["verdict"] == "question2"
        assert w["witness"][0]["canonical"] == "star"

    @pytest.mark.parametrize("verdict", ["conjecture1", "conjecture2", "question2"])
    def test_names_the_first_row_of_its_class(self, monkeypatch, verdict):
        rep = _falsified_sweep(monkeypatch, verdict)
        assert rep.verdicts[verdict] is False
        w = falsifying_witness(rep)
        assert w["verdict"] == verdict

        def first_row(key):
            return next(list(seq) for seq, c in rep.records if c == key)

        star, spider, path = rep.classes  # in the order the walk met them
        assert [first_row(c) for c in rep.classes] == [[1, 1, 1], [1, 1, 2], [1, 2, 3]]
        if verdict == "conjecture1":
            # one class per distinct det, sorted by det, each the first met with it
            assert [t["det"] for t in w["witness"]] == [32, 50]
            assert [t["canonical"] for t in w["witness"]] == [path, star]
            assert [t["prufer"] for t in w["witness"]] == [first_row(path), first_row(star)]
        elif verdict == "conjecture2":
            # every class has the wrong sign: the first class met is named
            assert w["witness"] == [{"prufer": first_row(star), "det": -32}]
        else:
            radius = rep.classes[spider]["radius"]
            assert w["witness"] == [
                {"prufer": first_row(spider), "canonical": spider, "radius": radius}
            ]


class TestGrahamPollak:
    def test_counts_and_pass(self):
        out = graham_pollak_check(5)
        assert [e["trees"] for e in out["per_n"]] == [1, 3, 16, 125]
        assert [e["expected"] for e in out["per_n"]] == [-1, 4, -12, 32]
        assert out["pass"] is True
        assert all(e["failures"] == [] for e in out["per_n"])

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            graham_pollak_check(1)

    def test_reports_a_wrong_determinant(self, monkeypatch):
        import steiner_spectra.harness as harness

        real = harness.distance_stack
        bad = bfs_rows(5, tree_from_prufer((4, 1, 4)).edges)
        corrupted = []

        def doubled_once(n, edge_lists):
            d = real(n, edge_lists)
            for m in d:
                if m.tolist() == bad:
                    m *= 2
                    corrupted.append(m.tolist())
            return d

        monkeypatch.setattr(harness, "distance_stack", doubled_once)
        out = graham_pollak_check(6)
        assert len(corrupted) == 1
        assert out["pass"] is False
        assert [e["pass"] for e in out["per_n"]] == [True, True, True, False, True]
        assert out["per_n"][3]["failures"] == [
            {"prufer": [4, 1, 4], "det": det_exact(IntMatrix(corrupted[0]))}
        ]
        assert det_exact(IntMatrix(corrupted[0])) == 32 * 2**5

    def test_keeps_the_first_five_failures(self, monkeypatch):
        import steiner_spectra.harness as harness

        real_stack = harness.distance_stack

        def doubled(n, edge_lists):
            return 2 * real_stack(n, edge_lists)

        monkeypatch.setattr(harness, "distance_stack", doubled)
        out = graham_pollak_check(6)
        assert out["pass"] is False
        assert [e["trees"] for e in out["per_n"]] == [1, 3, 16, 125, 1296]
        assert [e["pass"] for e in out["per_n"]] == [False] * 5
        assert [len(e["failures"]) for e in out["per_n"]] == [1, 3, 5, 5, 5]
        six = out["per_n"][4]
        assert [f["prufer"] for f in six["failures"]] == [
            [1, 1, 1, 1], [1, 1, 1, 2], [1, 1, 1, 3], [1, 1, 1, 4], [1, 1, 1, 5]
        ]
        assert all(f["det"] == 2**6 * -80 for f in six["failures"])

    def test_refuses_past_the_cap_at_once(self):
        for n_max in (TREE_WALK_CAP + 1, 10, 10**9):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match=f"capped at n_max <= {TREE_WALK_CAP}"):
                graham_pollak_check(n_max)
            assert time.perf_counter() - t0 < 1.0

    def test_passes_every_tree_at_the_cap(self):
        # 262,144 labeled trees at n = 8: about 1 s on 2 vCPUs
        assert TREE_WALK_CAP == 8
        out = graham_pollak_check(TREE_WALK_CAP)
        assert out["pass"] is True
        assert out["per_n"][-1] == {
            "n": 8, "trees": 262144, "expected": -448, "pass": True, "failures": []
        }


class TestExtremalRadius:
    def test_single_class_at_n3(self):
        out = extremal_radius(3, 2)
        assert len(out["entries"]) == 1
        assert out["top_is_path"] is True
        assert out["entries"][0]["radius"]["value"] == pytest.approx(
            1 + math.sqrt(3), abs=1e-7
        )

    def test_two_classes_at_n4(self):
        out = extremal_radius(4, 3)
        assert len(out["entries"]) == 2
        assert out["top_is_path"] is True
        assert out["ties"] == []
        assert out["entries"][0]["degree_sequence"] == [2, 2, 1, 1]
        assert out["entries"][1]["degree_sequence"] == [3, 1, 1, 1]
        # ranking is descending in radius
        assert (
            out["entries"][0]["radius"]["value"]
            > out["entries"][1]["radius"]["value"]
        )

    def test_connected_graph_scope(self):
        out = extremal_radius(3, 2, scope="connected-graphs")
        assert len(out["entries"]) == 2  # path and triangle
        assert {e["is_path"] for e in out["entries"]} == {True, False}

    def test_scope_and_cap_validation(self):
        with pytest.raises(ValueError, match="scope"):
            extremal_radius(3, 2, scope="forests")
        with pytest.raises(ValueError):
            extremal_radius(TREE_WALK_CAP + 1, 2)
        with pytest.raises(ValueError):
            extremal_radius(EXTREMAL_GRAPH_CAP + 1, 2, scope="connected-graphs")

    def test_ranks_every_class_at_the_cap(self):
        # 262,144 labeled trees in 23 classes: about 5 s on 2 vCPUs
        out = extremal_radius(TREE_WALK_CAP, 3)
        assert len(out["entries"]) == 23
        assert out["top_is_path"] is True

    def test_deterministic(self):
        a = report_json(extremal_radius(4, 3))
        b = report_json(extremal_radius(4, 3))
        assert a == b

    @pytest.mark.parametrize("n,k", [(5, 3), (6, 4)])
    def test_matches_unlabeled_sweep(self, n, k):
        entries = extremal_radius(n, k)["entries"]
        sweep = sweep_trees(n, k, radius=True, mode="unlabeled")
        assert len(entries) == len(sweep.records) == len(sweep.classes)
        assert {e["canonical"]: e["radius"] for e in entries} == {
            key: values["radius"] for key, values in sweep.classes.items()
        }


class TestRadiusTies:
    def test_exact_tie_names_the_same_top_class(self, monkeypatch):
        import steiner_spectra.harness as harness

        path_key = canonical_key(path_graph(5))

        def tied(*args):
            # the two non-path classes at n = 5 share one radius, above the path's
            g, k, want_det, want_radius, tol = args
            value = 1.0 if canonical_key(g) == path_key else 5.0
            return {"radius": {"value": value, "lo": value, "hi": value, "iterations": 1}}

        monkeypatch.setattr(harness, "_class_job", tied)
        rep = sweep_trees(5, 3, radius=True)
        ties = rep.verdicts["question2_ties"]
        assert rep.verdicts["question2"] is False
        assert len(ties) == 2
        witness = falsifying_witness(rep)["witness"][0]["canonical"]
        assert witness == min(ties)
        ranking = extremal_radius(5, 3)
        assert ranking["ties"] == ties
        assert ranking["entries"][0]["canonical"] == witness
