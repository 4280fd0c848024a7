import hashlib
import json
import math
import re
import warnings

import pytest

from steiner_spectra.harness import (
    CACHE_VERSION,
    EXTREMAL_GRAPH_CAP,
    EXTREMAL_TREE_CAP,
    RELABEL_CHECKS,
    ResultCache,
    SweepRecord,
    SweepReport,
    extremal_radius,
    falsifying_witness,
    graham_pollak_check,
    report_json,
    sweep_trees,
)
from steiner_spectra.graphs import canonical_key, distance_rows, path_graph, tree_from_prufer
from steiner_spectra.hypermatrix import build_steiner_hypermatrix
from steiner_spectra.resultant import check_hyperdet_cap
from steiner_spectra.spectra import nqz_spectral_radius
from steiner_spectra.wendt import wendt


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
        with pytest.raises(json.JSONDecodeError, match=rf"^{re.escape(str(path))}: line 2: "):
            ResultCache(path)

    def test_json_line_that_is_not_a_record_is_an_error(self, tmp_path, capsys):
        from steiner_spectra.cli import main

        radius_key = [canonical_key(path_graph(3)), 3, f"radius:{1e-8!r}:{CACHE_VERSION}"]
        good = json.dumps({"key": ["abc", 3, f"det:{CACHE_VERSION}"], "value": 5})
        for bad, problem in [
            ({"a": 1}, "is not [str, int, str]"),
            ([1, 2], "not a JSON object"),
            ({"key": radius_key, "value": 5}, "is not an enclosure"),
            ({"key": ["abc", 3, f"det:{CACHE_VERSION}"], "value": True}, "is not an integer"),
            ({"key": ["abc", True, f"det:{CACHE_VERSION}"], "value": 5}, "is not [str, int, str]"),
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
        for n, k in [(10, 2), (2, 16), (4, 6)]:
            check_hyperdet_cap(n, k)
        for n, k in [(5, 3), (3, 7)]:
            with pytest.raises(ValueError, match="cap"):
                check_hyperdet_cap(n, k)


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
        assert all(r.radius is not None for r in rep.records)
        assert all(r.det is None for r in rep.records)

    def test_validations(self):
        with pytest.raises(ValueError, match="mode"):
            sweep_trees(3, 3, det=True, mode="nope")
        with pytest.raises(ValueError, match="cap"):
            sweep_trees(5, 3, det=True)
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                sweep_trees(3, 3, det=True, jobs=jobs)

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

        def boom(args):
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

        def counted(args):
            jobs.append(args[2:4])
            return real(args)

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

    def test_jobs_do_not_change_report(self):
        serial = sweep_trees(4, 3, det=True, radius=True, jobs=1)
        parallel = sweep_trees(4, 3, det=True, radius=True, jobs=2)
        assert serial.to_json() == parallel.to_json()

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
        assert len(checks) == len(set(checks)) == min(RELABEL_CHECKS, classes)

    def test_det_report_is_pinned(self):
        # exact integers only, so the bytes do not depend on the platform
        report = sweep_trees(5, 2, det=True, seed=5).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "f6d992fd9dce4a0e367045864b6ee0d2a95dc95873d5174af3671415503381f8"
        )

    def test_seed_recorded(self):
        rep = sweep_trees(3, 2, det=True, seed=7)
        assert rep.seed == 7
        assert rep.to_json_dict()["seed"] == 7


class TestFalsifyingWitness:
    def test_none_when_all_verdicts_hold(self):
        rep = sweep_trees(4, 2, det=True)
        assert falsifying_witness(rep) is None

    def test_conjecture1_witness(self):
        rep = SweepReport(
            n=3,
            k=4,
            mode="labeled",
            seed=0,
            records=[
                SweepRecord((1,), "a", det=5),
                SweepRecord((2,), "b", det=7),
            ],
            verdicts={"conjecture1": False},
        )
        w = falsifying_witness(rep)
        assert w["verdict"] == "conjecture1"
        assert {t["det"] for t in w["witness"]} == {5, 7}

    def test_conjecture2_witness(self):
        rep = SweepReport(
            n=3,
            k=4,
            mode="labeled",
            seed=0,
            records=[SweepRecord((1,), "a", det=9)],  # expected sign is +... n=3
            verdicts={"conjecture1": True, "conjecture2": False},
        )
        rep.records.append(SweepRecord((2,), "b", det=-9))
        w = falsifying_witness(rep)
        assert w["verdict"] == "conjecture2"
        assert w["witness"][0]["det"] == -9

    def test_question2_witness(self):
        rep = SweepReport(
            n=4,
            k=3,
            mode="labeled",
            seed=0,
            records=[
                SweepRecord((1, 1), "star", radius={"value": 9.0, "lo": 9.0, "hi": 9.0}),
                SweepRecord((2, 3), "path", radius={"value": 5.0, "lo": 5.0, "hi": 5.0}),
            ],
            verdicts={"question2": False},
        )
        w = falsifying_witness(rep)
        assert w["verdict"] == "question2"
        assert w["witness"][0]["canonical"] == "star"


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

        real = harness.det_exact
        bad = distance_rows(5, tree_from_prufer((4, 1, 4)).edges)

        def wrong_once(m):
            return real(m) + 1 if m.to_lists() == bad else real(m)

        monkeypatch.setattr(harness, "det_exact", wrong_once)
        out = graham_pollak_check(6)
        assert out["pass"] is False
        assert [e["pass"] for e in out["per_n"]] == [True, True, True, False, True]
        assert out["per_n"][3]["failures"] == [{"prufer": [4, 1, 4], "det": 32 + 1}]


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
            extremal_radius(EXTREMAL_TREE_CAP + 1, 2)
        with pytest.raises(ValueError):
            extremal_radius(EXTREMAL_GRAPH_CAP + 1, 2, scope="connected-graphs")

    def test_deterministic(self):
        a = report_json(extremal_radius(4, 3))
        b = report_json(extremal_radius(4, 3))
        assert a == b

    @pytest.mark.parametrize("n,k", [(5, 3), (6, 4)])
    def test_matches_unlabeled_sweep(self, n, k):
        entries = extremal_radius(n, k)["entries"]
        records = sweep_trees(n, k, radius=True, mode="unlabeled").records
        assert len(entries) == len(records)
        assert {e["canonical"]: e["radius"] for e in entries} == {
            r.canonical: r.radius for r in records
        }


class TestRadiusTies:
    def test_exact_tie_names_the_same_top_class(self, monkeypatch):
        import steiner_spectra.harness as harness

        path_key = canonical_key(path_graph(5))

        def tied(args):
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
