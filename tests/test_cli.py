import hashlib
import json

import pytest

from steiner_spectra.cli import main
from steiner_spectra.graphs import canonical_key, path_graph, star_graph, write_graph


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    write_graph(path_graph(3), path)
    return str(path)


@pytest.fixture
def star4_file(tmp_path):
    path = tmp_path / "star4.txt"
    write_graph(star_graph(4), path)
    return str(path)


def fix_radii(monkeypatch, path, star):
    """Make each class job at n = 4 return a fixed enclosure (lo, hi): `star` for the star."""
    import steiner_spectra.harness as harness

    star_key = canonical_key(star_graph(4))

    def fixed(*args):
        lo, hi = star if canonical_key(args[0]) == star_key else path
        return {"radius": {"value": (lo + hi) / 2, "lo": lo, "hi": hi, "iterations": 1}}

    monkeypatch.setattr(harness, "_class_job", fixed)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWendt:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, ["wendt", "--m", "4"])
        assert code == 0 and out.strip() == "-375"

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["wendt", "--m", "6", "--json"])
        obj = json.loads(out)
        assert code == 0
        assert obj == {"m": 6, "vanishes": True, "wendt": 0}


class TestClassify:
    def test_wendt_branch(self, capsys):
        code, out, _ = run(capsys, ["classify", "--k", "7", "--n", "2"])
        obj = json.loads(out)
        assert code == 0
        assert obj["vanishes"] is True
        assert obj["branch"] == "k = 1 (mod 6), n = 2"

    def test_bad_arguments_exit_1(self, capsys):
        code, _, err = run(capsys, ["classify", "--k", "1", "--n", "2"])
        assert code == 1
        assert err.startswith("error:")


class TestHyperdet:
    def test_route_and_value(self, capsys, p3_file):
        code, out, _ = run(capsys, ["hyperdet", "--graph", p3_file, "--k", "3"])
        assert code == 0
        assert out.strip() == "0 (route: macaulay)"

    def test_json(self, capsys, p3_file):
        # P_3 at k = 2..6, byte for byte: a change of layout or value fails here
        for k, line in [
            (2, '{"k": 2,"n": 3,"route": "matrix-det","value": 4}'),
            (3, '{"k": 3,"n": 3,"route": "macaulay","value": 0}'),
            (4, '{"k": 4,"n": 3,"route": "macaulay","value": 8023601152}'),
            (5, '{"k": 5,"n": 3,"route": "macaulay","value": 0}'),
            (
                6,
                '{"k": 6,"n": 3,"route": "macaulay",'
                '"value": 43782435923605828680933188175642624}',
            ),
        ]:
            code, out, _ = run(capsys, ["hyperdet", "--graph", p3_file, "--k", str(k), "--json"])
            assert (code, out) == (0, line + "\n"), k

    def test_one_vertex_past_the_degree_cap(self, capsys, tmp_path):
        gfile = tmp_path / "k1.txt"
        gfile.write_text("n 1\n")
        code, out, _ = run(capsys, ["hyperdet", "--graph", str(gfile), "--k", "7"])
        assert code == 0
        assert out.strip() == "0 (route: macaulay)"

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, ["hyperdet", "--graph", str(tmp_path / "nope"), "--k", "2"])
        assert code == 1 and "error:" in err

    def test_sweep_flags_rejected(self, capsys, p3_file):
        code, _, err = run(capsys, ["hyperdet", "--graph", p3_file, "--k", "2", "--seed", "1"])
        assert code == 1 and "unrecognized arguments: --seed 1" in err


class TestSpectrum:
    def test_closed_form_default_for_one_edge(self, capsys, tmp_path):
        gfile = tmp_path / "k2.txt"
        write_graph(path_graph(2), gfile)
        code, out, _ = run(capsys, ["spectrum", "--graph", str(gfile), "--k", "4"])
        obj = json.loads(out)
        assert code == 0
        assert obj["method"] == "closed"
        assert obj["spectral_radius"] == 7
        mults = sum(e["multiplicity"] for e in obj["eigenvalues"])
        assert mults == 2 * 3**1  # n(k-1)^(n-1)

    def test_nqz_default_for_larger_graphs(self, capsys, p3_file):
        code, out, _ = run(capsys, ["spectrum", "--graph", p3_file, "--k", "2"])
        obj = json.loads(out)
        assert code == 0
        assert obj["method"] == "nqz"
        assert obj["enclosure"]["hi"] - obj["enclosure"]["lo"] < 1e-8
        assert obj["spectral_radius"] == pytest.approx(2.7320508, abs=1e-5)

    def test_two_vertices_without_the_edge_exit_1(self, capsys, tmp_path):
        gfile = tmp_path / "two.txt"
        gfile.write_text("n 2\n")
        code, out, err = run(capsys, ["spectrum", "--graph", str(gfile), "--k", "3"])
        assert code == 1 and "error:" in err and out == ""

    def test_method_is_a_usage_error(self, capsys, p3_file):
        # the graph picks the method: K2 the closed form, any other graph NQZ
        code, out, err = run(
            capsys, ["spectrum", "--graph", p3_file, "--k", "2", "--method", "nqz"]
        )
        assert code == 1 and out == "" and "unrecognized arguments: --method nqz" in err

    # every eigenvalue float of the real closed form; at k = 12 the pair
    # d = 5, 6 at -1.000000993... stays apart from the 11 exact -1 entries
    K2_JSON = {
        3: (
            '{"eigenvalues": [{"im": 0.0,"multiplicity": 3,"re": -1.0},'
            '{"im": 0.0,"multiplicity": 1,"re": 3.0}],'
            '"enclosure": null,"k": 3,"method": "closed","n": 2,"spectral_radius": 3}'
        ),
        4: (
            '{"eigenvalues": [{"im": 0.0,"multiplicity": 2,"re": -2.000000000000001},'
            '{"im": 0.0,"multiplicity": 3,"re": -1.0},'
            '{"im": 0.0,"multiplicity": 1,"re": 7.0}],'
            '"enclosure": null,"k": 4,"method": "closed","n": 2,"spectral_radius": 7}'
        ),
        7: (
            '{"eigenvalues": [{"im": 0.0,"multiplicity": 2,"re": -28.00000000000001},'
            '{"im": 0.0,"multiplicity": 7,"re": -1.0},'
            '{"im": 0.0,"multiplicity": 2,"re": 1.3322676295501878e-15},'
            '{"im": 0.0,"multiplicity": 1,"re": 63.0}],'
            '"enclosure": null,"k": 7,"method": "closed","n": 2,"spectral_radius": 63}'
        ),
        12: (
            '{"eigenvalues": [{"im": 0.0,"multiplicity": 2,"re": -1300.540259501374},'
            '{"im": 0.0,"multiplicity": 2,"re": -20.452185745848304},'
            '{"im": 0.0,"multiplicity": 2,"re": -1.000000993303514},'
            '{"im": 0.0,"multiplicity": 11,"re": -1.0},'
            '{"im": 0.0,"multiplicity": 2,"re": -0.8697930943930712},'
            '{"im": 0.0,"multiplicity": 2,"re": 304.86223933491937},'
            '{"im": 0.0,"multiplicity": 1,"re": 2047.0}],'
            '"enclosure": null,"k": 12,"method": "closed","n": 2,"spectral_radius": 2047}'
        ),
    }

    def test_closed_form_json_bytes(self, capsys, tmp_path):
        gfile = tmp_path / "k2.txt"
        write_graph(path_graph(2), gfile)
        for k, want in self.K2_JSON.items():
            code, out, _ = run(capsys, ["spectrum", "--graph", str(gfile), "--k", str(k), "--json"])
            assert (code, out) == (0, want + "\n"), k

    def test_closed_form_stops_at_the_float64_limit(self, capsys, tmp_path):
        # 2^(k-1) - 1 is the largest eigenvalue: 2^1023 - 1 is a float64,
        # 2^1024 - 1 is not
        gfile = tmp_path / "k2.txt"
        write_graph(path_graph(2), gfile)
        code, out, _ = run(capsys, ["spectrum", "--graph", str(gfile), "--k", "1024", "--json"])
        assert code == 0 and json.loads(out)["spectral_radius"] == 2**1023 - 1
        code, out, err = run(capsys, ["spectrum", "--graph", str(gfile), "--k", "1025"])
        assert (code, out) == (1, "")
        assert err == "error: order k = 1025 puts 2^1024 - 1 past the float64 limit: need k <= 1024\n"


class TestSweep:
    def test_requires_a_quantity(self, capsys):
        code, _, err = run(capsys, ["sweep", "--n", "3", "--k", "3"])
        assert code == 1 and "nothing to compute" in err

    def test_usage_error_exits_1(self, capsys):
        # 2 is reserved for a falsifying witness
        code, _, err = run(capsys, ["sweep", "--n", "4", "--k", "three", "--det"])
        assert code == 1 and "invalid int value" in err

    def test_jobs_flag_rejected(self, capsys):
        # sweeps evaluate their classes serially: there is no worker count to set
        code, out, err = run(capsys, ["sweep", "--n", "4", "--k", "2", "--det", "--jobs", "2"])
        assert code == 1 and out == "" and "unrecognized arguments: --jobs 2" in err

    def test_refuses_past_the_tree_cap(self, capsys):
        code, out, err = run(capsys, ["sweep", "--n", "9", "--k", "3", "--radius"])
        assert code == 1 and out == ""
        assert err == "error: sweep capped at n <= 8\n"

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--n", "4", "--k", "2", "--det"])
        assert code == 0
        assert "16 records" in out
        assert "conjecture1: True" in out

    def test_json_output_with_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        code, out, _ = run(
            capsys,
            ["sweep", "--n", "4", "--k", "2", "--det", "--json", "--cache", cache],
        )
        obj = json.loads(out)
        assert code == 0
        assert obj["verdicts"]["conjecture1"] is True
        assert len(obj["records"]) == 16
        assert "witness" not in obj
        # cache got written and a rerun reproduces the same bytes
        assert (tmp_path / "cache.jsonl").exists()
        code2, out2, _ = run(
            capsys,
            ["sweep", "--n", "4", "--k", "2", "--det", "--json", "--cache", cache],
        )
        assert code2 == 0 and out2 == out

    @staticmethod
    def fake_falsified_sweep(monkeypatch):
        """Make `sweep` report two distinct dets, which falsifies conjecture 1."""
        import steiner_spectra.cli as cli
        from steiner_spectra.harness import SweepReport

        def fake_sweep(*a, **kw):
            return SweepReport(
                n=3,
                k=4,
                mode="labeled",
                seed=0,
                classes={"a": {"det": 5}, "b": {"det": 7}},
                records=[((1,), "a"), ((2,), "b")],
                verdicts={"conjecture1": False, "conjecture2": True},
            )

        monkeypatch.setattr(cli, "sweep_trees", fake_sweep)

    def test_falsifying_witness_exits_2(self, capsys, monkeypatch):
        self.fake_falsified_sweep(monkeypatch)
        code, out, _ = run(capsys, ["sweep", "--n", "3", "--k", "4", "--det", "--json"])
        assert code == 2
        obj = json.loads(out)
        assert obj["witness"]["verdict"] == "conjecture1"

    def test_falsifying_witness_in_plain_text_exits_2(self, capsys, monkeypatch):
        self.fake_falsified_sweep(monkeypatch)
        code, out, _ = run(capsys, ["sweep", "--n", "3", "--k", "4", "--det"])
        assert code == 2
        lines = out.splitlines()
        at = lines.index("falsifying witness:")
        assert json.loads(lines[at + 1])["verdict"] == "conjecture1"

    def test_json_is_written_in_chunks_with_the_reports_bytes(self, capsys, monkeypatch):
        import steiner_spectra.cli as cli
        from steiner_spectra.harness import falsifying_witness

        code, out, _ = run(capsys, ["sweep", "--n", "5", "--k", "2", "--det", "--json"])
        assert code == 0 and out == cli.sweep_trees(5, 2, det=True).to_json() + "\n"
        self.fake_falsified_sweep(monkeypatch)
        code, out, _ = run(capsys, ["sweep", "--n", "3", "--k", "4", "--det", "--json"])
        report = cli.sweep_trees()
        assert code == 2 and out == report.to_json(falsifying_witness(report)) + "\n"

    def test_unlabeled_mode(self, capsys):
        code, out, _ = run(
            capsys, ["sweep", "--n", "4", "--k", "2", "--det", "--mode", "unlabeled", "--json"]
        )
        obj = json.loads(out)
        assert code == 0 and len(obj["records"]) == 2


class TestGpCheck:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, ["gp-check", "--n-max", "4"])
        assert code == 0
        assert "n=4: 16 trees" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["gp-check", "--n-max", "3", "--json"])
        obj = json.loads(out)
        assert code == 0 and obj["pass"] is True

    def test_json_is_pinned(self, capsys):
        # all 18,248 labeled trees on 2..7 vertices, exact integers only
        code, out, _ = run(capsys, ["gp-check", "--n-max", "7", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e2946c6b788f2b788ca9a512885a6a602be587fca5ba9494e9fa83c1b5a7cde0"
        )

    def test_refuses_past_the_cap(self, capsys):
        code, out, err = run(capsys, ["gp-check", "--n-max", "10"])
        assert code == 1 and out == ""
        assert err == "error: gp-check capped at n_max <= 8\n"


class TestExtremal:
    def test_ranking(self, capsys):
        code, out, _ = run(capsys, ["extremal", "--n", "4", "--k", "3", "--json"])
        obj = json.loads(out)
        assert code == 0
        assert obj["top_is_path"] is True
        assert len(obj["entries"]) == 2

    def test_text(self, capsys):
        code, out, _ = run(capsys, ["extremal", "--n", "4", "--k", "3"])
        assert code == 0
        assert "(path)" in out
        assert "top_is_path: True" in out

    def test_overlap_with_the_top_counts_for_the_path(self, capsys, monkeypatch):
        # the star's value is on top, but the path's enclosure reaches its
        # lower end: extremal judges the tie as sweep does
        fix_radii(monkeypatch, path=(4.5, 5.0), star=(4.0, 6.0))
        code, out, _ = run(capsys, ["sweep", "--n", "4", "--k", "3", "--radius", "--json"])
        verdicts = json.loads(out)["verdicts"]
        assert code == 0 and verdicts["question2"] is True
        keys = [canonical_key(path_graph(4)), canonical_key(star_graph(4))]
        assert verdicts["question2_ties"] == sorted(keys)
        code, out, err = run(capsys, ["extremal", "--n", "4", "--k", "3", "--json"])
        ranking = json.loads(out)
        assert code == 0 and err == ""
        assert ranking["entries"][0]["is_path"] is False
        assert ranking["top_is_path"] is True
        assert ranking["ties"] == verdicts["question2_ties"]

    def test_non_path_top_exits_2(self, capsys, monkeypatch):
        # the star's enclosure lies strictly above the path's
        fix_radii(monkeypatch, path=(4.0, 5.0), star=(6.0, 7.0))
        code, out, err = run(capsys, ["extremal", "--n", "4", "--k", "3", "--json"])
        assert code == 2
        ranking = json.loads(out)
        assert ranking["top_is_path"] is False and ranking["ties"] == []
        assert json.loads(err) == {"verdict": "question2", "witness": [ranking["entries"][0]]}
        star_key = canonical_key(star_graph(4))
        assert ranking["entries"][0]["canonical"] == star_key
        code, out, _ = run(capsys, ["sweep", "--n", "4", "--k", "3", "--radius", "--json"])
        assert code == 2
        assert json.loads(out)["witness"]["witness"][0]["canonical"] == star_key

    def test_connected_graph_json_is_pinned(self, capsys):
        # all 728 connected graphs on 5 vertices: Dreyfus-Wagner, pair
        # distances on graphs with cycles, and degree sequences
        code, out, _ = run(
            capsys,
            ["extremal", "--n", "5", "--k", "4", "--scope", "connected-graphs", "--json"],
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9d4881a7f0a3395c9e59f16307505da7ec15dc651cd0a74007a808e41b503f70"
        )

    def test_json_is_pinned(self, capsys):
        # all 11 tree classes on 7 vertices, with one center and with two
        code, out, _ = run(capsys, ["extremal", "--n", "7", "--k", "3", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0c0681ec961463b4ccb7825303306b485e79edbff420af99201fe923c55190ca"
        )

    def test_usage_error_exits_1(self, capsys):
        # 2 is reserved for a falsifying witness
        code, _, err = run(capsys, ["extremal", "--n", "5", "--k", "3", "--bogus"])
        assert code == 1 and "unrecognized arguments: --bogus" in err

    def test_sweep_flags_rejected(self, capsys):
        # extremal has no worker pool and no cache: --jobs is not silently ignored
        code, _, err = run(capsys, ["extremal", "--n", "4", "--k", "3", "--jobs", "2"])
        assert code == 1 and "unrecognized arguments: --jobs 2" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, ["extremal", "--help"])
        assert code == 0 and "--scope" in out

    def test_scope_error(self, capsys):
        code, _, err = run(capsys, ["extremal", "--n", "9", "--k", "3"])
        assert code == 1 and "error:" in err
