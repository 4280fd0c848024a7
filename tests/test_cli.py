import hashlib
import json

import pytest

from steiner_spectra.cli import main
from steiner_spectra.graphs import path_graph, star_graph, write_graph


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
        code, out, _ = run(capsys, ["hyperdet", "--graph", p3_file, "--k", "2", "--json"])
        obj = json.loads(out)
        assert code == 0
        assert obj == {"k": 2, "n": 3, "route": "matrix-det", "value": 4}

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

    # every eigenvalue float of the closed form, signs of zero included
    K2_JSON = {
        3: (
            '{"eigenvalues": [{"im": -0.0,"multiplicity": 3,"re": -1.0},'
            '{"im": -1.959434878635765e-15,"multiplicity": 1,"re": 3.0}],'
            '"enclosure": null,"k": 3,"method": "closed","n": 2,"spectral_radius": 3}'
        ),
        4: (
            '{"eigenvalues": [{"im": 9.992007221626409e-16,"multiplicity": 2,"re": -2.0},'
            '{"im": 0.0,"multiplicity": 3,"re": -1.0},'
            '{"im": -1.465494392505206e-14,"multiplicity": 1,"re": 6.999999999999995}],'
            '"enclosure": null,"k": 4,"method": "closed","n": 2,"spectral_radius": 7}'
        ),
        7: (
            '{"eigenvalues": [{"im": 1.0383998506471258e-13,"multiplicity": 2,"re": -28.00000000000004},'
            '{"im": -1.092141460022596e-92,"multiplicity": 7,"re": -1.0},'
            '{"im": -3.3306690738754625e-15,"multiplicity": 2,"re": -2.6645352591003757e-15},'
            '{"im": -1.4921397450962104e-13,"multiplicity": 1,"re": 63.0}],'
            '"enclosure": null,"k": 7,"method": "closed","n": 2,"spectral_radius": 63}'
        ),
    }

    def test_closed_form_json_bytes(self, capsys, tmp_path):
        gfile = tmp_path / "k2.txt"
        write_graph(path_graph(2), gfile)
        for k, want in self.K2_JSON.items():
            code, out, _ = run(capsys, ["spectrum", "--graph", str(gfile), "--k", str(k), "--json"])
            assert (code, out) == (0, want + "\n"), k


class TestSweep:
    def test_requires_a_quantity(self, capsys):
        code, _, err = run(capsys, ["sweep", "--n", "3", "--k", "3"])
        assert code == 1 and "nothing to compute" in err

    def test_usage_error_exits_1(self, capsys):
        # 2 is reserved for a falsifying witness
        code, _, err = run(capsys, ["sweep", "--n", "4", "--k", "three", "--det"])
        assert code == 1 and "invalid int value" in err

    def test_jobs_below_one_exits_1(self, capsys):
        code, out, err = run(capsys, ["sweep", "--n", "4", "--k", "2", "--det", "--jobs", "0"])
        assert code == 1 and out == "" and "jobs" in err

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

    def test_falsifying_witness_exits_2(self, capsys, monkeypatch):
        import steiner_spectra.cli as cli
        from steiner_spectra.harness import SweepRecord, SweepReport

        def fake_sweep(*a, **kw):
            return SweepReport(
                n=3,
                k=4,
                mode="labeled",
                seed=0,
                records=[
                    SweepRecord((1,), "a", det=5),
                    SweepRecord((2,), "b", det=7),
                ],
                verdicts={"conjecture1": False, "conjecture2": True},
            )

        monkeypatch.setattr(cli, "sweep_trees", fake_sweep)
        code, out, _ = run(capsys, ["sweep", "--n", "3", "--k", "4", "--det", "--json"])
        assert code == 2
        obj = json.loads(out)
        assert obj["witness"]["verdict"] == "conjecture1"

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

    def test_non_path_top_exits_2(self, capsys, monkeypatch):
        import steiner_spectra.cli as cli

        def fake_extremal(n, k, scope="trees", tol=1e-8):
            return {
                "n": n,
                "k": k,
                "scope": scope,
                "tol": tol,
                "entries": [
                    {"canonical": "s", "is_path": False, "degree_sequence": [3, 1, 1, 1],
                     "radius": {"value": 9.0, "lo": 9.0, "hi": 9.0, "iterations": 3}},
                ],
                "top_is_path": False,
                "ties": [],
            }

        monkeypatch.setattr(cli, "extremal_radius", fake_extremal)
        code, out, err = run(capsys, ["extremal", "--n", "4", "--k", "3", "--json"])
        assert code == 2
        witness = json.loads(err)
        assert witness["verdict"] == "question2"
        assert witness["witness"][0]["canonical"] == "s"

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
