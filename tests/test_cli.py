import json

import pytest

from bwexact.cli import main
from bwexact.graph import generate, parse_graph, write_graph


def write(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(write_graph(g))
    return str(path)


class TestDecide:
    def test_yes_exit_0(self, tmp_path, capsys):
        path = write(tmp_path, "p4.g", generate("path", 4))
        assert main(["decide", path, "--b", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "yes"
        assert report["input"] == {"n": 4, "m": 3}
        assert report["counters"]["kernel"] in ("c", "python")

    def test_no_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "k4.g", generate("complete", 4))
        assert main(["decide", path, "--b", "2", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["status"] == "no"

    def test_unknown_exit_2(self, tmp_path, capsys):
        # The star K(1,5) has bandwidth 3; its "no" runs at b=2 take
        # dozens of states.
        path = write(tmp_path, "star5.g", generate("star", 5))
        assert main(["decide", path, "--b", "2"]) == 1
        capsys.readouterr()
        code = main(["decide", path, "--b", "2", "--max-states", "2", "--json"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["status"] == "unknown"

    def test_missing_file_exit_3(self, capsys):
        assert main(["decide", "/nonexistent.g", "--b", "1"]) == 3
        assert "error" in capsys.readouterr().err

    def test_crash_exit_3(self, tmp_path, capsys):
        # n = 1501 overflows the recursion of the Python phase-2 kernel;
        # a crash must never exit 1, which means a proven "no".
        path = write(tmp_path, "star1500.g", generate("star", 1500))
        assert main(["decide", path, "--b", "750"]) == 3
        assert "internal failure" in capsys.readouterr().err

    def test_workers_below_one_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "p4.g", generate("path", 4))
        assert main(["decide", path, "--b", "1", "--workers", "0"]) == 3
        assert main(["solve", path, "--workers", "-1"]) == 3
        assert "workers" in capsys.readouterr().err

    def test_parse_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.g"
        path.write_text("2 1\n0 5\n")
        assert main(["decide", str(path), "--b", "1"]) == 3


class TestSolve:
    def test_star(self, tmp_path, capsys):
        path = write(tmp_path, "star4.g", generate("star", 4))
        assert main(["solve", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bandwidth"] == 2 and report["status"] == "optimal"
        assert report["stats"]["kernel"] in ("c", "python")

    def test_two_components(self, tmp_path, capsys):
        text = "5 4\n0 1\n1 2\n3 4\n0 2\n"
        path = tmp_path / "two.g"
        path.write_text(text)
        assert main(["solve", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        g = parse_graph(text)
        pos = report["ordering"]
        assert sorted(pos) == [1, 2, 3, 4, 5]
        assert report["bandwidth"] == max(abs(pos[u] - pos[v]) for u, v in g.edges)

    def test_json_report_roundtrips(self, tmp_path, capsys):
        path = write(tmp_path, "c5.g", generate("cycle", 5))
        main(["solve", path, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(report)) == report


class TestOracleCmd:
    def test_small(self, tmp_path, capsys):
        path = write(tmp_path, "c6.g", generate("cycle", 6))
        assert main(["oracle", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["bandwidth"] == 2

    def test_refuses_large(self, tmp_path, capsys):
        path = write(tmp_path, "p12.g", generate("path", 12))
        assert main(["oracle", path]) == 3


class TestAnalyzeCmd:
    def test_reference_weights(self, capsys):
        assert main(["analyze", "--alpha", "0.8805", "--beta", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 4.8280 <= report["kappa"] <= 4.8290
        assert len(report["residuals"]) == 4
        assert report["binding"]

    def test_needs_both_weights(self, capsys):
        assert main(["analyze", "--alpha", "0.5"]) == 3


class TestGenCmd:
    def test_path_to_stdout(self, capsys):
        assert main(["gen", "path", "6"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 6 and g.m == 5

    def test_gnp_to_file(self, tmp_path):
        out = tmp_path / "g.g"
        assert main(["gen", "random_gnp", "8", "0.4", "--seed", "2", "-o", str(out)]) == 0
        assert out.read_text() == (
            "8 10\n0 3\n0 4\n1 2\n1 6\n2 3\n3 5\n3 6\n3 7\n4 6\n4 7\n"
        )

    def test_wrong_arity(self, capsys):
        assert main(["gen", "path"]) == 3
        assert "family path takes 1 parameter(s), got 0" in capsys.readouterr().err
        assert main(["gen", "caterpillar", "3", "2", "1"]) == 3
        assert "family caterpillar takes 2 parameter(s), got 3" in capsys.readouterr().err


class TestBenchCmd:
    def test_small_suite_lines(self, capsys):
        assert main(["bench", "small", "--seed", "1"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) > 10
        for line in lines:
            assert line["status"] == "optimal"
            assert line["states_max_run"] <= line["per_run_ceiling"] or \
                line["states_max_run"] == 0
            assert line["assignments_generated"] <= line["phase1_ceiling"]
