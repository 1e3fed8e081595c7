import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

import bwexact
from bwexact import solve
from bwexact.cli import bench_instances, build_parser, main
from bwexact.graph import generate, ordering_bandwidth, parse_graph, write_graph


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
        assert report["stats"]["kernel"] in ("c", "python")

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

    def test_crash_exit_3(self, tmp_path, capsys, monkeypatch):
        # A crash must never exit 1, which means a proven "no".
        def crash(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(solve, "walk", crash)
        path = write(tmp_path, "p4.g", generate("path", 4))
        assert main(["decide", path, "--b", "1"]) == 3
        assert "internal failure" in capsys.readouterr().err

    def test_deep_graph_yes_exit_0(self, tmp_path, capsys):
        # n = 1501 is deeper than Python's default recursion limit; the
        # Python phase-2 kernel is a loop, so the easy yes comes back.
        g = generate("star", 1500)
        path = write(tmp_path, "star1500.g", g)
        start = time.monotonic()
        assert main(["decide", path, "--b", "750", "--json"]) == 0
        assert time.monotonic() - start < 10
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["status"] == "yes"
        assert ordering_bandwidth(g, report["ordering"]) <= 750
        assert report["stats"]["kernel"] == "python"
        # JSON readers that hold numbers as doubles must read every
        # integer in the report exactly.
        ints = []
        json.loads(out, parse_int=lambda text: ints.append(int(text)))
        assert max(ints) < 2**53

    def test_workers_below_one_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "p4.g", generate("path", 4))
        assert main(["decide", path, "--b", "1", "--workers", "0"]) == 3
        assert main(["solve", path, "--workers", "-1"]) == 3
        assert "workers" in capsys.readouterr().err

    def test_nan_seconds_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "p5.g", generate("path", 5))
        assert main(["decide", path, "--b", "1", "--max-seconds", "nan"]) == 3
        assert "max_seconds" in capsys.readouterr().err

    def test_parse_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.g"
        path.write_text("2 1\n0 5\n")
        assert main(["decide", str(path), "--b", "1"]) == 3


class TestUsage:
    def test_missing_option_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "p4.g", generate("path", 4))
        assert main(["decide", path]) == 3
        assert "--b" in capsys.readouterr().err

    def test_bad_value_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "p4.g", generate("path", 4))
        assert main(["decide", path, "--b", "1", "--workers", "two"]) == 3
        assert main(["solve", path, "--frobnicate"]) == 3

    def test_removed_analyze_flag_exit_3(self, capsys):
        assert main(["analyze", "--tol", "1e-9"]) == 3
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["decide", "GRAPH", "--b", "1", "--root", "1"],
        ["solve", "GRAPH", "--root", "1"],
        ["bench", "small", "--root", "1"],
        ["bench", "small", "--json"],
    ])
    def test_removed_flag_exit_3(self, tmp_path, capsys, argv):
        # Each component's tree grows from its own vertex 0, and bench
        # always prints JSON lines, so neither flag is taken.
        path = write(tmp_path, "p4.g", generate("path", 4))
        assert main([path if a == "GRAPH" else a for a in argv]) == 3
        assert argv[-1] in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert main(["decide", "--help"]) == 0
        assert "--b" in capsys.readouterr().out

    def test_every_option_has_help(self):
        missing = [
            f"{name} {'/'.join(action.option_strings)}"
            for name, sub in build_parser()._subparsers._group_actions[0].choices.items()
            for action in sub._actions
            if action.option_strings and not action.help
        ]
        assert missing == []


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

    def test_unknown_reports_bracket(self, tmp_path, capsys):
        path = write(tmp_path, "g9.g", generate("random_gnp", 9, 0.5, seed=3))
        assert main(["solve", path, "--json", "--max-states", "2"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "unknown"
        assert report["stats"]["bracket"][1] == report["bandwidth"]

    def test_json_report_roundtrips(self, tmp_path, capsys):
        path = write(tmp_path, "c5.g", generate("cycle", 5))
        main(["solve", path, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(report)) == report

    def test_wall_seconds_covers_component_split(self, tmp_path, capsys, monkeypatch):
        # The report's one clock times the whole solve, the split included.
        real_split = solve.connected_components

        def slow_split(g):
            time.sleep(0.05)
            return real_split(g)

        monkeypatch.setattr(solve, "connected_components", slow_split)
        assert main(["solve", write(tmp_path, "c6.g", generate("cycle", 6)), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["timing"]["wall_seconds"] >= 0.05


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

    def test_no_command_loads_numpy(self, tmp_path):
        # The package, analyze included, runs on the standard library.
        path = write(tmp_path, "p5.g", generate("path", 5))
        src = os.path.dirname(os.path.dirname(os.path.abspath(bwexact.__file__)))
        code = textwrap.dedent(f"""
            import contextlib, io, sys
            import bwexact
            from bwexact.cli import main
            seen = [len(bwexact.__all__)]
            with contextlib.redirect_stdout(io.StringIO()):
                seen += [main(["solve", {path!r}]), "numpy" in sys.modules]
                seen += [main(["analyze", "--alpha", "1", "--beta", "1"]), "numpy" in sys.modules]
            print(*seen)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["12", "0", "False", "0", "False"]


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

    def test_bad_parameter(self, capsys):
        assert main(["gen", "path", "6.5"]) == 3
        assert "family path parameter 1 must be int, got '6.5'" in capsys.readouterr().err
        assert main(["gen", "random_gnp", "8", "dense"]) == 3
        assert "family random_gnp parameter 2 must be float, got 'dense'" in capsys.readouterr().err

    def test_wrong_arity(self, capsys):
        assert main(["gen", "path"]) == 3
        assert "family path takes 1 parameter(s), got 0" in capsys.readouterr().err
        assert main(["gen", "caterpillar", "3", "2", "1"]) == 3
        assert "family caterpillar takes 2 parameter(s), got 3" in capsys.readouterr().err


class TestReportSchema:
    def test_decide_solve_oracle_share_keys(self, tmp_path, capsys):
        path = write(tmp_path, "c6.g", generate("cycle", 6))
        for argv in (["decide", path, "--b", "2"], ["solve", path], ["oracle", path]):
            assert main([*argv, "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert {"command", "input", "status", "ordering", "stats", "timing"} <= report.keys()
            assert report["command"] == " ".join(["bwexact", *argv, "--json"])
            assert report["input"] == {"n": 6, "m": 6}
            assert list(report["timing"]) == ["wall_seconds"]

    def test_oracle_on_empty_graph_names_method(self, tmp_path, capsys):
        path = tmp_path / "empty.g"
        path.write_text("0 0\n")
        assert main(["oracle", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["bandwidth"], report["ordering"], report["status"]) == (0, [], "optimal")
        assert report["stats"] == {"method": "branch-and-bound"}


class TestBenchCmd:
    def test_small_suite_lines(self, tmp_path, capsys):
        # Each line is the `solve --json` report of its instance, keys in
        # the same order, with `name` in place of `command`, and holds
        # minimize_bandwidth's own record of the instance.
        assert main(["bench", "small", "--seed", "1"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        instances = list(bench_instances("small", 1))
        assert [line["name"] for line in lines] == [name for name, _ in instances]
        for line, (name, g) in zip(lines, instances):
            assert main(["solve", write(tmp_path, f"{name}.g", g), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert list(line) == ["name" if k == "command" else k for k in report]
            assert line["status"] == "optimal"
            want = solve.minimize_bandwidth(g).to_dict()
            assert {k: line[k] for k in want} == want
            assert line["input"] == {"n": g.n, "m": g.m}
            assert list(line["timing"]) == ["wall_seconds"]
