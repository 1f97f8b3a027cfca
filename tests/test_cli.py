"""File formats and the command-line front end."""
import pytest

from gridpaths import cli
from gridpaths.cli import run
from gridpaths.errors import ParseError
from gridpaths.generators import gen_vpg
from gridpaths.instance_io import emit_graph, emit_instance, parse_graph, parse_instance
from gridpaths.reduction import SimpleGraph


class TestInstanceFormat:
    def test_round_trip(self):
        rep = gen_vpg(5, 7)
        parsed = parse_instance(emit_instance(rep))
        assert parsed.rep == rep
        assert parsed.labels == {}

    def test_round_trip_with_lines_and_labels(self):
        rep = gen_vpg(3, 1)
        rep = rep.__class__(rep.mode, rep.paths, vline=4, hline=-2)
        labels = {p.id: f"C({i})" for i, p in enumerate(rep.paths)}
        parsed = parse_instance(emit_instance(rep, labels))
        assert parsed.rep == rep
        assert parsed.labels == labels

    def test_header_only(self):
        parsed = parse_instance("mode vpg\n")
        assert parsed.rep.paths == ()

    def test_comments_and_blanks(self):
        text = "# header\nmode epg\n\npath a 0 0 3 3  # trailing\n"
        assert len(parse_instance(text).rep.paths) == 1

    def test_duplicate_id(self):
        text = "mode vpg\npath a 0 0 1 1\npath a 2 2 3 3\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line_no == 3

    def test_missing_mode(self):
        with pytest.raises(ParseError):
            parse_instance("path a 0 0 1 1\n")

    def test_bad_integer(self):
        with pytest.raises(ParseError):
            parse_instance("mode vpg\npath a 0 zero 1 1\n")

    def test_bad_integer_names_line_and_field(self):
        with pytest.raises(ParseError) as info:
            parse_instance("mode vpg\npath a 0 0 1 1\npath b 1 2 x 3\n")
        assert str(info.value) == "line 3: hx must be an integer, got 'x'"

    def test_unknown_keyword(self):
        with pytest.raises(ParseError):
            parse_instance("mode vpg\nfrob a\n")


class TestGraphFormat:
    def test_round_trip(self):
        g = SimpleGraph(4, ((0, 1), (1, 3)))
        assert parse_graph(emit_graph(g)) == g

    def test_bad_edge(self):
        with pytest.raises(ParseError):
            parse_graph("graph 2\nedge 0 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_graph("edge 0 1\n")


class TestCliCommands:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_gen_solve_exact_flow(self, tmp_path):
        inst = tmp_path / "inst.txt"
        assert run(["gen-vpg", "--n", "8", "--seed", "3", "--one-string",
                    "--output", str(inst)]) == 0
        sol = tmp_path / "mis.txt"
        assert run(["solve", "mis", "--input", str(inst), "--output", str(sol)]) == 0
        ids = sol.read_text().split()
        assert ids == sorted(ids)
        assert run(["exact", "mis", "--input", str(inst)]) == 0
        assert run(["exact", "mds", "--input", str(inst)]) == 0
        assert run(["exact", "hs", "--input", str(inst)]) == 0
        assert run(["solve", "mds-vpg", "--input", str(inst), "--seed", "5"]) == 0

    def test_solve_output_deterministic(self, tmp_path):
        inst = tmp_path / "inst.txt"
        run(["gen-vpg", "--n", "9", "--seed", "4", "--one-string",
             "--output", str(inst)])
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        run(["solve", "mds-vpg", "--input", str(inst), "--seed", "2",
             "--output", str(out1)])
        run(["solve", "mds-vpg", "--input", str(inst), "--seed", "2",
             "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_one_string_rejects_double_crossing_pair(self, tmp_path):
        inst = tmp_path / "pair.txt"
        inst.write_text(
            "mode vpg\npath a 0 0 6 6\npath b 5 5 -1 -1\n", encoding="utf-8"
        )
        assert run(["verify", "--check", "one-string", "--input", str(inst)]) == 1
        assert run(["verify", "--check", "general-position", "--input", str(inst)]) == 0

    def test_verify_epg_families(self, tmp_path):
        dc = tmp_path / "dc.txt"
        run(["gen-epg", "--family", "double-crossing", "--n", "6", "--seed", "1",
             "--output", str(dc)])
        assert run(["verify", "--check", "double-crossing", "--input", str(dc)]) == 0
        vc = tmp_path / "vc.txt"
        run(["gen-epg", "--family", "vertical-crossing", "--n", "6", "--seed", "1",
             "--output", str(vc)])
        assert run(["verify", "--check", "vertical-crossing", "--input", str(vc)]) == 0
        assert run(["verify", "--check", "non-containment", "--input", str(vc)]) == 0

    def test_reduce_verify_map_back_flow(self, tmp_path):
        graph_file = tmp_path / "graph.txt"
        graph_file.write_text("graph 2\nedge 0 1\n", encoding="utf-8")
        inst = tmp_path / "gadget.txt"
        assert run(["reduce", "--input", str(graph_file), "--output", str(inst)]) == 0
        assert "label" in inst.read_text()
        assert run(["verify", "--check", "reduction", "--input", str(inst),
                    "--graph", str(graph_file)]) == 0
        sol = tmp_path / "solution.txt"
        assert run(["exact", "mds", "--input", str(inst), "--output", str(sol)]) == 0
        cover = tmp_path / "cover.txt"
        assert run(["map-back", "--input", str(inst), "--graph", str(graph_file),
                    "--solution", str(sol), "--output", str(cover)]) == 0
        assert cover.read_text().split() in (["0"], ["1"])

    def test_solve_mds_epg(self, tmp_path, capsys):
        inst = tmp_path / "epg.txt"
        run(["gen-epg", "--family", "double-crossing", "--n", "7", "--seed", "2",
             "--output", str(inst)])
        assert run(["solve", "mds-epg", "--input", str(inst)]) == 0
        ids = capsys.readouterr().out.split()
        assert ids and ids == sorted(ids)

    def test_exact_vc(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.txt"
        graph_file.write_text("graph 3\nedge 0 1\nedge 1 2\n", encoding="utf-8")
        assert run(["exact", "vc", "--input", str(graph_file)]) == 0
        assert capsys.readouterr().out.split() == ["1"]

    def test_reduce_flow_with_cap_override(self, tmp_path):
        # A 6-vertex graph yields a 5n+2m = 44 path gadget, above the
        # default oracle cap; --cap unlocks the documented walkthrough.
        graph_file = tmp_path / "g.txt"
        assert run(["gen-graph", "--n", "6", "--m", "7", "--seed", "2",
                    "--output", str(graph_file)]) == 0
        inst = tmp_path / "gadget.txt"
        assert run(["reduce", "--input", str(graph_file), "--output", str(inst)]) == 0
        sol = tmp_path / "d.txt"
        assert run(["exact", "mds", "--input", str(inst), "--output", str(sol)]) == 1
        assert run(["exact", "mds", "--input", str(inst), "--cap", "60",
                    "--output", str(sol)]) == 0
        cover = tmp_path / "cover.txt"
        assert run(["map-back", "--input", str(inst), "--graph", str(graph_file),
                    "--solution", str(sol), "--output", str(cover)]) == 0
        g = parse_graph(graph_file.read_text())
        assert g.is_vertex_cover({int(v) for v in cover.read_text().split()})

    def test_verify_reduction_requires_graph(self, tmp_path):
        inst = tmp_path / "inst.txt"
        inst.write_text("mode epg\n", encoding="utf-8")
        assert run(["verify", "--check", "reduction", "--input", str(inst)]) == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("mode vpg\npath a 0 0 1\n", encoding="utf-8")
        assert run(["solve", "mis", "--input", str(bad)]) == 2

    def test_infeasible_exit_code(self, tmp_path):
        # A non-one-string input refused by the pipeline.
        inst = tmp_path / "pair.txt"
        inst.write_text(
            "mode vpg\npath a 0 0 6 6\npath b 5 5 -1 -1\n", encoding="utf-8"
        )
        assert run(["solve", "mds-vpg", "--input", str(inst)]) == 1

    def test_touching_contact_exit_code(self, tmp_path, capsys):
        # A zero-length arm puts a's corner on b's vertical part: the paths
        # only touch, so neither dominates the other and both are needed.
        inst = tmp_path / "touch.txt"
        inst.write_text("mode vpg\npath a 0 2 -3 2\npath b 0 0 3 4\n", encoding="utf-8")
        assert run(["solve", "mds-vpg", "--input", str(inst)]) == 0
        assert capsys.readouterr() == ("a\nb\n", "")

    def test_shared_corner_exit_code(self, tmp_path, capsys):
        # One-string and not adjacent: the paths meet only at the shared
        # corner (0, 0); the dominating set needs both.
        inst = tmp_path / "corner.txt"
        inst.write_text("mode vpg\npath a 0 0 3 3\npath b 0 0 -3 -3\n", encoding="utf-8")
        assert run(["verify", "--check", "one-string", "--input", str(inst)]) == 0
        assert capsys.readouterr().out == "one-string: ok\n"
        assert run(["exact", "mis", "--input", str(inst)]) == 0
        assert capsys.readouterr().out.split() == ["a", "b"]  # not adjacent
        assert run(["solve", "mds-vpg", "--input", str(inst)]) == 0
        assert capsys.readouterr() == ("a\nb\n", "")

    def test_exact_hs_on_shared_corner_dominates(self, tmp_path, capsys):
        # Each path's set holds its own two parts only, so a minimum
        # hitting set takes one part of each path, and its owners are the
        # minimum dominating set {a, b}.
        inst = tmp_path / "corner.txt"
        inst.write_text("mode vpg\npath a 0 0 3 3\npath b 0 0 -3 -3\n", encoding="utf-8")
        assert run(["exact", "hs", "--input", str(inst)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert sorted(line.split()[1] for line in lines) == ["a", "b"]

    def test_reused_parser_matches_fresh(self, tmp_path, capsys):
        # The parser is built once per process: usage errors in between leave
        # nothing behind, and omitted options take their defaults again.
        inst = tmp_path / "inst.txt"
        inst.write_text(
            "mode vpg\npath a 0 0 2 2\npath b 1 -1 3 1\npath c 5 5 8 8\n", encoding="utf-8"
        )
        calls = [
            ["solve", "mds-vpg", "--input", str(inst), "--seed", "3"],
            ["solve", "bogus", "--input", str(inst)],
            ["solve", "mds-vpg", "--input", str(inst)],
            ["verify", "--check", "one-string"],
            ["verify", "--check", "one-string", "--input", str(inst)],
            ["frobnicate"],
            ["solve", "mis", "--input", str(inst), "--seed", "x"],
            ["solve", "mis", "--input", str(inst)],
        ]

        def outcomes(fresh):
            out = []
            for argv in calls:
                if fresh:
                    cli._build_parser.cache_clear()
                code = run(argv)
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
            return out

        reused = outcomes(fresh=False)
        assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0, 2, 2, 0]
        assert outcomes(fresh=True) == reused
        assert cli._build_parser() is cli._build_parser()

    def test_gen_graph_infeasible_exit_code(self, tmp_path):
        assert run(["gen-graph", "--n", "2", "--m", "3", "--seed", "0"]) == 1

    @pytest.mark.parametrize("argv", [
        ["gen-vpg", "--n", "-1"],
        ["gen-epg", "--family", "double-crossing", "--n", "-2"],
        ["gen-graph", "--n", "-1", "--m", "0"],
        ["gen-graph", "--n", "3", "--m", "-1"],
        ["bench", "--family", "vpg-one-string", "--algo", "mis", "--sizes=-2:1"],
        ["bench", "--family", "vpg-one-string", "--algo", "mis", "--sizes", "1:2",
         "--seeds", "-1"],
    ])
    def test_negative_count_is_a_usage_error(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative" in captured.err or "LO >= 0" in captured.err


class TestBench:
    def test_header_and_rows(self, tmp_path, capsys):
        assert run(["bench", "--family", "epg-double-crossing", "--algo", "mds-epg",
                    "--sizes", "4:5", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "instance_id,n,algo,size,opt,ratio,runtime_ms"
        assert len(lines) == 1 + 2 * 2
        assert lines[1:] == sorted(lines[1:])

    def test_double_crossing_ratio_bound(self, tmp_path):
        csv_file = tmp_path / "sweep.csv"
        assert run(["bench", "--family", "epg-double-crossing", "--algo", "mds-epg",
                    "--sizes", "6:9", "--seeds", "3", "--csv", str(csv_file)]) == 0
        for row in csv_file.read_text().strip().splitlines()[1:]:
            ratio = row.split(",")[5]
            assert ratio and float(ratio) <= 2.0

    def test_mis_rows_have_opt(self, capsys):
        assert run(["bench", "--family", "vpg-one-string", "--algo", "mis",
                    "--sizes", "6:6", "--seeds", "3"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            parts = row.split(",")
            assert parts[4] != ""  # opt within the oracle cap
            assert float(parts[5]) >= 1.0

    def test_mds_vpg_rows_match_solve(self, tmp_path, capsys):
        # A row's net seed is its instance seed, as `solve mds-vpg --seed`.
        assert run(["bench", "--family", "vpg-one-string", "--algo", "mds-vpg",
                    "--sizes", "12:13", "--seeds", "2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            instance_id, n, _, size = row.split(",")[:4]
            seed = str(int(instance_id.rsplit("-s", 1)[1]))
            inst = tmp_path / f"{instance_id}.txt"
            assert run(["gen-vpg", "--n", n, "--seed", seed, "--one-string",
                        "--output", str(inst)]) == 0
            assert run(["solve", "mds-vpg", "--input", str(inst), "--seed", seed]) == 0
            assert int(size) == len(capsys.readouterr().out.split())

    def test_family_algo_mismatch(self):
        assert run(["bench", "--family", "vpg-one-string", "--algo", "mds-epg",
                    "--sizes", "4:4", "--seeds", "1"]) == 2
