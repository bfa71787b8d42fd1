import json

import pytest

from hibires import cli
from hibires.betti import BettiTable
from hibires.cli import load_lattice, main
from hibires.fixtures import fig1
from hibires.lattice import lattice_to_text, validate_sublattice


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.lat"
    path.write_text("lattice 2\nempty\n1\n1 2\n")
    return str(path)


@pytest.fixture(scope="module")
def boolean8_file(tmp_path_factory):
    # B_8: 256 generators, whose lcm closure passes the oracle's cap
    path = tmp_path_factory.mktemp("b8") / "b8.lat"
    path.write_text(lattice_to_text(validate_sublattice(range(256), 8)))
    return str(path)


def assert_clean_error(capsys, kind):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"] == kind


@pytest.fixture
def wide_chain_file(tmp_path):
    # empty < [10] < [21]: the oracle's complexes at the top multidegree
    # pass its face cap, where uncapped they run for minutes
    path = tmp_path / "wide.lat"
    path.write_text(
        "lattice 21\nempty\n" + " ".join(map(str, range(1, 11))) + "\n"
        + " ".join(map(str, range(1, 22))) + "\n"
    )
    return str(path)


@pytest.fixture
def chain_graph_file(tmp_path):
    path = tmp_path / "chain.graph"
    path.write_text("graph 2 2\n1 1\n1 2\n2 2\n")
    return str(path)


class TestLoadLattice:
    def test_lattice_text(self, chain_file):
        assert load_lattice(chain_file).elements == (0, 0b01, 0b11)

    def test_graph_text(self, chain_graph_file):
        assert load_lattice(chain_graph_file).elements == (0, 0b01, 0b11)

    def test_lattice_json(self, tmp_path):
        path = tmp_path / "l.json"
        path.write_text(json.dumps({"n": 2, "elements": [[], [1], [1, 2]]}))
        assert load_lattice(str(path)).elements == (0, 0b01, 0b11)

    def test_graph_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps({"left": 2, "right": 2, "edges": [[1, 1], [1, 2], [2, 2]]})
        )
        assert load_lattice(str(path)).elements == (0, 0b01, 0b11)


class TestAnalyze:
    def test_json_report(self, chain_file, capsys):
        rc = main(["analyze", "--input", chain_file, "--no-timestamp"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["depth"], out["reg"], out["pd"]) == (2, 1, 2)
        assert out["resolution_level_ranks"] == [3, 2]
        assert "betti_diagram_H" in out

    def test_oracle_verdict(self, chain_file, capsys):
        rc = main(
            ["analyze", "--input", chain_file, "--level", "oracle", "--no-timestamp"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["oracle_verdict"] == "MATCH"

    def test_oracle_mismatch_names_entries(self, chain_file, capsys, monkeypatch):
        right = cli.betti_table_from_basis

        def wrong(C):
            # one entry moved up a homological degree, one added
            table = right(C)
            (i, b), v = min(table.entries.items())
            wrong_table = BettiTable(table.n, table.subject, dict(table.entries))
            del wrong_table.entries[(i, b)]
            wrong_table.add(i + 1, b, v)
            return wrong_table

        monkeypatch.setattr(cli, "betti_table_from_basis", wrong)
        rc = main(
            ["analyze", "--input", chain_file, "--level", "oracle", "--no-timestamp"]
        )
        assert rc == 2
        out = json.loads(capsys.readouterr().out)
        assert out["oracle_verdict"] == "MISMATCH"
        assert out["oracle_differing"] == [
            {"i": 0, "multidegree": "y1*y2", "basis": 0, "oracle": 1},
            {"i": 1, "multidegree": "y1*y2", "basis": 1, "oracle": 0},
        ]
        assert {"depth", "reg", "pd", "betti_diagram_H", "input"} <= out.keys()

    def test_text_format(self, chain_file, capsys):
        rc = main(
            ["analyze", "--input", chain_file, "--format", "text", "--no-timestamp"]
        )
        assert rc == 0
        assert "depth: 2" in capsys.readouterr().out

    def test_bad_input_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.lat"
        path.write_text("lattice 2\n1\n1 2\n")  # missing bottom
        rc = main(["analyze", "--input", str(path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingBottom"

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["analyze", "--input", str(tmp_path / "missing.lat")]) == 1
        assert_clean_error(capsys, "InputFormatError")

    @pytest.mark.parametrize("content", [
        None,
        b"lattice 2\nempty\n\xff\n1 2\n",
        b'{"n": ' + b"[" * 100000 + b"]" * 100000 + b"}",
    ], ids=["directory", "not-utf8", "nested-too-deep"])
    def test_unreadable_file_is_an_input_error(self, content, tmp_path, capsys):
        path = tmp_path / "input.lat"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["analyze", "--input", str(path)]) == 1
        assert_clean_error(capsys, "InputFormatError")

    @pytest.mark.parametrize("doc", [
        {"elements": [[], [1]]},
        {"left": 1},
        {"n": 1, "elements": 5},
        {"n": 2, "elements": [["a"]]},
        {"n": 2.9, "elements": [[], [True], [1, 2]]},
        {"n": 2, "elements": [[], [True], [1, 2]]},
        {"n": 1e400, "elements": [[], [1]]},  # inf, written as Infinity
        {"left": 2, "right": 2, "edges": [[1, 1], [1, 2.7], [2, 2]]},
        {"left": 2.0, "right": 2, "edges": [[1, 1], [2, 2]]},
    ])
    def test_malformed_json_exit_1(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--input", str(path)]) == 1
        assert_clean_error(capsys, "InputFormatError")

    @pytest.mark.parametrize("name, text", [
        ("size.lat", "lattice x\nempty\n"),
        ("range.lat", "lattice 2\nempty\n1 5\n1 2\n"),
        ("edge.graph", "graph 2 2\n1 1\n1 x\n2 2\n"),
    ])
    def test_malformed_text_exit_1(self, name, text, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(text)
        assert main(["analyze", "--input", str(path)]) == 1
        assert_clean_error(capsys, "InputFormatError")

    def test_matching_past_ground_bound_exit_1(self, tmp_path, capsys):
        # 33 pairs: refused on n before the 2^33 down-sets are enumerated
        path = tmp_path / "matching.graph"
        path.write_text(
            "graph 33 33\n" + "".join(f"{i} {i}\n" for i in range(1, 34))
        )
        assert main(["analyze", "--input", str(path)]) == 1
        assert_clean_error(capsys, "TooLarge")

    def test_basis_past_the_cap_exit_1(self, tmp_path, capsys):
        # 13 pairs: every |N(p)| <= 13, but the basis has 3^13 > 2^20
        # elements and is refused before any of them is built
        path = tmp_path / "matching.graph"
        path.write_text(
            "graph 13 13\n" + "".join(f"{i} {i}\n" for i in range(1, 14))
        )
        assert main(["analyze", "--input", str(path)]) == 1
        assert_clean_error(capsys, "TooManyNeighbors")

    def test_fig1_extremal_lists(self, tmp_path, capsys):
        path = tmp_path / "FIG1.lat"
        path.write_text(lattice_to_text(fig1()))
        assert main(["analyze", "--input", str(path), "--no-timestamp"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["extremal_H"] == [
            {"deg": "x1*x2*x3*x4*x5*x6*x7*y6*y7", "i": 1},
            {"deg": "x1*x2*x3*x5*y3*y4*y5*y6*y7", "i": 2},
            {"deg": "x1*x2*x3*x4*x5*y4*y5*y6*y7", "i": 2},
            {"deg": "x1*x2*x3*y1*y2*y3*y4*y5*y6*y7", "i": 2},
            {"deg": "x1*x2*x3*x4*y1*y2*y4*y5*y6*y7", "i": 2},
        ]
        assert out["extremal_multigraded"] == [
            {"deg": "x1*x2*x3*x5*y3*y4*y5*y6*y7", "i": 7, "value": 1},
            {"deg": "x1*x2*x3*x4*x5*y4*y5*y6*y7", "i": 7, "value": 1},
            {"deg": "x1*x2*x3*x4*x5*x6*x7*y6*y7", "i": 8, "value": 1},
            {"deg": "x1*x2*x3*y1*y2*y3*y4*y5*y6*y7", "i": 8, "value": 1},
            {"deg": "x1*x2*x3*x4*y1*y2*y4*y5*y6*y7", "i": 8, "value": 1},
        ]

    def test_oracle_limit_exit_1(self, boolean8_file, capsys):
        rc = main(["analyze", "--input", boolean8_file, "--level", "oracle"])
        assert rc == 1
        assert_clean_error(capsys, "ClosureTooLarge")

    def test_oracle_face_cap_exit_1(self, wide_chain_file, capsys):
        rc = main(["analyze", "--input", wide_chain_file, "--level", "oracle"])
        assert rc == 1
        assert_clean_error(capsys, "ClosureTooLarge")


class TestFieldOption:
    @pytest.mark.parametrize("field", ["p:4", "p:9", "p:1", "p:0", "p:4294967311"])
    def test_unsupported_field_is_a_usage_error(self, chain_file, field, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--input", chain_file, "--level", "oracle",
                  "--field", field])
        assert exc.value.code == 2
        assert "field must be 'q' or 'p:<prime>'" in capsys.readouterr().err

    def test_prime_accepted(self, chain_file, capsys):
        rc = main(["verify", "--input", chain_file, "--level", "oracle",
                   "--field", "p:3"])
        assert rc == 0


class TestVerify:
    def test_fixture_pass_lines(self, capsys):
        rc = main(["verify", "--fixtures"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS CHAIN complex_d_squared_zero" in out
        assert "FAIL" not in out

    def test_input_files(self, chain_file, capsys):
        assert main(["verify", "--input", chain_file]) == 0

    def test_no_input_exit_1(self, capsys):
        assert main(["verify"]) == 1
        assert "verify needs --input files or --fixtures" in capsys.readouterr().err

    def test_closure_limit_exit_1(self, boolean8_file, capsys):
        assert main(["verify", "--input", boolean8_file]) == 1
        assert_clean_error(capsys, "ClosureTooLarge")

    def test_fig1_oracle_downgrade_is_reported(self, capsys):
        assert main(["verify", "--fixtures", "--level", "oracle"]) == 0
        out = capsys.readouterr().out
        assert "SKIP FIG1 oracle checks: run at formulas level" in out
        assert "PASS B2 betti_formula_vs_oracle" in out
        assert "PASS FIG1 betti_formula_vs_oracle" not in out

    def test_mutate_exits_2_with_counterexample(self, chain_file, capsys):
        rc = main(
            ["verify", "--input", chain_file, "--debug-mutate-differential"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "counterexample" in captured.err

    def test_mutate_counterexample_names_the_level(self, chain_file, capsys):
        main(["verify", "--input", chain_file, "--debug-mutate-differential"])
        failed = json.loads(capsys.readouterr().err)["counterexample"]
        assert failed["check"] == "complex_d_squared_zero"
        # the flipped sign sits in the first differential, so the violating
        # composition is the augmentation after it
        assert failed["detail"] == (
            "('augmentation', 'b({1}; {empty}) at x1*y1*y2', {'x1*y1*y2': -2})"
        )


class TestRandom:
    def test_writes_corpus(self, tmp_path, capsys):
        rc = main(
            [
                "random",
                "--n",
                "4",
                "--count",
                "3",
                "--seed",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert "3/3 MATCH" in capsys.readouterr().out
        assert (tmp_path / "instance_0000.lat").exists()
        summary = json.loads((tmp_path / "instance_0000.json").read_text())
        assert summary["verdict"] == "MATCH"


class TestGroundSizeGuard:
    @pytest.mark.parametrize("command", ["random", "search-tightness"])
    @pytest.mark.parametrize("n", ["1", "33", "40"])
    def test_out_of_range_is_a_usage_error(self, command, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", n, "--count", "1"])
        assert exc.value.code == 2
        assert "--n must be in 2..32" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["random", "search-tightness"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_a_usage_error(self, command, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "4", "--count", count])
        assert exc.value.code == 2
        assert "--count must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["random", "search-tightness"])
    @pytest.mark.parametrize("option", ["--n", "--count"])
    def test_non_integer_is_a_usage_error(self, command, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, option, "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{option} must be an integer, got 'x'" in err
        assert "_parse_" not in err

    @pytest.mark.parametrize("command", ["random", "search-tightness"])
    def test_largest_n_finishes(self, command, capsys):
        assert main([command, "--n", "32", "--count", "1", "--seed", "0"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["random", "search-tightness"])
    def test_instance_error_exit_1(self, command, capsys):
        # seed 3 draws a 3-element lattice on n = 21: its Hibi ideal passes
        # the oracle's face cap, and its edge ideal the lcm-closure cap
        argv = [command, "--n", "32", "--count", "1", "--seed", "3"]
        if command == "random":
            argv += ["--level", "oracle"]
        assert main(argv) == 1
        assert_clean_error(capsys, "ClosureTooLarge")

    @pytest.mark.parametrize("n", ["12", "16"])
    def test_random_verifies_past_n_10(self, n, capsys):
        # the duality check caps the growing transversal list, not the
        # input generator count, so these corpora pass every check
        assert main(["random", "--n", n, "--count", "20", "--seed", "0"]) == 0
        assert "20/20 MATCH" in capsys.readouterr().out


class TestSearchTightness:
    def test_equality_report(self, tmp_path, capsys):
        rc = main(
            [
                "search-tightness",
                "--n",
                "3",
                "--count",
                "4",
                "--seed",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "equality" in out


@pytest.mark.parametrize("command, option", [
    ("verify", "--format=json"),
    ("verify", "--no-timestamp"),
    ("random", "--format=json"),
    ("random", "--no-timestamp"),
    ("search-tightness", "--format=json"),
    ("search-tightness", "--no-timestamp"),
    ("search-tightness", "--level=oracle"),
])
def test_removed_option_is_a_usage_error(command, option, capsys):
    # options these subcommands never read are not accepted
    with pytest.raises(SystemExit) as exc:
        main([command, "--fixtures", option] if command == "verify"
             else [command, "--count", "1", option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestFixturesCmd:
    def test_export(self, tmp_path, capsys):
        rc = main(["fixtures", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "FIG1.lat").read_text()
        assert text == lattice_to_text(fig1())
