import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hibires
import hibires.lattice as lattice_mod
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

    def test_lattice_past_the_size_bound_exit_1(
        self, tmp_path, capsys, monkeypatch
    ):
        # with the bound at 2^10, an 11-pair matching (2^11 down-sets) is
        # refused while its down-sets are enumerated
        monkeypatch.setattr(lattice_mod, "NEIGHBOR_CAP", 10)
        path = tmp_path / "matching.graph"
        path.write_text(
            "graph 11 11\n" + "".join(f"{i} {i}\n" for i in range(1, 12))
        )
        assert main(["analyze", "--input", str(path)]) == 1
        assert_clean_error(capsys, "TooLarge")

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


# sha256 of `analyze --input <NAME>.lat --level L --format F --no-timestamp`
# stdout, run in the directory the fixtures were exported to
ANALYZE_DIGESTS = {
    ("E1", "formulas", "json"): "8d9cde1bfdf6ea94e94702a431bcb75a568553de682a80434fe5e87d8ad84024",
    ("E1", "formulas", "text"): "e0e99b5f0511176a09035769eac865926951e7a658403298a3d93974fdca56bc",
    ("E1", "oracle", "json"): "3e42d29b098393c406eee80cce22f662c2740fe9a2e3e64e4401d97c2c7a9d86",
    ("E1", "oracle", "text"): "d52c09e3ff14838ec452af026ec99f72d2049a10d9102f7b7c07ff5191b35b3d",
    ("K22", "formulas", "json"): "99059c95eb769fa3687ad6978f59ea1cf3f8423878eab9e68b6fb76d794cf77c",
    ("K22", "formulas", "text"): "b0feb71f46ac1816004f4b87b23a8e8ab765ec320f4e42ae94e035aeb9997f05",
    ("K22", "oracle", "json"): "85681ec7ad56ffc347782f0e241725ba3b9c89aafea5ebac41009ef437d04088",
    ("K22", "oracle", "text"): "976f4086ef19f9703f1ab0bcc439882a22195a3169eb7386bf1be55c3bd18c69",
    ("CHAIN", "formulas", "json"): "0ffe046a68e87633ac66bb7c8936a2d0a9558712d69e979a81b1c2af383e081b",
    ("CHAIN", "formulas", "text"): "1b004b82a9bb746e1ff2b2263ac4721ef955ab15e6e4483e40d9e3a0919f7283",
    ("CHAIN", "oracle", "json"): "dfa3b130b50f796dbf66bae8dbc1ec53f0937b4b567dc56f55aadc0128e471e2",
    ("CHAIN", "oracle", "text"): "175f359d1fa98683891aedc071b7e8f2c3f919de2b9a3899bdf2596c292dfd15",
    ("B2", "formulas", "json"): "c488ff3d903699857cee9b65b148ce164771be956db5b8780d12109a4ad05f5a",
    ("B2", "formulas", "text"): "afd84355daf0461bf94f8d52714e468e1a08337becae8e78510874ce8dbc9463",
    ("B2", "oracle", "json"): "e34bee4c47cd1b49207306e6415d4402fafbc5367e527b472cb3a06ad37e8bc9",
    ("B2", "oracle", "text"): "e68b18113df68ec3e664504cb9713714c81511024b4b89d093bcc3b78039e6b4",
    ("FIG1", "formulas", "json"): "533602b5960ee994c075929b84b4a0afc04e19765e79f80113e5586885dd72dd",
    ("FIG1", "formulas", "text"): "db576ab6e6797e68da409bfcad00738c1e41d8c7c44d2717503d3fca59cc3087",
    ("FIG1", "oracle", "json"): "df54ffef62b21c8b2bb897e2cb71a7009dcecb14269c92213979f953fdcc9514",
    ("FIG1", "oracle", "text"): "d88f95ec8cbe0814a75da95ee43a5e245bb52df014e14053eacb18e63be08575",
}


@pytest.fixture(scope="module")
def exported_fixtures(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--out", str(outdir)]) == 0
    return outdir


@pytest.mark.parametrize("name, level, fmt", sorted(ANALYZE_DIGESTS))
def test_analyze_output_is_pinned(
    name, level, fmt, exported_fixtures, capsys, monkeypatch
):
    monkeypatch.chdir(exported_fixtures)
    capsys.readouterr()
    argv = ["analyze", "--input", f"{name}.lat", "--level", level,
            "--format", fmt, "--no-timestamp"]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == ANALYZE_DIGESTS[name, level, fmt]


@pytest.mark.parametrize("command", ["fixtures", "analyze"])
def test_closed_stdout_exit_1_quietly(command, tmp_path):
    # the read end of the pipe is closed before the child starts
    (tmp_path / "FIG1.lat").write_text(lattice_to_text(fig1()))
    argv = ["fixtures"] if command == "fixtures" else [
        "analyze", "--input", "FIG1.lat"]
    src = str(Path(hibires.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hibires.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
