"""End-to-end CLI behavior: emitted artifacts re-verify, mutated
artifacts are rejected, and exit codes follow the contract
(0 ok / 2 usage / 3 budget / 4 invalid)."""

import copy
import hashlib
import json
import math
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture import BipartiteShape, Coloring, base_registry, bipartite_from_clique, report_dict
from fracture import constructions as cons
from fracture import core
from fracture import designs as designs_mod
from fracture import search as search_mod
from fracture.cli import _CONSTRUCT, _DESIGNS, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestConstructAndEval:
    def test_base_roundtrip_bytes(self, capsys, tmp_path):
        code, text = run(capsys, "construct", "base", "rainbow-triangle")
        assert code == 0
        assert text.endswith("\n")
        path = tmp_path / "c.json"
        path.write_text(text)
        code, text2 = run(capsys, "eval", str(path))
        assert code == 0
        assert text2 == text

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "base", "k9-five"),
            ("construct", "blow-up", "--base", "rainbow-triangle", "--n", "14"),
            ("construct", "matching-split", "--n", "6", "--k", "5"),
            ("construct", "factor-split", "--n", "6", "--r", "3", "--t", "2"),
            ("construct", "equitable", "--n", "5", "--k", "7"),
            ("construct", "nminus1", "--n", "8"),
            ("construct", "ncolors", "--n", "7"),
            ("construct", "trivial", "--n", "5"),
        ],
    )
    def test_constructions_verify(self, capsys, tmp_path, argv):
        code, text = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "artifact.json"
        path.write_text(text)
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 0
        assert verdict["valid"] is True

    def test_bipartite_roundtrip(self, capsys, tmp_path):
        code, text = run(
            capsys, "construct", "bipartite-blow-up", "--base", "rainbow-triangle",
            "--n", "9",
        )
        assert code == 0
        data = json.loads(text)
        assert data["coloring"]["bipartite"] is True
        path = tmp_path / "b.json"
        path.write_text(text)
        code, text2 = run(capsys, "eval", str(path))
        assert code == 0 and text2 == text
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 0 and verdict["valid"] is True

    def test_infeasible_construction_exits_2(self, capsys):
        code, _ = run(capsys, "construct", "matching-split", "--n", "6", "--k", "4")
        assert code == 2

    def test_missing_input_file_exits_2(self, capsys, tmp_path):
        code, out = run(capsys, "eval", str(tmp_path / "absent.json"))
        assert code == 2 and out == ""
        code, out = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 2 and out == ""

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, out = run(capsys, "eval", str(path))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("command", ["eval", "verify"])
    @pytest.mark.parametrize(
        "text",
        ['{"v": ' + "9" * 5000 + ', "strength": 2, "block_size": 3, "blocks": []}', "[" * 200000 + "]" * 200000],
        ids=["5000-digit-int", "deep-nesting"],
    )
    def test_hostile_json_exits_2(self, capsys, tmp_path, command, text):
        # past the int digit limit json raises ValueError, past the stack RecursionError
        path = tmp_path / "hostile.json"
        path.write_text(text)
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")

    def test_eval_top_level_list_exits_2(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        code, out = run(capsys, "eval", str(path))
        assert code == 2 and out == ""

    def test_hostile_shape_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**7, "r": 5 * 10**6, "k": 1, "colors": [0]}))
        code, out = run(capsys, "eval", str(path))
        assert code == 2 and out == ""
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 4 and verdict["valid"] is False

    def test_bipartite_without_n_exits_2(self, capsys, tmp_path):
        _, text = run(
            capsys, "construct", "bipartite-blow-up", "--base", "rainbow-triangle",
            "--n", "6",
        )
        data = json.loads(text)
        del data["coloring"]["n"]
        path = tmp_path / "b.json"
        path.write_text(json.dumps(data))
        code = main(["eval", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "'n'" in captured.err
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 4 and verdict["valid"] is False

    @pytest.mark.parametrize(
        "line",
        [
            "construct trivial --n 100000 --r 3",
            "construct nminus1 --n 5001",
            "construct trivial --n 3000",
            "construct ncolors --n 4000",
            "construct bipartite-blow-up --base k5-four --n 5000",
            "designs one-factorization --n 3000",
            "designs near-one-factorization --n 3001",
            "construct blow-up --base rainbow-triangle --n 1000000",
            "construct base trivial(3000,2)",
            "construct bipartite-double --base trivial(447,2)",
            "construct trivial --n " + "1" + "0" * 100 + " --r 60",
            "construct equitable --n 1000000 --r 500000 --k 1",
            "designs baranyai --n 1000000 --r 500000",
        ],
    )
    def test_hostile_sizes_exit_2_before_per_edge_work(self, capsys, monkeypatch, line):
        def no_work(*args):
            raise AssertionError("per-edge work started")

        for module, name in [
            (cons, "edge_array"),
            (cons, "_part_plan"),
            (cons, "one_factorization"),
            (cons, "near_one_factorization"),
            (cons, "hamiltonian_decomposition"),
            (designs_mod, "_normalize_factor"),
            (designs_mod, "_baranyai_flow"),
        ]:
            monkeypatch.setattr(module, name, no_work)
        coloring = cons.Coloring

        def small_coloring(shape, k, assignment):
            assert shape.edge_count <= core.HOST_EDGE_CAP, "per-edge work started"
            return coloring(shape, k, assignment)

        monkeypatch.setattr(cons, "Coloring", small_coloring)
        table = core.edge_array

        def small_table(n, r):
            # the base colorings are evaluated before the host cap runs
            assert math.comb(n, r) <= core.HOST_EDGE_CAP, "per-edge work started"
            return table(n, r)

        monkeypatch.setattr(core, "edge_array", small_table)
        start = time.perf_counter()
        code = main(line.split())
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_output_flag(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, text = run(
            capsys, "construct", "base", "k5-four", "--output", str(target)
        )
        assert code == 0
        assert text == ""
        assert json.loads(target.read_text())["report"]["z"] == "3/5"


class TestSubcommandTables:
    def test_tables_drive_parser(self, capsys):
        commands = build_parser()._subparsers._group_actions[0].choices
        groups = {
            command: commands[command]._subparsers._group_actions[0].choices
            for command in ("construct", "designs")
        }
        assert list(groups["construct"]) == list(_CONSTRUCT)
        assert list(groups["designs"]) == list(_DESIGNS)
        for command in ("construct", "designs"):
            for name in groups[command]:
                with pytest.raises(SystemExit) as exit_:
                    main([command, name, "--help"])
                assert exit_.value.code == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            main(["construct", "factor-split", "--n", "6", "--t", "2"])
        assert exit_.value.code == 2
        assert "--r" in capsys.readouterr().err
        code, data = run_json(capsys, "construct", "equitable", "--n", "5", "--k", "7")
        assert code == 0 and data["coloring"]["r"] == 2


_SMALL_INTS = st.integers(-2, 9)
_BASE_NAMES = st.one_of(
    st.sampled_from(list(cons._EXPLICIT_BASES) + ["design(pg(2))", "design(sqs(3))", "nosuch"]),
    st.builds("trivial({},{})".format, _SMALL_INTS, _SMALL_INTS),
    st.builds("diamond({})".format, _SMALL_INTS),
)


class TestConstructFuzz:
    @pytest.mark.parametrize("what", list(_CONSTRUCT))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_small_arguments_exit_0_or_2(self, tmp_path_factory, what, data):
        argv = ["construct", what]
        for arg in _CONSTRUCT[what][1]:
            if arg in ("name", "--base"):
                value = data.draw(_BASE_NAMES, label=arg)
            else:
                value = data.draw(_SMALL_INTS, label=arg)
            argv.append(value if arg == "name" else f"{arg}={value}")
        out = tmp_path_factory.getbasetemp() / "construct-fuzz.json"
        try:
            code = main(argv + ["--output", str(out)])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        assert code in (0, 2)


class TestDesignsCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ("designs", "pg", "--q", "3"),
            ("designs", "ag", "--q", "3"),
            ("designs", "sqs", "--m", "3"),
            ("designs", "inversive", "--q", "2"),
            ("designs", "baranyai", "--n", "6", "--r", "3"),
            ("designs", "one-factorization", "--n", "8"),
            ("designs", "near-one-factorization", "--n", "7"),
        ],
    )
    def test_emit_and_verify(self, capsys, tmp_path, argv):
        code, text = run(capsys, *argv)
        assert code == 0
        data = json.loads(text)
        assert data["valid"] is True
        if "blocks" in data or "factors" in data:
            path = tmp_path / "d.json"
            path.write_text(text)
            code, verdict = run_json(capsys, "verify", str(path))
            assert code == 0 and verdict["valid"] is True

    # sha256 of the outputs, recorded when K_10's diamonds were still found
    # by backtracking and near-one-factorizations built on their own
    PINNED = [
        (
            ("construct", "base", "diamond(10)"),
            "c4a47887d3ff9ba9406d2e1b524772a1702764bca1e84d05fac55d7b3c960ceb",
        ),
        (
            ("designs", "near-one-factorization", "--n", "7"),
            "f718cfbca57551179867b3923119792bb7eb8a8c6c1c538e8fbfa4197d8d20da",
        ),
    ]

    @pytest.mark.parametrize("argv,sha", PINNED, ids=["diamond-10", "near-one-factorization-7"])
    def test_bytes_unchanged(self, capsys, argv, sha):
        code, text = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    def test_diamonds(self, capsys):
        code, data = run_json(capsys, "designs", "diamonds", "--n", "10")
        assert code == 0
        assert len(data["groups"]) == 9

    def test_bad_order_exits_2(self, capsys):
        code, _ = run(capsys, "designs", "pg", "--q", "6")
        assert code == 2


class TestBoundsAndTable:
    def test_z_bounds(self, capsys):
        code, data = run_json(capsys, "bounds", "z", "--k", "8")
        assert code == 0
        assert data["lower"]["value"] == "3/8"
        assert data["upper"]["value"] == "3/7"
        assert "monotone" in data["upper"]["provenance"]

    def test_f_bounds(self, capsys):
        code, data = run_json(capsys, "bounds", "f", "--n", "12", "--k", "3")
        assert code == 0
        assert data["upper_counting"]["value"] == "3"
        assert data["upper_trivial"]["value"] == "6"
        assert data["upper"]["value"] == "3"

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["--n", "1000000000000", "--k", "3", "--r", "2"], 0),
            (["--n", "1" + "0" * 100, "--k", "2", "--r", "60"], 0),
            (["--n", "1000000", "--k", "2", "--r", "500000"], 2),
        ],
    )
    def test_f_bounds_on_huge_hosts_return_at_once(self, capsys, argv, code):
        start = time.perf_counter()
        got = main(["bounds", "f", *argv])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert got == code
        if code == 2:
            assert captured.out == "" and captured.err == "error: C(1000000,500000) exceeds 2^64\n"
        else:
            assert int(json.loads(captured.out)["upper"]["value"]) >= 1

    def test_table_text(self, capsys):
        code, text = run(capsys, "table")
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 12  # header + k = 3..13
        assert "2/3" in lines[1]

    def test_table_json(self, capsys):
        code, rows = run_json(capsys, "table", "--json")
        assert code == 0
        assert [row["k"] for row in rows] == list(range(3, 14))
        assert rows[0]["z_exact"] is True
        assert rows[-1]["z_upper"]["value"] == "4/13"


class TestSearchCommand:
    def test_search_f(self, capsys, tmp_path):
        code, text = run(capsys, "search", "f", "--n", "5", "--k", "3")
        assert code == 0
        data = json.loads(text)
        assert data["value"] == 2
        assert data["exhausted"] is True
        path = tmp_path / "s.json"
        path.write_text(text)
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 0 and verdict["valid"] is True

    def test_search_z(self, capsys):
        code, data = run_json(capsys, "search", "z", "--n", "5", "--k", "4")
        assert code == 0
        assert data["value"] == "3/5"

    def test_budget_exit_3(self, capsys):
        # f(8, 4) takes 27,309 nodes to prove; 100 reach a leaf but not the end
        code, data = run_json(
            capsys, "search", "f", "--n", "8", "--k", "4", "--budget", "100"
        )
        assert code == 3
        assert data["exhausted"] is False

    def test_wide_edges_return_at_once(self, capsys, monkeypatch):
        # n = r + 1: passing through the C(101, 50) subset level would not
        # fit in memory; a budget below the m = 101 edges fails fast instead
        level = core._colex_level

        def narrow_level(n, j):
            assert j <= 1, f"built the {j}-subset level of range({n})"
            return level(n, j)

        monkeypatch.setattr(core, "_colex_level", narrow_level)
        argv = ["search", "f", "--n", "101", "--r", "100", "--k", "101"]
        code, data = run_json(capsys, *argv)
        assert code == 0
        assert data["value"] == 1 and data["exhausted"] is True
        code = main(argv + ["--budget", "100"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: search found no leaf; budget too small\n"

    def test_budget_too_small_exit_3(self, capsys):
        code = main(["search", "f", "--n", "6", "--k", "3", "--budget", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: search found no leaf; budget too small\n"

    @pytest.mark.parametrize("budget", ["-5", "-1"])
    def test_negative_budget_exits_2(self, capsys, budget):
        # a bad argument, not a budget that ran out: 0 to m - 1 still exit 3
        code = main(["search", "f", "--n", "10", "--k", "4", "--budget", budget])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: need node budget >= 0, got {budget}\n"
        code = main(["search", "f", "--n", "10", "--k", "4", "--budget", "0"])
        assert code == 3 and capsys.readouterr().err == "error: search found no leaf; budget too small\n"

    def test_hopeless_budget_fails_before_edge_table(self, capsys, monkeypatch):
        def no_table(shape):
            raise AssertionError(f"edge table built for {shape}")

        monkeypatch.setattr(search_mod, "_edges_flat", no_table)
        code = main(["search", "f", "--n", "100000", "--k", "3", "--budget", "10"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: search found no leaf; budget too small\n"

    @pytest.mark.parametrize("mode", ["f", "z", "improve"])
    def test_above_desk_cap_exits_2_before_edge_table(self, capsys, monkeypatch, mode):
        def no_work(*args):
            raise AssertionError(f"per-edge work started on {args}")

        # _edges_flat feeds the exact searches; randomized_improve scores
        # its classes from edge_array rows through edge_list_stats
        for name in ("_edges_flat", "edge_array", "edge_list_stats"):
            monkeypatch.setattr(search_mod, name, no_work)
        code = main(["search", mode, "--n", "100000", "--k", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: C(100000,2)=4999950000 above desk cap 2000\n"

    @pytest.mark.parametrize("mode", ["f", "z"])
    def test_unbudgeted_huge_host_exits_2(self, capsys, mode):
        # no budget was given, so no budget can be too small
        n = "1" + "0" * 100
        code = main(["search", mode, "--n", n, "--k", "2", "--r", "60"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: C({n},60) >= 2^64 above desk cap 2000\n"

    def test_improve(self, capsys):
        code, data = run_json(
            capsys, "search", "improve", "--n", "6", "--k", "3", "--restarts", "5"
        )
        assert code == 0
        assert data["value"] >= 1

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_improve_without_restarts_exits_2(self, capsys, restarts):
        code = main(["search", "improve", "--n", "6", "--k", "3", "--restarts", restarts])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: need restarts >= 1 and steps >= 1, got {restarts} and 2000\n"

    def test_stale_threads_env_ignored(self, capsys, monkeypatch):
        # the search reads no FRACTURE_THREADS any more, whatever its value
        monkeypatch.setenv("FRACTURE_THREADS", "x")
        code, data = run_json(capsys, "search", "f", "--n", "4", "--k", "2")
        assert code == 0 and data["value"] == 1


class TestVerifyRejections:
    def base_artifact(self, capsys):
        _, text = run(capsys, "construct", "base", "rainbow-triangle")
        return json.loads(text)

    def write_and_verify(self, capsys, tmp_path, data):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        return run_json(capsys, "verify", str(path))

    def test_rejects_report_mutation(self, capsys, tmp_path):
        data = self.base_artifact(capsys)
        data["report"]["f"] += 1
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 4 and verdict["valid"] is False

    def test_rejects_color_mutation(self, capsys, tmp_path):
        data = self.base_artifact(capsys)
        data["coloring"]["colors"][0] = 1  # report no longer matches
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 4 and verdict["valid"] is False

    def test_rejects_witness_claim_mutation(self, capsys, tmp_path):
        _, text = run(capsys, "search", "f", "--n", "5", "--k", "3")
        data = json.loads(text)
        data["value"] += 1
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 4 and verdict["valid"] is False

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(n=d["n"] + 1),
            lambda d: d.update(k=d["k"] + 1),
            lambda d: d.update(r=d["r"] + 1),
            lambda d: d["report"].update(f=7),
        ],
        ids=["n", "k", "r", "report.f"],
    )
    def test_rejects_search_artifact_mutation(self, capsys, tmp_path, mutate):
        _, text = run(capsys, "search", "f", "--n", "5", "--k", "3")
        data = json.loads(text)
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 0 and verdict["valid"] is True
        mutate(data)
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 4 and verdict["valid"] is False

    def test_rejects_design_block_mutation(self, capsys, tmp_path):
        _, text = run(capsys, "designs", "pg", "--q", "2")
        data = json.loads(text)
        data["blocks"][0][0] = data["blocks"][0][1]
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 4 and verdict["valid"] is False

    def test_rejects_factor_mutation(self, capsys, tmp_path):
        _, text = run(capsys, "designs", "one-factorization", "--n", "6")
        data = json.loads(text)
        data["factors"][0][0][0] = data["factors"][0][0][1]
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 4 and verdict["valid"] is False

    @pytest.mark.parametrize(
        "data",
        [
            {"factors": [[[0, 1]]], "n": 10, "r": 2},
            {"factors": [[[0, 1], [2, 3]]], "n": 4.5, "r": 2},
            {"factors": [[[0, 1], [2, 3]]], "n": 4.0, "r": 2},
            {"factors": [[[0], [1]]], "n": 2, "r": True},
            {"factors": [], "n": 4, "r": 0},
        ],
        ids=["not-maximum", "float-n", "integral-float-n", "bool-r", "zero-r"],
    )
    def test_rejects_non_maximum_factors(self, capsys, tmp_path, data):
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 4 and verdict["valid"] is False

    @pytest.mark.parametrize(
        "data",
        [
            {"factors": [], "n": 1_000_000, "r": 500_000, "complete": True},
            {"v": 60, "strength": 20, "block_size": 60, "blocks": [list(range(60))]},
        ],
        ids=["factors-C(1e6,5e5)", "design-C(60,20)"],
    )
    def test_rejects_hostile_sizes_at_once(self, capsys, tmp_path, data):
        start = time.perf_counter()
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert time.perf_counter() - start < 1
        assert code == 4 and verdict["reason"].startswith("FractureError:")

    @pytest.mark.parametrize(
        "strength,blocks",
        [(10**20, None), (100, None), (8, [])],
        ids=["pg2-strength-1e20", "pg2-strength-100", "v7-strength-8-no-blocks"],
    )
    def test_rejects_strength_out_of_range(self, capsys, tmp_path, strength, blocks):
        # strength above block_size covers no subset, and C(7, 8) = 0 asks for none
        if blocks is None:
            _, text = run(capsys, "designs", "pg", "--q", "2")
            data = json.loads(text)
        else:
            data = {"v": 7, "block_size": 3, "blocks": blocks}
        data["strength"] = strength
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 4 and verdict["valid"] is False
        assert verdict["reason"].startswith("FractureError:")

    def test_rejects_unknown_shape(self, capsys, tmp_path):
        code, verdict = self.write_and_verify(capsys, tmp_path, {"what": 1})
        assert code == 4 and verdict["valid"] is False

    def test_accepts_bare_coloring(self, capsys, tmp_path):
        data = self.base_artifact(capsys)["coloring"]
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 0 and verdict["valid"] is True

    def test_stdin_input(self, capsys, tmp_path, monkeypatch):
        import io

        _, text = run(capsys, "construct", "base", "rainbow-triangle")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out = run(capsys, "verify")
        assert code == 0
        assert json.loads(out)["valid"] is True


class TestBipartiteHost:
    # sha256 of the construct outputs, recorded before K_{n,n} colorings
    # moved onto the shared Coloring path
    PINNED = [
        (
            ("construct", "bipartite-double", "--base", "k5-four"),
            "8f11a646445c7212db1b803cfe65438333022ac97712ad5ad4a4f73874a2ddc6",
        ),
        (
            ("construct", "bipartite-blow-up", "--base", "rainbow-triangle", "--n", "9"),
            "d5d49806b6572f7c0f80a82a35e9350ae04def6b6296f74e23cd8e545818a3c3",
        ),
    ]

    @pytest.mark.parametrize("argv,sha", PINNED, ids=["double", "blow-up"])
    def test_bytes_unchanged(self, capsys, tmp_path, argv, sha):
        code, text = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == sha
        path = tmp_path / "b.json"
        path.write_text(text)
        code, again = run(capsys, "eval", str(path))
        assert code == 0 and again == text

    def eval_and_verify(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["eval", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:")
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 4 and verdict["valid"] is False

    @pytest.mark.parametrize(
        "data",
        [
            {"bipartite": True, "n": 0, "k": 1, "colors": []},
            {"bipartite": True, "n": -1, "k": 1, "colors": [0]},
            {"bipartite": True, "n": 2, "k": 5, "colors": [0, 1, 2, 3]},
        ],
        ids=["n=0", "n=-1", "k>n^2"],
    )
    def test_malformed_rejected(self, capsys, tmp_path, data):
        self.eval_and_verify(capsys, tmp_path, data)
        self.eval_and_verify(capsys, tmp_path, {"coloring": data})

    def test_bare_coloring_verifies(self, capsys, tmp_path):
        _, text = run(capsys, *self.PINNED[0][0])
        path = tmp_path / "b.json"
        path.write_text(json.dumps(json.loads(text)["coloring"]))
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 0 and verdict["valid"] is True

    def test_witness_must_be_complete_host(self, capsys, tmp_path):
        # an otherwise consistent claim whose witness lives on K_{2,2}
        witness = Coloring(BipartiteShape(2), 2, (0, 1, 1, 0))
        data = {
            "metric": "f", "mode": "f", "n": 2, "k": 2, "r": 2, "value": 2,
            "exhausted": True, "nodes": 0,
            "witness": witness.to_dict(), "report": report_dict(witness),
        }
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 4 and verdict["valid"] is False
        assert "K_{n,n}" in verdict["reason"]


def _valid_colorings():
    rainbow = base_registry("rainbow-triangle").coloring
    return [
        rainbow.to_dict(),
        base_registry("k6r3-six").coloring.to_dict(),
        bipartite_from_clique(rainbow).to_dict(),
        Coloring(BipartiteShape(2), 2, (0, 1, 1, 0)).to_dict(),
    ]


_ODD_VALUES = st.one_of(
    st.sampled_from([None, True, "7", "x", 2.5, float("inf"), float("nan"), [1], {}, 10**20]),
    st.floats(),
    st.integers(-(10**20), 10**20),
)


_VALID_COLORINGS = _valid_colorings()


@st.composite
def _mutated_coloring(draw):
    d = dict(draw(st.sampled_from(_VALID_COLORINGS)))
    d["colors"] = list(d["colors"])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "n", "k", "length", "entry", "flip", "odd"]))
        if kind == "drop" and d:
            del d[draw(st.sampled_from(sorted(d)))]
        elif kind == "n":
            d["n"] = draw(st.integers(-3, 40))
        elif kind == "k":
            d["k"] = draw(st.sampled_from([-1, 0, 10**6]))
        elif kind == "length" and isinstance(d.get("colors"), list):
            cut = draw(st.integers(0, len(d["colors"]) + 3))
            d["colors"] = (d["colors"] + [0, 0, 0])[:cut]
        elif kind == "entry" and isinstance(d.get("colors"), list) and d["colors"]:
            d["colors"][draw(st.integers(0, len(d["colors"]) - 1))] = draw(_ODD_VALUES)
        elif kind == "flip":
            d["bipartite"] = not d.get("bipartite", False)
        elif kind == "odd":
            d[draw(st.sampled_from(["n", "r", "k", "colors", "bipartite"]))] = draw(_ODD_VALUES)
    whole = draw(st.sampled_from(["bare", "wrapped", "non-object"]))
    if whole == "wrapped":
        return {"coloring": d}
    if whole == "non-object":
        return draw(st.one_of(_ODD_VALUES, st.just([d])))
    return d


class TestColoringFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=_mutated_coloring())
    def test_exit_codes(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        out = tmp_path_factory.getbasetemp() / "fuzz.out.json"
        path.write_text(json.dumps(data))
        assert main(["eval", str(path), "--output", str(out)]) in (0, 2)
        assert main(["verify", str(path), "--output", str(out)]) in (0, 4)


@pytest.fixture(scope="module")
def emitted_artifacts(tmp_path_factory):
    """One design, factorization and search artifact each, as the CLI writes them."""
    out = tmp_path_factory.mktemp("artifacts") / "artifact.json"
    argvs = [
        ["designs", "pg", "--q", "2"],
        ["designs", "sqs", "--m", "3"],
        ["designs", "one-factorization", "--n", "6"],
        ["designs", "baranyai", "--n", "6", "--r", "3"],
        ["search", "f", "--n", "5", "--k", "3"],
        ["search", "z", "--n", "4", "--k", "3"],
    ]
    artifacts = []
    for argv in argvs:
        assert main([*argv, "--output", str(out)]) == 0
        artifacts.append(json.loads(out.read_text()))
    return artifacts


@st.composite
def _mutated_artifact(draw, artifact):
    d = copy.deepcopy(artifact)
    for _ in range(draw(st.integers(1, 3))):
        target = d
        if isinstance(d.get("witness"), dict) and draw(st.booleans()):
            target = d["witness"]
        size_key, order_key = ("v", "strength") if "blocks" in target else ("n", "r")
        kind = draw(st.sampled_from(["drop", "size", "order", "odd"]))
        if kind == "drop" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif kind == "size":
            target[size_key] = draw(st.one_of(st.integers(-3, 40), st.integers(0, 10**7)))
        elif kind == "order":
            bound = target.get(size_key)
            if not isinstance(bound, int) or bound < 0:
                bound = 10**7
            target[order_key] = draw(st.integers(-2, bound))
        elif kind == "odd" and target:
            target[draw(st.sampled_from(sorted(target)))] = draw(_ODD_VALUES)
    return d


class TestArtifactFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_verify_exit_codes(self, emitted_artifacts, tmp_path_factory, data):
        artifact = data.draw(st.sampled_from(emitted_artifacts))
        mutated = data.draw(_mutated_artifact(artifact))
        path = tmp_path_factory.getbasetemp() / "artifact-fuzz.json"
        out = tmp_path_factory.getbasetemp() / "artifact-fuzz.out.json"
        path.write_text(json.dumps(mutated))
        assert main(["verify", str(path), "--output", str(out)]) in (0, 4)

    @pytest.mark.parametrize("metric", ["banana", "F", "", None, 0, ["z"]])
    def test_unknown_metric_rejected(self, capsys, tmp_path, metric):
        # anything but "f" and "z" was scored as z and passed
        path = tmp_path / "search.json"
        assert main(["search", "z", "--n", "5", "--k", "4", "--output", str(path)]) == 0
        artifact = json.loads(path.read_text())
        artifact["metric"] = metric
        path.write_text(json.dumps(artifact))
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 4 and verdict["valid"] is False
        assert "metric" in verdict["reason"]


def _readme_cli_lines():
    """The argument lists of the ``fracture ...`` lines in the README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("fracture ")]


class TestReadmeExamples:
    @pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
    def test_cli_line_runs(self, capsys, tmp_path, argv):
        artifact = tmp_path / "artifact.json"
        assert main(["construct", "base", "k5-four", "--output", str(artifact)]) == 0
        files = {"coloring.json": str(artifact), "artifact.json": str(artifact)}
        code = main([files.get(arg, arg) for arg in argv])
        capsys.readouterr()
        assert code in ((0, 3) if "--budget" in argv else (0,))
