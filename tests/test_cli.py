"""End-to-end CLI behavior: emitted artifacts re-verify, mutated
artifacts are rejected, and exit codes follow the contract
(0 ok / 2 usage / 3 budget / 4 invalid)."""

import copy
import hashlib
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
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
from fracture.cli import _CONSTRUCT, _DESIGNS, _dump, build_parser, main


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
            "bounds z --k 1100 --r 1050",
            "bounds z --k 1000 --r 900",
            "bounds z --k 500 --r 100",
            "bounds z --k 2000 --r 3",
            "bounds z --k 100000000 --r 2",
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

    def test_console_script_targets_main(self, capsys):
        # the installed `fracture` command runs the [project.scripts] target
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert list(scripts) == ["fracture"]
        module, _, attr = scripts["fracture"].partition(":")
        entry = getattr(importlib.import_module(module), attr)
        assert entry is main
        with pytest.raises(SystemExit) as exit_:
            entry(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fracture")


class TestParserReuse:
    # sha256 of every --help page at 80 columns, recorded while each main()
    # call still built its own parser
    HELP_SHA256 = {
        "": "7677eec6f8213a53e6c6962e513094dbecca05720022307f8a629617d2a0f2ac",
        "construct": "7da28621ba33daacac967eccf590c959a41387c0e29d0782d920b07265757c55",
        "construct base": "be03fabc00acf0bd246f500d9ee4730d824c586d529fc3f4a142471c91a83729",
        "construct blow-up": "4139c341a2bbc76180699ea1ecc4845559c3ff69a02abfda529bff783e70c250",
        "construct matching-split": "a95c81c9f87429d11658dd9d06d9773362b1f911f1af628798e80c0e73c30f02",
        "construct factor-split": "ad2f55305557b8f4e822bd67fa334bfa5f810eebf678948dfdaa6f4ee4389deb",
        "construct equitable": "993d62cb0eb53f75fdde5fb08189ba4f39756b508589282ff45c0cd06d9ef1f1",
        "construct nminus1": "c162f9857e36acb4357a3b162648cf00847d81faf8363cc48a5c37d93e23f166",
        "construct ncolors": "d8c5944ff30d787d1cbbdb082504516a537fb5f0c091c984ffd16d90d8204ef4",
        "construct trivial": "9d3ce1aa5a534fb8632b7b2de5009eba6ea653811c6ea05e8946cdada05437c5",
        "construct bipartite-double": "af28d20b0d7f13d6960b7fe363196f2c16eb68b0d4e811d009c381311e46ce13",
        "construct bipartite-blow-up": "95cdcffb3f4b16b5a5176fae36b5cd6e0580732c166048fcb157bbb85f09ad2d",
        "eval": "49730cf5acace16b0ea357987cfceb3a0bedb9b8f40c3220299379bc9f0c8da9",
        "designs": "9f8a523e3647c32325613a3dc397bf029755aea6100ff5e2b0b5cf6b99277d28",
        "designs pg": "80441eec50295187a0d40f3c92461c7773f5efbb53ae1cdbad20d371ce454b4c",
        "designs ag": "506171950a590970ef39c53d2c86d97f46eac94c77c66d7ec5df66cec74c9f9d",
        "designs sqs": "1fdfd2b1e950616b74b3c1fbf53176e791decfb2e7db9b957af752a6490b3da8",
        "designs inversive": "367a95f870fbc5838a6c08563ef6f464daf3e1ee551e39e6da4c634129ca36b0",
        "designs baranyai": "884b7049978293e0f86bdb6cdafd5afb0984cbf98812997f2a886dd004b77183",
        "designs one-factorization": "070541db6db3bdd419e08499a1063e22578a487f7f59772cd7acacab8ada044c",
        "designs near-one-factorization": "1598a8f1eb607599ba62e37b83a5c1582d32f543f3476e0e90af0e712e0f2e0a",
        "designs diamonds": "b35f6e176d1cdf12af38f65808c4148a25b0f2928903427f9bef4e1fa920e99c",
        "bounds": "01b0a261cc14e52bd2a662d36016851ba84317900b433b86048ddd752fb5fcea",
        "bounds z": "bdd0d55d0caf32bb82854f257033d95b09eb3052f68d970df7adb443900044bb",
        "bounds f": "ed076d34dc512774136f9a43a620c248f17e84265f78b86baa19200b25c7dc45",
        "table": "e9305da24071b02c4ebd53e20b2cd15696c301c04b8bf277b24773e6850f4be0",
        "search": "2b8f20886abe70517f6258d96d6add9af84a82bc605f65b942829e7b44a426ba",
        "verify": "ffb29b945900c3d5c4c3a7d2e2134276f1a1f91f3ba113dbcf6a76c7cff983fb",
    }

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_every_help_page_is_pinned(self):
        def pages(parser, prefix=()):
            yield " ".join(prefix)
            for action in parser._subparsers._group_actions if parser._subparsers else ():
                for name, child in action.choices.items():
                    yield from pages(child, prefix + (name,))

        assert sorted(pages(build_parser())) == sorted(self.HELP_SHA256)

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11), reason="argparse lays out help differently on other Pythons"
    )
    @pytest.mark.parametrize("command", sorted(HELP_SHA256))
    def test_help_bytes_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):  # the first call and a reuse
            with pytest.raises(SystemExit) as exit_:
                main(command.split() + ["--help"])
            assert exit_.value.code == 0
            text = capsys.readouterr().out
            assert hashlib.sha256(text.encode()).hexdigest() == self.HELP_SHA256[command]

    def test_usage_error_leaves_no_state(self, capsys):
        argv = ["construct", "equitable", "--n", "5", "--k", "7"]
        build_parser.cache_clear()
        fresh = run(capsys, *argv)
        for bad in (
            ["construct", "factor-split", "--n", "6", "--t", "2"],
            ["bounds", "f", "--n", "x", "--k", "2"],
            ["search", "q", "--n", "5", "--k", "3"],
            ["construct", "equitable", "--n", "5", "--k", "7", "--r", "3", "--nosuch"],
        ):
            with pytest.raises(SystemExit) as exit_:
                main(bad)
            assert exit_.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv) == fresh
        # a default the previous parse overrode comes back
        main(["construct", "equitable", "--n", "6", "--k", "5", "--r", "3"])
        capsys.readouterr()
        assert run(capsys, *argv) == fresh
        assert vars(build_parser().parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\u00e9", "\u2028", "\U0001f4a5", "/"]),
)


_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=6),
        st.dictionaries(st.integers(), children, max_size=4),
    ),
    max_leaves=40,
)


class TestDump:
    @settings(max_examples=300, deadline=None)
    @given(obj=_JSON_VALUES)
    def test_bytes_match_json_indent(self, tmp_path_factory, obj):
        out = tmp_path_factory.getbasetemp() / "dump.json"
        _dump(obj, str(out))
        assert out.read_bytes() == (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()

    def test_nested_scalar_lists_and_empties(self, capsys):
        obj = {"b": [[1, 2.5, None], [], {}, ()], "a": {"x": (True, "\u00e9")}, "c": [{}]}
        _dump(obj, None)
        assert capsys.readouterr().out == json.dumps(obj, sort_keys=True, indent=2) + "\n"


_SMALL_INTS = st.integers(-2, 9)
_BASE_NAMES = st.one_of(
    st.sampled_from(list(cons._EXPLICIT_BASES) + ["design(pg(2))", "design(sqs(3))", "nosuch"]),
    st.builds("trivial({},{})".format, _SMALL_INTS, _SMALL_INTS),
    st.builds("diamond({})".format, _SMALL_INTS),
)


# (test id, command words, arguments drawn): every construct and designs
# table entry, both bounds and both searches
_FUZZ_COMMANDS = (
    [(what, ["construct", what], list(arguments)) for what, (_, arguments, _) in _CONSTRUCT.items()]
    + [(f"designs-{kind}", ["designs", kind], list(arguments)) for kind, (_, arguments, _) in _DESIGNS.items()]
    + [("bounds-f", ["bounds", "f"], ["--n", "--k", "--r"]), ("bounds-z", ["bounds", "z"], ["--k", "--r"])]
    + [(f"search-{mode}", ["search", mode], ["--n", "--k", "--r", "--budget"]) for mode in "fz"]
)


class TestConstructFuzz:
    @pytest.mark.parametrize(
        "command,arguments", [c[1:] for c in _FUZZ_COMMANDS], ids=[c[0] for c in _FUZZ_COMMANDS]
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_small_arguments_exit_0_or_2(self, tmp_path_factory, command, arguments, data):
        argv = list(command)
        for arg in arguments:
            if arg in ("name", "--base"):
                value = data.draw(_BASE_NAMES, label=arg)
            elif arg == "--budget":
                # always budgeted: unbudgeted, a search as small as (9, 6) does not finish
                value = data.draw(st.integers(-2, 2000), label=arg)
            else:
                value = data.draw(_SMALL_INTS, label=arg)
            argv.append(value if arg == "name" else f"{arg}={value}")
        out = tmp_path_factory.getbasetemp() / "construct-fuzz.json"
        try:
            code = main(argv + ["--output", str(out)])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        # a search may also stop at its budget
        assert code in ((0, 2, 3) if command[0] == "search" else (0, 2))


# one run of every designs kind; the round trip through verify once
# skipped diamonds, the one kind verify did not recognize
DESIGN_ARGVS = [
    ("designs", "pg", "--q", "3"),
    ("designs", "ag", "--q", "3"),
    ("designs", "sqs", "--m", "3"),
    ("designs", "inversive", "--q", "2"),
    ("designs", "baranyai", "--n", "6", "--r", "3"),
    ("designs", "one-factorization", "--n", "8"),
    ("designs", "near-one-factorization", "--n", "7"),
    ("designs", "diamonds", "--n", "10"),
    ("designs", "diamonds", "--n", "11"),
]


def _diamond_edge_moved(groups):
    groups[1].append(groups[0].pop())


def _diamond_edges_swapped(groups):
    # (0, 1) and (2, 4) trade places: still five edges a group and a
    # partition of K_10, but both groups span five vertices
    assert groups[0][0] == [0, 1] and groups[1][1] == [2, 4]
    groups[0][0], groups[1][1] = groups[1][1], groups[0][0]


class TestDesignsCommand:
    @pytest.mark.parametrize("argv", DESIGN_ARGVS)
    def test_emit_and_verify(self, capsys, tmp_path, argv):
        code, text = run(capsys, *argv)
        assert code == 0
        data = json.loads(text)
        assert data["valid"] is True
        path = tmp_path / "d.json"
        path.write_text(text)
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 0 and verdict["valid"] is True

    def test_every_kind_makes_the_round_trip(self):
        assert {argv[1] for argv in DESIGN_ARGVS} == set(_DESIGNS)

    @pytest.mark.parametrize(
        "mutate,valid",
        [
            (_diamond_edge_moved, False),
            (_diamond_edges_swapped, False),
            (list.pop, False),
            (lambda groups: groups[0][0].reverse(), False),
            (lambda groups: groups[0].reverse(), True),
        ],
        ids=["edge-moved", "five-vertices", "group-missing", "edge-reversed", "group-reordered"],
    )
    def test_diamond_mutations(self, capsys, tmp_path, mutate, valid):
        _, data = run_json(capsys, "designs", "diamonds", "--n", "10")
        mutate(data["groups"])
        path = tmp_path / "d.json"
        path.write_text(json.dumps(data))
        code, verdict = run_json(capsys, "verify", str(path))
        assert (code, verdict["valid"]) == ((0, True) if valid else (4, False))

    @pytest.mark.parametrize("n", [10.0, True, "10", 11, 9, None], ids=repr)
    def test_diamonds_need_their_own_int_n(self, capsys, tmp_path, n):
        _, data = run_json(capsys, "designs", "diamonds", "--n", "10")
        data["n"] = n
        path = tmp_path / "d.json"
        path.write_text(json.dumps(data))
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 4 and verdict["valid"] is False

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

    @pytest.mark.parametrize("k,r", [(0, 2), (3, 0), (0, 0), (-5, 3)])
    def test_z_bounds_need_positive_k_and_r(self, capsys, k, r):
        code = main(["bounds", "z", "--k", str(k), "--r", str(r)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: need k, r >= 1, got k={k}, r={r}\n"

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

    @pytest.mark.parametrize("mode", ["f", "z"])
    def test_above_desk_cap_exits_2_before_edge_table(self, capsys, monkeypatch, mode):
        def no_work(*args):
            raise AssertionError(f"per-edge work started on {args}")

        # _edges_flat feeds the search kernel and _twins reads edge_array
        for name in ("_edges_flat", "edge_array"):
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

    def test_stale_threads_env_ignored(self, capsys, monkeypatch):
        # the search reads no FRACTURE_THREADS any more, whatever its value
        monkeypatch.setenv("FRACTURE_THREADS", "x")
        code, data = run_json(capsys, "search", "f", "--n", "4", "--k", "2")
        assert code == 0 and data["value"] == 1

    def test_exit_codes_leave_the_process(self):
        # sys.exit(main()) carries 3, 0 and 4 out of a real interpreter
        root = Path(__file__).resolve().parents[1]
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

        def cli(*argv, stdin=None):
            return subprocess.run(
                [sys.executable, "-m", "fracture.cli", *argv],
                input=stdin, capture_output=True, text=True, env=env, cwd=root, timeout=60,
            )

        search = cli("search", "f", "--n", "10", "--k", "4", "--budget", "1000")
        assert search.returncode == 3 and search.stderr == ""
        data = json.loads(search.stdout)
        assert (data["exhausted"], data["nodes"]) == (False, 1000)
        verify = cli("verify", "-", stdin=search.stdout)
        assert verify.returncode == 0 and json.loads(verify.stdout)["valid"] is True
        forged = cli("verify", "-", stdin=json.dumps({**data, "value": data["value"] + 1}))
        assert forged.returncode == 4 and json.loads(forged.stdout)["valid"] is False


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

    # points were once compared by value, so 2.0 or true passed for 2 or 1
    @pytest.mark.parametrize(
        "data",
        [
            {"v": 3, "strength": 2, "block_size": 3, "blocks": [[0, 1, 2.0]]},
            {"v": 3, "strength": 2, "block_size": 3, "blocks": [[0, True, 2]]},
            {"n": 2, "r": 2, "factors": [[[0, 1.0]]]},
            {"n": 2, "r": 2, "factors": [[[False, True]]]},
        ],
        ids=["design-float", "design-bool", "factor-float", "factor-bool"],
    )
    def test_rejects_non_integer_points(self, capsys, tmp_path, data):
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 4 and verdict["valid"] is False
        assert "not an integer" in verdict["reason"]

    # the flag once counted by truthiness, so "no" asked for a complete cover
    @pytest.mark.parametrize("flag", ["no", 1, None], ids=["string", "one", "null"])
    def test_rejects_non_bool_complete(self, capsys, tmp_path, flag):
        _, text = run(capsys, "designs", "one-factorization", "--n", "4")
        data = json.loads(text)
        assert data["complete"] is True
        data["complete"] = flag
        code, verdict = self.write_and_verify(capsys, tmp_path, data)
        assert code == 4 and verdict["valid"] is False
        assert "complete must be true or false" in verdict["reason"]

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


# Factor and design artifacts and mutations of them, each with the verdict
# (valid, exit code) that verify gave before one partition check over colex
# ranks replaced the per-edge Python sets of Design and
# MatchingDecomposition.validate
_OF4 = {"n": 4, "r": 2, "complete": True, "factors": [[[1, 2], [0, 3]], [[0, 2], [1, 3]], [[0, 1], [2, 3]]]}
_OF6 = {
    "n": 6, "r": 2, "complete": True,
    "factors": [
        [[2, 3], [1, 4], [0, 5]], [[0, 2], [3, 4], [1, 5]], [[1, 3], [0, 4], [2, 5]],
        [[0, 1], [2, 4], [3, 5]], [[1, 2], [0, 3], [4, 5]],
    ],
}
_NOF5 = {
    "n": 5, "r": 2, "complete": True,
    "factors": [[[2, 3], [1, 4]], [[0, 2], [3, 4]], [[1, 3], [0, 4]], [[0, 1], [2, 4]], [[1, 2], [0, 3]]],
}
_B63 = {
    "n": 6, "r": 3, "complete": True,
    "factors": [
        [[0, 2, 3], [1, 4, 5]], [[0, 2, 4], [1, 3, 5]], [[1, 3, 4], [0, 2, 5]], [[0, 3, 4], [1, 2, 5]],
        [[1, 2, 4], [0, 3, 5]], [[1, 2, 3], [0, 4, 5]], [[0, 1, 3], [2, 4, 5]], [[0, 1, 4], [2, 3, 5]],
        [[2, 3, 4], [0, 1, 5]], [[0, 1, 2], [3, 4, 5]],
    ],
}
_PG2 = {
    "v": 7, "strength": 2, "block_size": 3,
    "blocks": [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]],
}


def _factors(n, r, factors, **extra):
    return {"n": n, "r": r, "factors": factors, **extra}


def _design(v, strength, block_size, blocks):
    return {"v": v, "strength": strength, "block_size": block_size, "blocks": blocks}


def _replace(base, key, value):
    return {**base, key: value}


def _drop(base, key):
    return {k: v for k, v in base.items() if k != key}


VERIFY_PARITY = [
    ("one-factorization-4", _OF4, True, 0),
    ("one-factorization-6", _OF6, True, 0),
    ("near-one-factorization-5", _NOF5, True, 0),
    ("baranyai-6-3", _B63, True, 0),
    ("edge-in-two-factors", _factors(4, 2, [[[0, 1], [2, 3]], [[0, 1], [2, 3]]]), False, 4),
    (
        "edge-in-two-factors-complete",
        _replace(_OF4, "factors", _OF4["factors"][:2] + [_OF4["factors"][1]]),
        False,
        4,
    ),
    (
        "edge-in-two-factors-r3",
        _factors(6, 3, [[[0, 1, 2], [3, 4, 5]], [[3, 4, 5], [0, 1, 2]]]),
        False,
        4,
    ),
    ("edge-twice-in-a-factor", _factors(4, 2, [[[0, 1], [0, 1]]]), False, 4),
    ("vertex-twice", _factors(4, 2, [[[0, 1], [1, 2]]]), False, 4),
    ("vertex-twice-r3", _factors(6, 3, [[[0, 1, 2], [2, 3, 4]]]), False, 4),
    (
        "vertex-twice-second-factor",
        _factors(6, 2, [[[0, 1], [2, 3], [4, 5]], [[0, 2], [1, 3], [2, 4]]]),
        False,
        4,
    ),
    ("unsorted-edge", _factors(4, 2, [[[1, 0], [2, 3]]]), False, 4),
    ("unsorted-edge-r3", _factors(6, 3, [[[0, 2, 1], [3, 4, 5]]]), False, 4),
    ("repeated-point-edge", _factors(4, 2, [[[1, 1], [2, 3]]]), False, 4),
    ("point-out-of-range", _factors(4, 2, [[[0, 1], [2, 4]]]), False, 4),
    ("negative-point", _factors(4, 2, [[[-1, 0], [2, 3]]]), False, 4),
    ("huge-point", _factors(4, 2, [[[0, 1], [2, 10**30]]]), False, 4),
    ("huge-negative-point", _factors(4, 2, [[[-(10**30), 1], [2, 3]]]), False, 4),
    ("edge-too-long", _factors(4, 2, [[[0, 1, 2], [3]]]), False, 4),
    ("edge-too-short", _factors(4, 2, [[[0], [1]]]), False, 4),
    ("empty-edge", _factors(4, 2, [[[], [0, 1]]]), False, 4),
    ("edge-not-a-list", _factors(4, 2, [[0, 1]]), False, 4),
    ("factor-too-short", _factors(4, 2, [[[0, 1]]]), False, 4),
    ("factor-too-long", _factors(4, 2, [[[0, 1], [2, 3], [0, 2]]]), False, 4),
    ("float-point", _factors(4, 2, [[[0, 1.0], [2, 3]]]), False, 4),
    ("bool-points", _factors(4, 2, [[[False, True], [2, 3]]]), False, 4),
    ("bool-among-ints", _factors(4, 2, [[[0, True], [2, 3]]]), False, 4),
    ("string-point", _factors(4, 2, [[["0", 1], [2, 3]]]), False, 4),
    ("null-point", _factors(4, 2, [[[None, 1], [2, 3]]]), False, 4),
    ("float-point-r3", _factors(6, 3, [[[0, 1, 2.0], [3, 4, 5]]]), False, 4),
    ("missing-edge-complete", _replace(_OF4, "factors", _OF4["factors"][:2]), False, 4),
    (
        "missing-edge-not-complete",
        {**_OF4, "factors": _OF4["factors"][:2], "complete": False},
        True,
        0,
    ),
    ("missing-edge-complete-r3", _replace(_B63, "factors", _B63["factors"][1:]), False, 4),
    ("no-complete-key", _drop(_OF4, "complete"), True, 0),
    ("no-factors-complete", _factors(4, 2, [], complete=True), False, 4),
    ("no-factors", _factors(4, 2, []), True, 0),
    ("r1", _factors(3, 1, [[[0], [1], [2]]], complete=True), True, 0),
    ("r1-n1", _factors(1, 1, [[[0]]], complete=True), True, 0),
    ("r1-two-factors", _factors(3, 1, [[[0], [1], [2]], [[2], [0], [1]]]), False, 4),
    ("r1-vertex-twice", _factors(3, 1, [[[0], [0], [2]]]), False, 4),
    ("r1-out-of-range", _factors(3, 1, [[[0], [1], [3]]]), False, 4),
    ("r1-missing-edge-complete", _factors(3, 1, [], complete=True), False, 4),
    ("r1-bool-point", _factors(3, 1, [[[True], [0], [2]]]), False, 4),
    ("r-equals-n", _factors(3, 3, [[[0, 1, 2]]], complete=True), True, 0),
    ("n200000-complete", _factors(200000, 2, [], complete=True), False, 4),
    ("n200000-not-complete", _factors(200000, 2, [], complete=False), True, 0),
    ("pg-2", _PG2, True, 0),
    ("subset-covered-twice", _design(4, 2, 3, [[0, 1, 2], [0, 1, 3]]), False, 4),
    (
        "pg-2-block-repeated",
        _replace(_PG2, "blocks", [_PG2["blocks"][0]] + _PG2["blocks"][:-1]),
        False,
        4,
    ),
    ("pg-2-block-missing", _replace(_PG2, "blocks", _PG2["blocks"][:-1]), False, 4),
    ("pg-2-extra-block", _replace(_PG2, "blocks", _PG2["blocks"] + [[0, 1, 3]]), False, 4),
    ("pg-2-unsorted-block", _replace(_PG2, "blocks", [[1, 0, 2]] + _PG2["blocks"][1:]), False, 4),
    (
        "pg-2-point-out-of-range",
        _replace(_PG2, "blocks", _PG2["blocks"][:-1] + [[2, 4, 7]]),
        False,
        4,
    ),
    ("pg-2-huge-point", _replace(_PG2, "blocks", _PG2["blocks"][:-1] + [[2, 4, 10**30]]), False, 4),
    ("pg-2-short-block", _replace(_PG2, "blocks", [[0, 1]] + _PG2["blocks"][1:]), False, 4),
    ("pg-2-float-point", _replace(_PG2, "blocks", [[0, 1, 2.0]] + _PG2["blocks"][1:]), False, 4),
    ("pg-2-bool-point", _replace(_PG2, "blocks", [[0, True, 2]] + _PG2["blocks"][1:]), False, 4),
    ("pg-2-block-not-a-list", _replace(_PG2, "blocks", [3] + _PG2["blocks"][1:]), False, 4),
    ("design-no-blocks", _design(7, 2, 3, []), False, 4),
    ("strength-1", _design(4, 1, 2, [[0, 1], [2, 3]]), True, 0),
    ("strength-1-v1", _design(1, 1, 1, [[0]]), True, 0),
    ("strength-1-overlap", _design(4, 1, 2, [[0, 1], [1, 2]]), False, 4),
    ("strength-1-repeated-block", _design(4, 1, 2, [[0, 1], [0, 1], [2, 3]]), False, 4),
    ("strength-1-missing-point", _design(5, 1, 2, [[0, 1], [2, 3]]), False, 4),
    ("strength-1-unsorted-block", _design(2, 1, 2, [[1, 0]]), False, 4),
    ("strength-1-repeated-point", _design(3, 1, 3, [[0, 0, 1]]), False, 4),
    ("strength-1-bool-point", _design(4, 1, 2, [[False, 1], [2, 3]]), False, 4),
    (
        "strength-equals-block-size",
        _design(4, 2, 2, [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 3]]),
        True,
        0,
    ),
    ("strength-equals-v", _design(3, 3, 3, [[0, 1, 2]]), True, 0),
    ("strength-0", _design(4, 0, 2, [[0, 1], [2, 3]]), False, 4),
]


class TestVerifyParity:
    @pytest.mark.parametrize(
        "data,valid,code", [case[1:] for case in VERIFY_PARITY], ids=[case[0] for case in VERIFY_PARITY]
    )
    def test_verdict_unchanged(self, capsys, tmp_path, data, valid, code):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        got, verdict = run_json(capsys, "verify", str(path))
        assert (verdict["valid"], got) == (valid, code)
        # C(200000, 2) edges under "complete": true are refused from the
        # edges given, with nothing allocated per edge of the host
        assert time.perf_counter() - start < 1


class TestStrictIntegers:
    # each of these once passed verify, or was truncated by eval into a
    # valid coloring
    COLORINGS = [
        {"n": 3.9, "r": 2, "k": 2, "colors": [0.7, 1.2, "1"]},
        {"n": 3.0, "r": 2, "k": 2, "colors": [0, 1, 1]},
        {"n": 3, "r": 2.0, "k": 2, "colors": [0, 1, 1]},
        {"n": 3, "r": 2, "k": "2", "colors": [0, 1, 1]},
        {"n": 3, "r": 2, "k": 2, "colors": [0, 1.0, 1]},
        {"n": 3, "r": 2, "k": 2, "colors": [0, "1", 1]},
        {"n": 3, "r": 2, "k": 2, "colors": [0, True, 1]},
        {"n": 2, "k": 2.0, "bipartite": True, "colors": [0, 1, 1, 0]},
    ]
    IDS = ["issue-repro", "float-n", "float-r", "string-k", "float-color", "string-color",
           "bool-color", "bipartite-float-k"]

    @pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "wrapped"])
    @pytest.mark.parametrize("data", COLORINGS, ids=IDS)
    def test_eval_exits_2_and_verify_4(self, capsys, tmp_path, data, wrapped):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"coloring": data, "report": {}} if wrapped else data))
        code = main(["eval", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "integer" in captured.err
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 4 and verdict["valid"] is False
        assert "integer" in verdict["reason"]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(n=float(d["n"])),
            lambda d: d.update(k=float(d["k"])),
            lambda d: d.update(r=float(d["r"])),
            lambda d: d.update(value=float(d["value"])),
            lambda d: d.update(value=True),
            lambda d: d["report"].update(f=float(d["report"]["f"])),
            lambda d: d["report"]["per_class"][0].update(components=True),
        ],
        ids=["n", "k", "r", "value", "value-true", "report.f", "report.components-true"],
    )
    def test_search_artifact_compares_by_type(self, capsys, tmp_path, mutate):
        # 10.0 == 10 and True == 1 in Python; each claim must be the int itself
        _, text = run(capsys, "search", "f", "--n", "5", "--k", "2")
        data = json.loads(text)
        assert data["value"] == 1 and data["report"]["per_class"][0]["components"] == 1
        mutate(data)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 4 and verdict["valid"] is False

    def test_coloring_report_compares_by_type(self, capsys, tmp_path):
        _, text = run(capsys, "construct", "base", "rainbow-triangle")
        data = json.loads(text)
        data["report"]["f"] = float(data["report"]["f"])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        code, verdict = run_json(capsys, "verify", str(path))
        assert code == 4 and verdict["reason"] == "report does not match a fresh evaluation"


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

    # the flag once decided the host by truthiness, so "false" read as K_{2,2}
    @pytest.mark.parametrize("flag", ["false", 1, [0], None], ids=["string", "one", "list", "null"])
    def test_non_bool_flag_rejected(self, capsys, tmp_path, flag):
        data = {"n": 2, "k": 2, "bipartite": flag, "colors": [0, 1, 1, 0]}
        self.eval_and_verify(capsys, tmp_path, data)
        self.eval_and_verify(capsys, tmp_path, {"coloring": data})

    def test_false_flag_is_complete_host(self, capsys, tmp_path):
        data = {"n": 3, "r": 2, "k": 2, "bipartite": False, "colors": [0, 1, 1]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, "eval", str(path))
        assert code == 0 and "bipartite" not in json.loads(out)["coloring"]

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
        kind = draw(st.sampled_from(["drop", "n", "k", "length", "entry", "flip", "flag", "odd"]))
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
        elif kind == "flag":
            d["bipartite"] = draw(st.sampled_from(["false", "true", 0, 1, [0], None, {}, 1.0]))
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
        inner = data.get("coloring", data) if isinstance(data, dict) else None
        # a host flag that is not a JSON bool is refused, whatever else holds
        refused = isinstance(inner, dict) and type(inner.get("bipartite", False)) is not bool
        assert main(["eval", str(path), "--output", str(out)]) in ((2,) if refused else (0, 2))
        assert main(["verify", str(path), "--output", str(out)]) in ((4,) if refused else (0, 4))


@pytest.fixture(scope="module")
def emitted_artifacts(tmp_path_factory):
    """One design, factorization, diamond packing and search artifact each,
    as the CLI writes them."""
    out = tmp_path_factory.mktemp("artifacts") / "artifact.json"
    argvs = [
        ["designs", "pg", "--q", "2"],
        ["designs", "sqs", "--m", "3"],
        ["designs", "one-factorization", "--n", "6"],
        ["designs", "baranyai", "--n", "6", "--r", "3"],
        ["designs", "diamonds", "--n", "10"],
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
