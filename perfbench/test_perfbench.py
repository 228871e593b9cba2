"""Self-tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import inputs
import pins
import reference
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


TOY_SOURCE = """
import time

def leaf(x):
    time.sleep(0.002)
    return x + 1

def middle(x):
    time.sleep(0.001)
    return leaf(x) + leaf(x)

def top(x):
    return middle(x) * 2
"""


def test_spans_nest_and_self_times_sum_to_the_op():
    toy = types.ModuleType("toy")
    exec(TOY_SOURCE, toy.__dict__)
    user = types.ModuleType("user")
    user.leaf = original_leaf = toy.leaf  # as `from toy import leaf` binds it
    tracer = spans.Tracer()
    targets = {(toy, name): (f"toy.{name}", "span", None) for name in ("leaf", "middle", "top")}
    tracer.install([toy, user], targets)
    try:
        assert user.leaf is toy.leaf is not original_leaf
        assert tracer.op(0, "bench.toy", toy.top, 1) == 8
    finally:
        tracer.uninstall()
    assert user.leaf is toy.leaf is original_leaf

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    (root,) = by_name["bench.toy"]
    (top,) = by_name["toy.top"]
    (middle,) = by_name["toy.middle"]
    assert root[1] is None and top[1] == root[0] and middle[1] == top[0]
    assert [s[1] for s in by_name["toy.leaf"]] == [middle[0], middle[0]]
    assert {s[2] for s in tracer.spans} == {0}  # one op id for the whole call tree
    for s in tracer.spans:
        assert s[4] <= s[5]
        if s[1] is not None:
            parent = tracer.spans[s[1]]
            assert parent[4] <= s[4] and s[5] <= parent[5]

    selves = spans.self_times(tracer.spans)
    assert sum(selves) == pytest.approx(root[5] - root[4], abs=1e-9)
    assert tracer.counts["toy.leaf.calls"] == 2
    assert spans.busy_time_where(tracer.spans, lambda n: n == "toy.leaf") >= 0.004


def test_busy_time_counts_overlapping_spans_once():
    recorded = [(0, None, 0, "a", 0.0, 10.0), (1, 0, 0, "a", 2.0, 5.0), (2, 0, 0, "b", 6.0, 7.0)]
    assert spans.busy_time_where(recorded, lambda n: n == "a") == 10.0
    assert spans.self_times(recorded) == [6.0, 3.0, 1.0]


def test_search_pins_accept_pruning_and_reject_wrong_answers():
    want = pins.PINS["search"]["exact_f.9.5"]
    artifact = json.loads((ROOT / "perfbench/artifacts/search-f-n9-k5.json").read_text())
    witness = artifact["witness"]["colors"]
    good = {"value": 3, "exhausted": True, "nodes": 222_769, "witness": witness}
    assert pins.check("exact_f.9.5", good, want) == []
    assert pins.check("exact_f.9.5", dict(good, nodes=1000), want) == []  # fewer nodes is fine
    assert pins.check("exact_f.9.5", dict(good, nodes=222_770), want)
    assert pins.check("exact_f.9.5", dict(good, value=4), want)
    assert pins.check("exact_f.9.5", dict(good, exhausted=False), want)
    forged = inputs.tampered(3, "search-f-n9-k5", artifact)["witness"]["witness"]["colors"]
    assert pins.check("exact_f.9.5", dict(good, witness=forged), want)
    assert pins.check("exact_f.9.5", {"error": "ValueError: boom"}, want) == ["ValueError: boom"]


    name = "exact_f.10.4.budget100000"
    budgeted = json.loads((ROOT / "perfbench/artifacts/search-f-n10-k4-budget300000.json").read_text())
    stopped = {"value": budgeted["value"], "exhausted": False, "nodes": 100_000, "witness": budgeted["witness"]["colors"]}
    assert pins.check(name, stopped, pins.PINS["search"][name]) == []
    assert pins.check(name, dict(stopped, exhausted=True), pins.PINS["search"][name])  # a false proof


def test_tampered_pin_raises_failed_ratio(monkeypatch, capsys):
    name = "report_dict.blow_up.k9-five.90"
    monkeypatch.setitem(pins.PINS["construct"], name, {"report": "0" * 64})
    assert run.main(["--workload", "construct", "--seed", "7", "--seconds", "0"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["attempted"] == len(pins.PINS["construct"])
    assert line["failed"] == 1  # only the tampered op; every other pin holds
    assert line["correct"] is False
    assert line["metrics"]["ok_ratio"]["value"] < 1.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_numba_race_reports_skip_without_numba(monkeypatch, capsys):
    monkeypatch.setattr(run, "numba_importable", lambda: False)
    assert run.main(["--workload", "search", "--seed", "1", "--seconds", "0", "--race"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "numba race: skipped: numba absent"


def test_numba_race_checks_each_backend(monkeypatch, capsys):
    # Both repetitions really run on pure Python: the one billed as numba
    # must be refused, while its pinned outputs still hold.
    monkeypatch.setattr(run, "numba_importable", lambda: True)
    monkeypatch.setattr(run, "BACKENDS", {"python": "0", "numba": "0"})
    assert run.main(["--workload", "construct", "--seed", "2", "--seconds", "0", "--race"]) == 1
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAILED")]
    assert failures == ["FAILED numba ran on the python backend"]


def test_crashing_worker_still_reports_failed_ops(monkeypatch, capsys, tmp_path):
    fake = tmp_path / "worker.py"
    fake.write_text("import sys\nsys.exit(0 if sys.argv[1:] == ['--setup'] else 3)\n")
    monkeypatch.setattr(run, "WORKER", fake)
    assert run.main(["--workload", "search", "--seed", "1", "--seconds", "0"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["attempted"] == line["failed"] == len(pins.PINS["search"])
    assert line["correct"] is False
    assert line["metrics"]["ok_ratio"]["value"] == 0.0


def test_op_raising_system_exit_is_a_failed_op(monkeypatch, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import worker

    def toy_ops(seed, work):
        return [("exits", lambda: sys.exit(3), lambda out: {}), ("returns", lambda: seed, lambda out: {"v": out})]

    monkeypatch.setitem(worker.WORKLOADS, "toy", toy_ops)
    ops = worker.run("toy", 5, False, tmp_path)["ops"]
    assert [op["observed"] for op in ops] == [{"error": "SystemExit: 3"}, {"v": 5}]


def test_cold_table_is_gated_in_traced_runs_only():
    assert "cli.table.json" in pins.expected("certify", 1, traced_run=True)
    assert "cli.table.json" not in pins.expected("certify", 1, traced_run=False)


def test_times_are_scaled_by_the_reference_loop():
    # a host on which the loop runs twice as long as REFERENCE_S halves every time
    loop = [2 * reference.REFERENCE_S] * 3
    assert run.at_reference_speed(3.0, loop) == 1.5
