"""The fracture benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory, never from an installed copy.  Each repetition of the
workload runs single-threaded in a fresh interpreter (worker.py), the
state a ``fracture`` CLI user starts from: cold lru caches and an empty
``_unrank_memo``; with numba active, compiling the kernels (or loading
numba's on-disk cache) counts as set-up.  An untraced run first times
10 bare start-ups, then runs repetitions one after the other, in one
closed loop with one client, until the next would overrun --seconds,
which the start-ups count against, and spends what is left of the
--seconds on more bare start-ups.
Every op's output is checked against pins.py; a mismatch, an exception or
an unexpected exit code is a failed op and never aborts the run.  A
repetition that crashes or times out fails all its ops and the loop goes
on; if none completes, the last line still carries the counts, with only
the metrics that could be measured.

Workloads, and why each exists:

* construct -- large constructions and their evaluation, plus an
  in-process CLI construct/eval/verify round trip.  Per-edge Python in
  core and constructions does nearly all the work; the kernels are idle,
  so search changes should not move it.
* search -- exhaustive exact searches (exact_z(7,5), exact_f(9,5)) and the
  unsettled exact_f(10,4) under a 100k node budget, 387k nodes in all.
  The kernel search loop does almost all the work; core changes should
  not move it.  Each op takes 1-3 s, so a run times each several times.
* certify -- the exhaustive k <= r check, bulk evaluation of 10k seeded
  colorings and CLI verify of honest and tampered search artifacts.  It
  uses the kernels for evaluation from scratch, not incremental search.
  A traced run adds the cold bounds table exactly as ``fracture table
  --json`` builds it (k4minus_decomposition(11) dominates): one call of
  19-30 s, too long to time more than once a run and too unsteady on a
  shared host for any end-to-end bound, so its gate and its timing are
  the traced run's (pins.TRACED_RUN_ONLY).

With --trace 0 the last line reports the end-to-end metrics.  The two
times are given at reference speed (reference.py): the median measured
time times REFERENCE_S over the median time of the reference loop, timed
beside it in the same run.  The measured seconds and the loop's times
are printed before the last line and written to the run's record.

* wall_s       time of one workload repetition: the ops' wall times
               summed, each the median over the run's repetitions
* setup_s      wall time of a fresh interpreter that imports fracture
               (+ jit warm-up when numba is active) and exits: the median
               of the run's start-ups, at least 10, each followed by
               reference.PASSES passes of the reference loop
* peak_rss_mb  peak resident memory of the repetition's own process
* ok_ratio     1 - failed_ratio: ops that passed their check over ops
               attempted (failed_ratio itself is 0 on a healthy commit,
               and a metric of the benchmark must never read 0)

With --trace 1 the public functions of every fracture module are wrapped
from outside (spans.py) and the last line reports per-layer metrics
instead, each meant to move one end-to-end metric on one workload:

* core.edge_unrank.calls, core.class_stats.calls / .busy_s, core.self_s:
  wall_s and peak_rss_mb on construct; near zero on search.
* constructions.self_s, designs.disjoint_max_matchings.busy_s: wall_s on
  construct.
* designs.k4minus_decomposition.busy_s, bounds.growth_rate_table.busy_s,
  designs.self_s, bounds.self_s: the cold table, which only the traced
  certify run times.
* search.driver.self_s (exact_f/exact_z minus their kernel and core
  calls), search.subtrees: wall_s on search.
* kernels.search.busy_s / .nodes / .nodes_per_s / .exhausted_ratio
  (subtrees that ran to exhaustion over subtrees run): wall_s on search.
* kernels.eval.busy_s / .colorings_per_s (bulk_eval and verify_kler):
  wall_s on certify.
* cli.main.self_s (argparse and JSON, CLI time minus library spans):
  wall_s on construct and certify.
* trace.overhead_s: traced minus untraced wall_s, measured in the same run,
  over every op but the cold table: that one call differs by seconds
  between two untraced repetitions, which would bury the overhead.

Every traced run reports every per-layer metric.  One of a layer the
workload does not use reads 0: a count or busy time of 0 is what was
measured, and a rate or ratio whose base is 0 is reported as 0.

    python3 perfbench/run.py --workload search --seed 1 --seconds 0 --race

is the optional numba race: one untraced repetition per kernel backend
(FRACTURE_NUMBA=0 and 1), both checked against the same pins, with the
op times side by side.  Without numba it prints "numba race: skipped:
numba absent", and every run records the same status in its environment.

Before the last line the run prints the environment it measured in and
the median time of every op, and it writes both, with the spans of the
last traced repetition, under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pins
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("construct", "search", "certify")
SETUP_SAMPLES = 10  # bare start-ups, ~0.25 s each, timed first in every untraced run
HARD_LIMIT_S = 170  # a run must end within 180 s


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["FRACTURE_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, timeout: float, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env={**worker_env(), **env},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def setup_samples(count: int, paced: list[float] | None = None) -> list[float]:
    """Wall time of fresh interpreters that only import fracture and warm
    it up; after each, the reference loop's passes go to ``paced``."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = spawn(["--setup"], timeout=60)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"fracture does not import from {ROOT / 'src'}:\n{proc.stderr}")
        if paced is not None:
            paced += [reference.loop_seconds() for _ in range(reference.PASSES)]
    return samples


def more_setup_samples(samples: list[float], paced: list[float], window: float, seconds: float) -> None:
    """Bare start-ups in the part of --seconds the repetitions left over."""
    while time.perf_counter() - window + max(samples) + reference.PASSES * max(paced) <= seconds:
        samples += setup_samples(1, paced)


def numba_importable() -> bool:
    return importlib.util.find_spec("numba") is not None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def run_rep(workload: str, seed: int, traced: bool, traced_run: bool, work: Path, timeout: float, **env) -> dict:
    """One fresh-interpreter repetition: what the worker wrote, or {"error": ...}."""
    work.mkdir()
    result_path = work / "result.json"
    start = time.perf_counter()
    try:
        flags = ["1" if traced else "0", "1" if traced_run else "0"]
        proc = spawn([workload, str(seed), *flags, str(work), str(result_path)], max(1.0, timeout), **env)
        error = None if proc.returncode == 0 else f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        error = "worker timed out"
    rep = json.loads(result_path.read_text()) if error is None else {"error": error}
    rep["elapsed_s"] = time.perf_counter() - start
    rep["traced"] = traced
    return rep


def run_reps(workload: str, seed: int, seconds: float, traced: bool, work: Path, window: float, deadline: float):
    """Fresh-interpreter repetitions until the next would overrun --seconds,
    counted from ``window``.  A traced run alternates traced and untraced
    repetitions, and always runs at least one of each, so tracing overhead
    is measured.  A repetition that crashes or times out is recorded and
    the loop goes on."""
    reps = []
    longest = 0.0
    must = 2 if traced else 1
    while True:
        now = time.perf_counter()
        if len(reps) >= must and now - window + longest > seconds:
            break
        if reps and deadline - now < longest:
            break
        mode = traced and len(reps) % 2 == 0
        rep = run_rep(workload, seed, mode, traced, work / f"rep{len(reps)}", deadline - now)
        longest = max(longest, rep["elapsed_s"])
        reps.append(rep)
        if mode and "error" not in rep:
            shutil.copyfile(work / f"rep{len(reps) - 1}" / "spans.json", OUT / f"spans-{workload}.json")
    return reps


def judge(workload: str, seed: int, reps, traced_run: bool) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all repetitions."""
    want = pins.expected(workload, seed, traced_run)
    attempted = failed = 0
    problems = []
    for i, rep in enumerate(reps):
        if "error" in rep:
            attempted += len(want)
            failed += len(want)
            problems.append(f"rep {i}: {rep['error']}")
            continue
        seen = set()
        for op in rep["ops"]:
            seen.add(op["name"])
            attempted += 1
            bad = pins.check(op["name"], op["observed"], want.get(op["name"]))
            if bad:
                failed += 1
                problems.append(f"rep {i} {op['name']}: " + "; ".join(bad))
        for name in sorted(set(want) - seen):
            attempted += 1
            failed += 1
            problems.append(f"rep {i} {name}: op did not run")
    return attempted, failed, problems


def op_seconds(reps, pick) -> dict[str, float]:
    seconds: dict[str, list[float]] = {}
    for rep in reps:
        for op in rep["ops"]:
            seconds.setdefault(op["name"], []).append(op["seconds"])
    return {name: pick(v) for name, v in seconds.items()}


def wall_s(reps, skip=frozenset()) -> float:
    """One repetition's measured wall time, as the sum of each op's median
    time over the repetitions."""
    return sum(secs for name, secs in op_seconds(reps, statistics.median).items() if name not in skip)


def at_reference_speed(seconds: float, loop_seconds) -> float:
    """Measured seconds scaled to a host on which the reference loop takes
    REFERENCE_S, by the loop's median time in the same run."""
    return seconds * reference.REFERENCE_S / statistics.median(loop_seconds)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


LAYER_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "nodes": "count", "subtrees": "count",
               "nodes_per_s": "1/s", "colorings_per_s": "1/s", "exhausted_ratio": "ratio", "overhead_s": "s"}


BACKENDS = {"python": "0", "numba": "1"}  # kernel backend -> FRACTURE_NUMBA


def race(workload: str, seed: int, work: Path, deadline: float) -> int:
    """The optional numba race: one untraced repetition of the workload per
    kernel backend, each judged against the same pins, so both must give
    the same outputs; only their op times, printed side by side, may differ."""
    if not numba_importable():
        print("numba race: skipped: numba absent")
        return 0
    times, failed = {}, 0
    for backend, flag in BACKENDS.items():
        rep = run_rep(workload, seed, False, False, work / backend, deadline - time.perf_counter(), FRACTURE_NUMBA=flag)
        _attempted, bad, problems = judge(workload, seed, [rep], False)
        ran_on = rep.get("environment", {}).get("backend")
        if ran_on != backend:
            bad += 1
            problems.append(f"ran on the {ran_on} backend")
        failed += bad
        for problem in problems:
            print(f"FAILED {backend} {problem}")
        times[backend] = {op["name"]: op["seconds"] for op in rep.get("ops", ())}
    print(f"{'op':<48} {'python':>10} {'numba':>10} {'speedup':>8}")
    for name, t_py in times["python"].items():
        t_nb = times["numba"].get(name)
        if t_nb:
            print(f"{name:<48} {t_py:>9.4f}s {t_nb:>9.4f}s {t_py / t_nb:>7.1f}x")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--race", action="store_true", help="race the numba kernels against pure Python instead")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S

    if not (ROOT / "src" / "fracture" / "__init__.py").is_file():
        print(f"error: no fracture sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setup_samples(1)  # unmeasured: writes the bytecode caches of a fresh checkout
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.race:
            return race(args.workload, args.seed, work, deadline)
        window = time.perf_counter()
        setup_paced = []
        setup = [] if args.trace else setup_samples(SETUP_SAMPLES, setup_paced)
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), work, window, deadline)
        if setup:
            more_setup_samples(setup, setup_paced, window, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, problems = judge(args.workload, args.seed, reps, bool(args.trace))

    # Metrics come only from repetitions that completed; a run in which
    # none did still prints its counts, so its failures are recorded.
    good = [r for r in reps if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics, measured = {}, {}
    if args.trace and plain and traced:
        for name in traced[0]["layers"]:
            value = statistics.median_low(r["layers"][name] for r in traced)
            metrics[name] = metric(value, LAYER_UNITS[name.rsplit(".", 1)[1]])
        metrics["trace.overhead_s"] = metric(wall_s(traced, pins.TRACED_RUN_ONLY) - wall_s(plain, pins.TRACED_RUN_ONLY), "s")
    elif not args.trace:
        if plain:
            paced = [s for r in plain for s in r["reference_s"]]
            measured["wall_s"] = wall_s(plain)
            measured["wall_reference_loop_s"] = statistics.median(paced)
            metrics["wall_s"] = metric(at_reference_speed(measured["wall_s"], paced), "s")
        measured["setup_s"] = statistics.median(setup)
        measured["setup_reference_loop_s"] = statistics.median(setup_paced)
        metrics["setup_s"] = metric(at_reference_speed(measured["setup_s"], setup_paced), "s")
        if plain:
            metrics["peak_rss_mb"] = metric(statistics.median(r["peak_rss_mb"] for r in plain), "MiB")
        metrics["ok_ratio"] = metric((attempted - failed) / attempted, "ratio")

    environment = dict(
        good[0]["environment"] if good else {},
        numba_race="available: run with --race" if numba_importable() else "skipped: numba absent",
        nproc=len(os.sched_getaffinity(0)),
        cpu_count=os.cpu_count(),
        git_commit=git_commit(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        samples=len(traced if args.trace else plain),
        setup_samples=len(setup),
    )
    per_op = op_seconds(plain or traced, statistics.median)
    for name, secs in per_op.items():
        print(f"op {name:<48} {secs:10.4f} s")
    for name, secs in measured.items():
        print(f"measured {name:<42} {secs:10.4f} s")
    for problem in problems:
        print(f"FAILED {problem}")
    print(json.dumps({"environment": environment}, sort_keys=True))
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"environment": environment, "op_seconds": per_op, "measured_s": measured, "problems": problems, **line}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
