"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --setup
    python3 perfbench/worker.py WORKLOAD SEED TRACE TRACED_RUN WORKDIR RESULT_JSON

The first form only imports fracture and warms its backend; run.py times
it from outside as the set-up cost.  The second runs every op of the
workload once, in order, in one closed loop, timing each op's library
call and nothing else, and times the reference loop (reference.py)
before and after the ops, and writes what each op returned (digests, values,
exit codes) to RESULT_JSON.  run.py checks those against the pins; this
file never judges them.  With TRACE=1 the public functions of every
fracture module are wrapped (see spans.py) and per-layer numbers are
written too.  Ops in pins.TRACED_RUN_ONLY run only with TRACED_RUN=1,
in the repetitions (traced or not) of a traced run.
"""

from __future__ import annotations

import importlib.util
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import fracture  # noqa: E402  (resolved through PYTHONPATH=<checkout>/src)
from fracture import _kernels, bounds, cli, constructions, core, designs, search  # noqa: E402

import inputs  # noqa: E402
import pins  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

LAYER_MODULES = (core, designs, constructions, bounds, search, _kernels)
# Called hundreds of thousands of times per construct run: counted, not spanned.
COUNT_ONLY = {(core, "edge_unrank"), (core, "edge_rank")}


def warm_up() -> None:
    """Compile the jit kernels, which a CLI user pays for on first use."""
    if not _kernels.NUMBA_ENABLED:
        return
    search.exact_f(4, 2)
    search.exact_z(4, 2)
    search.verify_k_le_r(3, 2, 2)
    search.bulk_eval(3, 2, 2, inputs.np.zeros((1, 3), dtype=inputs.np.int64))


def run_cli(*argv) -> int:
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _verdict(code, out):
    return {"exit": code, "valid": _load(out)["valid"] if os.path.exists(out) else None}


# ---- workloads: lists of (name, call, observe) --------------------------
# call runs inside the timed region; observe turns its result into plain
# JSON data outside it.


def construct_ops(seed: int, work: Path):
    cons = constructions

    def colored(name, build, bipartite=False):
        holder = {}

        def make():
            holder["c"] = build()
            return holder["c"]

        def report():
            c = holder["c"]
            return cons.bipartite_report_dict(c) if bipartite else core.report_dict(c)

        as_dict = (lambda c: c.to_dict()) if bipartite else core.coloring_to_dict
        return [
            (name, make, lambda c: {"coloring": inputs.digest(as_dict(c))}),
            ("report_dict." + name, report, lambda rep: {"report": inputs.digest(rep)}),
        ]

    ops = []
    for name, build, bip in [
        ("blow_up.rainbow-triangle.240", lambda: cons.blow_up(cons.base_registry("rainbow-triangle"), 240), False),
        ("blow_up.k6r3-six.60", lambda: cons.blow_up(cons.base_registry("k6r3-six"), 60), False),
        ("blow_up.k9-five.90", lambda: cons.blow_up(cons.base_registry("k9-five"), 90), False),
        ("coloring_nminus1.201", lambda: cons.coloring_nminus1(201), False),
        ("coloring_baranyai_split.12.3.2", lambda: cons.coloring_baranyai_split(12, 3, 2), False),
        ("bipartite_blow_up.k5-four.100", lambda: cons.bipartite_blow_up(cons.base_registry("k5-four"), 100), True),
    ]:
        ops += colored(name, build, bip)

    # CLI round trip: construct, then eval a seeded relabelling of the
    # result (vertices and colors permuted), then verify the eval output.
    built, relabelled, evaluated, verdict = (work / f for f in ("a.json", "b.json", "c.json", "d.json"))
    palette = []

    def observe_construct(code):
        # also writes the eval op's input, outside the timed region
        coloring = _load(built)["coloring"]
        vertices, palette[:] = inputs.relabelling(seed, coloring["n"], coloring["k"])
        moved = inputs.relabel_coloring(coloring, vertices, palette)
        relabelled.write_text(json.dumps({"coloring": moved}), encoding="utf-8")
        return {"exit": code, "file": inputs.file_digest(built)}

    def observe_eval(code):
        out = _load(evaluated)
        return {
            "exit": code,
            "report": inputs.digest(inputs.unrelabel_report(out["report"], palette)),
            "coloring_kept": out["coloring"] == _load(relabelled)["coloring"],
        }

    return ops + [
        (
            "cli.construct.blow-up.240",
            lambda: run_cli("construct", "blow-up", "--base", "rainbow-triangle", "--n", 240, "--output", built),
            observe_construct,
        ),
        ("cli.eval.relabelled-240", lambda: run_cli("eval", relabelled, "--output", evaluated), observe_eval),
        ("cli.verify.relabelled-240", lambda: run_cli("verify", evaluated, "--output", verdict), lambda c: _verdict(c, verdict)),
    ]


def search_ops(seed: int, work: Path):
    def observe(res):
        return {
            "value": res.value if isinstance(res.value, int) else inputs.fraction_text(res.value),
            "exhausted": bool(res.exhausted),
            "nodes": int(res.nodes),
            "witness": list(res.witness.assignment),
        }

    budget = search.SearchOptions(node_budget=100_000)
    calls = {
        "exact_z.7.5": lambda: search.exact_z(7, 5),
        "exact_f.9.5": lambda: search.exact_f(9, 5),
        "exact_f.10.4.budget100000": lambda: search.exact_f(10, 4, options=budget),
    }
    return [(name, calls[name], observe) for name in inputs.shuffled(seed, sorted(calls))]


def certify_ops(seed: int, work: Path):
    table = work / "table.json"
    colorings = inputs.bulk_colorings(seed)
    n, r, k = inputs.BULK_SHAPE
    ops = [
        (
            "cli.table.json",
            lambda: run_cli("table", "--json", "--output", table),
            lambda code: {"exit": code, "file": inputs.file_digest(table)},
        ),
        (
            "verify_k_le_r.6.2.2",
            lambda: search.verify_k_le_r(6, 2, 2),
            lambda res: {"holds": bool(res.holds), "checked": int(res.checked)},
        ),
        (
            "bulk_eval.8.2.6.10000",
            lambda: search.bulk_eval(n, r, k, colorings),
            lambda out: {"rows": inputs.digest(out.tolist())},
        ),
    ]
    for path in inputs.ARTIFACTS:
        artifact = _load(path)
        files = {"honest": path}
        for kind, forged in inputs.tampered(seed, path.stem, artifact).items():
            files[kind] = work / f"{path.stem}.{kind}.json"
            files[kind].write_text(json.dumps(forged), encoding="utf-8")
        for kind, src in files.items():
            out = work / f"{path.stem}.{kind}.verdict.json"
            ops.append(
                (
                    f"cli.verify.{kind}.{path.stem}",
                    lambda src=src, out=out: run_cli("verify", src, "--output", out),
                    lambda code, out=out: _verdict(code, out),
                )
            )
    return ops


WORKLOADS = {"construct": construct_ops, "search": search_ops, "certify": certify_ops}


# ---- tracing ---------------------------------------------------------------


def _search_kernel_return(counts, args, out):
    # kernels return (value, exhausted, nodes, found, ...)
    counts["kernels.search.nodes"] += int(out[2])
    counts["kernels.search.exhausted"] += int(bool(out[1]))


def _bulk_kernel_return(counts, args, out):
    counts["kernels.eval.colorings"] += int(args[5].shape[0])


def _verify_kernel_return(counts, args, out):
    counts["kernels.eval.colorings"] += int(out[1])


KERNEL_HOOKS = {"search": _search_kernel_return, "bulk": _bulk_kernel_return, "verify": _verify_kernel_return}


def trace_targets() -> dict:
    """Every public function defined in a layer module, and the active
    kernels (``*_kernel``), which read their counters from each call."""
    targets = {}
    for mod in LAYER_MODULES:
        layer = mod.__name__.split(".")[-1].lstrip("_")
        for attr, value in vars(mod).items():
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            if mod is _kernels:
                if not attr.endswith("_kernel"):
                    continue
            elif getattr(value, "__module__", None) != mod.__name__:
                continue
            hook = KERNEL_HOOKS.get(attr.split("_")[0]) if mod is _kernels else None
            mode = "count" if (mod, attr) in COUNT_ONLY else "span"
            targets[(mod, attr)] = (f"{layer}.{attr}", mode, hook)
    targets[(cli, "main")] = ("cli.main", "span", None)
    return targets


def layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    """The per-layer numbers of one traced repetition."""
    recorded = tracer.spans
    selves = spans.self_times(recorded)
    counts = tracer.counts

    def layer(prefix):
        return lambda name: name.startswith(prefix + ".")

    def named(*names):
        return lambda name: name in names

    def is_search_kernel(name):
        return name.startswith("kernels.search")

    def is_eval_kernel(name):
        return name.startswith("kernels.") and not is_search_kernel(name)

    search_busy = spans.busy_time_where(recorded, is_search_kernel)
    eval_busy = spans.busy_time_where(recorded, is_eval_kernel)
    subtrees = sum(v for k, v in counts.items() if k.startswith("kernels.search") and k.endswith("_kernel.calls"))
    nodes = counts["kernels.search.nodes"]
    colorings = counts["kernels.eval.colorings"]
    return {
        "core.edge_unrank.calls": counts["core.edge_unrank.calls"],
        "core.class_stats.calls": counts["core.class_stats.calls"],
        "core.class_stats.busy_s": spans.busy_time_where(recorded, named("core.class_stats")),
        "core.self_s": spans.self_time_where(recorded, selves, layer("core")),
        "constructions.self_s": spans.self_time_where(recorded, selves, layer("constructions")),
        "designs.self_s": spans.self_time_where(recorded, selves, layer("designs")),
        "designs.disjoint_max_matchings.busy_s": spans.busy_time_where(recorded, named("designs.disjoint_max_matchings")),
        "designs.k4minus_decomposition.busy_s": spans.busy_time_where(recorded, named("designs.k4minus_decomposition")),
        "bounds.self_s": spans.self_time_where(recorded, selves, layer("bounds")),
        "bounds.growth_rate_table.busy_s": spans.busy_time_where(recorded, named("bounds.growth_rate_table")),
        "search.driver.self_s": spans.self_time_where(recorded, selves, named("search.exact_f", "search.exact_z")),
        "search.subtrees": subtrees,
        "kernels.search.busy_s": search_busy,
        "kernels.search.nodes": nodes,
        "kernels.search.nodes_per_s": nodes / search_busy if search_busy else 0.0,
        "kernels.search.exhausted_ratio": counts["kernels.search.exhausted"] / subtrees if subtrees else 0.0,
        "kernels.eval.busy_s": eval_busy,
        "kernels.eval.colorings_per_s": colorings / eval_busy if eval_busy else 0.0,
        "cli.main.self_s": spans.self_time_where(recorded, selves, named("cli.main")),
    }


def write_spans(tracer: spans.Tracer, ops, path: Path) -> None:
    rows = [dict(zip(spans.SPAN_FIELDS, s)) for s in tracer.spans]
    data = {"ops": [name for name, _call, _obs in ops], "spans": rows, "counts": dict(tracer.counts)}
    path.write_text(json.dumps(data), encoding="utf-8")


def environment() -> dict:
    return {
        "backend": "numba" if _kernels.NUMBA_ENABLED else "python",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0],
        "fracture_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("FRACTURE_")},
    }


def run(workload: str, seed: int, traced: bool, work: Path, traced_run: bool = False) -> dict:
    ops = [op for op in WORKLOADS[workload](seed, work) if traced_run or op[0] not in pins.TRACED_RUN_ONLY]
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        modules = [m for name, m in sorted(sys.modules.items()) if name == "fracture" or name.startswith("fracture.")]
        tracer.install(modules, trace_targets())
    results = []
    paced = [reference.loop_seconds() for _ in range(reference.PASSES)]
    try:
        for i, (name, call, observe) in enumerate(ops):
            start = time.perf_counter()
            try:
                out = tracer.op(i, "bench." + name, call) if tracer else call()
                error = None
            except (Exception, SystemExit) as exc:  # an op that raises or exits is a failed op, not a crash
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if error is None:
                try:
                    observed = observe(out)
                except (Exception, SystemExit) as exc:  # e.g. the CLI wrote no output file
                    observed = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                observed = {"error": error}
            results.append({"name": name, "seconds": seconds, "observed": observed})
    finally:
        if tracer is not None:
            tracer.uninstall()
    paced += [reference.loop_seconds() for _ in range(reference.PASSES)]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "ops": results,
        "peak_rss_mb": peak_kib / 1024,
        "reference_s": paced,
        "environment": environment(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        write_spans(tracer, ops, work / "spans.json")
    return result


def main(argv) -> int:
    src = (ROOT / "src").resolve()
    if src not in Path(fracture.__file__).resolve().parents:
        print(f"fracture imported from {fracture.__file__}, not from {src}", file=sys.stderr)
        return 2
    warm_up()
    if argv[1:] == ["--setup"]:
        return 0
    workload, seed, trace, traced_run, work, result_path = argv[1:]
    result = run(workload, int(seed), trace == "1", Path(work), traced_run == "1")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
