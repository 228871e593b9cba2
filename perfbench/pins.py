"""Expected output of every op, and the rule that compares against it.

Digests are sha256 of canonical JSON (inputs.digest) or of file bytes;
they were recorded from the pure-Python backend and must not depend on
the backend.  A search op carries its proven value, its exhaustion flag
and the node count it needed when pinned.  The count is a ceiling, not an
exact match, so a sound pruning that proves the same value in fewer nodes
still passes while a search that needs more nodes fails; witnesses are
checked by re-evaluating them, not by digest, for the same reason.  The
budgeted instance is unsettled: stopping on its budget (exhausted False)
is the expected outcome and is pinned, so a search that wrongly claims to
have exhausted it fails.  A change that really settles it must change
this pin on purpose.

The cold bounds table (``cli.table.json``) is one call of 19-30 s, most
of it in the designs backtracking for k4minus_decomposition(11).  A run
has room for one such call, and on a shared host consecutive calls of it
differ by up to half their time, so no bound an end-to-end metric may
have would hold for it.  It therefore runs, and is checked, in the
repetitions of a traced run only, where its layers are timed; untraced
runs leave it out of the workload (TRACED_RUN_ONLY).

Seeded outputs cannot be pinned by value.  For those ops run.py fills the
expectation from inputs.py: the bulk_eval rows come from the reference
evaluator, and every tampered artifact must be rejected.
"""

from __future__ import annotations

from math import comb

import inputs

RAINBOW_240_REPORT = "6beffebe2d1c2b644718d99405196e5254d45d642eac5724535c97d9aabf2ec8"
VALID = {"exit": 0, "valid": True}
REJECTED = {"exit": 4, "valid": False}

PINS: dict[str, dict[str, dict]] = {
    "construct": {
        "blow_up.rainbow-triangle.240": {"coloring": "a9706c165ba4f93deffdee6ac2c92533dd6ef4410d739b333f854a5e8a3de575"},
        "report_dict.blow_up.rainbow-triangle.240": {"report": RAINBOW_240_REPORT},
        "blow_up.k6r3-six.60": {"coloring": "a75d1e749311c8463a9a233f48a59ae281c49216d1041eb9604a97fb748f78ec"},
        "report_dict.blow_up.k6r3-six.60": {"report": "0cc0f4622c4038f70b7efd9e499a12897531d2f13fd0eeb766dec78050c2decf"},
        "blow_up.k9-five.90": {"coloring": "91d29e460b6c9ff2d28d714153769a317e38f92d1e016e01188e5d49197bbece"},
        "report_dict.blow_up.k9-five.90": {"report": "4267c73069754bb9d487ae873d4ba1048678ba4a971bcc54c15bb7e025e46394"},
        "coloring_nminus1.201": {"coloring": "20a9c26c000830ef80597d98150c78edd3fd7d7f8d42fd2d8e9858086eba1959"},
        "report_dict.coloring_nminus1.201": {"report": "3d66b66c0123d793add10229d136d1bd74db298951209d04eb3d398a19e02c4d"},
        "coloring_baranyai_split.12.3.2": {"coloring": "ae1cc0480d8d14efe7e07af93dc73fe0cf72db69804be36bb74dd0db2f1bb010"},
        "report_dict.coloring_baranyai_split.12.3.2": {"report": "a8b4c57dc01f6b69b26fa8b4aed92d2b948d7e2136e24b547c3f36eb845babb9"},
        "bipartite_blow_up.k5-four.100": {"coloring": "fd6bf46a93558b1ded4adccc5ea4c2616c2cf10c7772f359b48f23d4aea1108c"},
        "report_dict.bipartite_blow_up.k5-four.100": {"report": "3ceb0137ab7510f98c6fbc1a27cbc8280ac547ace684842e668f1802008cf074"},
        "cli.construct.blow-up.240": {"exit": 0, "file": "6e3916e48a8f87246d4ce0b61a4e6e1e5f6a71f8dc9fc1f6cad71aeeee8d8f78"},
        # the report of a relabelled copy, mapped back, is the original's
        "cli.eval.relabelled-240": {"exit": 0, "report": RAINBOW_240_REPORT, "coloring_kept": True},
        "cli.verify.relabelled-240": VALID,
    },
    "search": {
        "exact_z.7.5": {"metric": "z", "n": 7, "k": 5, "value": "4/7", "exhausted": True, "nodes_at_most": 64_072},
        "exact_f.9.5": {"metric": "f", "n": 9, "k": 5, "value": 3, "exhausted": True, "nodes_at_most": 222_769},
        "exact_f.10.4.budget100000": {"metric": "f", "n": 10, "k": 4, "value_at_least": 2, "exhausted": False,
                                      "nodes_at_most": 100_005},
    },
    "certify": {
        "cli.table.json": {"exit": 0, "file": "ff61cc92e6360bbab8deb327e62353eb36b857d9473918c31840e79f344db3e2"},
        "verify_k_le_r.6.2.2": {"holds": True, "checked": 32_768},
    },
}


# ops run only in the repetitions of a traced run (see above)
TRACED_RUN_ONLY = {"cli.table.json"}


def expected(workload: str, seed: int, traced_run: bool) -> dict[str, dict]:
    """op name -> expectation for one repetition of a workload, in a
    traced run or an untraced one."""
    out = {name: want for name, want in PINS[workload].items() if traced_run or name not in TRACED_RUN_ONLY}
    if workload == "certify":
        out["bulk_eval.8.2.6.10000"] = {"rows": inputs.bulk_reference_digest(seed)}
        for path in inputs.ARTIFACTS:
            out[f"cli.verify.honest.{path.stem}"] = VALID
            for kind in ("value", "witness"):
                out[f"cli.verify.{kind}.{path.stem}"] = REJECTED
    return out


def _witness_problem(observed: dict, want: dict) -> str | None:
    n, k = want["n"], want["k"]
    colors = observed["witness"]
    if len(colors) != comb(n, 2) or not all(0 <= c < k for c in colors):
        return "witness is not a coloring of K_n with k colors"
    got = inputs.metric_value(want["metric"], n, 2, colors)
    if got != observed["value"]:
        return f"witness evaluates to {got}, search reported {observed['value']}"
    return None


def check(name: str, observed: dict, want: dict | None) -> list[str]:
    """Every way one op's observed output differs from its expectation."""
    if "error" in observed:
        return [observed["error"]]
    if want is None:
        return [f"no pinned expectation for op {name}"]
    problems = []
    for key, value in want.items():
        if key in ("n", "k", "metric"):
            continue
        if key == "nodes_at_most":
            if observed["nodes"] > value:
                problems.append(f"nodes {observed['nodes']} > pinned {value}")
        elif key == "value_at_least":
            if observed["value"] < value:
                problems.append(f"value {observed['value']} < pinned best-found {value}")
        elif observed.get(key) != value:
            problems.append(f"{key}: got {observed.get(key)!r}, pinned {value!r}")
    if "metric" in want:
        problem = _witness_problem(observed, want)
        if problem:
            problems.append(problem)
    return problems
