"""Seeded workload inputs and the benchmark's own reference evaluator.

Everything a workload feeds the library is derived here from the run's
seed, so one seed always gives the same inputs.  The evaluator below is
written from the definitions (components and incident vertices per color
class, edges in colex order) and shares no code with fracture, so the
benchmark can check library outputs that no fixed pin can cover, such as
the evaluation of 10,000 seeded colorings.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

# search artifacts emitted by `fracture search` (f: n=9 k=5, z: n=7 k=4,
# and f: n=10 k=4 stopped at a 300k node budget), verified in certify
ARTIFACTS = sorted((Path(__file__).resolve().parent / "artifacts").glob("*.json"))

BULK_SHAPE = (8, 2, 6)  # n, r, k for the bulk evaluation in certify
BULK_ROWS = 10_000


def digest(obj) -> str:
    """sha256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def colex_edges(n: int, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of range(n), ordered by colex rank."""
    return sorted(combinations(range(n), r), key=lambda e: e[::-1])


def class_stats(n: int, edges, colors) -> dict[int, tuple[int, int]]:
    """color -> (components, incident vertices) for every nonempty class."""
    classes: dict[int, list] = {}
    for e, c in zip(edges, colors):
        classes.setdefault(c, []).append(e)
    out = {}
    for c, class_edges in classes.items():
        parent: dict[int, int] = {}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in class_edges:
            for v in e:
                parent.setdefault(v, v)
            root = find(e[0])
            for v in e[1:]:
                parent[find(v)] = root
        roots = {find(v) for v in parent}
        out[c] = (len(roots), len(parent))
    return out


def f_and_max_incident(n: int, edges, colors) -> tuple[int, int]:
    stats = class_stats(n, edges, colors).values()
    return min(s[0] for s in stats), max(s[1] for s in stats)


def fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def metric_value(metric: str, n: int, r: int, colors):
    """The f value (int) or z value (fraction text) of a coloring of K_n^r."""
    f, inc = f_and_max_incident(n, colex_edges(n, r), colors)
    return f if metric == "f" else fraction_text(Fraction(inc, n))


# ---- construct: a relabelled copy of the n = 240 blow-up --------------


def relabelling(seed: int, n: int, k: int) -> tuple[list[int], list[int]]:
    """A seeded vertex permutation and color permutation."""
    rng = random.Random(f"construct:{seed}")
    vertices = list(range(n))
    rng.shuffle(vertices)
    palette = list(range(k))
    rng.shuffle(palette)
    return vertices, palette


def relabel_coloring(coloring: dict, vertices, palette) -> dict:
    """The same coloring with vertex v renamed vertices[v] and color c
    renamed palette[c].  Every class keeps its edge, component and
    incident counts; only its color label moves."""
    n, r = coloring["n"], coloring["r"]
    edges = colex_edges(n, r)
    rank = {e: i for i, e in enumerate(edges)}
    colors = [0] * len(edges)
    for e, c in zip(edges, coloring["colors"]):
        image = tuple(sorted(vertices[v] for v in e))
        colors[rank[image]] = palette[c]
    return {"n": n, "r": r, "k": coloring["k"], "colors": colors}


def unrelabel_report(report: dict, palette) -> dict:
    """Map a report of the relabelled coloring back to the original labels."""
    back = {new: old for old, new in enumerate(palette)}
    rows = [dict(row, color=back[row["color"]]) for row in report["per_class"]]
    return dict(report, per_class=sorted(rows, key=lambda row: row["color"]))


# ---- search: seeded op order ------------------------------------------


def shuffled(seed: int, names: list[str]) -> list[str]:
    out = list(names)
    random.Random(f"search:{seed}").shuffle(out)
    return out


# ---- certify: bulk colorings and tampered artifacts -------------------


def bulk_colorings(seed: int) -> np.ndarray:
    n, r, k = BULK_SHAPE
    m = len(colex_edges(n, r))
    rng = np.random.default_rng([seed, 0xB01C])
    return rng.integers(0, k, size=(BULK_ROWS, m), dtype=np.int64)


def bulk_reference_digest(seed: int) -> str:
    """Digest of the expected bulk_eval rows (min components, max incident)."""
    n, r, _k = BULK_SHAPE
    edges = colex_edges(n, r)
    rows = [list(f_and_max_incident(n, edges, row)) for row in bulk_colorings(seed).tolist()]
    return digest(rows)


def tampered(seed: int, name: str, artifact: dict) -> dict[str, dict]:
    """Two seeded forgeries of a search artifact that verify must reject:
    the claimed value moved, and one witness edge recolored so that the
    witness no longer reaches the claim."""
    rng = random.Random(f"certify:{seed}:{name}")
    metric, n, r, k = artifact["metric"], artifact["n"], artifact["r"], artifact["k"]
    claim = artifact["value"]
    if metric == "f":
        moved = claim + rng.randint(1, 3)
    else:
        moved = fraction_text(Fraction(claim) + Fraction(rng.randint(1, 3), n))
    out = {"value": dict(artifact, value=moved)}
    colors = artifact["witness"]["colors"]
    moves = [(e, c) for e in range(len(colors)) for c in range(k) if c != colors[e]]
    rng.shuffle(moves)
    for e, c in moves:
        forged = list(colors)
        forged[e] = c
        if metric_value(metric, n, r, forged) != claim:
            witness = dict(artifact["witness"], colors=forged)
            out["witness"] = dict(artifact, witness=witness)
            break
    return out
