"""Complete uniform hypergraphs, edge colorings, and the two central metrics.

A coloring lives on a host shape.  The main host is the complete
r-uniform hypergraph K_n^r, whose edges are the r-subsets of
{0, ..., n-1}; they are identified with their rank in colexicographic
order, so a coloring is just a flat tuple of color indices.  The second
host is the complete bipartite graph K_{n,n} (``BipartiteShape``), with
sides {0, ..., n-1} and {n, ..., 2n-1} and the edge (i, n + j) at index
i*n + j.  Every metric and serializer below reads the host only through
``shape.edges()`` and ``shape.vertex_count``, so both hosts share one
path.  Two quantities are measured per color class:

* the number of connected components the class induces (vertices touched
  by no edge of the class never count), and
* the fraction of the host's vertices (n for K_n^r, 2n for K_{n,n})
  incident with at least one edge of the class.

``f_value`` is the minimum component count over the nonempty classes;
``z_value`` is the maximum incidence fraction.  Empty classes are ignored
by both.

Invariants:
    - edge_rank and edge_unrank are mutual inverses on valid inputs.
    - edge_table(n, r)[i] == edge_unrank(i, HypergraphShape(n, r)).
    - components <= incident_vertices // r for every class.
    - class edge counts over a coloring sum to shape.edge_count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence


class FractureError(Exception):
    """Base error for invalid shapes, colorings, or desk-size caps."""


DESK_EDGE_CAP = 2000


def check_desk_edges(n: int, r: int, m: int) -> None:
    """Refuse a host whose C(n, r) = m edges exceed DESK_EDGE_CAP, before
    a tool that walks or allocates per edge starts on it."""
    if m > DESK_EDGE_CAP:
        raise FractureError(f"C({n},{r})={m} above desk cap {DESK_EDGE_CAP}")


HOST_EDGE_CAP = 100_000


def check_host_edges(shape: HypergraphShape | BipartiteShape) -> None:
    """Refuse to build a coloring or factorization of a host with more than
    HOST_EDGE_CAP edges (C(n, r), or n^2 on K_{n,n}), before anything is
    allocated per edge.  The message leaves the count out: it can have more
    digits than Python will print."""
    if shape.edge_count > HOST_EDGE_CAP:
        raise FractureError(f"{shape} has more than the host cap of {HOST_EDGE_CAP} edges")


def check_binomial_size(n: int, r: int) -> None:
    """Refuse C(n, r) before anything computes it when it is at least 2^64.

    C(n, r) >= 2^j for j = min(r, n - r): past j = 64 no edge or subset
    list fits in memory, and math.comb alone would take minutes.
    """
    if min(r, n - r) >= 64:
        raise FractureError(f"C({n},{r}) exceeds 2^64")


@dataclass(frozen=True)
class HypergraphShape:
    """Shape (n, r) of a complete r-uniform hypergraph."""

    n: int
    r: int
    bipartite = False

    def __post_init__(self) -> None:
        if self.r < 2:
            raise FractureError(f"uniformity must be >= 2, got r={self.r}")
        if self.n < self.r:
            raise FractureError(f"need n >= r, got n={self.n}, r={self.r}")
        check_binomial_size(self.n, self.r)

    @property
    def edge_count(self) -> int:
        return comb(self.n, self.r)

    @property
    def vertex_count(self) -> int:
        return self.n

    def edges(self) -> Sequence[tuple[int, ...]]:
        """All edges in colexicographic order."""
        return edge_table(self.n, self.r)


@dataclass(frozen=True)
class BipartiteShape:
    """The complete bipartite graph K_{n,n}: sides range(n) and
    range(n, 2n), the edge (i, n + j) at index i*n + j."""

    n: int
    r = 2
    bipartite = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise FractureError(f"bipartite host needs n >= 1, got n={self.n}")

    @property
    def edge_count(self) -> int:
        return self.n * self.n

    @property
    def vertex_count(self) -> int:
        return 2 * self.n

    def edges(self) -> list[tuple[int, int]]:
        """All edges in index order, built per call (n^2 pairs)."""
        n = self.n
        return [(i, n + j) for i in range(n) for j in range(n)]


@lru_cache(maxsize=1)
def edge_table(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All r-subsets of range(n) in colex order: ``edge_table(n, r)[rank]``
    is the edge with that colex rank.

    Built directly in colex order: the j-subsets with largest vertex v are
    the (j-1)-subsets of range(v), which are the first C(v, j-1) entries
    of the (j-1)-level, each extended by v.  For 2r > n the table is the
    complements of the (n - r)-level read backwards (S precedes T in
    colex order exactly when the complement of T precedes that of S), so
    no level wider than C(n, r) is built.  The cache holds the last
    shape only, so a long-lived process keeps at most one table.
    """
    shape = HypergraphShape(n, r)
    if 2 * shape.r <= shape.n:
        return tuple(_colex_level(shape.n, shape.r))
    holes = _colex_level(shape.n, shape.n - shape.r)
    return tuple(
        tuple(v for v in range(shape.n) if v not in hole) for hole in reversed(holes)
    )


def _colex_level(n: int, j: int) -> list[tuple[int, ...]]:
    """All j-subsets of range(n) in colex order, for 0 <= j <= n."""
    level: list[tuple[int, ...]] = [()]
    for i in range(1, j + 1):
        level = [
            prefix + (top,)
            for top in range(i - 1, n)
            for prefix in level[: comb(top, i - 1)]
        ]
    return level


def edge_rank(vertices: Sequence[int], shape: HypergraphShape) -> int:
    """Colexicographic rank of an edge, rank(S) = sum over i of C(v_i, i+1).

    ``vertices`` must be strictly increasing and inside range(shape.n).
    """
    vs = tuple(vertices)
    if len(vs) != shape.r:
        raise FractureError(f"edge needs {shape.r} vertices, got {len(vs)}")
    prev = -1
    rank = 0
    for i, v in enumerate(vs):
        if v <= prev:
            raise FractureError(f"vertices must be strictly increasing: {vs}")
        if not 0 <= v < shape.n:
            raise FractureError(f"vertex {v} out of range for n={shape.n}")
        prev = v
        rank += comb(v, i + 1)
    return rank


def edge_unrank(rank: int, shape: HypergraphShape) -> tuple[int, ...]:
    """Inverse of edge_rank: the edge with the given colex rank."""
    if not 0 <= rank < shape.edge_count:
        raise FractureError(f"rank {rank} out of range for {shape}")
    out: list[int] = []
    rem = rank
    v = shape.n - 1
    for i in range(shape.r, 0, -1):
        # largest v with C(v, i) <= rem
        while comb(v, i) > rem:
            v -= 1
        out.append(v)
        rem -= comb(v, i)
        v -= 1
    out.reverse()
    return tuple(out)


@dataclass(frozen=True)
class Coloring:
    """An assignment of one of k colors to every edge of a host, immutable.

    ``assignment[i]`` is the color of ``shape.edges()[i]``: the edge with
    colex rank i on K_n^r, the edge (i // n, n + i % n) on K_{n,n}.
    Colors need not all be used; empty classes are ignored by the metric
    functions.
    """

    shape: HypergraphShape | BipartiteShape
    k: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.shape.edge_count
        if len(self.assignment) != m:
            raise FractureError(
                f"assignment length {len(self.assignment)} != edge count {m}"
            )
        if not 1 <= self.k <= m:
            raise FractureError(f"need 1 <= k <= edge count {m}, got k={self.k}")
        for c in set(self.assignment):
            if not 0 <= c < self.k:
                raise FractureError(f"color {c} out of range for k={self.k}")

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def r(self) -> int:
        return self.shape.r

    def to_dict(self) -> dict:
        """The JSON form; ``"bipartite": true`` marks the K_{n,n} host."""
        out = {
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "colors": list(self.assignment),
        }
        if self.shape.bipartite:
            out["bipartite"] = True
        return out


@dataclass(frozen=True)
class ColorClassStats:
    """Per-class summary: size, component count, incident vertex count."""

    color: int
    edge_count: int
    components: int
    incident_vertices: int


def edge_list_stats(edges: Sequence[Sequence[int]], n_vertices: int) -> tuple[int, int]:
    """(components, incident vertex count) of an edge list via union-find.

    Vertices touched by no edge are ignored.  Union by size, no path
    splitting tricks; n stays desk sized.
    """
    parent = [-1] * n_vertices
    size = [0] * n_vertices
    comps = 0
    incident = 0

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for e in edges:
        for v in e:
            if parent[v] == -1:
                parent[v] = v
                size[v] = 1
                comps += 1
                incident += 1
        a = find(e[0])
        for v in e[1:]:
            b = find(v)
            if a != b:
                if size[a] < size[b] or (size[a] == size[b] and a > b):
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                comps -= 1
    return comps, incident


def class_stats(coloring: Coloring) -> list[ColorClassStats]:
    """Stats for every nonempty color class, ordered by color index."""
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for e, c in zip(coloring.shape.edges(), coloring.assignment):
        buckets.setdefault(c, []).append(e)
    out = []
    for c in sorted(buckets):
        edges = buckets[c]
        comps, incident = edge_list_stats(edges, coloring.shape.vertex_count)
        out.append(ColorClassStats(c, len(edges), comps, incident))
    return out


def f_value(coloring: Coloring) -> int:
    """Minimum component count over the nonempty color classes."""
    return min(s.components for s in class_stats(coloring))


def z_value(coloring: Coloring) -> Fraction:
    """Maximum incidence fraction over the nonempty color classes."""
    return max(
        Fraction(s.incident_vertices, coloring.shape.vertex_count)
        for s in class_stats(coloring)
    )


def relabel_canonical(assignment: Sequence[int]) -> tuple[int, ...]:
    """Renumber colors by first appearance so label choices are canonical."""
    mapping: dict[int, int] = {}
    out = []
    for c in assignment:
        if c not in mapping:
            mapping[c] = len(mapping)
        out.append(mapping[c])
    return tuple(out)


def fraction_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den if den else 1))


coloring_to_dict = Coloring.to_dict


def coloring_from_dict(d: dict) -> Coloring:
    """Inverse of coloring_to_dict; a bipartite coloring needs no ``r``."""
    if not isinstance(d, dict):
        raise FractureError(f"coloring JSON must be an object, got {type(d).__name__}")
    try:
        if d.get("bipartite"):
            shape = BipartiteShape(int(d["n"]))
        else:
            shape = HypergraphShape(int(d["n"]), int(d["r"]))
        return Coloring(shape, int(d["k"]), tuple(int(c) for c in d["colors"]))
    except KeyError as exc:
        raise FractureError(f"coloring JSON missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise FractureError(f"malformed coloring JSON: {exc}") from exc


def coloring_to_json(coloring: Coloring) -> str:
    return json.dumps(coloring_to_dict(coloring), sort_keys=True)


def coloring_from_json(text: str) -> Coloring:
    return coloring_from_dict(json.loads(text))


def report_dict(coloring: Coloring) -> dict:
    """The evaluation report emitted next to a serialized coloring."""
    stats = class_stats(coloring)
    return {
        "f": min(s.components for s in stats),
        "z": fraction_str(
            max(Fraction(s.incident_vertices, coloring.shape.vertex_count) for s in stats)
        ),
        "per_class": [
            {
                "color": s.color,
                "edges": s.edge_count,
                "components": s.components,
                "incident_vertices": s.incident_vertices,
            }
            for s in stats
        ],
    }
