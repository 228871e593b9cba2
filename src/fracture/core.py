"""Complete uniform hypergraphs, edge colorings, and the two central metrics.

A coloring lives on a host shape.  The main host is the complete
r-uniform hypergraph K_n^r, whose edges are the r-subsets of
{0, ..., n-1}; they are identified with their rank in colexicographic
order, so a coloring is a flat tuple of color indices, one per rank.
The library's constructors build it as one int64 array, which is checked
and evaluated as that array; only a tuple or JSON input is checked item
by item (see ``Coloring``).  The second host is the complete bipartite
graph K_{n,n} (``BipartiteShape``), with sides {0, ..., n-1} and
{n, ..., 2n-1} and the edge (i, n + j) at index i*n + j.  Every metric
and serializer below reads the host only through ``shape.edge_array()``
and ``shape.vertex_count``, so both hosts share one path.  Two
quantities are measured per color class:

* the number of connected components the class induces (vertices touched
  by no edge of the class never count), and
* the fraction of the host's vertices (n for K_n^r, 2n for K_{n,n})
  incident with at least one edge of the class.

``f_value`` is the minimum component count over the nonempty classes;
``z_value`` is the maximum incidence fraction.  Empty classes are ignored
by both.

Edge tables and class stats are numpy on every backend.  The package
loads numpy when it imports search, but core, designs and constructions
import it inside their functions, so that it loads after they and bounds
are compiled.  Where they are compiled on every run (no cached
bytecode), module-level imports raised peak RSS on each benchmark
workload, by 0.4-0.6 MiB (2 cores, Python 3.11, numpy 2.4, pure Python:
construct 45.31 -> 45.77, search 34.94 -> 35.31, certify 41.30 -> 41.89).

Invariants:
    - edge_array(n, r) is the one edge table: row i is the edge with colex
      rank i, and shape.edge_array() is it for K_n^r.
    - edge_ranks is the one ranking and inverts edge_array:
      edge_ranks(edge_array(n, r), shape) is 0, 1, ..., C(n, r) - 1.
    - components <= incident_vertices // r for every class.
    - class edge counts over a coloring sum to shape.edge_count.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


class FractureError(Exception):
    """Base error for invalid shapes, colorings, or desk-size caps."""


DESK_EDGE_CAP = 2000


def check_desk_edges(n: int, r: int, m: int) -> None:
    """Refuse a host whose C(n, r) = m edges exceed DESK_EDGE_CAP, before
    a tool that walks or allocates per edge starts on it."""
    if m > DESK_EDGE_CAP:
        # past 2^64 the count can have more digits than Python will print
        count = f"={m}" if m < 2**64 else " >= 2^64"
        raise FractureError(f"C({n},{r}){count} above desk cap {DESK_EDGE_CAP}")


def as_int(value: object, name: str) -> int:
    """value as the Python int operator.index gives: an int or a numpy
    integer passes; a bool, a float or anything else raises
    FractureError, so no decision ever rounds."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise FractureError(f"{name} must be an integer, got {value!r}")


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
        # frozen: store the checked ints in place of what was passed
        object.__setattr__(self, "n", as_int(self.n, "n"))
        object.__setattr__(self, "r", as_int(self.r, "r"))
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

    def edge_array(self) -> np.ndarray:
        """All edges in colexicographic order, one per row."""
        return edge_array(self.n, self.r)


@dataclass(frozen=True)
class BipartiteShape:
    """The complete bipartite graph K_{n,n}: sides range(n) and
    range(n, 2n), the edge (i, n + j) at index i*n + j."""

    n: int
    r = 2
    bipartite = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_int(self.n, "n"))
        if self.n < 1:
            raise FractureError(f"bipartite host needs n >= 1, got n={self.n}")

    @property
    def edge_count(self) -> int:
        return self.n * self.n

    @property
    def vertex_count(self) -> int:
        return 2 * self.n

    def edge_array(self) -> np.ndarray:
        """All edges in index order, one per row: (i, n + j) at i*n + j."""
        import numpy as np

        index = np.arange(self.n * self.n, dtype=np.int64)
        return np.stack([index // self.n, self.n + index % self.n], axis=1)


@lru_cache(maxsize=1, typed=True)
def edge_array(n: int, r: int) -> np.ndarray:
    """All r-subsets of range(n) in colex order, as a read-only
    (C(n, r), r) int64 array: row ``rank`` is the edge with that colex
    rank, its vertices increasing.

    Built directly in colex order: the j-subsets with largest vertex v are
    the (j-1)-subsets of range(v), which are the first C(v, j-1) rows of
    the (j-1)-level, each extended by v.  For 2r > n the table is the
    complements of the (n - r)-level read backwards (S precedes T in
    colex order exactly when the complement of T precedes that of S), so
    no level wider than C(n, r) is built.  The cache holds the last
    shape only, so a long-lived process keeps at most one table.
    """
    import numpy as np

    shape = HypergraphShape(n, r)
    if 2 * shape.r <= shape.n:
        out = _colex_level(shape.n, shape.r)
    else:
        holes = _colex_level(shape.n, shape.n - shape.r)[::-1]
        keep = np.ones((len(holes), shape.n), dtype=bool)
        keep[np.arange(len(holes))[:, None], holes] = False
        out = np.nonzero(keep)[1].reshape(len(holes), shape.r)
    out.flags.writeable = False
    return out


def _colex_level(n: int, j: int) -> np.ndarray:
    """All j-subsets of range(n) in colex order, one per row, for
    0 <= j <= n."""
    import numpy as np

    level = np.zeros((1, 0), dtype=np.int64)
    for i in range(1, j + 1):
        tops = np.arange(i - 1, n, dtype=np.int64)
        counts = np.array([comb(top, i - 1) for top in range(i - 1, n)], dtype=np.int64)
        # row p of the new level extends row prefix[p] of the old one
        starts = np.cumsum(counts) - counts
        prefix = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)
        level = np.concatenate([level[prefix], np.repeat(tops, counts)[:, None]], axis=1)
    return level


def edge_ranks(vertices: np.ndarray, shape: HypergraphShape) -> np.ndarray:
    """Colex ranks of many edges at once, one per row of the (num, r)
    integer array ``vertices``, rank(S) = sum over i of C(v_i, i+1) for
    the row v_0 < v_1 < ...; every row must be strictly increasing inside
    range(shape.n).  One edge ``e`` is ``edge_ranks(np.array([e]), shape)[0]``."""
    import numpy as np

    vs = np.asarray(vertices)
    if vs.ndim != 2 or vs.shape[1] != shape.r:
        raise FractureError(f"edges need {shape.r} vertices each, got an array of shape {vs.shape}")
    if vs.size and not np.issubdtype(vs.dtype, np.integer):
        raise FractureError(f"vertices must be integers, got {vs.dtype}")
    if vs.size and (vs.min() < 0 or vs.max() >= shape.n):
        raise FractureError(f"vertex out of range for n={shape.n}")
    vs = vs.astype(np.int64, copy=False)
    if (np.diff(vs, axis=1) <= 0).any():
        raise FractureError("vertices must be strictly increasing")
    if shape.edge_count * shape.r >= 2**63:
        raise FractureError(f"ranks of {shape} do not fit in int64")
    ranks = np.zeros(len(vs), dtype=np.int64)
    for i in range(shape.r):
        # C(v, i + 1) by math.comb once per vertex v, then gathered: over the
        # column's span when that is no longer than the column, else over its
        # distinct values.  Each term is at most the row's rank, below m.
        column = vs[:, i]
        low, high = (int(column.min()), int(column.max())) if len(vs) else (0, -1)
        if high - low < len(vs):
            values, index = range(low, high + 1), column - low
        else:
            values, index = np.unique(column, return_inverse=True)
            values = values.tolist()
        ranks += np.array([comb(v, i + 1) for v in values], dtype=np.int64)[index]
    return ranks


@dataclass(frozen=True)
class Coloring:
    """An assignment of one of k colors to every edge of a host, immutable.

    ``assignment[i]`` is the color of ``shape.edge_array()[i]``: the edge
    with colex rank i on K_n^r, the edge (i // n, n + i % n) on K_{n,n}.
    Colors need not all be used; empty classes are ignored by the metric
    functions.  k goes through as_int.  The assignment is stored as a
    tuple of Python ints, so a list or array the caller changes later
    cannot change the coloring, and ``class_stats`` keeps its result on
    the instance.

    It is given one of two ways.  A 1-D integer numpy array, as every
    library constructor builds one, is checked in numpy (its length, and
    its ``min`` and ``max`` against range(k)), with no pass over its items
    in Python; a read-only int64 copy of it is kept until ``class_stats``
    consumes it.  Anything else (a tuple or list, JSON's colors, an array
    of another dtype or shape) is read item by item, and every color must
    be a Python int.  The two ways refuse bad input with the same messages.
    """

    shape: HypergraphShape | BipartiteShape
    k: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        import numpy as np

        k = as_int(self.k, "k")
        object.__setattr__(self, "k", k)
        colors = self.assignment
        array = isinstance(colors, np.ndarray) and colors.ndim == 1 and colors.dtype.kind in "iu"
        if not array:
            # any other array is read as its Python items, so it is refused
            # with the message a list of them gets
            colors = tuple(colors.tolist() if isinstance(colors, np.ndarray) else colors)
        m = self.shape.edge_count
        if len(colors) != m:
            raise FractureError(f"assignment length {len(colors)} != edge count {m}")
        if not array:
            # by type: a set of the colors would merge True and 1.0 into 1
            strays = set(map(type, colors)) - {int}
            if strays:
                names = ", ".join(sorted(t.__name__ for t in strays))
                raise FractureError(f"colors must be integers, got {names}")
        if not 1 <= k <= m:
            raise FractureError(f"need 1 <= k <= edge count {m}, got k={k}")
        if array:
            low, high = int(colors.min()), int(colors.max())
            if low < 0 or high >= k:
                raise FractureError(f"color {low if low < 0 else high} out of range for k={k}")
            # the tuple before the copy: a copy made first, alive beside the
            # caller's array, the list and the tuple, raised the construct
            # benchmark's peak RSS by 0.06-0.16 MiB
            held, colors = colors, tuple(colors.tolist())
            held = held.astype(np.int64)
            held.flags.writeable = False
            # frozen, and not a field: never compared, hashed or printed;
            # class_stats consumes it
            object.__setattr__(self, "_colors", held)
        else:
            for c in set(colors):
                if not 0 <= c < k:
                    raise FractureError(f"color {c} out of range for k={k}")
        object.__setattr__(self, "assignment", colors)

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


def class_stats(coloring: Coloring) -> list[ColorClassStats]:
    """Stats for every nonempty color class, ordered by color index, as a
    new list on every call.

    A coloring is evaluated once: the first call stores the stats on the
    instance, as a tuple of frozen records, and later calls copy them.  A
    constructor's self-check and the report of the same object so share
    one evaluation, while an equal coloring built anew (as
    ``coloring_from_dict`` builds one) is evaluated from scratch.  No
    cache outside the instance holds colorings or hashes assignments.

    The evaluation is one union-find over the (color, vertex) slots, in
    numpy: ``_slot_components`` links the slots of each edge.  When there
    are more slots (k*n) than edge entries (m*r), the touched ones are
    numbered by ``np.unique`` first, so memory follows m*r and never
    k*n.  A class's incident vertices are its touched slots and its
    components the touched slots left as roots.
    """
    stats = coloring.__dict__.get("_class_stats")
    if stats is None:
        stats = _evaluate(coloring)
        # frozen: the one attribute set outside the fields, never compared
        object.__setattr__(coloring, "_class_stats", stats)
    return list(stats)


def _evaluate(coloring: Coloring) -> tuple[ColorClassStats, ...]:
    import numpy as np

    shape = coloring.shape
    k, n = coloring.k, shape.vertex_count
    # an array-built coloring's array is taken off it, so that its m int64s
    # are freed, with offsets', before the hooking rounds, which set the peak
    colors = coloring.__dict__.pop("_colors", None)
    if colors is None:
        colors = np.array(coloring.assignment, dtype=np.int64)
    offsets = colors * n
    del colors
    # built as r contiguous columns, the layout _slot_components reads
    columns = np.add(shape.edge_array().T, offsets, order="C")
    del offsets
    sizes = np.bincount(columns[0] // n, minlength=k)
    if k * n > columns.size:
        keys, columns = np.unique(columns.reshape(-1), return_inverse=True)
        columns = columns.reshape(shape.r, -1)
    else:
        keys = np.arange(k * n)
    parent = _slot_components(columns.T, len(keys))[0]
    touched = np.zeros(len(keys), dtype=bool)
    touched[columns] = True
    slot_color = keys // n
    incident = np.bincount(slot_color[touched], minlength=k)
    comps = np.bincount(slot_color[touched & (parent == np.arange(len(keys)))], minlength=k)
    used = np.flatnonzero(sizes)
    return tuple(
        ColorClassStats(c, e, p, i)
        for c, e, p, i in zip(
            used.tolist(), sizes[used].tolist(), comps[used].tolist(), incident[used].tolist()
        )
    )


def _slot_components(slots: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Connected components of the slots 0..count-1 linked by each row of
    ``slots``, by hooking and pointer jumping (Shiloach and Vishkin, J.
    Algorithms 1982): returns (parent, hooking rounds), parent[s] being
    the smallest slot of s's component.

    Each round finds every row's roots, hooks each root to the smallest
    root in a row it shares (np.minimum.at), then jumps pointers until
    every tree is a star.  Hooks only point to smaller slots, so no cycle
    forms, and every root that is not the smallest of its neighbourhood
    merges in its round.  It stops when every row lies in one tree.

    The table is read as r contiguous 1-D columns, never as an (m, r)
    array: a row minimum over axis 1 and a ``minimum.at`` with a 2-D
    index both miss numpy's fast paths, while an elementwise
    ``np.minimum`` over columns and a 1-D ``minimum.at`` per column hit
    them, about 6x faster for the same rounds and hooks.
    """
    import numpy as np

    # slot ids below 2^31 fit int32, which halves the arrays of each round
    parent = np.arange(count, dtype=np.int32 if count < 2**31 else np.int64)
    columns = np.ascontiguousarray(slots.T)
    rounds = 0
    while True:
        roots = [parent[column] for column in columns]
        low = roots[0].copy()
        for root in roots[1:]:
            np.minimum(low, root, out=low)
        if all(np.array_equal(root, low) for root in roots):
            return parent, rounds
        rounds += 1
        for root in roots:
            np.minimum.at(parent, root, low)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


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
    # a dict keeps its keys in first-insertion order
    mapping = {c: i for i, c in enumerate(dict.fromkeys(assignment))}
    return tuple(map(mapping.__getitem__, assignment))


def fraction_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


coloring_to_dict = Coloring.to_dict


def coloring_from_dict(d: dict) -> Coloring:
    """Inverse of coloring_to_dict; a bipartite coloring needs no ``r``.

    The shape and Coloring check ``n``, ``r``, ``k`` and the colors, so a
    float, a numeric string or a bool is refused, never rounded.
    ``bipartite`` must be a JSON bool when present: absent or false means
    K_n^r, true means K_{n,n}."""
    if not isinstance(d, dict):
        raise FractureError(f"coloring JSON must be an object, got {type(d).__name__}")
    try:
        bipartite = d.get("bipartite", False)
        if type(bipartite) is not bool:
            raise FractureError(f"coloring JSON: bipartite must be true or false, got {bipartite!r}")
        shape = BipartiteShape(d["n"]) if bipartite else HypergraphShape(d["n"], d["r"])
        return Coloring(shape, d["k"], tuple(d["colors"]))
    except KeyError as exc:
        raise FractureError(f"coloring JSON missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise FractureError(f"malformed coloring JSON: {exc}") from exc


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
