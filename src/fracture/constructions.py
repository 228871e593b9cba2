"""Explicit colorings: small optimal bases, blow-ups, and matching splits.

A *base coloring* is a small complete-graph or triple-system coloring with
a verified maximum incidence fraction.  The blow-up lifts a base on t
vertices to any n by splitting the vertex set into t near-equal parts:
edges meeting several parts inherit the base color of the smallest base
edge covering their part pattern, while edges inside part i are used to
plant one maximum matching for every color that avoids base vertex i
(those isolated matchings are what push the component count up), with
leftovers dumped on a color already present at i.

The remaining constructors realize exact optimum colorings for special
parameter families: one color per (near-)factor for k = n-1 and k = n,
equal matchings of size t when k*t = C(n, 2) (slices of a factor, or
every stride-th edge of a Hamiltonian cycle or path), splits of a
complete r-uniform factorization, and near-equal matchings when k is at
least the edge count minus the count of edges disjoint from a fixed edge.

Every claimed value is recomputed from class stats before being returned;
no constructor is trusted.

The blow-ups build their assignments as numpy array operations over the
host's edge array; like core, this module imports numpy inside the
functions that use it, for peak RSS (see core).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING

from .core import (
    BipartiteShape, Coloring, FractureError, HypergraphShape, as_int, check_desk_edges, check_host_edges,
    class_stats, edge_array, edge_ranks, f_value, report_dict, z_value,
)
from .designs import (
    Design, affine_plane, baranyai, boolean_sqs, decomposition_to_coloring_edges, disjoint_max_matchings,
    hamiltonian_edges, inversive_plane, k4minus_decomposition, near_one_factorization, one_factorization,
    projective_plane,
)

if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

    import numpy as np


@dataclass(frozen=True)
class BaseColoring:
    """A named coloring together with its verified incidence fraction."""

    name: str
    coloring: Coloring
    realized_z: Fraction


def base_registry_names() -> list[str]:
    return list(_EXPLICIT_BASES) + [
        "trivial(n,r)",
        "diamond(10)",
        "diamond(11)",
        "design(pg(q)|ag(q)|sqs(m)|inversive(q))",
    ]


def _coloring_from_classes(n: int, r: int, classes: Sequence[Iterable[tuple[int, ...]]]) -> Coloring:
    return Coloring(HypergraphShape(n, r), len(classes), decomposition_to_coloring_edges(n, r, classes))


def _ranked(n: int, r: int, ranks: np.ndarray, color, f: int, what: str) -> Coloring:
    """The coloring giving the edge ranks[i, p], place p of factor i, the
    color color(i, p) (on index arrays), relabelled into first-use order,
    once every edge has a color and its f is checked to be the claimed f."""
    import numpy as np

    shape = HypergraphShape(n, r)
    colors = color(*np.indices(ranks.shape))
    assignment = np.full(shape.edge_count, -1, dtype=np.int64)
    assignment[ranks] = colors
    if (assignment < 0).any():
        raise FractureError(f"{what} left an edge uncolored")
    return _checked(shape, int(colors.max()) + 1, assignment, f, what)


def _checked(shape: HypergraphShape, k: int, assignment: np.ndarray, f: int, what: str) -> Coloring:
    """The k-coloring relabelled into first-use color order, once its f is
    checked to be the claimed f."""
    out = Coloring(shape, k, _first_use(assignment))
    if f_value(out) != f:
        raise FractureError(f"{what} has f != {f}")
    return out


def _first_use(colors: np.ndarray) -> np.ndarray:
    """``relabel_canonical`` of an integer array, in numpy: each color
    renumbered by the order of its first appearance."""
    import numpy as np

    _, first, inverse = np.unique(colors, return_index=True, return_inverse=True)
    label = np.empty(len(first), dtype=np.int64)
    label[np.argsort(first)] = np.arange(len(first))
    return label[inverse.reshape(-1)]


def _k5_four() -> Coloring:
    classes = [
        [(0, 3), (0, 4), (3, 4)],
        [(1, 3), (1, 4)],
        [(2, 3), (2, 4)],
        [(0, 1), (0, 2), (1, 2)],
    ]
    return _coloring_from_classes(5, 2, classes)


def _k9_five() -> Coloring:
    low = range(0, 5)
    high = range(4, 9)
    classes = [
        [(a, b) for a in low for b in low if a < b],
        [(a, b) for a in high for b in high if a < b],
        [(0, b) for b in (5, 6, 7, 8)],
        [(a, b) for a in (1, 2, 3) for b in (5, 6)],
        [(a, b) for a in (1, 2, 3) for b in (7, 8)],
    ]
    return _coloring_from_classes(9, 2, classes)


def _k6r3_six() -> Coloring:
    classes = [
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        [(0, 1, 4), (0, 1, 5), (0, 4, 5), (1, 4, 5)],
        [(0, 2, 4), (0, 2, 5), (2, 4, 5)],
        [(1, 2, 4), (1, 3, 4), (2, 3, 4)],
        [(0, 3, 4), (0, 3, 5), (3, 4, 5)],
        [(1, 2, 5), (1, 3, 5), (2, 3, 5)],
    ]
    return _coloring_from_classes(6, 3, classes)


def trivial_coloring(n: int, r: int) -> Coloring:
    """Every edge its own color: k = C(n, r), incidence fraction r/n."""
    import numpy as np

    shape = HypergraphShape(n, r)
    check_host_edges(shape)
    return Coloring(shape, shape.edge_count, np.arange(shape.edge_count))


def design_coloring(design: Design) -> Coloring:
    """One color per block: each strength-subset is colored by its block.

    Valid because the blocks cover every strength-subset exactly once, so
    the classes partition the edges of the complete strength-uniform
    hypergraph; each class touches block_size vertices.
    """
    r = design.strength
    classes = [combinations(block, r) for block in design.blocks]
    return _coloring_from_classes(design.v, r, classes)


_DESIGN_NAME = re.compile(r"^design\((pg|ag|sqs|inversive)\((\d+)\)\)$")
_TRIVIAL_NAME = re.compile(r"^trivial\((\d+),\s*(\d+)\)$")
_DIAMOND_NAME = re.compile(r"^diamond\((\d+)\)$")


def diamond_coloring(n: int) -> Coloring:
    """One color per diamond in a decomposition of K_n into copies of the
    four-vertex five-edge graph; every class touches 4 vertices."""
    return _coloring_from_classes(n, 2, k4minus_decomposition(n))


# name -> (builder, verified incidence fraction)
_EXPLICIT_BASES = {
    "rainbow-triangle": (lambda: trivial_coloring(3, 2), Fraction(2, 3)),
    "k5-four": (_k5_four, Fraction(3, 5)),
    "k9-five": (_k9_five, Fraction(5, 9)),
    "k6r3-six": (_k6r3_six, Fraction(2, 3)),
}


def _number(digits: str) -> int:
    """A number in a base name, refused past Python's limit on int digits."""
    try:
        return int(digits)
    except ValueError:
        raise FractureError(f"a number of {len(digits)} digits in a base name is too long") from None


def base_registry(name: str) -> BaseColoring:
    """Look up a base coloring by name.

    Explicit entries: rainbow-triangle, k5-four, k9-five, k6r3-six.
    Parameterized entries: ``trivial(n,r)`` and ``design(...)`` where the
    inner constructor is one of pg(q), ag(q), sqs(m), inversive(q).
    """
    trivial = _TRIVIAL_NAME.match(name)
    diamond = _DIAMOND_NAME.match(name)
    design_name = _DESIGN_NAME.match(name)
    if name in _EXPLICIT_BASES:
        build, expected = _EXPLICIT_BASES[name]
        coloring = build()
    elif trivial:
        coloring = trivial_coloring(_number(trivial.group(1)), _number(trivial.group(2)))
        expected = Fraction(coloring.r, coloring.n)
    elif diamond:
        coloring = diamond_coloring(_number(diamond.group(1)))
        expected = Fraction(4, coloring.n)
    elif design_name:
        ctor = {
            "pg": projective_plane,
            "ag": affine_plane,
            "sqs": boolean_sqs,
            "inversive": inversive_plane,
        }[design_name.group(1)]
        design = ctor(_number(design_name.group(2)))
        coloring = design_coloring(design)
        expected = Fraction(design.block_size, design.v)
    else:
        raise FractureError(f"unknown base coloring {name!r}")
    realized = z_value(coloring)
    if realized != expected:
        raise FractureError(f"{name}: z {realized} != expected {expected}")
    return BaseColoring(name, coloring, realized)


def equitable_parts(n: int, t: int) -> list[range]:
    """t contiguous parts of size ceil(n/t) or floor(n/t), big parts first."""
    big = n % t
    size = n // t
    parts = []
    start = 0
    for i in range(t):
        s = size + 1 if i < big else size
        parts.append(range(start, start + s))
        start += s
    return parts


def _colex_smallest_superset(u: tuple[int, ...], t: int, r: int) -> tuple[int, ...]:
    """The colex-smallest r-subset of range(t) containing u: fill with the
    smallest vertices outside u."""
    fill = [x for x in range(t) if x not in u]
    return tuple(sorted(list(u) + fill[: r - len(u)]))


def _require_complete_host(coloring: Coloring, what: str) -> None:
    if coloring.shape.bipartite:
        raise FractureError(f"{what} needs a K_n^r base, got a K_{{n,n}} coloring")


def blow_up(base: BaseColoring, n: int) -> Coloring:
    """Lift a base coloring on t vertices to a coloring of K_n^r.

    Vertices split into t near-equal contiguous parts.  An edge meeting
    parts U (|U| >= 2) takes the base color of the colex-smallest base
    edge containing U.  Inside part i, every color missing at base vertex
    i plants one maximum matching (matchings pairwise edge-disjoint), and
    leftover inside edges take the smallest color present at i.

    Guarantee, checked before returning: the produced coloring has
    f_value >= floor(n/(r*t)) * ceil(t * (1 - realized_z)) + 1.
    """
    _require_complete_host(base.coloring, "blow-up")
    t = base.coloring.n
    r = base.coloring.r
    if n < t:
        raise FractureError(f"blow-up needs n >= t = {t}, got n = {n}")
    shape = HypergraphShape(n, r)
    check_host_edges(shape)
    out = Coloring(shape, base.coloring.k, _blow_up_assignment(base, shape))
    guarantee = (n // (r * t)) * _ceil_frac(t * (1 - base.realized_z)) + 1
    got = f_value(out)
    if got < guarantee:
        raise FractureError(
            f"blow-up produced f={got}, below guaranteed {guarantee}"
        )
    return out


def _blow_up_assignment(base: BaseColoring, shape: HypergraphShape) -> np.ndarray:
    """The blow-up's colors in colex order, as array operations over the
    host's edge array."""
    import numpy as np

    t, r = base.coloring.n, shape.r
    parts, part_of, colors_at, absent = _part_plan(base, shape.n)
    # The parts of each edge's vertices, nondecreasing (parts are
    # contiguous, edges sorted): an edge inside part i starts and ends in
    # i, every other edge takes the color its part pattern maps to.
    pattern = np.asarray(part_of, dtype=np.int32)[shape.edge_array()]
    inside = pattern[:, 0] == pattern[:, -1]
    cross = np.flatnonzero(~inside)
    # number the distinct cross patterns one column at a time, so no code
    # exceeds m * t; first holds one edge of each pattern
    which = np.zeros(len(cross), dtype=np.int64)
    for j in range(r):
        _, first, which = np.unique(which * t + pattern[cross, j], return_index=True, return_inverse=True)
    supersets = [
        _colex_smallest_superset(tuple(sorted(set(p))), t, r) for p in pattern[cross[first]].tolist()
    ]
    covers = edge_ranks(np.array(supersets, dtype=np.int64).reshape(-1, r), base.coloring.shape)
    assignment = np.full(shape.edge_count, -1, dtype=np.int64)
    assignment[cross] = np.array(base.coloring.assignment)[covers][which]
    # Inside edges take the smallest color at their part's base vertex,
    # then the planted matchings overwrite theirs; a part smaller than r
    # has no inside edges.
    fallback = np.array([min(c) for c in colors_at])
    assignment[inside] = fallback[pattern[inside, 0]]
    for i, part in enumerate(parts):
        if len(part) < r:
            continue
        # constructive feasibility: the matchings must actually exist
        dec = disjoint_max_matchings(len(part), r, len(absent[i]))
        ranks = edge_ranks(dec.edges.reshape(-1, r) + part.start, shape)
        assignment[ranks] = np.repeat(np.array(absent[i], dtype=np.int64), dec.edges.shape[1])
    if (assignment < 0).any():
        raise FractureError("blow-up left an edge uncolored")
    return assignment


def _part_plan(base: BaseColoring, n: int) -> tuple[list[range], list[int], list[set[int]], list[list[int]]]:
    """How a blow-up splits n vertices over the t base vertices: the t
    equitable parts, the part of each vertex, the colors at each base
    vertex and the colors absent there."""
    parts = equitable_parts(n, base.coloring.n)
    part_of = [i for i, p in enumerate(parts) for _ in p]
    colors_at = _colors_at(base.coloring)
    absent = [sorted(set(range(base.coloring.k)) - c) for c in colors_at]
    return parts, part_of, colors_at, absent


def _colors_at(coloring: Coloring) -> list[set[int]]:
    """The set of colors on the edges through each vertex, read off the
    (vertex, color) pairs of the host's edges, sorted by vertex.  (A plain
    np.unique of the pairs is a hash pass since numpy 2.3, some 30x slower
    here than the sort.)"""
    import numpy as np

    shape, k = coloring.shape, coloring.k
    colors = np.array(coloring.assignment, dtype=np.int64)
    vertex, color = np.divmod(np.sort(shape.edge_array() * k + colors[:, None], axis=None), k)
    cuts = np.searchsorted(vertex, np.arange(shape.vertex_count + 1)).tolist()
    color = color.tolist()
    return [set(color[a:b]) for a, b in zip(cuts, cuts[1:])]


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def coloring_nminus1(n: int) -> Coloring:
    """A (n-1)-coloring of K_n with every class splitting into floor(n/2)
    components: perfect matchings for even n; for odd n each Hamiltonian
    cycle contributes a maximum matching and its complement."""
    n = as_int(n, "n")
    if n < 3:
        raise FractureError(f"need n >= 3, got {n}")
    check_host_edges(HypergraphShape(n, 2))
    what = f"(n-1)-coloring of K_{n}"
    if n % 2 == 0:
        return _ranked(n, 2, one_factorization(n).ranks, lambda i, p: i, n // 2, what)
    # cycle i's edges 0, 2, ..., n - 3 take color 2i, the rest 2i + 1
    return _ranked(n, 2, hamiltonian_edges(n)[1], lambda i, p: 2 * i + (p % 2 | (p == n - 1)), n // 2, what)


def coloring_n(n: int) -> Coloring:
    """An n-coloring of K_n with every class splitting into
    floor((n-1)/2) components: a near-one-factorization for odd n; for
    even n, the (n-1)-coloring of K_{n+1} with the extra vertex deleted."""
    n = as_int(n, "n")
    if n < 3:
        raise FractureError(f"need n >= 3, got {n}")
    check_host_edges(HypergraphShape(n, 2))
    what = f"n-coloring of K_{n}"
    if n % 2 == 1:
        return _ranked(n, 2, near_one_factorization(n).ranks, lambda i, p: i, (n - 1) // 2, what)
    # the cycles of K_{n+1} less their two hub edges, whose other edges keep
    # their colex ranks in K_n: cycle edge p + 1 took color 2i + (p + 1) % 2
    paths = hamiltonian_edges(n + 1)[1][:, 1:-1]
    return _ranked(n, 2, paths, lambda i, p: 2 * i + (p + 1) % 2, (n - 1) // 2, what)


def coloring_tk2(n: int, k: int) -> Coloring:
    """k classes, each a matching of exactly t = C(n,2)/k edges.

    Two formulas.  When t divides floor(n/2), slice every factor of the
    one-factorization (n even) or near-one-factorization (n odd) into
    runs of t edges.  Otherwise take every stride-th edge of a
    Hamiltonian walk, stride = len(walk) // t: for odd n, Walecki's
    n-edge cycles of K_n; for even n, the cycles of K_{n+1} less their
    two hub edges, n/2 paths of n - 1 edges partitioning K_n, each edge
    with the same colex rank in K_n as in K_{n+1}.  Edges of a walk at
    least 2 apart share no vertex, so every class is a matching.

    Together they cover every admissible n <= 14 (checked pair by pair):
    either t divides floor(n/2), or t divides the walk length with a
    stride of at least 2; only (9, 12) and (10, 15) need the walks.  The
    checks below refuse any input neither formula fits: every class has t
    edges, and t edges make at most t components, so f == t forces every
    class to be a matching.
    """
    n, k = as_int(n, "n"), as_int(k, "k")
    if n < 2:
        raise FractureError(f"need n >= 2, got n={n}")
    if n > 14:
        raise FractureError(f"n={n} above desk cap 14")
    m = comb(n, 2)
    if k < n - 1:
        raise FractureError(f"need k >= n - 1, got k={k}")
    if m % k:
        raise FractureError(f"k={k} does not divide C({n},2)={m}")
    t = m // k
    if (n // 2) % t == 0:
        ranks = (one_factorization(n) if n % 2 == 0 else near_one_factorization(n)).ranks
        return _ranked(n, 2, ranks, lambda i, p: (i * ranks.shape[1] + p) // t, t, "matching split")
    ranks = hamiltonian_edges(n)[1] if n % 2 else hamiltonian_edges(n + 1)[1][:, 1:-1]
    # class p % stride of a walk has t edges exactly when t divides its length
    if ranks.shape[1] % t:
        raise FractureError("class has wrong size")
    stride = ranks.shape[1] // t
    return _ranked(n, 2, ranks, lambda i, p: i * stride + p % stride, t, "matching split")


def coloring_baranyai_split(n: int, r: int, t: int) -> Coloring:
    """Split every perfect-matching factor of K_n^r into t equal groups;
    each group is one color with exactly n/(r*t) components."""
    HypergraphShape(n, r)  # refuses r < 2 and n < r before n % r divides by r
    t = as_int(t, "t")
    if n % r:
        raise FractureError(f"need r | n, got n={n}, r={r}")
    per_factor = n // r
    if t < 1 or per_factor % t:
        raise FractureError(f"t={t} must divide factor size {per_factor}")
    group = per_factor // t
    return _ranked(n, r, baranyai(n, r).ranks, lambda i, p: i * t + p // group, n // (r * t), "factor split")


def _move_chain(
    classes: list[list[tuple[int, ...]]], used: list[set[int]], large: int, limit: int
) -> list[tuple[int, tuple[int, ...], int]]:
    """The arcs (x, e, y) of a shortest chain of classes from ``large`` to a
    class of at most ``limit`` edges, where edge e of class x moves to class
    y because no edge of y meets it.  Breadth first, edges in class-list
    order and classes in index order; the first such class found ends it."""
    parent: dict[int, tuple[int, tuple[int, ...]] | None] = {large: None}
    queue = [large]
    for x in queue:
        for e in classes[x]:
            for y, cl in enumerate(classes):
                if y in parent or used[y].intersection(e):
                    continue
                parent[y] = (x, e)
                if len(cl) > limit:
                    queue.append(y)
                    continue
                arcs = []
                while y != large:
                    x, e = parent[y]
                    arcs.append((x, e, y))
                    y = x
                return arcs
    raise FractureError("equitable repair is stuck")


def coloring_equitable(n: int, r: int, k: int) -> Coloring:
    """k classes, each a matching of floor(m/k) or ceil(m/k) edges where
    m = C(n, r); needs k >= m - C(n-r, r) so a free class always exists.

    A greedy colex pass puts each edge in the emptiest class it can join.
    Then, while two sizes differ by 2 or more, one edge moves along each
    arc of a shortest chain of classes (``_move_chain``) from the largest
    class to a class of at least 2 fewer edges; the classes in between keep
    their sizes.  Each move lowers the sum of squared class sizes by at
    least 2, so the moves end; a largest class with no such chain is an
    error.
    """
    shape, k = HypergraphShape(n, r), as_int(k, "k")
    check_host_edges(shape)  # first: the desk cap's message prints C(n, r)
    m = shape.edge_count
    check_desk_edges(n, r, m)
    need = m - comb(n - r, r)
    if k < need:
        raise FractureError(f"need k >= {need}, got k={k}")
    if k > m:
        raise FractureError(f"need k <= C(n,r)={m}, got k={k}")
    edges = list(map(tuple, edge_array(n, r).tolist()))
    classes: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    used: list[set[int]] = [set() for _ in range(k)]
    for e in edges:
        best = None
        for c in range(k):
            if not used[c].intersection(e):
                if best is None or len(classes[c]) < len(classes[best]):
                    best = c
        if best is None:
            raise FractureError("greedy pass found no compatible class")
        classes[best].append(e)
        used[best].update(e)

    while True:
        sz = [len(cl) for cl in classes]
        top = max(sz)
        if top - min(sz) <= 1:
            break
        for x, e, y in _move_chain(classes, used, sz.index(top), top - 2):
            classes[x].remove(e)
            used[x].difference_update(e)
            classes[y].append(e)
            used[y].update(e)
    if max(sz) - min(sz) > 1 or min(sz) != m // k:
        raise FractureError(f"sizes {sorted(sz)} not equitable for m={m}, k={k}")
    assignment = decomposition_to_coloring_edges(n, r, classes)
    return _checked(shape, k, assignment, m // k, "equitable coloring")


# The K_{n,n} report is the one report; this name is kept for callers.
bipartite_report_dict = report_dict


def _pair_colors(coloring: Coloring) -> np.ndarray:
    """The (n, n) array of the color of {i, j} in a graph coloring of K_n,
    at [i, j] and [j, i], with -1 on the diagonal."""
    import numpy as np

    out = np.full((coloring.n, coloring.n), -1, dtype=np.int64)
    edges = coloring.shape.edge_array()
    colors = np.array(coloring.assignment, dtype=np.int64)
    out[edges[:, 0], edges[:, 1]] = colors
    out[edges[:, 1], edges[:, 0]] = colors
    return out


def bipartite_from_clique(base: Coloring) -> Coloring:
    """Transfer a complete-graph coloring to the complete bipartite double
    cover: (a_i, b_j) copies the color of {i, j}, and each diagonal
    (a_i, b_i) takes the smallest color already incident with i, so every
    color touches exactly twice as many vertices as before."""
    import numpy as np

    _require_complete_host(base, "bipartite transfer")
    if base.r != 2:
        raise FractureError("bipartite transfer needs a graph coloring")
    n = base.n
    check_host_edges(BipartiteShape(n))
    grid = _pair_colors(base)
    # the smallest color in each row, the diagonal's -1 read as k
    grid[range(n), range(n)] = np.where(grid < 0, base.k, grid).min(axis=1)
    out = Coloring(BipartiteShape(n), base.k, grid.reshape(-1))
    base_inc = {s.color: s.incident_vertices for s in class_stats(base)}
    for s in class_stats(out):
        if s.incident_vertices != 2 * base_inc[s.color]:
            raise FractureError("bipartite transfer failed to double incidence")
    return out


def bipartite_blow_up(base: BaseColoring, n: int) -> Coloring:
    """Blow up a graph base coloring to K_{n,n}.

    Both sides split into the same t near-equal groups.  Edges between
    group i on side A and group j != i on side B copy the base color of
    {i, j}.  Inside the square pair (i, i), every color absent at base
    vertex i takes one perfect matching (cyclic Latin shifts), leftovers
    take the smallest color present at i.

    Checked guarantee: every color splits into at least
    floor(n/t) * ceil(t * (1 - realized_z)) - t + 1 components.
    """
    import numpy as np

    _require_complete_host(base.coloring, "bipartite blow-up")
    if base.coloring.r != 2:
        raise FractureError("bipartite blow-up needs a graph base")
    t = base.coloring.n
    k = base.coloring.k
    if n < t:
        raise FractureError(f"need n >= t = {t}")
    shape = BipartiteShape(n)
    check_host_edges(shape)
    parts, part_of, colors_at, absent = _part_plan(base, n)
    for i in range(t):
        if len(absent[i]) > len(parts[i]):
            raise FractureError(
                f"group {i} of size {len(parts[i])} cannot host "
                f"{len(absent[i])} disjoint perfect matchings"
            )

    group_of = np.asarray(part_of)
    grid = _pair_colors(base.coloring)[group_of[:, None], group_of[None, :]]
    for i, group in enumerate(parts):
        g = len(group)
        grid[group.start : group.stop, group.start : group.stop] = min(colors_at[i])
        x = np.arange(g)
        for ell, color in enumerate(absent[i]):
            grid[group.start + x, group.start + (x + ell) % g] = color
    out = Coloring(shape, k, grid.reshape(-1))
    guarantee = (n // t) * _ceil_frac(t * (1 - base.realized_z)) - t + 1
    got = f_value(out)
    if got < guarantee:
        raise FractureError(
            f"bipartite blow-up produced min components {got} < {guarantee}"
        )
    return out
