"""Exact optimization drivers over the kernel layer.

The exhaustive searches are one walk of the search kernel over the
colorings in lexicographic order, with both symmetries of the host
broken inside it.  Colors appear in first-use order, and the vertex
symmetry is cut by a lex-leader constraint for each adjacent vertex
transposition (Crawford, Ginsberg, Luks and Roy, KR 1996): a coloring
that a swap of v - 1 and v would make lexicographically smaller is
pruned as soon as the first edge pair it exchanges decides it.  Neither a
relabelling of vertices nor one of colors changes f or z, and the
lexicographically smallest coloring of each orbit passes every
constraint, so the smallest optimal coloring is always reached.  The
walk stops at its cap, a score no coloring can beat, at the first leaf
that scores it.  So an exhausted search, budgeted or not, returns the
lexicographically smallest optimal coloring as its witness, and a budget
only decides whether the walk gets that far.  Unbudgeted exact_f(9, 4)
takes 281,222 nodes and exact_f(10, 4) 4,521,888.

exact_f and exact_z share one driver and one kernel; they differ only in
the objective passed down and in how the best score is turned into a
value.  The first leaf lies m = C(n, r) nodes down, so a budget below m
raises SearchBudgetError, and a host with more than DESK_EDGE_CAP edges
raises FractureError.  n, r, k and the node budget must be integers
(numpy integers pass); a bool, a float or a string raises FractureError.

verify_k_le_r runs the same kernel under its span objective,
unbudgeted, with cap 1: the walk skips every subtree below a class that
is connected and spans all n vertices and returns at the first leaf it
reaches.  Counterexamples are closed under relabelling vertices and
colors, so the lexicographically first one is first-use canonical and a
lex-leader, and that leaf is it; the colorings checked are those up to
and including it, its base-k rank plus one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .bounds import f_upper_counting
from .core import (
    Coloring,
    FractureError,
    HypergraphShape,
    as_int,
    check_desk_edges,
    edge_array,
    edge_ranks,
    f_value,
    z_value,
)

_UNLIMITED = 2**62
# verify_k_le_r refuses instances with more than this many colorings
_ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class SearchOptions:
    node_budget: int | None = None


@dataclass(frozen=True)
class SearchResult:
    """value is exact when exhausted is True, otherwise a best-found.

    The witness evaluates to value.  When exhausted, with or without a
    node budget, it is the lexicographically smallest optimal coloring.
    """

    value: object
    witness: Coloring | None
    exhausted: bool
    nodes: int


@dataclass(frozen=True)
class ExhaustiveCheck:
    holds: bool
    checked: int
    counterexample: Coloring | None


def _edges_flat(shape: HypergraphShape) -> np.ndarray:
    """The kernels' edge list: vertex j of the edge with colex rank i at
    index i*r + j."""
    return edge_array(shape.n, shape.r).reshape(-1)


def _twins(shape: HypergraphShape) -> np.ndarray:
    """The kernel's lex-leader partners, aligned with _edges_flat: at
    index i*r + j, the colex rank of edge i with its vertex j lowered by
    one, or -1 when that vertex is 0 or its predecessor is in the edge."""
    edges = edge_array(shape.n, shape.r)
    below = np.concatenate([np.full((len(edges), 1), -1), edges[:, :-1]], axis=1)
    # one ranking call over every lowerable (edge, position): at most
    # min(r, n - r) per edge, one per gap below a vertex
    rows, cols = np.nonzero(edges - 1 > below)
    lowered = edges[rows]
    lowered[np.arange(len(rows)), cols] -= 1
    out = np.full(edges.shape, -1, dtype=np.int64)
    out[rows, cols] = edge_ranks(lowered, shape)
    return out.reshape(-1)


class SearchBudgetError(FractureError):
    """The node budget ran out before the search reached any leaf."""


def _exact(n: int, k: int, r: int, options: SearchOptions | None, objective: int) -> SearchResult:
    """The exhaustive search behind exact_f and exact_z: one kernel call
    with the whole budget.

    The kernel scores f as the minimum component count and z as minus
    the maximum incident count, so both are maximized here.
    """
    shape = HypergraphShape(n, r)
    n, r, m = shape.n, shape.r, shape.edge_count
    k = as_int(k, "k")
    if not 1 <= k <= m:
        raise FractureError(f"need 1 <= k <= {m}, got k={k}")
    budget = _UNLIMITED
    if options is not None and options.node_budget is not None:
        # the kernel counts a run of lex-leader prunes in one step and may
        # copy the budget into its node count: it must be an int
        node_budget = as_int(options.node_budget, "node budget")
        if node_budget < 0:
            raise FractureError(f"need node budget >= 0, got {node_budget}")
        budget = min(node_budget, _UNLIMITED)
        if budget < m:
            # the first leaf lies m nodes down: fail before the edge table
            # is built, which a hopeless budget on a huge n would pay for
            raise SearchBudgetError("search found no leaf; budget too small")
    check_desk_edges(n, r, m)
    if objective == _kernels.OBJ_Z:
        cap = -r
    else:
        cap = min(n // r, int(f_upper_counting(n, k, r).value))
    assign = np.full(m, -1, dtype=np.int64)
    best, exhausted, nodes, _ = _kernels.search_kernel(
        objective, n, r, k, m, _edges_flat(shape), _twins(shape), budget, cap, assign
    )
    witness = Coloring(shape, k, assign)
    if objective == _kernels.OBJ_Z:
        value, got = Fraction(-int(best), n), z_value(witness)
    else:
        value, got = int(best), f_value(witness)
    if got != value:
        raise FractureError("witness does not evaluate to the reported value")
    return SearchResult(value, witness, bool(exhausted), int(nodes))


def exact_f(n: int, k: int, r: int = 2, options: SearchOptions | None = None) -> SearchResult:
    """The largest achievable minimum component count over colorings of
    the complete r-uniform hypergraph on n vertices with at most k
    colors, with a witness coloring.

    Exhaustive over canonical colorings; exact when exhausted is True.
    The witness is rechecked through the plain evaluator before being
    returned.
    """
    return _exact(n, k, r, options, _kernels.OBJ_F)


def exact_z(n: int, k: int, r: int = 2, options: SearchOptions | None = None) -> SearchResult:
    """The smallest achievable maximum incidence fraction over colorings
    with at most k colors, as an exact Fraction, with witness."""
    return _exact(n, k, r, options, _kernels.OBJ_Z)


def _first_unspanned(shape: HypergraphShape, k: int) -> ExhaustiveCheck:
    """The lexicographically first k-coloring of shape with no class that
    is connected and spans every vertex, if any, from one canonical walk
    of the search kernel; checked counts the colorings up to and
    including it, or all k^m of them."""
    m = shape.edge_count
    cx = np.full(m, -1, dtype=np.int64)
    _, _, _, found = _kernels.search_kernel(
        _kernels.OBJ_SPAN, shape.n, shape.r, k, m, _edges_flat(shape), _twins(shape), _UNLIMITED, 1, cx
    )
    if not found:
        return ExhaustiveCheck(True, k**m, None)
    rank = 0
    for c in cx.tolist():
        rank = rank * k + c
    return ExhaustiveCheck(False, rank + 1, Coloring(shape, k, cx))


def verify_k_le_r(n: int, k: int, r: int = 2) -> ExhaustiveCheck:
    """Check exhaustively that with at most r colors, every coloring has
    a class that is connected and spans all n vertices.

    This is the exhaustive ground truth behind treating f as 1 whenever
    k <= r.  It is the search kernel's canonical span walk (see the
    module docstring), so checked is the base-k rank plus one of the
    lexicographically first counterexample, or k^m when the claim
    holds.  It refuses hosts above the desk edge cap, for every k, and
    instances whose k^m exceeds the enumeration cap, without computing
    k^m when m alone shows it.
    """
    k = as_int(k, "k")
    if k > r:
        raise FractureError(f"claim only holds for k <= r, got k={k} > r={r}")
    if k < 1:
        raise FractureError(f"need k >= 1, got k={k}")
    shape = HypergraphShape(n, r)
    m = shape.edge_count
    check_desk_edges(n, r, m)
    # k >= 2 and m >= cap.bit_length() give k^m >= 2^m > cap
    if k >= 2 and (m >= _ENUMERATION_CAP.bit_length() or k**m > _ENUMERATION_CAP):
        raise FractureError(f"{k}^{m} colorings exceed the cap {_ENUMERATION_CAP}")
    return _first_unspanned(shape, k)


def bulk_eval(n: int, r: int, k: int, colorings: np.ndarray) -> np.ndarray:
    """Rows of (min components, max incident count), one per coloring in
    the (num, C(n,r)) integer array, each color in [0, k).

    k must lie in [1, C(n, r)], as for a Coloring: the kernel's slots
    are k per vertex, so a color outside [0, k) would index another
    vertex's slots or fall outside the block's.
    """
    shape = HypergraphShape(n, r)
    m = shape.edge_count
    check_desk_edges(n, r, m)
    arr = np.asarray(colorings)
    if arr.ndim != 2 or arr.shape[1] != m:
        raise FractureError(f"colorings must be (num, {m})")
    if not np.issubdtype(arr.dtype, np.integer):
        raise FractureError(f"colorings must be integers, got {arr.dtype}")
    k = as_int(k, "k")
    if not 1 <= k <= m:
        raise FractureError(f"need 1 <= k <= {m}, got k={k}")
    if arr.size and (arr.min() < 0 or arr.max() >= k):
        raise FractureError(f"colors must lie in [0, {k})")
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    out = np.zeros((arr.shape[0], 2), dtype=np.int64)
    _kernels.bulk_eval_kernel(n, r, k, m, _edges_flat(shape), arr, out)
    return out

