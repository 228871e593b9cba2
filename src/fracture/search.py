"""Exact optimization drivers over the kernel layer.

The exhaustive searches enumerate colorings canonically (colors appear
in first-use order) and split the tree after the first r + 1 colex
ranks, which are the edges of K_{r+1}^r on {0, ..., r}.  A permutation
of those r + 1 vertices that fixes the rest maps these edges onto
themselves in any order wanted, and neither it nor a relabelling of
colors changes f or z.  So one prefix per S_{r+1} x S_k
orbit is searched: 0^a 1^b 2^c ... for each partition a >= b >= c ...
of r + 1 into at most k parts, 3 subtrees for graphs (McKay's
isomorph rejection, J. Algorithms 1998).  The lexicographically
smallest optimal coloring has the smallest prefix in its orbit, or
relabelling it would give a smaller one, so the witness is the one an
unsplit search returns.  The split stops at K_{r+1}^r because every
subtree starts its incumbent from zero: splitting exact_f(9, 5) at K_4
into 24 orbit subtrees took 327,435 nodes against 45,277 at K_3.  It
also stops after _MAX_SPLIT_DEPTH edges, at most p(9) = 30 subtrees:
any d <= r + 1 of those edges are still interchangeable (permute the
vertices they omit), and without the bound r = 100 would list p(101),
about 2e8, prefixes.  Within K_{r+1}^r a deeper split pays on z:
exact_z(8, 6, 6) takes 572,704 nodes split at 7 edges against
2,455,303 at 5.

The subtrees run one after another in prefix order, each with an
equal share of the node budget.  The search stops at its cap, a score
no coloring can beat: a subtree returns at its first leaf that scores
cap, and no later subtree is run, since none can beat it or win the
first-index tie.  Under a node budget an earlier subtree can run out of
its share before its best leaf while a later one reaches cap.  The value
is then still proved, but the witness is an optimal coloring, not
necessarily the lexicographically smallest: budgeted exact_f(10, 4,
budget=5,000,000) proves 3 with a witness other than the unbudgeted
run's.  Without a budget the witness is always the smallest.

exact_f and exact_z share one driver and one kernel; they differ only in
the objective passed down and in how the best score is turned into a
value.  A budget too small to reach any leaf raises SearchBudgetError,
and a host with more than DESK_EDGE_CAP edges raises FractureError.

verify_k_le_r runs the same kernel under its span objective, unsplit
and unbudgeted, with cap 1: the canonical walk skips every subtree
below a class that is connected and spans all n vertices and returns at
the first leaf it reaches.  Counterexamples are closed under
relabelling colors, so the lexicographically first one is first-use
canonical and that leaf is it; the colorings checked are those up to
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
    check_desk_edges,
    class_stats,
    edge_table,
    f_value,
    z_value,
)

_UNLIMITED = 2**62
_MAX_SPLIT_DEPTH = 9


@dataclass(frozen=True)
class SearchOptions:
    node_budget: int | None = None


@dataclass(frozen=True)
class SearchResult:
    """value is exact when exhausted is True, otherwise a best-found.

    The witness evaluates to value.  Unbudgeted and exhausted, it is the
    lexicographically smallest optimal coloring; under a node budget it
    is an optimal coloring when exhausted, not necessarily the smallest
    (see the module docstring).
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
    return np.array(edge_table(shape.n, shape.r), dtype=np.int64).reshape(-1)


def _orbit_prefixes(k: int, depth: int) -> list[tuple[int, ...]]:
    """The smallest first-use-canonical coloring in each orbit of colorings
    of depth interchangeable edges under edge permutations and color
    relabellings: 0^a 1^b ... for each partition a >= b >= ... of depth
    into at most k parts, in lexicographic order so the merge's
    first-index tie-break keeps the smallest witness."""
    out: list[tuple[int, ...]] = []

    def rec(parts: list[int], left: int) -> None:
        if left == 0:
            out.append(tuple(c for c, part in enumerate(parts) for _ in range(part)))
            return
        if len(parts) == k:
            return
        for part in range(min(left, parts[-1] if parts else left), 0, -1):
            rec(parts + [part], left - part)

    rec([], depth)
    return sorted(out)


class SearchBudgetError(FractureError):
    """The node budget ran out before the search reached any leaf."""


def _exact(n: int, k: int, r: int, options: SearchOptions | None, objective: int) -> SearchResult:
    """The exhaustive driver behind exact_f and exact_z.

    The kernel scores f as the minimum component count and z as minus
    the maximum incident count, so both are maximized here.  A score
    equal to cap is optimal without exhausting the tree: no subtree
    after the first that reaches it is run.
    """
    shape = HypergraphShape(n, r)
    m = shape.edge_count
    if not 1 <= k <= m:
        raise FractureError(f"need 1 <= k <= {m}, got k={k}")
    depth = min(m, r + 1, _MAX_SPLIT_DEPTH)
    prefixes = _orbit_prefixes(k, depth)
    total_budget = _UNLIMITED if options is None or options.node_budget is None else options.node_budget
    per_budget = max(1, total_budget // len(prefixes)) if total_budget < _UNLIMITED else _UNLIMITED
    if per_budget < m - depth:
        # a leaf lies m - depth nodes below every prefix: fail before the
        # edge table is built, which a hopeless budget on a huge n would pay for
        raise SearchBudgetError("search found no leaf; budget too small")
    check_desk_edges(n, r, m)
    if objective == _kernels.OBJ_Z:
        cap = -r
    else:
        cap = min(n // r, int(f_upper_counting(n, k, r).value))
    ef = _edges_flat(shape)
    best = -n - 1  # below every score a leaf can have
    witness_assign = None
    nodes = 0
    all_exhausted = True
    for p in prefixes:
        found_assign = np.full(m, -1, dtype=np.int64)
        val, exh, nd, found = _kernels.search_kernel(
            objective, n, r, k, m, ef, np.array(p, dtype=np.int64), per_budget, cap, found_assign
        )
        nodes += int(nd)
        if not exh:
            all_exhausted = False
        if found and int(val) > best:
            best = int(val)
            witness_assign = found_assign
        if best == cap:
            # no later subtree can beat cap or win the first-index tie
            break
    if witness_assign is None:
        raise SearchBudgetError("search found no leaf; budget too small")
    witness = Coloring(shape, k, tuple(int(x) for x in witness_assign))
    if objective == _kernels.OBJ_Z:
        value, got = Fraction(-best, n), z_value(witness)
    else:
        value, got = best, f_value(witness)
    if got != value:
        raise FractureError("witness does not evaluate to the reported value")
    return SearchResult(value, witness, all_exhausted or best == cap, nodes)


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
        _kernels.OBJ_SPAN, shape.n, shape.r, k, m, _edges_flat(shape),
        np.empty(0, dtype=np.int64), _UNLIMITED, 1, cx,
    )
    if not found:
        return ExhaustiveCheck(True, k**m, None)
    assign = tuple(int(x) for x in cx)
    rank = 0
    for c in assign:
        rank = rank * k + c
    return ExhaustiveCheck(False, rank + 1, Coloring(shape, k, assign))


def verify_k_le_r(n: int, k: int, r: int = 2, limit: int = 10**7) -> ExhaustiveCheck:
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
    if k > r:
        raise FractureError(f"claim only holds for k <= r, got k={k} > r={r}")
    if k < 1:
        raise FractureError(f"need k >= 1, got k={k}")
    shape = HypergraphShape(n, r)
    m = shape.edge_count
    check_desk_edges(n, r, m)
    # k >= 2 and m >= limit.bit_length() give k^m >= 2^m > limit
    if k >= 2 and (m >= limit.bit_length() or k**m > limit):
        raise FractureError(f"{k}^{m} colorings exceed the cap {limit}")
    return _first_unspanned(shape, k)


def bulk_eval(n: int, r: int, k: int, colorings: np.ndarray) -> np.ndarray:
    """Rows of (min components, max incident count), one per coloring in
    the (num, C(n,r)) integer array, each color in [0, k).

    k must lie in [1, C(n, r)], as for a Coloring: a color outside
    [0, k) would land in another row's union-find.
    """
    shape = HypergraphShape(n, r)
    m = shape.edge_count
    arr = np.asarray(colorings)
    if arr.ndim != 2 or arr.shape[1] != m:
        raise FractureError(f"colorings must be (num, {m})")
    if not np.issubdtype(arr.dtype, np.integer):
        raise FractureError(f"colorings must be integers, got {arr.dtype}")
    if not 1 <= k <= m:
        raise FractureError(f"need 1 <= k <= {m}, got k={k}")
    if arr.size and (arr.min() < 0 or arr.max() >= k):
        raise FractureError(f"colors must lie in [0, {k})")
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    out = np.zeros((arr.shape[0], 2), dtype=np.int64)
    _kernels.bulk_eval_kernel(n, r, k, m, _edges_flat(shape), arr, out)
    return out


def _objective(coloring: Coloring) -> tuple[int, int]:
    stats = class_stats(coloring)
    return min(s.components for s in stats), sum(s.components for s in stats)


def randomized_improve(
    n: int,
    k: int,
    r: int = 2,
    seed: int = 0,
    restarts: int = 20,
    steps: int = 2000,
) -> SearchResult:
    """Seeded stochastic hill climb on (min components, total components).

    Each restart draws a uniform coloring and repeatedly recolors one
    random edge, keeping the move when the objective does not drop.
    Deterministic for a fixed seed; never claims exactness.
    """
    if restarts < 1 or steps < 1:
        raise FractureError(f"need restarts >= 1 and steps >= 1, got {restarts} and {steps}")
    shape = HypergraphShape(n, r)
    m = shape.edge_count
    if not 1 <= k <= m:
        raise FractureError(f"need 1 <= k <= {m}, got k={k}")
    check_desk_edges(n, r, m)
    rng = np.random.Generator(np.random.PCG64(seed))
    best_obj = (-1, -1)
    best_assign: tuple[int, ...] | None = None
    evals = 0
    for _ in range(restarts):
        assign = rng.integers(0, k, size=m).tolist()
        cur = _objective(Coloring(shape, k, tuple(assign)))
        evals += 1
        for _ in range(steps):
            e = int(rng.integers(0, m))
            c = int(rng.integers(0, k))
            if assign[e] == c:
                continue
            old = assign[e]
            assign[e] = c
            cand = _objective(Coloring(shape, k, tuple(assign)))
            evals += 1
            if cand >= cur:
                cur = cand
            else:
                assign[e] = old
        if cur > best_obj:
            best_obj = cur
            best_assign = tuple(assign)
    assert best_assign is not None
    witness = Coloring(shape, k, best_assign)
    return SearchResult(best_obj[0], witness, False, evals)
