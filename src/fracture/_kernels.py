"""The hot loops: the search kernel, written once and run either as
plain Python or compiled by numba, and the bulk evaluator, numpy over
blocks of rows on every backend.

The environment variable FRACTURE_NUMBA picks the active search
backend: unset or "1" compiles when numba is importable, "0" forces the
pure interpreter.  IMPLS maps each available backend to its search
kernel so the benchmark can race one against the other on identical
inputs; search_kernel is the active one.

Search state is flat int64 arrays.  Union-find is by size with no path
compression so every merge is a single reversible write; an undo log of
(slot, partner) pairs rewinds one edge assignment exactly: partner is
the root a merged slot was linked under, -1 for a vertex entering a
class, -2 for a lex-leader flag cleared.  The component and incident
counts of the class an edge colors come back from a per-depth snapshot.

numba compiles _search_impl on numpy arrays.  The pure-Python backend
runs the same code object with np bound to _ListNumpy, whose int64,
full and zeros give Python ints and lists, and with every
read-only array argument passed as a list: indexing an ndarray from the
interpreter boxes a fresh np.int64 on every read and every += 1, and the
same search on lists runs about five times as many nodes per second.
Arguments named *_out stay ndarrays, written element by element.

One search kernel serves three objectives, each scored so that higher
is better: f is the minimum component count over used colors, z is
minus the maximum incident-vertex count, and span finds the first
coloring in which no class is connected and spans every vertex (the
exhaustive k <= r check).  One unsplit walk breaks both symmetries of
the host: colors by first-use order, vertices by lex-leader constraints
on adjacent transpositions.  Its edge-apply and undo blocks are each
written once and inlined rather than factored into inner functions: the
jit compiler mishandles branching closures that mutate enclosing state,
producing silently wrong counts, and flat bodies compile the same as
they interpret.

bulk_eval_kernel evaluates many colorings at once without a loop per
row: every row colors the same edges, so one union-find over all
(row, color) pairs of a block takes the edges a few numpy gathers and
scatters at a time (Tarjan, JACM 1975, with the linking done for a
whole block at a time).  Its slots are color-major, row-minor, so one
edge's slots over the rows of a block are k runs of adjacent addresses,
and it links all the edges that share their largest vertex in one step,
under that vertex's root: K_8 takes 7 steps a block, not 28.  On the
certify benchmark (10,000 colorings of K_8 with 6 colors, pure Python,
2 cores) a call takes 14-21 ms, against 27-36 ms for an edge at a time
over row-major slots; a loop per row, interpreted, manages 34k
colorings/s.
"""

from __future__ import annotations

import functools
import os
import types

import numpy as np

# the objective codes of _search_impl
OBJ_F, OBJ_Z, OBJ_SPAN = 0, 1, 2


def _search_impl(objective, n, r, k, m, edges_flat, twins, budget, cap, witness_out):
    """Exhaustive search over canonical colorings for the best score
    under objective: the minimum component count over used colors
    (OBJ_F), minus the maximum incident-vertex count (OBJ_Z), or, under
    OBJ_SPAN, cap for a coloring with no class that is connected and
    spans all n vertices.

    Colors are introduced in first-use order (an edge may use color c
    only if colors below c already appear earlier), which enumerates one
    representative per color-relabeling class in lexicographic order.
    Every edge assignment counts one node; the budget is tested before
    the count, so nodes never exceeds budget.  Returns (best score,
    exhausted, nodes, found); the lexicographically smallest optimal
    assignment is copied into witness_out.

    Vertex symmetry is broken by one lex-leader constraint per adjacent
    transposition (v-1 v) (Crawford, Ginsberg, Luks and Roy, KR 1996): a
    coloring must be no larger than its image under the swap.  The swap
    exchanges each edge S+{v} with S+{v-1}, which precedes it in colex
    order, and the pairs fall in the same order whichever member they are
    sorted by, so the first pair whose colors differ decides the
    constraint, when the later member is colored.  twins[i*r + j] is the
    rank of edge i with its vertex j = edges_flat[i*r + j] lowered by
    one, or -1 when that vertex is 0 or its predecessor is in the edge.
    tied[v-1] stays 1 while every pair so far agrees; coloring the later
    edge below its twin prunes the node, above it clears the flag.  The
    lexicographically smallest member of every vertex-and-color orbit
    passes every constraint, so the smallest optimal coloring, and under
    OBJ_SPAN the first counterexample, is still reached.

    cap is a score no coloring can beat (n // r or less for f, -r for
    z, 1 for span), and a leaf scores at most cap.  The search returns
    at the first leaf that scores cap: nothing later can beat it, so
    best is proved and exhausted stays 1.  Prune: a subtree is cut when
    its bound is <= best, the bound being the minimum of cap and, over
    used colors, comp + (n - inc) // r for f (a class ends with at most
    that many components, and unused colors only pull the minimum down)
    or -inc for z (incident counts only grow).  Adding an edge never
    raises either term of its class: an edge of r new vertices adds one
    component and lowers (n - inc) // r by exactly one, any other edge
    joins t >= 1 old components, so comp moves by 1 - t <= 0 while the
    floor term cannot rise, and -inc only falls.  So a child's bound is
    the bound its parent descended under, ceil[depth], folded with the
    one class just colored: the same minimum in O(1).  Under span best
    starts at 0 and the bound is 0 once the class just colored is
    connected and spans all n vertices, which no further edge undoes;
    every leaf the walk reaches is therefore a counterexample, and it
    returns at the first, the lexicographically smallest canonical one.
    """
    parent = np.full(k * n, -1, np.int64)
    size = np.zeros(k * n, np.int64)
    comp = np.zeros(k, np.int64)
    inc = np.zeros(k, np.int64)
    tied = np.full(n, 1, np.int64)

    # per edge at most r vertex entries and r - 1 merges; each flag clears once
    log_cap = (m + 1) * (2 * r + 2) + n
    log_slot = np.zeros(log_cap, np.int64)
    log_partner = np.zeros(log_cap, np.int64)
    log_len = 0

    mark = np.zeros(m + 1, np.int64)
    used = np.zeros(m + 2, np.int64)
    cursor = np.zeros(m + 1, np.int64)
    ceil = np.zeros(m + 1, np.int64)
    comp_was = np.zeros(m + 1, np.int64)
    inc_was = np.zeros(m + 1, np.int64)
    assign = np.full(m, -1, np.int64)
    ceil[0] = cap

    best = np.int64(-(n + 1)) if objective == OBJ_Z else np.int64(0)
    found = np.int64(0)
    exhausted = np.int64(1)
    nodes = np.int64(0)

    depth = 0
    while True:
        c = -1
        if depth == m:
            val = cap
            if objective == OBJ_Z:
                for cc in range(used[depth]):
                    if -inc[cc] < val:
                        val = -inc[cc]
            elif objective == OBJ_F:
                for cc in range(used[depth]):
                    if comp[cc] < val:
                        val = comp[cc]
            if val > best:
                best = val
                found = 1
                for i in range(m):
                    witness_out[i] = assign[i]
                if best >= cap:
                    break
            depth -= 1
        else:
            limit = used[depth]
            if limit > k - 1:
                limit = k - 1
            if cursor[depth] <= limit:
                if nodes >= budget:
                    exhausted = 0
                    break
                c = cursor[depth]
                cursor[depth] = c + 1
                nodes += 1
            elif depth == 0:
                break
            else:
                depth -= 1
        if c >= 0:
            mark[depth] = log_len
            assign[depth] = c
            nc = comp[c]
            ni = inc[c]
            comp_was[depth] = nc
            inc_was[depth] = ni
            base = depth * r
            cn = c * n
            ra = -1
            # one pass over the edge: each vertex's lex pair, then its
            # slot; a prune midway leaves writes the undo below rewinds
            for j in range(r):
                tw = twins[base + j]
                if tw >= 0:
                    t = edges_flat[base + j] - 1
                    if tied[t] == 1 and c != assign[tw]:
                        if c < assign[tw]:
                            c = -1  # not a lex-leader: prune
                            break
                        tied[t] = 0
                        log_slot[log_len] = t
                        log_partner[log_len] = -2
                        log_len += 1
                rb = cn + edges_flat[base + j]
                if parent[rb] == -1:
                    parent[rb] = rb
                    size[rb] = 1
                    nc += 1
                    ni += 1
                    log_slot[log_len] = rb
                    log_partner[log_len] = -1
                    log_len += 1
                else:
                    while parent[rb] != rb:
                        rb = parent[rb]
                if ra == -1:
                    ra = rb
                elif rb != ra:
                    if size[ra] < size[rb]:
                        ra, rb = rb, ra
                    parent[rb] = ra
                    size[ra] += size[rb]
                    nc -= 1
                    log_slot[log_len] = rb
                    log_partner[log_len] = ra
                    log_len += 1
            if c >= 0:
                comp[c] = nc
                inc[c] = ni
                bound = ceil[depth]
                if objective == OBJ_F:
                    ub = nc + (n - ni) // r
                    if ub < bound:
                        bound = ub
                elif objective == OBJ_Z:
                    if -ni < bound:
                        bound = -ni
                elif nc == 1 and ni == n:
                    bound = 0
                if bound > best:
                    newu = used[depth]
                    if c == newu:
                        newu += 1
                    depth += 1
                    used[depth] = newu
                    cursor[depth] = 0
                    ceil[depth] = bound
                    continue
        to_mark = mark[depth]
        while log_len > to_mark:
            log_len -= 1
            ua = log_slot[log_len]
            partner = log_partner[log_len]
            if partner >= 0:
                size[partner] -= size[ua]
                parent[ua] = ua
            elif partner == -1:
                parent[ua] = -1
            else:
                tied[ua] = 1
        uc = assign[depth]
        comp[uc] = comp_was[depth]
        inc[uc] = inc_was[depth]
    return best, exhausted, nodes, found


class _ListNumpy:
    """The part of numpy the search kernel calls, over Python lists and
    ints: what the interpreted backend binds to the name np."""

    int64 = int

    @staticmethod
    def full(size, value, dtype=None):
        return [value] * size

    @staticmethod
    def zeros(size, dtype=None):
        return [0] * size


def _on_lists(fn):
    """Run fn's code object with np bound to _ListNumpy, on lists.

    Every ndarray argument whose parameter name does not end in _out is
    passed as a list; _out arrays stay numpy, since the kernel writes
    them only on an improvement.
    """
    code = fn.__code__
    body = types.FunctionType(code, {**fn.__globals__, "np": _ListNumpy})
    writes = tuple(name.endswith("_out") for name in code.co_varnames[: code.co_argcount])

    @functools.wraps(fn)
    def run(*args):
        args = [
            a.tolist() if isinstance(a, np.ndarray) and not out else a
            for a, out in zip(args, writes, strict=True)
        ]
        return body(*args)

    return run


IMPLS = {"python": _on_lists(_search_impl)}

try:
    from numba import njit as _njit
except ImportError:
    _njit = None

if _njit is not None:
    IMPLS["numba"] = _njit(cache=True)(_search_impl)

NUMBA_ENABLED = "numba" in IMPLS and os.environ.get("FRACTURE_NUMBA", "1") != "0"

search_kernel = IMPLS["numba" if NUMBA_ENABLED else "python"]


# at most this many rows share one union-find array, and at most
# _BLOCK_SLOTS (row, color, vertex) slots: memory stays flat in the row count
_BLOCK_ROWS = 512
_BLOCK_SLOTS = 1 << 20


def bulk_eval_kernel(n, r, k, m, edges_flat, colorings, rows_out):
    """Row i of rows_out becomes (min components over nonempty classes, max
    incident count) for colorings[i], whose colors must lie in [0, k).

    numpy on every backend, a block of b rows at a time.  The union-find
    slot of color c and vertex v in block row i is (c*n + v)*b + i of
    one flat parent array, so an edge's slots over the rows of a block
    lie in k runs of adjacent addresses.  The edges are taken in groups,
    each a run of consecutive edges that share their largest vertex w
    (colex order makes n - r + 1 groups; any order is correct), one
    step per group: find the roots of every slot of the group's edges by
    pointer jumping, then hook each of those roots, and each of those
    slots, under the root of the edge's slot at w.  The hook is sound
    because that target depends only on the (row, color) a slot belongs
    to: every edge of one row and color in the group holds w, so all
    writes to one root carry the same value, and the target, itself a
    root, is written only with itself, so no cycle forms.  Colors never
    mix, so no write crosses from one row's or one color's union-find
    into another's.
    """
    # each edge's largest vertex first, then its others in any order
    edges = edges_flat.reshape(m, r)
    largest = edges.max(axis=1)
    others = edges[edges != largest[:, None]].reshape(m, r - 1)
    edges = np.concatenate([largest[:, None], others], axis=1)
    cuts = (np.flatnonzero(np.diff(largest)) + 1).tolist()
    groups = list(zip([0, *cuts], [*cuts, m]))
    kn = k * n
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_SLOTS // kn))
    for lo in range(0, len(colorings), rows):
        block = colorings[lo : lo + rows]
        b = len(block)
        # the slot of (row, color, vertex 0) for each edge and row
        base = block.T * (n * b) + np.arange(b)
        offsets = edges * b
        slots = np.arange(b * kn, dtype=np.int64)
        parent = slots.copy()
        touched = np.zeros(b * kn, dtype=bool)
        for g0, g1 in groups:
            idx = base[g0:g1, None, :] + offsets[g0:g1, :, None]
            touched[idx] = True
            roots = parent[idx]
            up = parent[roots]
            while not np.array_equal(up, roots):
                roots = up
                up = parent[roots]
            hub = roots[:, :1]
            parent[roots] = hub
            parent[idx] = hub
        touched = touched.reshape(k, n, b)
        incident = touched.sum(axis=1)
        comps = (touched & (parent == slots).reshape(k, n, b)).sum(axis=1)
        rows_out[lo : lo + b, 0] = np.where(incident > 0, comps, 2**62).min(axis=0)
        rows_out[lo : lo + b, 1] = incident.max(axis=0)
