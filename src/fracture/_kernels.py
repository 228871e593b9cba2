"""Hot search and evaluation loops, written once and run either as
plain Python or compiled by numba.

The environment variable FRACTURE_NUMBA picks the active backend:
unset or "1" compiles when numba is importable, "0" forces the pure
interpreter.  Both backends live in IMPLS so the benchmark can race one
against the other on identical inputs.

Kernel state is flat int64 arrays.  Union-find is by size with no path
compression so every merge is a single reversible write; an undo log of
(kind, color, a, b) records rewinds one edge assignment exactly.

numba compiles the functions below on numpy arrays.  The pure-Python
backend runs the same code objects with np bound to _ListNumpy, whose
int64, full, zeros and empty give Python ints and lists, and with every
read-only array argument passed as a list: indexing an ndarray from the
interpreter boxes a fresh np.int64 on every read and every += 1, and the
same search on lists runs about five times as many nodes per second.
Arguments named *_out stay ndarrays, written element by element.

One search kernel serves three objectives, each scored so that higher
is better: f is the minimum component count over used colors, z is
minus the maximum incident-vertex count, and span finds the first
coloring in which no class is connected and spans every vertex (the
exhaustive k <= r check).  Its edge-apply and undo blocks are each
written once, forced prefix edges included, and inlined rather than
factored into inner functions: the jit compiler mishandles branching
closures that mutate enclosing state, producing silently wrong counts,
and flat bodies compile the same as they interpret.
"""

from __future__ import annotations

import functools
import os
import types

import numpy as np

# the objective codes of _search_impl
OBJ_F, OBJ_Z, OBJ_SPAN = 0, 1, 2


def _search_impl(objective, n, r, k, m, edges_flat, prefix, budget, cap, witness_out):
    """Exhaustive search over canonical colorings for the best score
    under objective: the minimum component count over used colors
    (OBJ_F), minus the maximum incident-vertex count (OBJ_Z), or, under
    OBJ_SPAN, cap for a coloring with no class that is connected and
    spans all n vertices.

    Colors are introduced in first-use order (an edge may use color c
    only if colors below c already appear earlier), which enumerates one
    representative per color-relabeling class in lexicographic order.
    The first len(prefix) edges take their colors from prefix as forced
    levels that count no nodes and are never pruned.  Every other edge
    assignment counts one node; the budget is tested before the count,
    so nodes never exceeds budget.  Returns (best score, exhausted,
    nodes, found); the lexicographically smallest optimal assignment is
    copied into witness_out.

    cap is a score no coloring can beat (n // r or less for f, -r for
    z, 1 for span), and a leaf scores at most cap.  The search returns
    at the first leaf that scores cap: nothing later can beat it, so
    best is proved and exhausted stays 1.  Prune: a subtree is cut when
    its bound is <= best, the bound being the minimum of cap and, over
    used colors, comp + (n - inc) // r for f (a class ends with at most
    that many components, and unused colors only pull the minimum down)
    or -inc for z (incident counts only grow).  Under span best starts
    at 0 and the bound is 0 once the class just colored is connected
    and spans all n vertices, which no further edge undoes; every leaf
    the walk reaches is therefore a counterexample, and it returns at
    the first, the lexicographically smallest canonical one.
    """
    parent = np.full(k * n, -1, np.int64)
    size = np.zeros(k * n, np.int64)
    comp = np.zeros(k, np.int64)
    inc = np.zeros(k, np.int64)

    log_cap = (m + 1) * (2 * r + 2)
    log_kind = np.zeros(log_cap, np.int64)
    log_c = np.zeros(log_cap, np.int64)
    log_a = np.zeros(log_cap, np.int64)
    log_b = np.zeros(log_cap, np.int64)
    log_len = 0

    mark = np.zeros(m + 1, np.int64)
    used = np.zeros(m + 2, np.int64)
    cursor = np.zeros(m + 1, np.int64)
    assign = np.full(m, -1, np.int64)

    best = np.int64(-(n + 1)) if objective == OBJ_Z else np.int64(0)
    found = np.int64(0)
    exhausted = np.int64(1)
    nodes = np.int64(0)
    p = len(prefix)

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
            if depth == p:
                break
            depth -= 1
        elif depth < p:
            c = prefix[depth]
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
            elif depth == p:
                break
            else:
                depth -= 1
        if c >= 0:
            mark[depth] = log_len
            base = depth * r
            for j in range(r):
                idx = c * n + edges_flat[base + j]
                if parent[idx] == -1:
                    parent[idx] = idx
                    size[idx] = 1
                    comp[c] += 1
                    inc[c] += 1
                    log_kind[log_len] = 0
                    log_c[log_len] = c
                    log_a[log_len] = idx
                    log_len += 1
            ra = c * n + edges_flat[base]
            while parent[ra] != ra:
                ra = parent[ra]
            for j in range(1, r):
                rb = c * n + edges_flat[base + j]
                while parent[rb] != rb:
                    rb = parent[rb]
                while parent[ra] != ra:
                    ra = parent[ra]
                if rb != ra:
                    if size[ra] < size[rb]:
                        ra, rb = rb, ra
                    parent[rb] = ra
                    size[ra] += size[rb]
                    comp[c] -= 1
                    log_kind[log_len] = 1
                    log_c[log_len] = c
                    log_a[log_len] = rb
                    log_b[log_len] = ra
                    log_len += 1
            assign[depth] = c
            newu = used[depth]
            if c == newu:
                newu += 1
            bound = cap
            if objective == OBJ_Z:
                for cc in range(newu):
                    if -inc[cc] < bound:
                        bound = -inc[cc]
            elif objective == OBJ_F:
                for cc in range(newu):
                    ub = comp[cc] + (n - inc[cc]) // r
                    if ub < bound:
                        bound = ub
            elif comp[c] == 1 and inc[c] == n:
                bound = 0
            if bound > best or depth < p:
                depth += 1
                used[depth] = newu
                cursor[depth] = 0
                continue
        to_mark = mark[depth]
        while log_len > to_mark:
            log_len -= 1
            uc = log_c[log_len]
            ua = log_a[log_len]
            if log_kind[log_len] == 0:
                parent[ua] = -1
                size[ua] = 0
                comp[uc] -= 1
                inc[uc] -= 1
            else:
                ub2 = log_b[log_len]
                size[ub2] -= size[ua]
                parent[ua] = ua
                comp[uc] += 1
    return best, exhausted, nodes, found


def _bulk_eval_impl(n, r, k, m, edges_flat, colorings, rows_out):
    """Row i of rows_out becomes (min components over nonempty classes, max
    incident count) for colorings[i]."""
    parent = np.empty(n, np.int64)
    for i in range(len(colorings)):
        assign = colorings[i]
        best_f = np.int64(2**62)
        max_inc = np.int64(0)
        for c in range(k):
            for v in range(n):
                parent[v] = -1
            comps = np.int64(0)
            incident = np.int64(0)
            for e in range(m):
                if assign[e] != c:
                    continue
                base = e * r
                for j in range(r):
                    v = edges_flat[base + j]
                    if parent[v] == -1:
                        parent[v] = v
                        comps += 1
                        incident += 1
                ra = edges_flat[base]
                while parent[ra] != ra:
                    ra = parent[ra]
                for j in range(1, r):
                    rb = edges_flat[base + j]
                    while parent[rb] != rb:
                        rb = parent[rb]
                    while parent[ra] != ra:
                        ra = parent[ra]
                    if ra != rb:
                        parent[rb] = ra
                        comps -= 1
            if incident > 0:
                if comps < best_f:
                    best_f = comps
                if incident > max_inc:
                    max_inc = incident
        rows_out[i, 0] = best_f
        rows_out[i, 1] = max_inc


class _ListNumpy:
    """The part of numpy the kernel bodies call, over Python lists and
    ints: what the interpreted backend binds to the name np."""

    int64 = int

    @staticmethod
    def full(size, value, dtype=None):
        return [value] * size

    @staticmethod
    def zeros(size, dtype=None):
        return [0] * size

    @staticmethod
    def empty(size, dtype=None):
        return [0] * size


def _on_lists(fn):
    """Run fn's code object with np bound to _ListNumpy, on lists.

    Every ndarray argument whose parameter name does not end in _out is
    passed as a (nested) list; _out arrays stay numpy, since the kernels
    write them only on an improvement or once per row.
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


_SOURCES = {"search": _search_impl, "bulk_eval": _bulk_eval_impl}

IMPLS: dict[str, dict] = {"python": {name: _on_lists(fn) for name, fn in _SOURCES.items()}}

try:
    from numba import njit as _njit
except ImportError:
    _njit = None

if _njit is not None:
    _jit = _njit(cache=True)
    IMPLS["numba"] = {name: _jit(fn) for name, fn in _SOURCES.items()}

NUMBA_ENABLED = "numba" in IMPLS and os.environ.get("FRACTURE_NUMBA", "1") != "0"

ACTIVE = IMPLS["numba"] if NUMBA_ENABLED else IMPLS["python"]

search_kernel = ACTIVE["search"]
bulk_eval_kernel = ACTIVE["bulk_eval"]
