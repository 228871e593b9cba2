"""Independent reference implementations used as test oracles.

Everything here is written from the definitions, on purpose without
reusing the library's union-find, ranking, or pruning code, so that a
bug in the package cannot hide behind the same bug in the tests.
DFS instead of union-find, dict grouping instead of rank arrays, and
plain itertools enumeration instead of canonical search.
"""

from fractions import Fraction
from itertools import combinations, product
from math import isqrt


def components_dfs(n, edge_list):
    """Connected components of the subhypergraph, isolated vertices ignored."""
    adj = {}
    for edge in edge_list:
        for v in edge:
            adj.setdefault(v, set()).update(edge)
    seen = set()
    count = 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def colex_edges(n, r):
    """All r-subsets in colex order: sort by reversed tuple."""
    return sorted(combinations(range(n), r), key=lambda e: tuple(reversed(e)))


def classes_of(n, r, colors):
    edges = colex_edges(n, r)
    assert len(edges) == len(colors)
    by_color = {}
    for edge, c in zip(edges, colors):
        by_color.setdefault(c, []).append(edge)
    return by_color


def relabel_canonical(colors):
    """Renumber colors by first appearance, so label choices are canonical."""
    # a dict keeps its keys in first-insertion order
    mapping = {c: i for i, c in enumerate(dict.fromkeys(colors))}
    return tuple(map(mapping.__getitem__, colors))


def f_of(n, r, colors):
    """Minimum component count over nonempty color classes."""
    by_color = classes_of(n, r, colors)
    return min(components_dfs(n, cls) for cls in by_color.values())


def z_of(n, r, colors):
    """Maximum fraction of vertices incident with one color."""
    by_color = classes_of(n, r, colors)
    best = 0
    for cls in by_color.values():
        incident = set()
        for edge in cls:
            incident.update(edge)
        best = max(best, len(incident))
    return Fraction(best, n)


def brute_force_max_f(n, k, r):
    """max_c f(c) over all k-colorings by full enumeration.  Tiny inputs only."""
    m = len(list(combinations(range(n), r)))
    assert k**m <= 10**6, "oracle is exponential; keep it tiny"
    best = 0
    for colors in product(range(k), repeat=m):
        best = max(best, f_of(n, r, colors))
    return best


def brute_force_min_z(n, k, r):
    """min_c z(c) over all k-colorings by full enumeration.  Tiny inputs only."""
    m = len(list(combinations(range(n), r)))
    assert k**m <= 10**6, "oracle is exponential; keep it tiny"
    best = Fraction(2)
    for colors in product(range(k), repeat=m):
        best = min(best, z_of(n, r, colors))
    return best


def first_unspanned(n, k, r, limit=10**6):
    """Walk every k-coloring in lexicographic order until one has no
    class that is connected and covers all n vertices.  Returns (holds,
    checked, counterexample): checked counts the colorings seen, the
    counterexample included, and the counterexample is None when every
    coloring has such a class.  Tiny inputs only."""
    m = len(colex_edges(n, r))
    checked = 0
    for colors in product(range(k), repeat=m):
        checked += 1
        if checked > limit:
            raise AssertionError("oracle is exponential; keep it tiny")
        spanning = False
        for cls in classes_of(n, r, colors).values():
            covered = {v for edge in cls for v in edge}
            if len(covered) == n and components_dfs(n, cls) == 1:
                spanning = True
        if not spanning:
            return False, checked, list(colors)
    return True, checked, None


def lex_leaders(n, k, r, limit=10**6):
    """Every k-coloring of K_n^r, in lexicographic order, whose colors
    first appear in the order 0, 1, 2, ... and which no swap of two
    adjacent vertices v - 1, v turns into a lexicographically smaller
    coloring.  Tiny inputs only."""
    edges = colex_edges(n, r)
    if k ** len(edges) > limit:
        raise AssertionError("oracle is exponential; keep it tiny")
    index = {e: i for i, e in enumerate(edges)}
    swaps = []
    for v in range(1, n):
        moved = {v - 1: v, v: v - 1}
        swaps.append([index[tuple(sorted(moved.get(u, u) for u in e))] for e in edges])
    out = []
    for colors in product(range(k), repeat=len(edges)):
        first_use = list(dict.fromkeys(colors))
        if first_use != list(range(len(first_use))):
            continue
        if all(colors <= tuple(colors[j] for j in swap) for swap in swaps):
            out.append(colors)
    return out


def subset_coverage(blocks, t):
    """How many blocks contain each t-subset of the points seen."""
    cover = {}
    for block in blocks:
        for sub in combinations(sorted(block), t):
            cover[sub] = cover.get(sub, 0) + 1
    return cover


def is_matching(edges):
    seen = set()
    for edge in edges:
        for v in edge:
            if v in seen:
                return False
            seen.add(v)
    return True


def max_flow(num_nodes, caps, source, sink):
    """Edmonds-Karp over dicts, each node's neighbours visited in id order;
    returns the flow on every arc.  The Baranyai stages once ran on it, so
    its augmenting paths are the ones the stage matcher must reproduce."""
    adj = {u: [] for u in range(num_nodes)}
    cap = dict(caps)
    for (u, v) in caps:
        adj[u].append(v)
        adj[v].append(u)
        cap.setdefault((v, u), 0)
    for u in adj:
        adj[u] = sorted(set(adj[u]))
    flow = {e: 0 for e in cap}
    while True:
        # BFS for shortest augmenting path
        prev = {source: source}
        queue = [source]
        while queue and sink not in prev:
            nxt = []
            for u in queue:
                for v in adj[u]:
                    if v not in prev and cap[(u, v)] - flow[(u, v)] > 0:
                        prev[v] = u
                        nxt.append(v)
            queue = nxt
        if sink not in prev:
            return flow
        # bottleneck along path
        path = []
        v = sink
        while v != source:
            u = prev[v]
            path.append((u, v))
            v = u
        aug = min(cap[e] - flow[e] for e in path)
        for e in path:
            flow[e] += aug
            flow[(e[1], e[0])] -= aug


def stage_choice(arcs, quotas):
    """The type each factor extends in the max_flow of one Baranyai stage
    network, -1 for a factor the flow leaves unmatched.  Nodes are the
    source, the factors, the types and the sink, in that order."""
    factors, types = len(arcs), len(quotas)
    sink = 1 + factors + types
    caps = {}
    for j, row in enumerate(arcs):
        caps[(0, 1 + j)] = 1
        for t in row:
            caps[(1 + j, 1 + factors + t)] = 1
    for t, quota in enumerate(quotas):
        if quota > 0:
            caps[(1 + factors + t, sink)] = quota
    flow = max_flow(sink + 1, caps, 0, sink)
    return [
        next((t for t in row if flow[(1 + j, 1 + factors + t)] == 1), -1)
        for j, row in enumerate(arcs)
    ]


def bipartite_edges(n):
    """The edges of K_{n,n} in index order: (i, n + j) at i*n + j."""
    return [(i, n + j) for i in range(n) for j in range(n)]


def bipartite_components(n, pairs):
    """Component count of a set of (left, right) pairs of K_{n,n}."""
    return components_dfs(2 * n, [(a, n + b) for a, b in pairs])


def sqrt_rate_vs(k, x):
    """Compare v = 1/2 - 1/(2*sqrt(k)) with rational x: -1, 0, or 1.

    v < x  iff  1/2 - x < 1/(2*sqrt(k))  iff  4k(1/2-x)^2 < 1 when
    1/2 - x is positive; if 1/2 - x <= 0 then v < 1/2 <= x.  Integer
    arithmetic only.
    """
    a = Fraction(1, 2) - Fraction(x)
    if a <= 0:
        return -1
    lhs = 4 * k * a * a
    if lhs < 1:
        return -1
    if lhs > 1:
        return 1
    return 0


def is_prime(x):
    """Trial division by every d with d * d <= x."""
    return x >= 2 and all(x % d for d in range(2, isqrt(x) + 1))


def prime_power(q):
    """(p, m) with p prime and p**m == q, trying each prime p and each
    power of it up to q; None when q is no prime power."""
    for p in filter(is_prime, range(2, q + 1)):
        power, m = p, 1
        while power < q:
            power, m = power * p, m + 1
        if power == q:
            return p, m
    return None


def z_lower_sqrt(k):
    """1/D for the least integer D with D(D+1) >= k, a closed form that the
    z lower recursion for graphs implies."""
    d = 1
    while d * (d + 1) < k:
        d += 1
    return Fraction(1, d)
