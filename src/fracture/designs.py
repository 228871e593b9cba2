"""Block designs and matching decompositions used by the colorings.

Everything here is constructed explicitly and deterministically at desk
scale, each object one way: finite fields up to order 64 (tables built
from the smallest irreducible polynomial), projective and affine planes
of order q <= 8, Boolean quadruple systems, small inversive planes,
one-factorizations of K_n by the circle method (near-one-factorizations
are the same rounds with the hub deleted), Hamiltonian decompositions of
complete graphs, Baranyai factorizations of complete r-uniform
hypergraphs into perfect matchings by integral flows, and decompositions
of K_10 (stored) and K_11 (cyclic) into copies of the diamond K4 minus
an edge.  Only t disjoint maximum matchings that no factorization can
supply are searched for, one matching at a time.

Invariants:
    - _partition_ranks, over core.edge_ranks, is the one check that groups
      of edges are disjoint (and cover K_n^r): for designs' subsets,
      factors, Hamiltonian cycles, diamonds and colorings by groups,
    - a Design or MatchingDecomposition checks itself when it is built,
      so none is built invalid and no caller checks one again,
    - factorizations and Hamiltonian cycles are built as one read-only
      int64 array (factors, edges, r), checked once, its colex ranks
      kept; tuples of edges are only read back from it, and only tuples
      (as JSON gives them) have the types of their points checked,
    - every Design has each strength-subset in exactly one block,
    - every MatchingDecomposition has edge-disjoint factors of pairwise
      disjoint edges, covering all of C(n, r) when complete,
    - all constructors are deterministic: same input, same output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import TYPE_CHECKING

from .core import (
    FractureError, HypergraphShape, ReadOnly, as_int, check_binomial_size, check_host_edges,
    edge_ranks,
)

if TYPE_CHECKING:
    import numpy as np

DESK_FIELD_CAP = 64
DESK_PLANE_CAP = 8
# a Design enumerates every strength-subset it covers when it is built; the
# largest design built here, boolean_sqs(5), has C(32, 3) = 4,960 of them
DESK_SUBSET_CAP = 10**5


def _partition_ranks(n: int, r: int, groups, cover: bool):
    """Colex ranks on K_n^r of the edges of ``groups`` (or of an int array
    of edges), in order, once no edge is in two groups and, when ``cover``,
    every edge is in one.  An edge is r distinct ints of range(n) in any
    order.  Memory follows the edges given, never C(n, r): with no edge
    twice, the groups cover K_n^r exactly when they hold C(n, r) edges."""
    import numpy as np

    if isinstance(groups, np.ndarray):
        if groups.shape[-1:] != (r,):
            raise FractureError(f"every edge needs {r} vertices")
        vertices = groups.reshape(-1, r)
    else:
        edges = list(chain.from_iterable(groups))
        if not set(map(type, chain.from_iterable(edges))) <= {int}:
            raise FractureError("a point is not an integer")
        if set(map(len, edges)) - {r}:
            raise FractureError(f"every edge needs {r} vertices")
        try:
            vertices = np.fromiter(chain.from_iterable(edges), np.int64, len(edges) * r).reshape(-1, r)
        except OverflowError:  # past int64, so past n too
            raise FractureError(f"vertex out of range for n={n}") from None
    vertices = np.sort(vertices, axis=1)
    if vertices.size and (vertices[:, 0].min() < 0 or vertices[:, -1].max() >= n):
        raise FractureError(f"vertex out of range for n={n}")
    # edge_ranks refuses a repeated point; for r = 1 a point is its own rank
    ranks = vertices[:, 0] if r == 1 else edge_ranks(vertices, HypergraphShape(n, r))
    order = np.argsort(ranks, kind="stable")
    # equal ranks keep their input order: these are second and later copies
    repeats = order[1:][ranks[order[1:]] == ranks[order[:-1]]]
    if len(repeats):
        raise FractureError(f"edge {tuple(vertices[repeats.min()].tolist())} colored twice")
    if cover and len(ranks) != comb(n, r):
        raise FractureError("groups do not cover all edges")
    return ranks


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """(p, m) with q = p**m and p prime, or None."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)  # the least divisor is prime
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return (p, m) if q == 1 else None


@dataclass(frozen=True)
class FiniteField:
    """GF(p**m) with elements 0..q-1 encoded as base-p coefficient vectors.

    Element a encodes the polynomial sum(digit_i(a) * x**i); arithmetic is
    modulo the stored irreducible polynomial.  Tables are tiny (q <= 64).
    """

    p: int
    m: int
    q: int
    modulus: tuple[int, ...]  # monic, coefficients low to high, length m+1
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        # gf builds no table with a zero product, so each row holds a 1
        return self.mul_table[a].index(1)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))


def _product_table(p: int, m: int, add_table, low: int) -> tuple[tuple[int, ...], ...] | None:
    """The multiplication table of Z_p[x]/(f), f = x**m + (low read as a
    polynomial), or None at its first zero product of nonzero elements."""
    q = p**m
    top = q // p  # the place of the coefficient of x**(m-1)
    places = [p**i for i in range(m)]
    rows = [(0,) * q]
    for a in range(1, q):
        row = [0]
        # as polynomials, b = (b - 1) + 1 when b % p, else b = x * (b // p);
        # x**m = -low, so x * (c x**(m-1) + rest) = x * rest - c * low
        for b in range(1, q):
            if b % p:
                prod = add_table[row[b - 1]][a]
            else:
                c, rest = divmod(row[b // p], top)
                prod = add_table[rest * p][sum(-c * (low // s) % p * s for s in places)]
            if prod == 0:
                return None
            row.append(prod)
        rows.append(tuple(row))
    return tuple(rows)


@functools.lru_cache(maxsize=None, typed=True)
def gf(q: int) -> FiniteField:
    """The finite field of order q, for prime powers q <= 64.

    Z_p[x]/(f) is a field exactly when it has no zero divisors, which holds
    exactly when f is irreducible.  So the modulus is the first monic f of
    degree m, in the order of the encoding sum(c_i * p**i) of its lower
    coefficients, whose product table has no zero product of nonzero
    elements; for a prime q that is x, and the tables are arithmetic mod q.
    """
    q = as_int(q, "q")
    if q > DESK_FIELD_CAP:
        raise FractureError(f"field order {q} above desk cap {DESK_FIELD_CAP}")
    pm = prime_power_decompose(q)
    if pm is None:
        raise FractureError(f"{q} is not a prime power")
    p, m = pm
    places = [p**i for i in range(m)]
    add_table = tuple(
        tuple(sum((a // s + b // s) % p * s for s in places) for b in range(q)) for a in range(q)
    )
    for low in range(q):
        mul_table = _product_table(p, m, add_table, low)
        if mul_table is not None:
            modulus = tuple(low // s % p for s in places) + (1,)
            return FiniteField(p, m, q, modulus, add_table, mul_table)
    raise FractureError(f"no irreducible polynomial found for GF({q})")


@dataclass(frozen=True)
class Design:
    """A t-(v, block_size, 1) design: blocks of a fixed size on v points
    such that every strength-subset of points lies in exactly one block.
    Blocks may come as lists, as JSON gives them; they are held as tuples,
    so a design hashes and no later change to the caller's lists reaches it."""

    v: int
    strength: int
    block_size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(map(tuple, self.blocks)))
        for name in ("v", "strength", "block_size"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if not 1 <= self.strength <= self.block_size <= self.v:
            raise FractureError(
                "need 1 <= strength <= block_size <= v, got "
                f"strength={self.strength}, block_size={self.block_size}, v={self.v}"
            )
        check_binomial_size(self.v, self.strength)
        expected = comb(self.v, self.strength)
        if expected > DESK_SUBSET_CAP:
            raise FractureError(
                f"C({self.v},{self.strength})={expected} subsets above desk cap {DESK_SUBSET_CAP}"
            )
        if any(len(block) != self.block_size for block in self.blocks):
            raise FractureError(f"every block needs {self.block_size} points")
        # more subsets than C(v, strength) repeat one, fewer miss one
        covered = len(self.blocks) * comb(self.block_size, self.strength)
        if covered != expected:
            raise FractureError(f"blocks hold {covered} subsets, expected {expected}")
        subsets = [combinations(block, self.strength) for block in self.blocks]
        _partition_ranks(self.v, self.strength, subsets, cover=True)
        for block in self.blocks:
            if list(block) != sorted(set(block)):
                raise FractureError(f"malformed block {block}")

    def to_dict(self) -> dict:
        return {
            "v": self.v,
            "strength": self.strength,
            "block_size": self.block_size,
            "blocks": [list(b) for b in self.blocks],
        }


def _sorted_blocks(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


@functools.lru_cache(maxsize=None, typed=True)
def projective_plane(q: int) -> Design:
    """Points and lines of the projective plane of order q (q <= 8).

    Points are the 1-dimensional subspaces of GF(q)^3, normalized so the
    first nonzero coordinate is 1 and ordered lexicographically; lines are
    the 2-dimensional subspaces.
    """
    q = as_int(q, "q")
    if q > DESK_PLANE_CAP:
        raise FractureError(f"plane order {q} above desk cap {DESK_PLANE_CAP}")
    F = gf(q)
    reps = []
    for x0 in range(q):
        for x1 in range(q):
            for x2 in range(q):
                v = (x0, x1, x2)
                if v == (0, 0, 0):
                    continue
                first = next(c for c in v if c != 0)
                if first == 1:
                    reps.append(v)
    assert len(reps) == q * q + q + 1
    index = {v: i for i, v in enumerate(reps)}
    blocks = []
    for a in reps:  # line coefficients, same normalization
        line = []
        for v, i in index.items():
            s = 0
            for av, vv in zip(a, v):
                s = F.add(s, F.mul(av, vv))
            if s == 0:
                line.append(i)
        blocks.append(tuple(sorted(line)))
    return Design(q * q + q + 1, 2, q + 1, _sorted_blocks(blocks))


@functools.lru_cache(maxsize=None, typed=True)
def affine_plane(q: int) -> Design:
    """Points and lines of the affine plane of order q (q <= 8).

    Point (x, y) gets index x*q + y; lines are y = m*x + b plus verticals.
    """
    q = as_int(q, "q")
    if q > DESK_PLANE_CAP:
        raise FractureError(f"plane order {q} above desk cap {DESK_PLANE_CAP}")
    F = gf(q)
    blocks = []
    for m in range(q):
        for b in range(q):
            blocks.append(tuple(sorted(x * q + F.add(F.mul(m, x), b) for x in range(q))))
    for c in range(q):
        blocks.append(tuple(sorted(c * q + y for y in range(q))))
    return Design(q * q, 2, q, _sorted_blocks(blocks))


@functools.lru_cache(maxsize=None, typed=True)
def boolean_sqs(m: int) -> Design:
    """The quadruple system on 2**m points whose blocks are the 4-sets
    with XOR zero (m >= 2); a 3-(2**m, 4, 1) design."""
    m = as_int(m, "m")
    if not 2 <= m <= 5:
        raise FractureError(f"need 2 <= m <= 5 for the desk cap, got {m}")
    v = 2**m
    blocks = [
        quad
        for quad in combinations(range(v), 4)
        if quad[0] ^ quad[1] ^ quad[2] ^ quad[3] == 0
    ]
    return Design(v, 3, 4, _sorted_blocks(blocks))


@functools.lru_cache(maxsize=None, typed=True)
def inversive_plane(q: int) -> Design:
    """The 3-(q**2 + 1, q + 1, 1) design on the projective line over
    GF(q**2): blocks are the images of the subline GF(q) + infinity under
    all fractional-linear maps.  Desk cap q in {2, 3}."""
    q = as_int(q, "q")
    if q not in (2, 3):
        raise FractureError(f"inversive plane implemented for q in {{2, 3}}, got {q}")
    F = gf(q * q)
    infinity = F.q  # point index q^2 is the point at infinity
    # q is prime, so the subfield GF(q) is the constant polynomials 0..q-1
    base = (*range(q), infinity)

    def moebius(a: int, b: int, c: int, d: int, z: int) -> int:
        if z == infinity:
            if c == 0:
                return infinity
            return F.div(a, c)
        den = F.add(F.mul(c, z), d)
        if den == 0:
            return infinity
        return F.div(F.add(F.mul(a, z), b), den)

    blocks: set[tuple[int, ...]] = set()
    for a in range(F.q):
        for b in range(F.q):
            for c in range(F.q):
                for d in range(F.q):
                    if F.mul(a, d) == F.mul(b, c):
                        continue
                    blocks.add(tuple(sorted(moebius(a, b, c, d, z) for z in base)))
    return Design(q * q + 1, 3, q + 1, _sorted_blocks(blocks))


class MatchingDecomposition(ReadOnly):
    """Edge-disjoint factors of K_n^r, each factor a set of pairwise
    disjoint edges; ``complete`` means they cover every edge.  Factors come
    as tuples or lists of edges (as JSON gives them) or as one int array
    (factors, n // r, r) (as the builders make them), are checked once,
    and are kept as ``edges``, that array as read-only int64, and
    ``ranks``, the colex rank of each edge from that check."""

    _fields = ("n", "r", "factors", "complete")

    def __init__(self, n: int, r: int, factors, complete: bool) -> None:
        import numpy as np

        n, r = as_int(n, "n"), as_int(r, "r")
        if not 1 <= r <= n:
            raise FractureError(f"need 1 <= r <= n, got n={n}, r={r}")
        if type(complete) is not bool:
            raise FractureError(f"complete must be true or false, got {complete!r}")
        check_binomial_size(n, r)
        size = n // r
        for factor in factors:
            if len(factor) != size:
                raise FractureError(f"factor has {len(factor)} edges, not n // r = {size}")
        ranks = _partition_ranks(n, r, factors, complete).reshape(len(factors), size)
        edges = np.array(factors, dtype=np.int64).reshape(len(factors), size, r)
        if (edges[:, :, 1:] < edges[:, :, :-1]).any():
            raise FractureError("an edge does not list its points in increasing order")
        points = np.sort(edges.reshape(len(edges), size * r), axis=1)
        repeated = (points[:, 1:] == points[:, :-1]).any(axis=1)
        if repeated.any():
            bad = edges[repeated.argmax()].tolist()
            raise FractureError(f"factor {tuple(map(tuple, bad))} is not a matching")
        edges.flags.writeable = ranks.flags.writeable = False
        self.__dict__.update(n=n, r=r, complete=complete, edges=edges, ranks=ranks)

    def first(self, t: int) -> MatchingDecomposition:
        """The first t factors, incomplete, on this one's checked arrays."""
        out = object.__new__(MatchingDecomposition)
        out.__dict__.update(n=self.n, r=self.r, complete=False, edges=self.edges[:t], ranks=self.ranks[:t])
        return out

    @functools.cached_property
    def factors(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The factors as tuples of edges, read from ``edges`` on first use."""
        return tuple(tuple(map(tuple, factor)) for factor in self.edges.tolist())

    def to_dict(self) -> dict:
        return {"n": self.n, "r": self.r, "complete": self.complete, "factors": self.edges.tolist()}


def _circle_rounds(n: int):
    """The n - 1 rounds of the circle method on K_n, n even, as an int64
    array (rounds, n // 2, 2).  In round i the hub n - 1 meets i, and each
    other point v of the circle Z_{n-1} meets 2i - v.  Taken at its larger
    point, each pair comes in colex order, the hub's last."""
    import numpy as np

    ring = n - 1
    rounds, points = np.arange(ring)[:, None], np.arange(n)
    partner = np.where(points == ring, rounds, (2 * rounds - points) % ring)
    partner[points == rounds] = ring
    larger = partner < points
    pairs = np.stack([partner[larger], np.broadcast_to(points, partner.shape)[larger]], axis=1)
    return pairs.reshape(ring, n // 2, 2)


def _colex_factors(factors):
    """Matchings of one size as an int64 array (factors, edges, r), each
    factor's edges in colex order: by largest point, distinct in a matching."""
    import numpy as np

    return np.array([sorted(factor, key=lambda e: e[-1]) for factor in factors], dtype=np.int64)


@functools.lru_cache(maxsize=None, typed=True)
def one_factorization(n: int) -> MatchingDecomposition:
    """Perfect matchings partitioning K_n, n even, by the circle method:
    round i pairs the hub n-1 with i and j-rotations around the circle."""
    n = as_int(n, "n")
    if n < 2 or n % 2:
        raise FractureError(f"one-factorization needs even n >= 2, got {n}")
    check_host_edges(HypergraphShape(n, 2))
    return MatchingDecomposition(n, 2, _circle_rounds(n), complete=True)


@functools.lru_cache(maxsize=None, typed=True)
def near_one_factorization(n: int) -> MatchingDecomposition:
    """n maximum matchings partitioning K_n for odd n: the circle rounds of
    K_{n+1} less their last edge in colex order, the hub edge (i, n), so
    matching i misses exactly vertex i."""
    n = as_int(n, "n")
    if n < 3 or n % 2 == 0:
        raise FractureError(f"near-one-factorization needs odd n >= 3, got {n}")
    check_host_edges(HypergraphShape(n + 1, 2))
    return MatchingDecomposition(n, 2, _circle_rounds(n + 1)[:, :-1], complete=True)


@functools.lru_cache(maxsize=None, typed=True)
def hamiltonian_edges(n: int):
    """(n-1)/2 Hamiltonian cycles partitioning K_n for odd n, as a
    read-only int64 array (cycles, n, 2) of (min, max) pairs in cycle
    order, and the colex ranks of its edges, from its one partition check.
    Cycle j walks the zigzag j, j+1, j-1, j+2, j-2, ... through Z_{n-1}
    and closes through the hub n-1."""
    import numpy as np

    n = as_int(n, "n")
    if n < 3 or n % 2 == 0:
        raise FractureError(f"Hamiltonian decomposition needs odd n >= 3, got {n}")
    check_host_edges(HypergraphShape(n, 2))
    ring = n - 1
    # the zigzag offsets 0, +1, -1, +2, -2, ..., +ring/2
    steps = np.arange(ring)
    offsets = np.where(steps % 2, (steps + 1) // 2, -(steps // 2))
    verts = np.full((ring // 2, n + 1), ring, dtype=np.int64)  # hub n - 1 at both ends
    verts[:, 1:-1] = (np.arange(ring // 2)[:, None] + offsets) % ring
    pairs = np.sort(np.stack([verts[:, :-1], verts[:, 1:]], axis=2), axis=2)
    ranks = _partition_ranks(n, 2, pairs, cover=True).reshape(ring // 2, n)
    pairs.flags.writeable = ranks.flags.writeable = False
    return pairs, ranks


@functools.lru_cache(maxsize=None, typed=True)
def hamiltonian_decomposition(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The cycles of hamiltonian_edges(n) as tuples, edges in cycle order."""
    return tuple(tuple(map(tuple, cycle)) for cycle in hamiltonian_edges(n)[0].tolist())


def _stage_match(arcs: list[list[int]], quotas: list[int]) -> list[int]:
    """The type each factor extends at one Baranyai stage, -1 where the
    flow is short: the flow Edmonds-Karp with sorted adjacency finds on
    source -> factor j -> each type in arcs[j] (sorted) -> sink, capacity
    1 per factor and quotas[t] per type, nodes numbered in that order.  A
    greedy pass takes its length-3 paths (see _baranyai_flow); each longer
    one comes from a level search from all free factors that visits
    neighbours in id order, keeps each node's first discoverer and ends
    at the first type in level order with quota left."""
    left = list(quotas)
    choice = [-1] * len(arcs)
    for j, types in enumerate(arcs):
        for t in types:
            if left[t]:
                left[t] -= 1
                choice[j] = t
                break
    free = [j for j, t in enumerate(choice) if t < 0]
    while free:
        # a type reaches the factors it holds through their reverse arcs
        holders: list[list[int]] = [[] for _ in quotas]
        for j, t in enumerate(choice):
            if t >= 0:
                holders[t].append(j)
        finder = [-1] * len(quotas)
        level, end = free, -1
        while level and end < 0:
            reached = []
            for j in level:
                for t in arcs[j]:
                    if finder[t] < 0:
                        finder[t] = j
                        if left[t]:
                            end = t
                            break
                        reached.append(t)
                if end >= 0:
                    break
            level = [j for t in reached for j in holders[t]]
        if end < 0:
            break
        left[end] -= 1
        t = end
        while t >= 0:
            j = finder[t]
            choice[j], t = t, choice[j]
        free.remove(j)
    return choice


def _baranyai_flow(n: int, r: int):
    """Vertex-by-vertex factorization of K_n^r into perfect matchings.

    Each factor holds a multiset of partial edges (traces on the vertices
    placed so far).  Adding vertex i means choosing, per factor, exactly
    one trace to extend; the global quota for extending copies of trace A
    is C(n-i-1, r-|A|-1).  A fractional solution always exists, so an
    integral one is recovered from a max flow at every stage, by
    _stage_match.

    The greedy pass of _stage_match, giving each factor in turn the first
    type in its list with quota left, is the run of length-3 paths that
    Edmonds-Karp takes first.  Its breadth-first search takes such a path
    while one exists and discovers types free factor by free factor, each
    factor's in id order; the sink's parent is the first type discovered
    with quota left.  Quotas only fall, so a factor seen without one keeps
    none: that type is the first with quota of the first free factor that
    has any, which is the factor the greedy pass is at.
    """
    num_factors = comb(n - 1, r - 1)
    factors: list[dict[tuple[int, ...], int]] = [
        {(): n // r} for _ in range(num_factors)
    ]
    for i in range(n):
        types = sorted({t for fac in factors for t in fac if len(t) < r})
        type_index = {t: idx for idx, t in enumerate(types)}
        arcs = [sorted(type_index[t] for t in fac if len(t) < r) for fac in factors]
        quotas = [comb(n - i - 1, r - len(t) - 1) for t in types]
        choice = _stage_match(arcs, quotas)
        pushed = num_factors - choice.count(-1)
        if pushed != num_factors:
            raise FractureError(
                f"stage {i}: integral flow {pushed} < {num_factors}"
            )
        for fac, t in zip(factors, choice):
            chosen = types[t]
            fac[chosen] -= 1
            if fac[chosen] == 0:
                del fac[chosen]
            grown = chosen + (i,)
            fac[grown] = fac.get(grown, 0) + 1
    # each factor's n / r traces, never longer than r, take one vertex per
    # stage, so all end full and disjoint: n / r keys, none of them twice
    return _colex_factors(factors)


@functools.lru_cache(maxsize=None, typed=True)
def baranyai(n: int, r: int) -> MatchingDecomposition:
    """Partition of all of K_n^r into C(n-1, r-1) perfect matchings, r | n,
    by Baranyai's stage-by-stage integral-flow construction (Baranyai, "On
    the factorization of the complete uniform hypergraph", 1975).
    """
    HypergraphShape(n, r)  # refuses r < 2 and n < r before n % r divides by r
    if n % r:
        raise FractureError(f"factorization needs r | n, got n={n}, r={r}")
    if comb(n, r) > 3000:
        raise FractureError(f"C({n},{r}) above desk cap 3000")
    return MatchingDecomposition(n, r, _baranyai_flow(n, r), complete=True)


def disjoint_max_matchings(n: int, r: int, t: int) -> MatchingDecomposition:
    """t pairwise edge-disjoint maximum matchings (floor(n/r) edges each).

    t of them need t * floor(n/r) of the C(n, r) edges, so a larger t is
    refused at once.  That limit is n - 1 (n even) or n (n odd) for r = 2
    and C(n-1, r-1) for r | n, where the matchings are sliced from a
    (near-)one-factorization or the complete factorization; otherwise a
    greedy construction is attempted and failure reported honestly.
    """
    n, r, t = as_int(n, "n"), as_int(r, "r"), as_int(t, "t")
    if t < 0:
        raise FractureError(f"need t >= 0, got {t}")
    if t == 0:
        return MatchingDecomposition(n, r, (), complete=False)
    if t > HypergraphShape(n, r).edge_count // (n // r):
        raise FractureError(f"could not build {t} disjoint maximum matchings in K_{n}^{r}")
    if r == 2:
        return (one_factorization(n) if n % 2 == 0 else near_one_factorization(n)).first(t)
    if n % r == 0:
        return baranyai(n, r).first(t)
    return MatchingDecomposition(n, r, _disjoint_matchings_backtrack(n, r, t), complete=False)


def _disjoint_matchings_backtrack(n: int, r: int, t: int):
    """t matchings, each the first that a backtracking search finds among
    the edges the earlier ones left, as _colex_factors gives them; refused
    at the first that is not found.  The edges are its own colex tuples:
    edge_array caches one shape, and a blow-up part read through it would
    evict the host's table that the blow-up's self-check reads next."""
    size = n // r
    edges = sorted(combinations(range(n), r), key=lambda e: e[::-1])
    used: set[tuple[int, ...]] = set()

    def build_matching(chosen: list, free: set[int], avail: list):
        if len(chosen) == size:
            return list(chosen)
        v = min(free)
        for e in avail:
            if v in e and all(u in free for u in e):
                chosen.append(e)
                res = build_matching(chosen, free - set(e), avail)
                if res is not None:
                    return res
                chosen.pop()
        # v may stay unmatched only if enough slack remains
        if len(free) - 1 >= (size - len(chosen)) * r:
            res = build_matching(chosen, free - {v}, avail)
            if res is not None:
                return res
        return None

    factors = []
    for _ in range(t):
        matching = build_matching([], set(range(n)), [e for e in edges if e not in used])
        if matching is None:
            raise FractureError(f"could not build {t} disjoint maximum matchings in K_{n}^{r}")
        used.update(matching)
        factors.append(matching)
    return _colex_factors(factors)


# Base block of the cyclic n = 11 decomposition: K_4 on {0, 1, 2, 5} minus
# the edge {0, 1}.  Its edges have differences +-2, +-5, +-1, +-4, +-3.
DIAMOND_BASE_11 = ((0, 2), (0, 5), (1, 2), (1, 5), (2, 5))

# The nine copies of the n = 10 decomposition, each pair (min, max) and
# each copy's pairs in colex order.
DIAMONDS_10 = (
    ((0, 1), (1, 2), (0, 3), (1, 3), (2, 3)),
    ((0, 2), (2, 4), (0, 5), (2, 5), (4, 5)),
    ((0, 4), (0, 6), (4, 6), (0, 7), (4, 7)),
    ((1, 4), (1, 5), (1, 8), (4, 8), (5, 8)),
    ((3, 4), (3, 5), (3, 9), (4, 9), (5, 9)),
    ((0, 8), (2, 8), (0, 9), (2, 9), (8, 9)),
    ((3, 6), (3, 7), (3, 8), (6, 8), (7, 8)),
    ((1, 6), (1, 7), (1, 9), (6, 9), (7, 9)),
    ((2, 6), (5, 6), (2, 7), (5, 7), (6, 7)),
)


@functools.lru_cache(maxsize=None, typed=True)
def k4minus_decomposition(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Partition of E(K_n) into copies of the diamond (K_4 minus an edge);
    9 copies for n = 10, 11 copies for n = 11.

    Such partitions exist exactly when n = 0 or 1 (mod 5) (Bermond and
    Schonheim, 1977); n = 10 and 11 are the sizes the colorings use.

    n = 11 is built cyclically: the 11 translates v -> v + t (mod 11) of
    DIAMOND_BASE_11.  Its five edges hit each of the five difference
    classes {+-1}, ..., {+-5} mod 11 exactly once, and each class holds 11
    edges of K_11, so the translates cover all 55 edges once.

    n = 10 is the stored DIAMONDS_10, because no single base block works
    there: a group of order 9 acting on 10 points fixes a point, and one
    orbit of 9 copies would give each copy exactly one of that point's 9
    edges, while every vertex of a diamond has degree >= 2.

    Both are checked by check_diamonds.
    """
    n = as_int(n, "n")
    if n not in (10, 11):
        raise FractureError(f"diamond decomposition implemented for n in 10..11, got {n}")
    if n == 11:
        copies = []
        for t in range(n):
            shifted = (tuple(sorted(((a + t) % n, (b + t) % n))) for a, b in DIAMOND_BASE_11)
            copies.append(tuple(sorted(shifted, key=lambda e: e[::-1])))  # colex
    else:
        copies = DIAMONDS_10
    check_diamonds(n, copies)
    return tuple(copies)


def check_diamonds(n: int, groups) -> None:
    """Refuse groups that do not partition K_n into diamonds, each group
    five edges (a, b), a < b, on exactly four vertices: K_4 minus an edge."""
    _partition_ranks(as_int(n, "n"), 2, groups, cover=True)
    for group in groups:
        vertices = set(chain.from_iterable(group))
        if len(group) != 5 or len(vertices) != 4 or any(a > b for a, b in group):
            raise FractureError(f"group {group} is not a diamond")


def decomposition_to_coloring_edges(n: int, r: int, groups) -> np.ndarray:
    """Color assignment (colex order) giving group i color i, as an int64
    array; groups must partition all edges, each edge's vertices in any
    order."""
    import numpy as np

    groups = [list(group) for group in groups]
    colors = np.repeat(np.arange(len(groups), dtype=np.int64), [len(group) for group in groups])
    return colors[np.argsort(_partition_ranks(n, r, groups, cover=True))]
