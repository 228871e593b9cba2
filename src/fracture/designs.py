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
supply are searched for, by backtracking.

Invariants:
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

from .core import (
    FractureError, HypergraphShape, check_binomial_size, check_host_edges, edge_array, edge_ranks,
)

DESK_FIELD_CAP = 64
DESK_PLANE_CAP = 8
# Design.validate enumerates every strength-subset it covers; the largest
# design built here, boolean_sqs(5), has C(32, 3) = 4,960 of them
DESK_SUBSET_CAP = 10**5


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """(p, m) with q = p**m and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if not is_prime(p):
            continue
        m = 0
        x = q
        while x % p == 0:
            x //= p
            m += 1
        if x == 1:
            return p, m
    return None


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

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg(b)]

    def neg(self, a: int) -> int:
        digits = _to_digits(a, self.p, self.m)
        return _from_digits([(-d) % self.p for d in digits], self.p)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        for b in range(1, self.q):
            if self.mul_table[a][b] == 1:
                return b
        raise FractureError("field table corrupt: no inverse found")

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out


def _to_digits(a: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(a % p)
        a //= p
    return out


def _from_digits(digits: list[int], p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _poly_mul_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod is monic
    a = a[:]
    dm = len(mod) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    while len(a) < dm:
        a.append(0)
    return a


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            div = _to_digits(enc, p, d) + [1]
            rem = _poly_mod(poly[:], div, p)
            if all(c == 0 for c in rem):
                return False
    return True


@functools.lru_cache(maxsize=None)
def gf(q: int) -> FiniteField:
    """The finite field of order q, for prime powers q <= 64.

    The modulus is the irreducible monic polynomial of degree m whose
    coefficient encoding sum(c_i * p**i) is smallest; for a prime q that
    is x, and the tables are arithmetic mod q.
    """
    if q > DESK_FIELD_CAP:
        raise FractureError(f"field order {q} above desk cap {DESK_FIELD_CAP}")
    pm = prime_power_decompose(q)
    if pm is None:
        raise FractureError(f"{q} is not a prime power")
    p, m = pm
    modulus = None
    for enc in range(p**m):
        cand = _to_digits(enc, p, m) + [1]
        if _is_irreducible(cand, p):
            modulus = cand
            break
    if modulus is None:
        raise FractureError(f"no irreducible polynomial found for GF({q})")
    add_rows = []
    mul_rows = []
    for a in range(q):
        da = _to_digits(a, p, m)
        add_rows.append(
            tuple(
                _from_digits(
                    [(x + y) % p for x, y in zip(da, _to_digits(b, p, m))], p
                )
                for b in range(q)
            )
        )
        row = []
        for b in range(q):
            prod = _poly_mul_mod_p(da, _to_digits(b, p, m), p)
            row.append(_from_digits(_poly_mod(prod, modulus, p), p))
        mul_rows.append(tuple(row))
    return FiniteField(p, m, q, tuple(modulus), tuple(add_rows), tuple(mul_rows))


@dataclass(frozen=True)
class Design:
    """A t-(v, block_size, 1) design: blocks of a fixed size on v points
    such that every strength-subset of points lies in exactly one block."""

    v: int
    strength: int
    block_size: int
    blocks: tuple[tuple[int, ...], ...]

    def validate(self) -> None:
        for name in ("v", "strength", "block_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise FractureError(f"{name} must be an integer, got {value!r}")
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
        seen: set[tuple[int, ...]] = set()
        for block in self.blocks:
            if len(block) != self.block_size or list(block) != sorted(set(block)):
                raise FractureError(f"malformed block {block}")
            if not all(0 <= x < self.v for x in block):
                raise FractureError(f"block {block} out of range")
            for sub in combinations(block, self.strength):
                if sub in seen:
                    raise FractureError(f"subset {sub} covered twice")
                seen.add(sub)
        if len(seen) != expected:
            raise FractureError(f"covered {len(seen)} subsets, expected {expected}")

    def to_dict(self) -> dict:
        return {
            "v": self.v,
            "strength": self.strength,
            "block_size": self.block_size,
            "blocks": [list(b) for b in self.blocks],
        }


def _sorted_blocks(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


@functools.lru_cache(maxsize=None)
def projective_plane(q: int) -> Design:
    """Points and lines of the projective plane of order q (q <= 8).

    Points are the 1-dimensional subspaces of GF(q)^3, normalized so the
    first nonzero coordinate is 1 and ordered lexicographically; lines are
    the 2-dimensional subspaces.
    """
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
    design = Design(q * q + q + 1, 2, q + 1, _sorted_blocks(blocks))
    design.validate()
    return design


@functools.lru_cache(maxsize=None)
def affine_plane(q: int) -> Design:
    """Points and lines of the affine plane of order q (q <= 8).

    Point (x, y) gets index x*q + y; lines are y = m*x + b plus verticals.
    """
    if q > DESK_PLANE_CAP:
        raise FractureError(f"plane order {q} above desk cap {DESK_PLANE_CAP}")
    F = gf(q)
    blocks = []
    for m in range(q):
        for b in range(q):
            blocks.append(tuple(sorted(x * q + F.add(F.mul(m, x), b) for x in range(q))))
    for c in range(q):
        blocks.append(tuple(sorted(c * q + y for y in range(q))))
    design = Design(q * q, 2, q, _sorted_blocks(blocks))
    design.validate()
    return design


@functools.lru_cache(maxsize=None)
def boolean_sqs(m: int) -> Design:
    """The quadruple system on 2**m points whose blocks are the 4-sets
    with XOR zero (m >= 2); a 3-(2**m, 4, 1) design."""
    if not 2 <= m <= 5:
        raise FractureError(f"need 2 <= m <= 5 for the desk cap, got {m}")
    v = 2**m
    blocks = [
        quad
        for quad in combinations(range(v), 4)
        if quad[0] ^ quad[1] ^ quad[2] ^ quad[3] == 0
    ]
    design = Design(v, 3, 4, _sorted_blocks(blocks))
    design.validate()
    return design


@functools.lru_cache(maxsize=None)
def inversive_plane(q: int) -> Design:
    """The 3-(q**2 + 1, q + 1, 1) design on the projective line over
    GF(q**2): blocks are the images of the subline GF(q) + infinity under
    all fractional-linear maps.  Desk cap q in {2, 3}."""
    if q not in (2, 3):
        raise FractureError(f"inversive plane implemented for q in {{2, 3}}, got {q}")
    F = gf(q * q)
    infinity = F.q  # point index q^2 is the point at infinity
    subfield = [x for x in range(F.q) if F.pow(x, q) == x]
    base = tuple(sorted(subfield + [infinity]))

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
                    if F.sub(F.mul(a, d), F.mul(b, c)) == 0:
                        continue
                    blocks.add(tuple(sorted(moebius(a, b, c, d, z) for z in base)))
    design = Design(q * q + 1, 3, q + 1, _sorted_blocks(blocks))
    design.validate()
    return design


@dataclass(frozen=True)
class MatchingDecomposition:
    """Edge-disjoint factors of K_n^r, each factor a set of pairwise
    disjoint edges.  ``complete`` means the factors cover every edge."""

    n: int
    r: int
    factors: tuple[tuple[tuple[int, ...], ...], ...]
    complete: bool

    def validate(self) -> None:
        for name, value in (("n", self.n), ("r", self.r)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise FractureError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.r <= self.n:
            raise FractureError(f"need 1 <= r <= n, got n={self.n}, r={self.r}")
        check_binomial_size(self.n, self.r)
        seen: set[tuple[int, ...]] = set()
        for factor in self.factors:
            if len(factor) != self.n // self.r:
                raise FractureError(
                    f"factor has {len(factor)} edges, a maximum matching has {self.n // self.r}"
                )
            used: set[int] = set()
            for e in factor:
                if len(e) != self.r or list(e) != sorted(set(e)):
                    raise FractureError(f"malformed edge {e}")
                if not all(0 <= v < self.n for v in e):
                    raise FractureError(f"edge {e} out of range")
                if e in seen:
                    raise FractureError(f"edge {e} in two factors")
                seen.add(e)
                if used.intersection(e):
                    raise FractureError(f"factor not a matching at {e}")
                used.update(e)
        if self.complete and len(seen) != comb(self.n, self.r):
            raise FractureError(
                f"covered {len(seen)} edges, expected {comb(self.n, self.r)}"
            )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "complete": self.complete,
            "factors": [[list(e) for e in f] for f in self.factors],
        }


def _colex_key(e: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key putting sorted edges of equal size in colex order."""
    return tuple(reversed(e))


def _normalize_factor(edges) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(e)) for e in edges), key=_colex_key))


@functools.lru_cache(maxsize=None)
def one_factorization(n: int) -> MatchingDecomposition:
    """Perfect matchings partitioning K_n, n even, by the circle method:
    round i pairs the hub n-1 with i and j-rotations around the circle."""
    if n < 2 or n % 2:
        raise FractureError(f"one-factorization needs even n >= 2, got {n}")
    check_host_edges(HypergraphShape(n, 2))
    factors = []
    for i in range(n - 1):
        edges = [(n - 1, i)]
        for j in range(1, n // 2):
            edges.append(((i + j) % (n - 1), (i - j) % (n - 1)))
        factors.append(_normalize_factor(edges))
    dec = MatchingDecomposition(n, 2, tuple(factors), complete=True)
    dec.validate()
    return dec


@functools.lru_cache(maxsize=None)
def near_one_factorization(n: int) -> MatchingDecomposition:
    """n maximum matchings partitioning K_n for odd n; matching i misses
    exactly vertex i.

    It is one_factorization(n + 1) with the hub n deleted: round i's hub
    edge (i, n) is the last edge of its factor in colex order, and
    dropping it leaves vertex i unmatched.
    """
    if n < 3 or n % 2 == 0:
        raise FractureError(f"near-one-factorization needs odd n >= 3, got {n}")
    factors = tuple(factor[:-1] for factor in one_factorization(n + 1).factors)
    dec = MatchingDecomposition(n, 2, factors, complete=True)
    dec.validate()
    return dec


@functools.lru_cache(maxsize=None)
def hamiltonian_decomposition(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(n-1)/2 Hamiltonian cycles partitioning K_n for odd n.

    Cycle j walks the zigzag j, j+1, j-1, j+2, j-2, ... through Z_{n-1}
    and closes through the hub n-1.  Edges are returned in cycle order.
    """
    if n < 3 or n % 2 == 0:
        raise FractureError(f"Hamiltonian decomposition needs odd n >= 3, got {n}")
    check_host_edges(HypergraphShape(n, 2))
    hub = n - 1
    ring = n - 1
    cycles = []
    for j in range((n - 1) // 2):
        path = [j]
        for i in range(1, ring):
            step = (i + 1) // 2 if i % 2 else i // 2
            if i % 2:
                path.append((j + step) % ring)
            else:
                path.append((j - step) % ring)
        verts = [hub] + path + [hub]
        cycles.append(
            tuple(
                (min(a, b), max(a, b)) for a, b in zip(verts, verts[1:])
            )
        )
    # partition check
    seen: set[tuple[int, int]] = set()
    for cyc in cycles:
        for e in cyc:
            if e in seen:
                raise FractureError(f"cycle construction repeated edge {e}")
            seen.add(e)
    if len(seen) != comb(n, 2):
        raise FractureError("cycle construction did not cover K_n")
    return tuple(cycles)


def _max_flow(num_nodes: int, caps: dict[tuple[int, int], int], source: int, sink: int) -> dict[tuple[int, int], int]:
    """Edmonds-Karp with deterministic sorted adjacency; returns flows."""
    adj: dict[int, list[int]] = {u: [] for u in range(num_nodes)}
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


def _baranyai_flow(n: int, r: int) -> list[tuple[tuple[int, ...], ...]]:
    """Vertex-by-vertex factorization of K_n^r into perfect matchings.

    Each factor holds a multiset of partial edges (traces on the vertices
    placed so far).  Adding vertex i means choosing, per factor, exactly
    one trace to extend; the global quota for extending copies of trace A
    is C(n-i-1, r-|A|-1).  A fractional solution always exists, so an
    integral one is recovered from a max flow at every stage.
    """
    num_factors = comb(n - 1, r - 1)
    factors: list[dict[tuple[int, ...], int]] = [
        {(): n // r} for _ in range(num_factors)
    ]
    for i in range(n):
        types = sorted({t for fac in factors for t in fac if len(t) < r})
        type_index = {t: idx for idx, t in enumerate(types)}
        source = 0
        fac_base = 1
        type_base = 1 + num_factors
        sink = type_base + len(types)
        caps: dict[tuple[int, int], int] = {}
        for j, fac in enumerate(factors):
            caps[(source, fac_base + j)] = 1
            for t in fac:
                if len(t) < r and fac[t] > 0:
                    caps[(fac_base + j, type_base + type_index[t])] = 1
        for t in types:
            quota = comb(n - i - 1, r - len(t) - 1)
            if quota > 0:
                caps[(type_base + type_index[t], sink)] = quota
        flow = _max_flow(sink + 1, caps, source, sink)
        pushed = sum(flow[(source, fac_base + j)] for j in range(num_factors))
        if pushed != num_factors:
            raise FractureError(
                f"stage {i}: integral flow {pushed} < {num_factors}"
            )
        for j, fac in enumerate(factors):
            chosen = None
            for t in fac:
                if len(t) < r and flow.get((fac_base + j, type_base + type_index[t]), 0) == 1:
                    chosen = t
                    break
            if chosen is None:
                raise FractureError(f"stage {i}: factor {j} extended no trace")
            fac[chosen] -= 1
            if fac[chosen] == 0:
                del fac[chosen]
            grown = tuple(sorted(chosen + (i,)))
            fac[grown] = fac.get(grown, 0) + 1
    out = []
    for fac in factors:
        edges = []
        for t, mult in fac.items():
            if len(t) != r or mult != 1:
                raise FractureError("factorization left a partial trace")
            edges.append(t)
        out.append(_normalize_factor(edges))
    return out


@functools.lru_cache(maxsize=None)
def baranyai(n: int, r: int) -> MatchingDecomposition:
    """Partition of all of K_n^r into C(n-1, r-1) perfect matchings, r | n,
    by Baranyai's stage-by-stage integral-flow construction (Baranyai, "On
    the factorization of the complete uniform hypergraph", 1975).
    """
    if r < 2 or n < r:
        raise FractureError(f"invalid ({n}, {r})")
    if n % r:
        raise FractureError(f"factorization needs r | n, got n={n}, r={r}")
    check_binomial_size(n, r)
    if comb(n, r) > 3000:
        raise FractureError(f"C({n},{r}) above desk cap 3000")
    dec = MatchingDecomposition(n, r, tuple(_baranyai_flow(n, r)), complete=True)
    dec.validate()
    if len(dec.factors) != comb(n - 1, r - 1):
        raise FractureError("wrong factor count")
    return dec


def disjoint_max_matchings(n: int, r: int, t: int) -> MatchingDecomposition:
    """t pairwise edge-disjoint maximum matchings (floor(n/r) edges each).

    For graphs this is sliced from a (near-)one-factorization and exists
    whenever n >= t + 1.  For r >= 3 with r | n it is sliced from the
    complete factorization; otherwise a greedy backtracking construction
    is attempted and failure reported honestly.
    """
    if t < 0:
        raise FractureError(f"need t >= 0, got {t}")
    if t == 0:
        return MatchingDecomposition(n, r, (), complete=False)
    if r == 2:
        # n >= t + 1 always suffices; odd n = t also works (n maximum matchings)
        limit = n - 1 if n % 2 == 0 else n
        if t > limit:
            raise FractureError(
                f"K_{n} has at most {limit} disjoint maximum matchings, asked for {t}"
            )
        base = one_factorization(n) if n % 2 == 0 else near_one_factorization(n)
        factors = base.factors[:t]
    elif n % r == 0 and t <= comb(n - 1, r - 1):
        factors = baranyai(n, r).factors[:t]
    else:
        factors = _disjoint_matchings_backtrack(n, r, t)
        if factors is None:
            raise FractureError(
                f"could not build {t} disjoint maximum matchings in K_{n}^{r}"
            )
    dec = MatchingDecomposition(n, r, tuple(factors), complete=False)
    dec.validate()
    return dec


def _disjoint_matchings_backtrack(n: int, r: int, t: int):
    size = n // r
    edges = list(map(tuple, edge_array(n, r).tolist()))

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

    def solve(count: int):
        if count == t:
            return []
        avail = [e for e in edges if e not in used]
        matching = build_matching([], set(range(n)), avail)
        if matching is None:
            return None
        used.update(matching)
        rest = solve(count + 1)
        if rest is not None:
            return [_normalize_factor(matching)] + rest
        used.difference_update(matching)
        return None

    return solve(0)


DIAMOND_COUNTS = {10: 9, 11: 11}

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


@functools.lru_cache(maxsize=None)
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

    Both are checked for the copy count and that the copies cover every
    edge exactly once.
    """
    if n not in DIAMOND_COUNTS:
        raise FractureError(f"diamond decomposition implemented for n in 10..11, got {n}")
    if n == 11:
        copies = []
        for t in range(n):
            shifted = (tuple(sorted(((a + t) % n, (b + t) % n))) for a, b in DIAMOND_BASE_11)
            copies.append(tuple(sorted(shifted, key=_colex_key)))
    else:
        copies = DIAMONDS_10
    if len(copies) != DIAMOND_COUNTS[n]:
        raise FractureError("unexpected copy count")
    if len({e for copy in copies for e in copy}) != comb(n, 2):
        raise FractureError(f"diamond copies do not partition K_{n}")
    return tuple(copies)


def decomposition_to_coloring_edges(n: int, r: int, groups) -> list[int]:
    """Color assignment (colex order) giving group i color i; groups must
    partition all edges."""
    import numpy as np

    shape = HypergraphShape(n, r)
    groups = [list(group) for group in groups]
    edges = [e for group in groups for e in group]
    if any(len(e) != r for e in edges):
        raise FractureError(f"every edge needs {r} vertices")
    colors = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    vertices = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=len(edges) * r)
    vertices = vertices.reshape(len(edges), r)
    vertices.sort(axis=1)
    ranks = edge_ranks(vertices, shape)
    assignment = np.full(shape.edge_count, -1, dtype=np.int64)
    assignment[ranks] = colors
    colored = int(np.count_nonzero(assignment >= 0))
    if colored < len(edges):
        seen: set[int] = set()
        for e, rank in zip(edges, ranks.tolist()):
            if rank in seen:
                raise FractureError(f"edge {e} colored twice")
            seen.add(rank)
    if colored < shape.edge_count:
        raise FractureError("groups do not cover all edges")
    return assignment.tolist()
