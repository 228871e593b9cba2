"""Designs, factorizations, and decompositions checked from the definitions.

Coverage counts are recomputed with the independent subset_coverage oracle
rather than trusting the validate() methods under test.
"""

import math

import pytest

import oracles
from fracture import (
    FractureError,
    affine_plane,
    baranyai,
    boolean_sqs,
    disjoint_max_matchings,
    gf,
    hamiltonian_decomposition,
    inversive_plane,
    k4minus_decomposition,
    near_one_factorization,
    one_factorization,
    projective_plane,
)
from fracture.designs import is_prime, prime_power_decompose


class TestFiniteField:
    def test_prime_helpers(self):
        assert [x for x in range(2, 20) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert prime_power_decompose(8) == (2, 3)
        assert prime_power_decompose(9) == (3, 2)
        assert prime_power_decompose(12) is None
        assert prime_power_decompose(1) is None

    @pytest.mark.parametrize("q", [4, 8, 9] + [p for p in range(2, 64) if is_prime(p)])
    def test_field_axioms(self, q):
        field = gf(q)
        assert field.q == q
        elems = range(q)
        if is_prime(q):
            # the general construction picks the modulus x: arithmetic mod q
            assert field.modulus == (0, 1)
            for a in elems:
                for b in elems:
                    assert field.mul_table[a][b] == a * b % q
                    assert field.add_table[a][b] == (a + b) % q
        for a in elems:
            assert field.add(a, 0) == a
            assert field.mul(a, 1) == a
            assert field.mul(a, 0) == 0
            assert field.add(a, field.neg(a)) == 0
            if a != 0:
                assert field.mul(a, field.inv(a)) == 1
        for a in elems:
            for b in elems:
                assert field.add(a, b) == field.add(b, a)
                assert field.mul(a, b) == field.mul(b, a)
                for c in elems:
                    assert field.mul(a, field.add(b, c)) == field.add(
                        field.mul(a, b), field.mul(a, c)
                    )

    def test_non_prime_power_rejected(self):
        with pytest.raises(FractureError):
            gf(6)


class TestDesigns:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_projective_plane(self, q):
        d = projective_plane(q)
        v = q * q + q + 1
        assert d.v == v
        assert d.block_size == q + 1
        assert len(d.blocks) == v
        cover = oracles.subset_coverage(d.blocks, 2)
        assert len(cover) == math.comb(v, 2)
        assert set(cover.values()) == {1}

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_affine_plane(self, q):
        d = affine_plane(q)
        assert d.v == q * q
        assert d.block_size == q
        assert len(d.blocks) == q * (q + 1)
        cover = oracles.subset_coverage(d.blocks, 2)
        assert len(cover) == math.comb(q * q, 2)
        assert set(cover.values()) == {1}

    def test_boolean_sqs(self):
        d = boolean_sqs(3)
        assert d.v == 8
        assert d.block_size == 4
        assert len(d.blocks) == 14
        cover = oracles.subset_coverage(d.blocks, 3)
        assert len(cover) == math.comb(8, 3)
        assert set(cover.values()) == {1}
        # blocks are exactly the quadruples with zero xor
        for block in d.blocks:
            x = 0
            for point in block:
                x ^= point
            assert x == 0

    @pytest.mark.parametrize("q", [2, 3])
    def test_inversive_plane(self, q):
        d = inversive_plane(q)
        assert d.v == q * q + 1
        assert d.block_size == q + 1
        assert len(d.blocks) == q * (q * q + 1)
        cover = oracles.subset_coverage(d.blocks, 3)
        assert len(cover) == math.comb(d.v, 3)
        assert set(cover.values()) == {1}


class TestFactorizations:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_one_factorization(self, n):
        dec = one_factorization(n)
        assert len(dec.factors) == n - 1
        seen = set()
        for factor in dec.factors:
            assert len(factor) == n // 2
            assert oracles.is_matching(factor)
            seen.update(factor)
        assert len(seen) == math.comb(n, 2)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_near_one_factorization(self, n):
        dec = near_one_factorization(n)
        assert len(dec.factors) == n
        seen = set()
        for factor in dec.factors:
            assert len(factor) == (n - 1) // 2
            assert oracles.is_matching(factor)
            seen.update(factor)
        assert len(seen) == math.comb(n, 2)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_hamiltonian_decomposition(self, n):
        cycles = hamiltonian_decomposition(n)
        assert len(cycles) == (n - 1) // 2
        seen = set()
        for cycle in cycles:
            assert len(cycle) == n
            degree = {}
            for a, b in cycle:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            assert set(degree.values()) == {2}
            assert len(degree) == n
            # connected 2-regular on all n vertices = hamiltonian cycle
            assert oracles.components_dfs(n, cycle) == 1
            seen.update(tuple(sorted(e)) for e in cycle)
        assert len(seen) == math.comb(n, 2)

    @pytest.mark.parametrize("n,r", [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3)])
    def test_baranyai(self, n, r):
        dec = baranyai(n, r)
        per_factor = n // r
        assert len(dec.factors) == math.comb(n, r) // per_factor
        seen = set()
        for factor in dec.factors:
            assert len(factor) == per_factor
            covered = set()
            for e in factor:
                covered.update(e)
            assert len(covered) == n  # perfect matching
            seen.update(factor)
        assert len(seen) == math.comb(n, r)

    def test_baranyai_needs_divisibility(self):
        with pytest.raises(FractureError):
            baranyai(7, 3)

    # r does not divide n in (10, 3, 6) and (11, 4, 7), so no factorization
    # supplies them and the backtracking construction runs
    @pytest.mark.parametrize(
        "n,r,t",
        [(5, 2, 2), (6, 2, 3), (7, 2, 3), (6, 3, 2), (9, 3, 4), (5, 2, 0), (10, 3, 6), (11, 4, 7)],
    )
    def test_disjoint_max_matchings(self, n, r, t):
        dec = disjoint_max_matchings(n, r, t)
        assert len(dec.factors) == t
        seen = set()
        for factor in dec.factors:
            assert len(factor) == n // r
            assert oracles.is_matching(factor)
            for e in factor:
                assert e not in seen
                seen.add(e)

    @pytest.mark.parametrize("n", [10, 11])
    def test_k4minus_decomposition(self, n):
        groups = k4minus_decomposition(n)
        assert len(groups) == math.comb(n, 2) // 5
        seen = set()
        for group in groups:
            assert len(group) == 5
            vertices = sorted({v for e in group for v in e})
            assert len(vertices) == 4
            degree = {v: 0 for v in vertices}
            for a, b in group:
                degree[a] += 1
                degree[b] += 1
            # four vertices, five edges: K4 minus one edge
            assert sorted(degree.values()) == [2, 2, 3, 3]
            seen.update(group)
        assert len(seen) == math.comb(n, 2)

    def test_k4minus_11_is_cyclic(self):
        # the n = 11 partition is the orbit of one base diamond under
        # v -> v + 1 (mod 11), not a search result
        n = 11
        groups = {frozenset(g) for g in k4minus_decomposition(n)}
        shifted = {
            frozenset(tuple(sorted(((a + 1) % n, (b + 1) % n))) for a, b in g)
            for g in groups
        }
        assert shifted == groups

    def test_k4minus_infeasible_size(self):
        # C(7,2)=21 is not divisible by 5
        with pytest.raises(FractureError):
            k4minus_decomposition(7)
