"""Designs, factorizations, and decompositions checked from the definitions.

Coverage counts are recomputed with the independent subset_coverage oracle
rather than trusting the validate() methods under test.
"""

import hashlib
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fracture import designs
from fracture.designs import _partition_ranks, _stage_match, is_prime, prime_power_decompose

# sha256 (first 16 hex digits) of json.dumps(baranyai(n, r).factors) for
# every r | n, 2 <= r < n <= 50, with C(n, r) <= 3000, and of
# json.dumps(hamiltonian_decomposition(n)) for odd n in 3..59 and 201,
# recorded from the build that ran Edmonds-Karp over dicts at every
# Baranyai stage and walked each cycle in Python
BARANYAI_PINS = {
    (4, 2): "f5cb3109290cf0c7", (6, 2): "411bade6a5f0a4a2", (6, 3): "c196e292d6f2ec46",
    (8, 2): "9bba9f85c0565ba6", (8, 4): "7e9b061994caf5ee", (9, 3): "7ad333411dd677bc",
    (10, 2): "94adb9059f78f01c", (10, 5): "7f9dd1e08c3c56f0", (12, 2): "ac4b14e2ade7ea18",
    (12, 3): "88efa7ed3abddb03", (12, 4): "a1c5254ea10bb0ac", (12, 6): "d5e976cd6dd26eae",
    (14, 2): "7996b86733938979", (15, 3): "884d6441be2d37ad", (16, 2): "12ac220b54063390",
    (16, 4): "541dfb453a25e681", (18, 2): "a76f0fb2e83832f4", (18, 3): "1538e088652c7746",
    (20, 2): "b9752de691c5499c", (21, 3): "b38168ba8652ddf0", (22, 2): "d8c707bac3cdc61a",
    (24, 2): "4edc4b6d2a777b97", (24, 3): "07b99479a8ab2bb3", (26, 2): "6e45d7e21d7171d7",
    (27, 3): "fbea44914ca60d1d", (28, 2): "5734dfc411050c9d", (30, 2): "36e3ee58b0131777",
    (32, 2): "0badeebef0937e63", (34, 2): "4dafdf89e41daa99", (36, 2): "531cefe3481224be",
    (38, 2): "37ac7a0d6de18545", (40, 2): "871c3f03e8881ace", (42, 2): "0d4b07a2ed68f038",
    (44, 2): "80163a5655ca85af", (46, 2): "ae3187192f3c3bab", (48, 2): "0a1d2a5f7b889899",
    (50, 2): "c549188ea8b345c9",
}
HAMILTONIAN_PINS = {
    3: "4017cf62c220fe9c", 5: "cec608ca4f670a43", 7: "1ef9e4bc23df2f42", 9: "350263c947b407a0",
    11: "ce5e753947dade8a", 13: "aed1ed1c1a0cafdb", 15: "80b3188696b42772", 17: "6f20390437e8079c",
    19: "0b5cab28ab264b56", 21: "b6ee21948f47ab74", 23: "5933ef34168de7c5", 25: "d598a8b55c6846be",
    27: "3a088c876dfdcc5f", 29: "477780188de5f087", 31: "b11987d78bdac693", 33: "2c2784bb0bf380d2",
    35: "12db9062fe7bc396", 37: "4176cf573f217b28", 39: "5cef8100dc5d3418", 41: "bca375745a90fe15",
    43: "880d7b2c71454be1", 45: "53f0b03ab879036f", 47: "a76829b705e703b3", 49: "9a4e3e9958f0a953",
    51: "ec2cee734309758f", 53: "629a2866149c0292", 55: "6079464bf43ebb92", 57: "30240f0c927adaf2",
    59: "3fba4c6540d01e12", 201: "a66c0e1b53662880",
}

# sha256 (first 16 hex digits) of json.dumps([modulus, add_table, mul_table,
# [neg(a) for a in range(q)]]) of gf(q) for every prime power q <= 64,
# recorded from the build that tested each modulus by polynomial division
GF_PINS = {
    2: "4f273bad58b9b0cd", 3: "26111a04670d7261", 4: "b2c7a6870929d135", 5: "8452e8a7d788ba5e",
    7: "ac3f63879239232e", 8: "957af0f95161d7d7", 9: "acac0cd8d48dd817", 11: "b08a8df10addf023",
    13: "697eca0928e66036", 16: "e5ddd72bd724e50b", 17: "2b7612c83611ff5d", 19: "f7138cdaa40071a8",
    23: "76b3a89b3afe0d27", 25: "d20b700c1eedc2cc", 27: "52b1502bdbce95c4", 29: "c8aeab4bb31e732a",
    31: "f8c49601173e8bbd", 32: "b3610156e9df81c2", 37: "4c182401a8f230d9", 41: "dafce46b309c5350",
    43: "58d1ebac6442ede4", 47: "8bdf6be0e7b1c740", 49: "7e0e713e8387bb9f", 53: "b832eeaf573e2b55",
    59: "8fa4c58167bd6b86", 61: "3452a38910b89cbe", 64: "1ee580560d33b767",
}


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

    def test_gf_pins(self):
        assert sorted(GF_PINS) == [q for q in range(2, 65) if prime_power_decompose(q)]
        for q, pin in GF_PINS.items():
            field = gf(q)
            tables = [field.modulus, field.add_table, field.mul_table, [field.neg(a) for a in range(q)]]
            assert hashlib.sha256(json.dumps(tables).encode()).hexdigest()[:16] == pin, q

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

    def test_hamiltonian_pins(self):
        assert sorted(HAMILTONIAN_PINS) == list(range(3, 60, 2)) + [201]
        for n, pin in HAMILTONIAN_PINS.items():
            text = json.dumps(hamiltonian_decomposition(n))
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == pin, n

    def test_baranyai_pins(self):
        cases = [
            (n, r) for n in range(3, 51) for r in range(2, n)
            if n % r == 0 and math.comb(n, r) <= 3000
        ]
        assert sorted(BARANYAI_PINS) == cases and len(cases) == 37
        for (n, r), pin in BARANYAI_PINS.items():
            text = json.dumps(baranyai(n, r).factors)
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == pin, (n, r)

    # (27, 3), (16, 4) and (12, 6) are the largest hosts for r = 3, 4 and 6
    # under the desk cap C(n, r) <= 3000
    @pytest.mark.parametrize(
        "n,r", [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (27, 3), (16, 4), (12, 6)]
    )
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

    # every perfect matching holds one of the C(n-1, r-1) edges at vertex 0
    # (136 for K_18^3, 455 for K_16^4), so one more is refused at once; the
    # backtracking search took 12 s on (18, 3, 137) and ran for minutes on
    # (16, 4, 456)
    @pytest.mark.parametrize("n,r,t", [(18, 3, 137), (16, 4, 456), (12, 6, 463)])
    def test_too_many_perfect_matchings_refused_at_once(self, monkeypatch, n, r, t):
        def no_backtrack(*args):
            raise AssertionError("backtracking search started")

        monkeypatch.setattr(designs, "_disjoint_matchings_backtrack", no_backtrack)
        assert t == math.comb(n - 1, r - 1) + 1
        with pytest.raises(FractureError, match=f"could not build {t} disjoint"):
            disjoint_max_matchings(n, r, t)

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


@st.composite
def _edge_groups(draw):
    """(n, r, groups): groups of edges of K_n^r drawn with repeats allowed,
    each edge's points shuffled."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, n))
    edges = oracles.colex_edges(n, r)
    picks = draw(st.lists(st.lists(st.sampled_from(edges), max_size=6), max_size=6))
    return n, r, [[draw(st.permutations(e)) for e in group] for group in picks]


class TestPartitionRanks:
    @settings(max_examples=300, deadline=None)
    @given(_edge_groups(), st.booleans())
    def test_matches_sets(self, case, cover):
        n, r, groups = case
        edges = [tuple(sorted(e)) for group in groups for e in group]
        rank = {e: i for i, e in enumerate(oracles.colex_edges(n, r))}
        if len(set(edges)) < len(edges):
            # the first edge, in input order, seen before
            first = next(e for i, e in enumerate(edges) if e in edges[:i])
            with pytest.raises(FractureError, match=re.escape(f"edge {first} colored twice")):
                _partition_ranks(n, r, groups, cover)
        elif cover and len(edges) < len(rank):
            with pytest.raises(FractureError, match="do not cover"):
                _partition_ranks(n, r, groups, cover)
        else:
            assert _partition_ranks(n, r, groups, cover).tolist() == [rank[e] for e in edges]

    def test_array_of_edges(self):
        cycles = [[(0, 1), (1, 2), (0, 2)]]
        assert _partition_ranks(3, 2, np.array(cycles), True).tolist() == [0, 2, 1]
        with pytest.raises(FractureError, match=r"edge \(0, 1\) colored twice"):
            _partition_ranks(3, 2, np.array([[(0, 1), (1, 0)]]), False)

    @pytest.mark.parametrize(
        "groups,message",
        [
            ([[(0, 1.0)]], "not an integer"),
            ([[(0, True)]], "not an integer"),
            ([[(0, 1, 2)]], "needs 2 vertices"),
            ([[(0, 4)]], "out of range"),
            ([[(-1, 0)]], "out of range"),
            ([[(0, 2**70)]], "out of range"),
            ([[(1, 1)]], "strictly increasing"),
        ],
    )
    def test_refuses_malformed_edges(self, groups, message):
        with pytest.raises(FractureError, match=message):
            _partition_ranks(4, 2, groups, False)

    def test_memory_follows_the_edges_given(self):
        # C(200000, 2) is about 2 * 10**10: a table of one flag per edge
        # would need 160 GB
        start = time.perf_counter()
        with pytest.raises(FractureError, match="do not cover"):
            _partition_ranks(200_000, 2, [[(0, 1), (5, 199_999)]], True)
        assert _partition_ranks(200_000, 2, [[(199_998, 199_999)]], False).tolist() == [
            math.comb(199_999, 2) + 199_998
        ]
        assert time.perf_counter() - start < 1


@st.composite
def _stage_networks(draw):
    """(arcs, quotas, short) of one Baranyai stage network.  Each factor
    lists a hidden type and up to three others, and each type's quota is
    the number of factors hiding it plus a little slack, so the flow is
    perfect but a greedy pass mostly is not, and long augmenting paths
    must repair it past types with and without room.  A short network has
    no slack and one unit of quota taken away."""
    factors = draw(st.integers(1, 12))
    types = draw(st.integers(1, 6))
    hidden = draw(st.lists(st.integers(0, types - 1), min_size=factors, max_size=factors))
    arcs = [
        sorted({h, *draw(st.lists(st.integers(0, types - 1), max_size=3))}) for h in hidden
    ]
    short = draw(st.booleans())
    slack = [0] * types if short else draw(st.lists(st.integers(0, 2), min_size=types, max_size=types))
    quotas = [hidden.count(t) + extra for t, extra in enumerate(slack)]
    if short:
        quotas[hidden[draw(st.integers(0, factors - 1))]] -= 1
    return arcs, quotas, short


class TestStageMatch:
    def test_length_7_path(self):
        # greedy leaves factor 2 free; the repair moves factor 0 to type 1
        # and factor 1 to type 2
        arcs, quotas = [[0, 1], [1, 2], [0]], [1, 1, 1]
        assert _stage_match(arcs, quotas) == oracles.stage_choice(arcs, quotas) == [1, 2, 0]

    @settings(max_examples=300, deadline=None)
    @given(_stage_networks())
    def test_matches_edmonds_karp(self, network):
        arcs, quotas, short = network
        choice = _stage_match(arcs, quotas)
        assert choice == oracles.stage_choice(arcs, quotas)
        assert (-1 in choice) == short
        for t, quota in enumerate(quotas):
            assert choice.count(t) <= quota
        assert all(t in row for t, row in zip(choice, arcs) if t >= 0)
