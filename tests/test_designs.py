"""Designs, factorizations, and decompositions checked from the definitions.

Coverage counts are recomputed with the independent subset_coverage oracle
rather than trusting the checks that Design and MatchingDecomposition
run when they are built.
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
from fracture.designs import _partition_ranks, _stage_match, prime_power_decompose
from oracles import is_prime

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

# sha256 (first 16 hex digits) of json.dumps(one_factorization(n).factors)
# for even n in 2..80 and of json.dumps(near_one_factorization(n).factors)
# for odd n in 3..79, recorded from the build that walked the circle
# rounds in Python and sorted every edge by a Python key
ONE_FACTORIZATION_PINS = {
    2: "84ff3ba1744224ed", 4: "5048dd686c48084d", 6: "316c3d1e5556e994", 8: "0ecc5f1c0c927dc0",
    10: "bc2fb6ad47b7043d", 12: "4ebc35c0a9d02ed0", 14: "4b8bdd3aab085bb9", 16: "03984ed3349fbfb4",
    18: "8473f671e3bcbe25", 20: "20e3c043bfdda475", 22: "a5c659f52ff5eab2", 24: "6ed06beacb7587ee",
    26: "c9ba71bd022a6897", 28: "8b90c07404ccf4e5", 30: "af739a5b9dc7f552", 32: "148bb062314f753c",
    34: "a92cc924159dca35", 36: "2aa4630b6722bed5", 38: "6fd590377d74ee08", 40: "859766a01ba61688",
    42: "1103685fb7f5b52e", 44: "fd7dca093a497a70", 46: "6aabca8d53f3c0b7", 48: "dd55c8dc5e2fad7f",
    50: "df37dcb6074c62f5", 52: "d202358f0c49c22d", 54: "867ece48e5388416", 56: "faf8924f9685880e",
    58: "d0e7e25145094122", 60: "cf8994013b7df031", 62: "c06996a1c526a5e5", 64: "3f6eed0b688a05fc",
    66: "d18a2c9bc1442730", 68: "d8f1721a30f897d3", 70: "775f8590a14f654e", 72: "8ca78236ad25ba18",
    74: "ab6bc7ef1fb9905f", 76: "be47d4520ef14e76", 78: "cefb6209a9aa1b14", 80: "bdf0ff9e97ffed71",
}
NEAR_ONE_FACTORIZATION_PINS = {
    3: "3b524dbf58d19a85", 5: "57bdb0f7815be89d", 7: "e7f621c17064fa75", 9: "e717e3d5e2fdf18e",
    11: "b78c6a93eb8afb98", 13: "9ed27ddc70a62353", 15: "da5755c8d755c37d", 17: "f2d68155a48c7213",
    19: "59793026e4a907fb", 21: "eac81ca96551d846", 23: "37807c8cfb6aa8d8", 25: "4f9e8fd1cd9c6aa1",
    27: "793357e59f5aaa98", 29: "6eacff86ceb49db5", 31: "c1ff53aa0359da1d", 33: "4eb53faac8d0f2b8",
    35: "3fc0d237d46805c0", 37: "7d5b80b5b5462809", 39: "6f4b8495e905b909", 41: "38bf8e232c70c4b7",
    43: "53082672afee07dc", 45: "85015c6fba9f08ba", 47: "afdc089bc2c66b5d", 49: "af27762ff47ea12a",
    51: "04ef4ff9a5ecd63f", 53: "763c28830c8da8e9", 55: "bd42e22d5d2caded", 57: "ad8298ae8459e1a9",
    59: "1367898e3d06a657", 61: "523bb6133882efa5", 63: "1eac6e2b33ff8350", 65: "e6f8289712e1abfd",
    67: "db4b28428741300a", 69: "07f5566aed254cd1", 71: "41a9a2981189dd77", 73: "871f63388108efa5",
    75: "ef5128b8ebb83020", 77: "ddc14131dbf9a479", 79: "fad4168d3ef6e4d9",
}

# sha256 (first 16 hex digits) of json.dumps([modulus, add_table, mul_table,
# [add_table[a].index(0) for a in range(q)]]) of gf(q) for every prime power q <= 64,
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

# sha256 (first 8 hex digits) of json.dumps(disjoint_max_matchings(n, r,
# t).factors) for every r in {3, 4}, r < n <= 12 with r not dividing n,
# and t = 0, 1, ... up to the first count refused, whose digest is that of
# "refused: " + its message; recorded from the build whose search recursed
# over the t matchings
MATCHING_PINS = {
    (4, 3): "4f53cda1 98312dec 67f9bd69 884d7495 7cafcbe5 5071b208",
    (5, 3): (
        "4f53cda1 98312dec 67f9bd69 884d7495 e64358a0 3b1d2ce7 93ee3d3e 7ba36e1b c7a35266 "
        "3010c170 99e858c9 09c4f3d2"
    ),
    (7, 3): (
        "4f53cda1 e13d565d 0e74e93e 52251667 32da8ffc d6de5166 4379a7bb 670c6ab8 cab678c3 "
        "7b679464 a8006bca a6c30a12"
    ),
    (8, 3): (
        "4f53cda1 e13d565d 0e74e93e 52251667 32da8ffc d6de5166 4379a7bb 670c6ab8 cab678c3 "
        "7b679464 a8006bca b0a539c9 1e84f283 29320d8c fa41495f 12434f54 fd217cbc f20e47d1 "
        "f0a3bf3b 64fdd32e 7551e2d2 bbec51cf 69e9bdbb ee29b797 fb2f2498 6b7ed0d6"
    ),
    (10, 3): (
        "4f53cda1 ba5a314b c6938bbd 5f8b7cec 458544e1 ce87a907 cb37a631 27e60e21 e94a549e "
        "7664661e 99f02894 56a3ea3a b64ce3a4 ca73fdb7 320fbd38 889e923f 71828efb 09ceff8c "
        "64282709 341e7dbf 0f593e14 6e3a4093 d058c7ba fd873736 98e11bd9 da330821 dd4ac349 "
        "310bd716 eb94e709 de6f2ff0 4a9e4b79 9ddc5a3f 7e5b6956"
    ),
    (11, 3): (
        "4f53cda1 ba5a314b c6938bbd 5f8b7cec 7eda01b8 433fa131 69cac266 58e76d72 9d1c1343 "
        "7c64629e f0231abd dfe75c34 d45efdb1 a6973aa9 74c4c8b6 50c4a126 7c0920e1 bcf388d4 "
        "447b3cd7 d4c96b35 f203c9f0 025a8559 aa6eaed9 fe18c1fa 9e0398ea f5f24465 cf8a530c "
        "f3b5fcb8 5a45bb58 f62471a7 4bf70e30 287b3aef dcfa029d 1b46601c 3b392b36 15a89634 "
        "8ebb1867 860cd46f 483b6ae8 05b7da61 13ecbce6 ac2adfe5 33bad8ad 8bfa33ca a042b165 "
        "49e19488 7a9ca4ec f8ed807c"
    ),
    (5, 4): "4f53cda1 f196f42f 260074bf 056df2af c5f63369 3b4998e7 9244f3ab",
    (6, 4): (
        "4f53cda1 f196f42f 260074bf 056df2af c5f63369 847b133a 2d01683f 5a24ffdd 0b5a593e "
        "29536299 92f44d17 9f6d3afe 1f9a6b2f ca2235b9 b102c016 efaaa242 8d5c09ad"
    ),
    (7, 4): (
        "4f53cda1 f196f42f 260074bf 056df2af c5f63369 847b133a 2d01683f 5a24ffdd 0b5a593e "
        "29536299 92f44d17 dd79b045 34882ff7 873cd6a6 d11515b4 067ca805 091c7151 fd42363b "
        "e0508024 aff5aa74 6cfd06fd 8262e653 4629cdc3 df3d8e7a 80d71100 9ffff345 2f5456cb "
        "f3d7666d ad3bca78 41853fc6 6f3e806a 31442013 8761c37a 1c84b4fb 908c4bb8 b2ee733d "
        "201f8d3f"
    ),
    (9, 4): (
        "4f53cda1 70683a6a 8f37edc5 c2a35e80 67488b36 98dd3aa2 373aa923 aed32860 26348dea "
        "1ef3c989 032ee937 55227a8c 799b883c 80252eeb f1131ac8 51b502ad 07a7dd27 02501fba "
        "f009a2d8 8b2e4cd8 9777794c 168c0e66 3a4d3800 d165a7e7 422918db a93d650c b3fdea90 "
        "6b9a48b1 d5bf88b8 1d4888f5 c9137e04 f6aeb6bd 4f8e468d 14380a40 08e4ff8b bcd21437 "
        "6aed6738"
    ),
    (10, 4): (
        "4f53cda1 70683a6a 8f37edc5 c2a35e80 67488b36 98dd3aa2 373aa923 aed32860 26348dea "
        "1ef3c989 032ee937 55227a8c 799b883c 80252eeb f1131ac8 51b502ad 07a7dd27 02501fba "
        "f009a2d8 8b2e4cd8 9777794c 168c0e66 3a4d3800 d165a7e7 422918db a93d650c b3fdea90 "
        "6b9a48b1 d5bf88b8 1d4888f5 c9137e04 f6aeb6bd 4f8e468d 14380a40 08e4ff8b bcd21437 "
        "77a90d25 eed78a86 95c9f8fb cbc534c1 978b7621 ad1f3228 2a5b7ab0 dd314d07 245dd31e "
        "d50b3783 1d336c95 408349a2 81082415 bca0fce7 d956edbb c32128b0 2e74bb12 d8f5cfe9 "
        "babe5e8e cca2f049 b8d9e686 ceef4c1d afc36d5f f4dd5bfb 56509837 f1e5a4d1 e5a9cdcc "
        "ef6a8192 e92b9435 19895f24 a0dcc754 c85ebeef be376f38 762ae760 f9fadcfb bd67ed12 "
        "3a0e474d 78364913 fcccbd0d dd0ef43a e65132db c8732eb9 f72ba6ed 1cc7d303 b8844b10 "
        "ac1c5577 4bb2458d 042628df dd98fec6"
    ),
    (11, 4): (
        "4f53cda1 70683a6a 8f37edc5 c2a35e80 67488b36 98dd3aa2 373aa923 aed32860 26348dea "
        "1ef3c989 032ee937 55227a8c 799b883c 80252eeb f1131ac8 51b502ad 07a7dd27 02501fba "
        "f009a2d8 8b2e4cd8 9777794c 168c0e66 3a4d3800 d165a7e7 422918db a93d650c b3fdea90 "
        "6b9a48b1 d5bf88b8 1d4888f5 c9137e04 f6aeb6bd 4f8e468d 14380a40 08e4ff8b bcd21437 "
        "77a90d25 eed78a86 95c9f8fb cbc534c1 978b7621 ad1f3228 2a5b7ab0 dd314d07 245dd31e "
        "d50b3783 1d336c95 408349a2 81082415 bca0fce7 d956edbb c32128b0 2e74bb12 d8f5cfe9 "
        "babe5e8e cca2f049 424227a7 6fb46a14 474f2a4a 15cb5b16 1ffa6f7e 4d45ee85 06603d3c "
        "682d4f7f 6fc26427 59527963 3a9af6f5 3cdf13e3 325ac2fe 70598314 66c53da0 923fa91c "
        "8ee2b0fc 10f7b901 7954c128 b21b07c0 9e24aa8c 546ac710 3be6c984 22032e68 a8e46f7b "
        "b13ccef2 915fc693 2c8395c4 4caa232c e38a267c 8acc4be9 722a82dc 4fe41a24 65d9ef7c "
        "356d4f13 513dba86 c0213fa4 3272e7a1 e223ac72 ce9591c2 48a6b4e9 9234ce6c 4380d0b2 "
        "6e5e144e 6efb89e8 8cf6510f cecf88bd 9963a92e 98cb7310 d45fe720 2b24d0bd a2bc5250 "
        "2ead8151 8267f4ca b1f66f28 d421ad58 cee3f676 44d265ee 2cb2354c ab6446d3 7d6ca022 "
        "600ae450 9ab6cd26 396e7411 8f97cdad 917cfac0 c451ca55 4906cf7d fe84a214 323d0ad3 "
        "32acf237 141f3430 b8f77533 905dec82 60377ce3 69bfb961 5a925683 40e22b78 3f749d76 "
        "49a421f1 bab7285b"
    ),
}


class TestFiniteField:
    def test_prime_helpers(self):
        assert [x for x in range(2, 20) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert [prime_power_decompose(q) for q in range(201)] == [
            oracles.prime_power(q) for q in range(201)
        ]
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
            assert field.add(a, field.add_table[a].index(0)) == 0
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
            tables = [field.modulus, field.add_table, field.mul_table, [field.add_table[a].index(0) for a in range(q)]]
            assert hashlib.sha256(json.dumps(tables).encode()).hexdigest()[:16] == pin, q

    def test_non_prime_power_rejected(self):
        with pytest.raises(FractureError):
            gf(6)


@pytest.fixture
def no_backtrack(monkeypatch):
    """Fail any test that reaches the disjoint-matching search."""

    def fail(*args):
        raise AssertionError("backtracking search started")

    monkeypatch.setattr(designs, "_disjoint_matchings_backtrack", fail)


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

    def test_list_built_design_is_the_tuple_built_one(self):
        fano = projective_plane(2)
        blocks = [list(b) for b in fano.blocks]
        d = designs.Design(7, 2, 3, blocks)
        assert d == fano and hash(d) == hash(fano) and repr(d) == repr(fano)
        blocks[0][2] = 9
        blocks.pop()
        assert d.blocks == fano.blocks and d.to_dict() == fano.to_dict()

    def test_invalid_design_cannot_be_built(self):
        # one line of a 2-(7, 3, 1) design covers 3 of its 21 pairs
        with pytest.raises(FractureError, match="blocks hold 3 subsets, expected 21"):
            designs.Design(7, 2, 3, ((0, 1, 2),))


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

    def test_factorization_pins(self):
        assert sorted(ONE_FACTORIZATION_PINS) == list(range(2, 81, 2))
        assert sorted(NEAR_ONE_FACTORIZATION_PINS) == list(range(3, 80, 2))
        for build, pins in [
            (one_factorization, ONE_FACTORIZATION_PINS),
            (near_one_factorization, NEAR_ONE_FACTORIZATION_PINS),
        ]:
            for n, pin in pins.items():
                text = json.dumps(build(n).factors)
                assert hashlib.sha256(text.encode()).hexdigest()[:16] == pin, (build.__name__, n)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 80, 201])
    def test_edges_are_the_factors(self, n):
        # one read-only array, each factor's edges in colex order, and the
        # colex ranks its one check returned
        dec = one_factorization(n) if n % 2 == 0 else near_one_factorization(n)
        edges, ranks = dec.edges, dec.ranks
        assert edges.dtype == np.int64 and edges.shape == (len(dec.factors), n // 2, 2)
        assert not edges.flags.writeable and not ranks.flags.writeable
        assert edges.tolist() == [[list(e) for e in f] for f in dec.factors]
        rank = {e: i for i, e in enumerate(oracles.colex_edges(n, 2))}
        assert ranks.tolist() == [[rank[e] for e in f] for f in dec.factors]
        assert all(row == sorted(row) for row in ranks.tolist())

    def test_first_shares_the_checked_arrays(self, monkeypatch):
        dec = one_factorization(12)
        monkeypatch.setattr(designs, "_partition_ranks", None)  # no second check
        head = dec.first(4)
        assert (head.n, head.r, head.complete) == (12, 2, False)
        assert head.factors == dec.factors[:4] and head.ranks.tolist() == dec.ranks[:4].tolist()
        assert head == disjoint_max_matchings(12, 2, 4) and head != dec

    def test_array_and_tuples_build_equal_decompositions(self):
        dec = near_one_factorization(7)
        again = designs.MatchingDecomposition(7, 2, dec.factors, True)
        assert again == dec and hash(again) == hash(dec) and repr(again) == repr(dec)
        assert again.to_dict() == dec.to_dict() and again.ranks.tolist() == dec.ranks.tolist()
        with pytest.raises(FractureError, match="every edge needs 2 vertices"):
            designs.MatchingDecomposition(4, 2, np.zeros((1, 2, 3), dtype=np.int64), False)
        with pytest.raises(FractureError, match="vertices must be integers"):
            designs.MatchingDecomposition(4, 2, np.array([[[0.0, 1.0], [2.0, 3.0]]]), False)

    @pytest.mark.parametrize("name", ["n", "r", "complete", "edges", "ranks", "factors", "other"])
    def test_attributes_refuse_set_and_delete(self, name):
        dec = one_factorization(6)
        before = (repr(dec), dec.to_dict(), hash(dec))
        for target in (dec, dec.first(2)):
            with pytest.raises(AttributeError, match="MatchingDecomposition is read-only"):
                setattr(target, name, False)
            with pytest.raises(AttributeError, match="MatchingDecomposition is read-only"):
                delattr(target, name)
        # the cached factorization every later caller gets is unchanged
        assert one_factorization(6) is dec and dec.complete is True
        assert (repr(dec), dec.to_dict(), hash(dec)) == before

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

    def test_zero_matchings_checked(self):
        # t = 0 builds no matching, but its empty decomposition is still
        # checked: K_2^5 has no edges
        with pytest.raises(FractureError, match="need 1 <= r <= n"):
            disjoint_max_matchings(2, 5, 0)
        dec = disjoint_max_matchings(6, 3, 0)
        assert (dec.n, dec.r, dec.factors, dec.complete) == (6, 3, (), False)

    def test_invalid_decomposition_cannot_be_built(self):
        # (0, 1) and (0, 2) share vertex 0
        with pytest.raises(FractureError, match="is not a matching"):
            designs.MatchingDecomposition(4, 2, (((0, 1), (0, 2)),), False)

    # every perfect matching holds one of the C(n-1, r-1) edges at vertex 0
    # (136 for K_18^3, 455 for K_16^4), so one more is refused at once; the
    # backtracking search took 12 s on (18, 3, 137) and ran for minutes on
    # (16, 4, 456)
    @pytest.mark.parametrize("n,r,t", [(18, 3, 137), (16, 4, 456), (12, 6, 463)])
    def test_too_many_perfect_matchings_refused_at_once(self, no_backtrack, n, r, t):
        assert t == math.comb(n - 1, r - 1) + 1
        with pytest.raises(FractureError, match=f"could not build {t} disjoint"):
            disjoint_max_matchings(n, r, t)

    # t matchings of floor(n/r) edges need t * floor(n/r) of the C(n, r)
    # edges, so K_25^3 holds at most 287, K_20^3 190, and K_7 and K_8
    # seven; a search ran past 60 s on (25, 3, 300) and took 6 s to refuse
    # (20, 3, 400)
    @pytest.mark.parametrize(
        "n,r,t,limit", [(25, 3, 300, 287), (20, 3, 400, 190), (25, 3, 288, 287), (7, 2, 8, 7), (8, 2, 8, 7)]
    )
    def test_more_matchings_than_edges_refused_at_once(self, no_backtrack, n, r, t, limit):
        assert math.comb(n, r) // (n // r) == limit < t
        start = time.perf_counter()
        with pytest.raises(FractureError, match=f"could not build {t} disjoint"):
            disjoint_max_matchings(n, r, t)
        assert time.perf_counter() - start < 1

    def test_matching_pins(self):
        cases = [(n, r) for r in (3, 4) for n in range(r + 1, 13) if n % r]
        assert list(MATCHING_PINS) == cases
        for (n, r), pins in MATCHING_PINS.items():
            digests = []
            for t in range(len(pins.split())):
                try:
                    text = json.dumps(disjoint_max_matchings(n, r, t).factors)
                except FractureError as exc:
                    text = f"refused: {exc}"
                digests.append(hashlib.sha256(text.encode()).hexdigest()[:8])
            assert " ".join(digests) == pins, (n, r)
            assert text.startswith("refused: could not build")

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
