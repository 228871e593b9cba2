"""Constructions checked against the z/f oracles and their own guarantees."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracture import constructions as cons
from fracture import core, designs
from fracture import (
    BaseColoring,
    BipartiteShape,
    Coloring,
    FractureError,
    base_registry,
    base_registry_names,
    bipartite_from_clique,
    bipartite_blow_up,
    blow_up,
    coloring_baranyai_split,
    coloring_equitable,
    coloring_n,
    coloring_nminus1,
    coloring_tk2,
    equitable_parts,
    f_value,
    trivial_coloring,
    z_value,
)


class TestBaseRegistry:
    def test_names_stable(self):
        names = base_registry_names()
        for required in ["rainbow-triangle", "k5-four", "k9-five", "k6r3-six"]:
            assert required in names

    CONCRETE_NAMES = [
        "rainbow-triangle",
        "k5-four",
        "k9-five",
        "k6r3-six",
        "trivial(4,2)",
        "trivial(5,2)",
        "trivial(4,3)",
        "diamond(10)",
        "diamond(11)",
        "design(pg(2))",
        "design(pg(3))",
        "design(ag(3))",
        "design(sqs(3))",
        "design(inversive(2))",
    ]

    @pytest.mark.parametrize("name", CONCRETE_NAMES)
    def test_realized_z_is_honest(self, name):
        base = base_registry(name)
        c = base.coloring
        assert z_value(c) == base.realized_z
        assert oracles.z_of(c.n, c.r, c.assignment) == base.realized_z
        assert len(set(c.assignment)) == c.k  # no padding colors

    def test_known_z_values(self):
        expected = {
            "rainbow-triangle": Fraction(2, 3),
            "k5-four": Fraction(3, 5),
            "k9-five": Fraction(5, 9),
            "k6r3-six": Fraction(2, 3),
            "design(pg(2))": Fraction(3, 7),
            "design(ag(3))": Fraction(1, 3),
            "design(pg(3))": Fraction(4, 13),
            "diamond(10)": Fraction(2, 5),
            "diamond(11)": Fraction(4, 11),
            "trivial(4,2)": Fraction(1, 2),
        }
        for name, z in expected.items():
            assert base_registry(name).realized_z == z

    def test_unknown_name_rejected(self):
        with pytest.raises(FractureError):
            base_registry("no-such-base")

    def test_trivial_coloring(self):
        c = trivial_coloring(5, 2)
        assert c.k == 10
        assert f_value(c) == 1
        assert z_value(c) == Fraction(2, 5)


class TestBlowUp:
    def test_equitable_parts(self):
        parts = equitable_parts(10, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert [v for p in parts for v in p] == list(range(10))
        parts = equitable_parts(9, 3)
        assert [len(p) for p in parts] == [3, 3, 3]

    @pytest.mark.parametrize("n", range(6, 61))
    def test_rainbow_blow_up_value(self, n):
        c = blow_up(base_registry("rainbow-triangle"), n)
        assert c.k == 3
        assert f_value(c) == n // 6 + 1

    def test_k5_four_blow_up(self):
        c = blow_up(base_registry("k5-four"), 100)
        assert c.k == 4
        # parts of size 20, guarantee floor(100/10)*ceil(20*(2/5))+1
        assert f_value(c) >= 21

    def test_blow_up_keeps_class_count(self):
        for name in ["rainbow-triangle", "k9-five"]:
            base = base_registry(name)
            c = blow_up(base, 4 * base.coloring.n)
            assert c.k == base.coloring.k
            assert set(c.assignment) == set(range(c.k))

    def test_blow_up_needs_room(self):
        with pytest.raises(FractureError):
            blow_up(base_registry("rainbow-triangle"), 2)

    def test_blow_up_small_n_still_valid(self):
        # parts of size one reproduce the base exactly
        base = base_registry("rainbow-triangle")
        assert blow_up(base, 3).assignment == base.coloring.assignment


# sha256 (first 16 hex digits) of json.dumps(coloring.assignment), recorded
# from the per-edge loop builds these array builds replaced
ASSIGNMENT_PINS = {
    (blow_up, "rainbow-triangle"): {3: "1d226b8db3e15d55", 46: "9e951d3dd3b3e74a", 89: "deac888080a4247d"},
    (blow_up, "k5-four"): {5: "030357a62ad2736a", 81: "05bd01412154a1b4", 149: "94e3aca0e611a39b"},
    (blow_up, "k9-five"): {9: "0d3b91f0565469be", 91: "1a59d390c19ab595", 155: "ea118840cadfc17d"},
    (blow_up, "k6r3-six"): {6: "1b1348d25f6a2c7e", 30: "f9f0312f8d3aae5c", 42: "75743274cdeb2a07"},
    (blow_up, "trivial(5,2)"): {5: "a28bb79aa5ca8a5e", 92: "3cd8d1f2abec8c7a", 149: "366f521ae94e98c3"},
    (blow_up, "trivial(6,3)"): {6: "8950b1ba43b8cd0a", 33: "e3dec6ab9db17533", 42: "98392041b37da497"},
    (blow_up, "diamond(10)"): {10: "cf3f2df8496980eb", 112: "f9d5c251f7ae6e36", 155: "8e79ece4a35afbd5"},
    (blow_up, "diamond(11)"): {11: "c6a6e3baa29e736a", 116: "11373c91560063d6", 155: "046e450e671d3bee"},
    (blow_up, "design(pg(2))"): {7: "ff06b00fe37c53b2", 95: "b94584f1a4fb1eb8", 155: "3574ad9b900d59fb"},
    (blow_up, "design(ag(3))"): {9: "a35334d8826eba0f", 118: "5a7823a57dd532f3", 155: "f2be23bf7525aa30"},
    (blow_up, "design(sqs(3))"): {8: "db761b65f2cf54ea", 14: "013182e0a93fa117", 42: "42a6216c261a3765"},
    (blow_up, "design(inversive(3))"): {10: "944b07d284fdb7d9", 15: "8ea5550450052987", 20: "9e5e245fd17c6483"},
    (bipartite_blow_up, "rainbow-triangle"): {3: "77bbd917d8c90684", 46: "db78dd783e01acff", 89: "3ceeef2054a922f9"},
    (bipartite_blow_up, "k5-four"): {8: "0bada1056cd93611", 59: "b05e4c995c0cd0cf", 109: "f69c91cf301131fc"},
    (bipartite_blow_up, "k9-five"): {23: "f67d586478b7c1fd", 66: "f11acf8e36957fc6", 109: "7d7dffd43bbd6848"},
    (bipartite_blow_up, "trivial(5,2)"): {30: "5e904e2d3f0c6573", 70: "7b39a56de8e42c2e", 109: "804cf630f602f510"},
    (bipartite_blow_up, "diamond(10)"): {60: "dafbd01563ae6284", 85: "a29223c020f67ce2", 109: "575f70d53cea92ae"},
    (bipartite_blow_up, "diamond(11)"): {77: "8c623e605a900f5b", 93: "3e35bb79399d77b6", 109: "93b66001ba814976"},
    (bipartite_blow_up, "design(pg(2))"): {28: "21a6f80dce1ce184", 69: "327ab92c73d89e55", 109: "d144375886f95bbe"},
    (bipartite_blow_up, "design(ag(3))"): {72: "d82bf44f5050337f", 91: "3640e8f63be18d91", 109: "9a9064246f5cbbe6"},
}

# sha256 (first 16 hex digits) of json.dumps(coloring_nminus1(n).assignment)
# and of json.dumps(coloring_n(n).assignment) for n in 3..60, 200 and 201,
# recorded from the build that colored each factor's Python edge tuples
NMINUS1_PINS = {
    3: "1c6b98687a07a54a", 4: "2bb577bb192c737c", 5: "f2b0a70e0deb5e7d", 6: "4b75d51f4bcf1da5",
    7: "92ef71fca1df7eed", 8: "7ac8dc7377a37441", 9: "e97e27fcbfa28da8", 10: "542784d7d43df550",
    11: "52b5a90d322b4601", 12: "1cfec96fbdff8075", 13: "5ec8d8f9a61878b0", 14: "64859155342627b1",
    15: "ccc22c4faaad3381", 16: "fd1a327cc4ceffda", 17: "1e230c9ebcfaea99", 18: "c3d7c9a69aec8fb6",
    19: "ffe7b6fd6d247de9", 20: "d4407bc1a2388e7d", 21: "7a39d8a203d7e69d", 22: "a45aa935d7dba021",
    23: "9d0acf3db0b14c0b", 24: "61885a033efa44d4", 25: "f15000734d5b35a7", 26: "cf65fa4552679f8c",
    27: "c38f81393b78c917", 28: "30e8391687af9787", 29: "e71b5434e1d6c2c7", 30: "e8cc656eaf1828d4",
    31: "9afef8596e5b94e3", 32: "42515ac496e93c88", 33: "f0ba6478737f836c", 34: "3cad3daa2e6e8b77",
    35: "ccd8b874b5c2ae7f", 36: "e768bbe96bb1ca19", 37: "8c4f1359361dbcae", 38: "4d91812ab052d04c",
    39: "0dbd93ae3227759f", 40: "068ad8c9e38502bb", 41: "eb62cb88f272957a", 42: "1c53ec3d6601ed84",
    43: "62469af719dace30", 44: "78b6390364cc0751", 45: "cb71714f2f7847a1", 46: "cdbd8597b6aabc95",
    47: "eb47c27434bb0aea", 48: "9df9db464bf97a2a", 49: "e29422734fd8cb5b", 50: "494d7d26c70e678a",
    51: "870dc6f4ca17a779", 52: "e999282a3b33adcd", 53: "86e00153e3f94237", 54: "edfc88c1bb7df108",
    55: "57aa2c08f49773e6", 56: "bd14453569cd5c74", 57: "a5a1c8e480e91f6d", 58: "16ab17be74c99dbc",
    59: "e36b2fb5468c2715", 60: "97664bb05dcfbefe", 200: "333cc06c35887d70", 201: "8e60a30b425e250b",
}
NCOLORS_PINS = {
    3: "1d226b8db3e15d55", 4: "5077e7f3f2e2531b", 5: "fc23a3be1dc7f4bf", 6: "42546512bad80422",
    7: "07b7a63daba838c7", 8: "c02fdb0dec9ae941", 9: "f0b1ac8f8db84441", 10: "34c2d166f8915ffd",
    11: "e7e87534d87ded88", 12: "25d8ec550fcf989b", 13: "a7b9251350b37a47", 14: "11dd4bfa13449f8a",
    15: "019f4263ed795ba0", 16: "acc8147f9fa1bb0d", 17: "7d07ffbb462c9b54", 18: "c4ac4ca039b5dede",
    19: "13b8ee85b17403d2", 20: "68d803c9f907e2fe", 21: "29ca272e2c9f39b9", 22: "4f4d16484afd7f12",
    23: "00f1939ff52e1f5f", 24: "8dbd2fc921152dcb", 25: "c772cbe3ba6a0a43", 26: "9628b963cb6dca78",
    27: "5d26c27a95d91ac1", 28: "6bd4fbbf9f1f3cec", 29: "e2e1a618e88dc23f", 30: "df8f428faa8b66a9",
    31: "a6a81578bd361ea3", 32: "9ab186b2c60d1399", 33: "2b12c784a62fde52", 34: "3f639fef620b7386",
    35: "4fef77a244895a3e", 36: "a371f2310aafada9", 37: "106b0fba067cf74f", 38: "c3c81510d7289461",
    39: "358fc3ceb03b180a", 40: "4b631a853eb3931a", 41: "05cd35464ac254ce", 42: "d4fa63d5dc73fa2d",
    43: "eaab1b085880b784", 44: "0fb158a11b4b92dc", 45: "fdcf4c18920a79cf", 46: "8e6fe300404727a6",
    47: "d5a0070f9c5950f7", 48: "ace27d4f4ef100da", 49: "4d682cf156dc98d4", 50: "23511051b516f82b",
    51: "ce795da1554d2aa2", 52: "24f6f760fa72c9f4", 53: "372fc641a4c53d83", 54: "38d23bc93e0cff46",
    55: "61e3f346bf9fce63", 56: "28a906d9f008aa26", 57: "364bb45061c6a41a", 58: "c0ce6cedf28a2cda",
    59: "15a8ee858f5e17fc", 60: "308dcebcdfb97f60", 200: "9e0c70383d090274", 201: "9f8695438640c55c",
}

# sha256 (first 16 hex digits) of json.dumps(coloring_tk2(n, k).assignment),
# recorded from the build that equalized a factorization by Kempe-chain
# swaps, except (10, 15): that was its one equalized pair, and its pin is
# the Hamiltonian-path stride that replaced it.
TK2_PINS = {
    (2, 1): "d0bca111f8628137",
    (3, 3): "1d226b8db3e15d55",
    (4, 3): "2bb577bb192c737c",
    (4, 6): "b0229c06acf4d5c9",
    (5, 5): "fc23a3be1dc7f4bf",
    (5, 10): "a28bb79aa5ca8a5e",
    (6, 5): "4b75d51f4bcf1da5",
    (6, 15): "7d18b5481a842c68",
    (7, 7): "07b7a63daba838c7",
    (7, 21): "de0b7325c09d8fcc",
    (8, 7): "7ac8dc7377a37441",
    (8, 14): "e412a9b4c562c32d",
    (8, 28): "5ed1b1700a1b0b93",
    (9, 9): "f0b1ac8f8db84441",
    (9, 12): "5626d3191877cf34",
    (9, 18): "4198d2ca7bf0b220",
    (9, 36): "6772f7c15b65b2ab",
    (10, 9): "542784d7d43df550",
    (10, 15): "2fe93025678cb5ad",
    (10, 45): "7be8b161e07b6752",
    (11, 11): "e7e87534d87ded88",
    (11, 55): "ef1cdf6e348fb165",
    (12, 11): "1cfec96fbdff8075",
    (12, 22): "51050228a365ce2e",
    (12, 33): "5ae9f5a34f4f9fc2",
    (12, 66): "90e4927ff5e90fc8",
    (13, 13): "a7b9251350b37a47",
    (13, 26): "c272ed72312e18c9",
    (13, 39): "87de96a194147f66",
    (13, 78): "55d8b886f717f967",
    (14, 13): "64859155342627b1",
    (14, 91): "4093d9e1509ffcb1",
}


# sha256 (first 16 hex digits) of json.dumps(coloring_equitable(n, r, k).assignment)
# for every admissible (n, r, k) with C(n, r) <= 300 whose greedy pass is
# not yet equitable (all r = 2), and three r = 3 hosts that need 10 to 16
# moves, recorded from the build that repaired by one-step and two-step moves
EQUITABLE_PINS = {
    (8, 2, 14): "fdb73947a3b9d8e3", (11, 2, 28): "03cc88687272dc1c", (12, 2, 22): "fc156cbc6cbfc781",
    (12, 2, 33): "0a1c3b90943a9a8f", (12, 2, 34): "b992a91ca6a49adc", (13, 2, 26): "27a31d2e963e1d2d",
    (13, 2, 27): "a4dd951290c0386d", (14, 2, 31): "9fca3a2a36f53328", (14, 2, 32): "97b2a4faf34ea472",
    (15, 2, 27): "c20fd920b90ac5a2", (15, 2, 35): "182a39d9cc7991bd", (15, 2, 36): "271bfa454ff5f3e8",
    (15, 2, 53): "88fab6faad4b50f1", (15, 2, 54): "3d62b7fa894a93fa", (15, 2, 55): "f31cbcdb7c042915",
    (16, 2, 30): "e4d395e9cb6e7a0c", (17, 2, 34): "25c060508b44ff51", (17, 2, 45): "52c4b2411abdab82",
    (18, 2, 38): "a8763bf1d31f209e", (18, 2, 39): "6e3d04dcc8b58536", (18, 2, 40): "763bef7ba81bd7f7",
    (18, 2, 51): "aed1f88d117aee99", (18, 2, 52): "ef2de84e5b0b9cc4", (18, 2, 77): "0e35fe19cd92b49b",
    (18, 2, 78): "1538b927fae2d169", (19, 2, 35): "e17b8a4f55bed074", (19, 2, 43): "858dee8bda360eb6",
    (19, 2, 44): "0640a05947aee3a2", (19, 2, 57): "f2840163420a0ca8", (19, 2, 58): "85c1b41d59b814a8",
    (19, 2, 59): "f99a7f579ace5c49", (19, 2, 60): "85eccfc5576e7d61", (19, 2, 86): "89729aa7a5fddda5",
    (20, 2, 38): "e79ddabfb82ce381", (20, 2, 39): "fb8f0e3bc37abb93", (20, 2, 63): "68bc78d008871fac",
    (20, 2, 64): "8b4c67627ec50d47", (21, 2, 42): "f0a8290c13c7e036", (21, 2, 105): "4e0a83b4b6299d14",
    (22, 2, 46): "2ca20133f8c7fb3e", (22, 2, 47): "375f01e4729a3ccf", (22, 2, 58): "677dc3d1b387ccfd",
    (22, 2, 59): "cbfbcc25b61cee5a", (22, 2, 77): "378cad4238cb7c6c", (22, 2, 116): "61d5a6006d35c3ef",
    (22, 2, 117): "b0b0f9055586e1a6", (22, 2, 118): "9fc475e6d21a1bdd", (23, 2, 51): "3cdc23e0d35e2416",
    (23, 2, 52): "0cbb50ea81234e55", (23, 2, 85): "0a03ec1464acec80", (24, 2, 46): "1e9459c8f4e853d9",
    (24, 2, 47): "57c017e52544c9e3", (24, 2, 56): "43061e38fb659a67", (24, 2, 57): "d46948560e855bc8",
    (24, 2, 69): "8d1c2e86c00da487", (24, 2, 70): "607e10baf97de1ff", (24, 2, 92): "fc1891bdc53f5abb",
    (24, 2, 93): "fc237a84456ab2f5", (24, 2, 94): "dafc4b4e1f598bf8", (24, 2, 95): "cc6e4f646f980d43",
    (25, 2, 50): "d02bc32ca2761df5", (25, 2, 51): "7d83784cd6e7bfef", (25, 2, 60): "3dba821fecda4c65",
    (25, 2, 61): "4fb8dc9e8f9cc974", (25, 2, 62): "9fa1c04a0242a24c", (25, 2, 75): "326714e07f321c02",
    (25, 2, 76): "783e5b3b5e020ed3", (25, 2, 77): "ea38d9fd326de2f0", (25, 2, 100): "7eeb64280610e93b",
    (25, 2, 101): "81d9d5eeaf8ae498", (25, 2, 150): "decfce98d5e1ccd7", (25, 2, 151): "1d6c9d5267259211",
    (25, 2, 152): "f6d7ea0d2e36af57", (25, 2, 153): "de700785c38f82ce", (16, 3, 286): "68666d386de2c8bf",
    (17, 3, 340): "a14480db294e1272", (21, 3, 676): "fdcb6d3dd0103ea4",
}


class TestArrayBuilds:
    @pytest.mark.parametrize(
        "build,name,n,pin",
        [(b, name, n, pin) for (b, name), pins in ASSIGNMENT_PINS.items() for n, pin in pins.items()],
    )
    def test_assignments_unchanged(self, build, name, n, pin):
        c = build(base_registry(name), n)
        assert hashlib.sha256(json.dumps(c.assignment).encode()).hexdigest()[:16] == pin

    @pytest.mark.parametrize(
        "build,pin",
        [
            (lambda: base_registry("k5-four").coloring, "68619888f6bcb39d"),
            (lambda: base_registry("diamond(10)").coloring, "b7f654faf3805dc5"),
            (lambda: base_registry("design(pg(2))").coloring, "ee1e6096dc6eee2a"),
            (lambda: coloring_nminus1(8), "c70c04681d3dace8"),
            (lambda: coloring_nminus1(31), "028ed1cc5312e1f4"),
        ],
    )
    def test_double_cover_unchanged(self, build, pin):
        c = bipartite_from_clique(build())
        assert hashlib.sha256(json.dumps(c.assignment).encode()).hexdigest()[:16] == pin

    def test_factor_colorings_unchanged(self):
        ns = list(range(3, 61)) + [200, 201]
        assert sorted(NMINUS1_PINS) == sorted(NCOLORS_PINS) == ns
        for build, pins in [(coloring_nminus1, NMINUS1_PINS), (coloring_n, NCOLORS_PINS)]:
            for n, pin in pins.items():
                text = json.dumps(build(n).assignment)
                assert hashlib.sha256(text.encode()).hexdigest()[:16] == pin, (build.__name__, n)

    def test_pins_cover_every_registry_base(self):
        kinds = {name.split("(")[0] for _, name in ASSIGNMENT_PINS}
        for entry in base_registry_names():
            assert entry.split("(")[0] in kinds
        for kind in ("pg", "ag", "sqs", "inversive"):
            assert any(f"design({kind}(" in name for _, name in ASSIGNMENT_PINS)

    @pytest.mark.parametrize("n", range(4, 21, 2))
    def test_even_ncolors_is_the_vertex_deletion(self, n):
        # the per-edge deletion: drop every edge at vertex n of the
        # (n-1)-coloring of K_{n+1}, keep each class's color
        bigger = coloring_nminus1(n + 1)
        kept = [c for e, c in zip(oracles.colex_edges(n + 1, 2), bigger.assignment) if n not in e]
        assert coloring_n(n).assignment == core.relabel_canonical(kept)

    def test_decomposition_refuses_bad_groups(self):
        edges = oracles.colex_edges(4, 2)
        assert designs.decomposition_to_coloring_edges(4, 2, [edges[:3], edges[3:]]).tolist() == [0, 0, 0, 1, 1, 1]
        # edges may come unsorted
        assert designs.decomposition_to_coloring_edges(4, 2, [[e[::-1] for e in edges]]).tolist() == [0] * 6
        with pytest.raises(FractureError, match=r"edge \(0, 1\) colored twice"):
            designs.decomposition_to_coloring_edges(4, 2, [edges, edges[:1]])
        with pytest.raises(FractureError, match="do not cover"):
            designs.decomposition_to_coloring_edges(4, 2, [edges[1:]])
        for bad in ([(0, 1, 2)], [(0, 4)], [(1, 1)], [(0,)]):
            with pytest.raises(FractureError):
                designs.decomposition_to_coloring_edges(4, 2, [edges[1:], bad])

    def test_no_tuple_table_above_desk_cap(self, monkeypatch):
        # the per-edge Python walks (the equitable coloring and the matching
        # backtrack) turn edge_array rows into tuples, at desk size only
        table = core.edge_array

        def desk_table(n, r):
            assert math.comb(n, r) <= core.DESK_EDGE_CAP, f"tuple edge table of K_{n}^{r}"
            return table(n, r)

        for module in (cons, designs):
            monkeypatch.setattr(module, "edge_array", desk_table)
        for c in [
            blow_up(base_registry("rainbow-triangle"), 240),
            blow_up(base_registry("k6r3-six"), 60),
            coloring_nminus1(201),
            coloring_n(120),
            bipartite_blow_up(base_registry("k5-four"), 100),
            bipartite_from_clique(coloring_nminus1(101)),
        ]:
            core.report_dict(c)


class TestMatchingColorings:
    @pytest.mark.parametrize("n", range(4, 14))
    def test_nminus1_colors(self, n):
        c = coloring_nminus1(n)
        assert c.k == n - 1
        assert f_value(c) == n // 2
        assert f_value(c) == oracles.f_of(n, 2, c.assignment)

    @pytest.mark.parametrize("n", range(4, 14))
    def test_n_colors(self, n):
        c = coloring_n(n)
        assert c.k == n
        assert f_value(c) == (n - 1) // 2
        assert f_value(c) == oracles.f_of(n, 2, c.assignment)

    def admissible_tk2(self):
        pairs = []
        for n in range(2, 15):
            m = math.comb(n, 2)
            for k in range(n - 1, m + 1):
                if m % k == 0:
                    pairs.append((n, k))
        return pairs

    def test_tk2_all_admissible(self):
        pairs = self.admissible_tk2()
        assert len(pairs) == 32
        assert sorted(TK2_PINS) == pairs
        for n, k in pairs:
            t = math.comb(n, 2) // k
            c = coloring_tk2(n, k)
            assert c.k == k
            # every class is a matching of exactly t edges
            by_color = oracles.classes_of(n, 2, c.assignment)
            assert len(by_color) == k
            for cls in by_color.values():
                assert len(cls) == t
                assert oracles.is_matching(cls)
            assert f_value(c) == t == oracles.f_of(n, 2, c.assignment)
            assert hashlib.sha256(json.dumps(c.assignment).encode()).hexdigest()[:16] == TK2_PINS[n, k]

    def test_tk2_branch_per_pair(self, monkeypatch):
        # slices of a (near-)one-factorization when t divides n // 2, else
        # strides of Hamiltonian cycles (odd n) or paths (even n)
        walk_pairs = {(9, 12), (10, 15)}
        for n, k in self.admissible_tk2():
            t = math.comb(n, 2) // k
            walk_length = n if n % 2 else n - 1
            if (n, k) in walk_pairs:
                assert (n // 2) % t and walk_length % t == 0 and walk_length // t >= 2
            else:
                assert (n // 2) % t == 0
            with monkeypatch.context() as patch:
                def unused(*args):
                    raise AssertionError(f"({n}, {k}) took the other branch")

                if (n, k) in walk_pairs:
                    patch.setattr(cons, "one_factorization", unused)
                    patch.setattr(cons, "near_one_factorization", unused)
                else:
                    patch.setattr(cons, "hamiltonian_edges", unused)
                coloring_tk2(n, k)

    def test_non_matching_classes_fail_the_f_check(self):
        # coloring_tk2 checks only class sizes: a class of t edges that is not
        # a matching has fewer than t components, which the f check refuses
        # here each of the 12 classes is a run of 3 edges of a cycle of K_9
        ranks = designs.hamiltonian_edges(9)[1]
        assert ranks.shape == (4, 9)
        with pytest.raises(FractureError, match="matching split has f != 3"):
            cons._ranked(9, 2, ranks, lambda i, p: 3 * i + p // 3, 3, "matching split")

    def test_tk2_preconditions(self):
        with pytest.raises(FractureError):
            coloring_tk2(6, 4)  # k < n-1
        with pytest.raises(FractureError):
            coloring_tk2(6, 7)  # 7 does not divide 15

    @pytest.mark.parametrize(
        "n,r,t", [(6, 3, 1), (6, 3, 2), (8, 4, 1), (8, 4, 2), (12, 3, 2), (9, 3, 3)]
    )
    def test_baranyai_split(self, n, r, t):
        c = coloring_baranyai_split(n, r, t)
        per_factor = n // r
        assert c.k == t * math.comb(n, r) // per_factor
        assert f_value(c) == per_factor // t
        by_color = oracles.classes_of(n, r, c.assignment)
        for cls in by_color.values():
            assert len(cls) == per_factor // t
            assert oracles.is_matching(cls)

    # (8, 2, 14) and (16, 2, 30) need moves after the greedy pass, (16, 2, 30)
    # along a chain of two classes; the greedy pass alone is equitable on the others
    @pytest.mark.parametrize(
        "n,r,k",
        [(5, 2, 7), (5, 2, 8), (8, 2, 13), (6, 3, 20), (6, 2, 11), (8, 2, 14), (16, 2, 30)],
    )
    def test_equitable(self, n, r, k):
        c = coloring_equitable(n, r, k)
        m = math.comb(n, r)
        assert c.k == k
        by_color = oracles.classes_of(n, r, c.assignment)
        assert len(by_color) == k
        sizes = sorted(len(cls) for cls in by_color.values())
        assert sizes[-1] - sizes[0] <= 1
        for cls in by_color.values():
            assert oracles.is_matching(cls)
        assert f_value(c) == m // k

    def test_equitable_pins(self):
        assert len(EQUITABLE_PINS) == 77
        for (n, r, k), pin in EQUITABLE_PINS.items():
            c = coloring_equitable(n, r, k)
            assert hashlib.sha256(json.dumps(c.assignment).encode()).hexdigest()[:16] == pin, (n, r, k)

    def test_equitable_needs_matching_room(self):
        # k so small that some class cannot stay a matching
        with pytest.raises(FractureError):
            coloring_equitable(5, 2, 3)


def class_edge_lists(coloring):
    classes = {}
    shape = coloring.shape
    edges = oracles.bipartite_edges(shape.n) if shape.bipartite else oracles.colex_edges(shape.n, shape.r)
    for e, c in zip(edges, coloring.assignment):
        classes.setdefault(c, []).append(e)
    return dict(sorted(classes.items()))


class TestBipartite:
    def doubling_bases(self):
        return ["rainbow-triangle", "k5-four", "design(pg(2))"]

    def test_doubling_incidence(self):
        for name in self.doubling_bases():
            base = base_registry(name).coloring
            bc = bipartite_from_clique(base)
            assert bc.n == base.n
            assert bc.k == base.k
            # each class touches exactly twice as many vertices as in the clique
            clique_incidence = {}
            for rank, color in enumerate(base.assignment):
                edge = oracles.colex_edges(base.n, 2)[rank]
                clique_incidence.setdefault(color, set()).update(edge)
            for color, pairs in class_edge_lists(bc).items():
                touched = {v for e in pairs for v in e}
                assert len(touched) == 2 * len(clique_incidence[color])
            assert z_value(bc) == z_value(base)

    def test_doubling_components_oracle(self):
        base = base_registry("rainbow-triangle").coloring
        bc = bipartite_from_clique(base)
        per_class = class_edge_lists(bc)
        for color, edges in per_class.items():
            pairs = [(a, b - bc.n) for a, b in edges]
            assert oracles.bipartite_components(bc.n, pairs) >= 1

    @pytest.mark.parametrize("n,floor_bound", [(9, 3), (30, 10), (60, 20)])
    def test_blow_up_bound(self, n, floor_bound):
        bc = bipartite_blow_up(base_registry("rainbow-triangle"), n)
        got = f_value(bc)
        assert got >= floor_bound
        # oracle recount of the minimum over classes
        counts = [
            oracles.bipartite_components(bc.n, [(a, b - bc.n) for a, b in edges])
            for edges in class_edge_lists(bc).values()
        ]
        assert min(counts) == got

    def test_assignment_length_checked(self):
        with pytest.raises(FractureError):
            Coloring(BipartiteShape(3), 2, (0, 1))

    def test_bipartite_base_rejected(self):
        bc = bipartite_from_clique(base_registry("rainbow-triangle").coloring)
        base = BaseColoring("doubled", bc, z_value(bc))
        with pytest.raises(FractureError):
            bipartite_from_clique(bc)
        with pytest.raises(FractureError):
            bipartite_blow_up(base, 12)
        with pytest.raises(FractureError):
            blow_up(base, 12)


class TestOneCheck:
    """Each factorization a construction builds is partition-checked once,
    as the int array it is built as, and no Python edge list is checked."""

    BUILDS = {
        "coloring_nminus1.201": lambda: coloring_nminus1(201),
        "coloring_nminus1.200": lambda: coloring_nminus1(200),
        "coloring_n.201": lambda: coloring_n(201),
        "coloring_n.200": lambda: coloring_n(200),
        "coloring_baranyai_split.12.3.2": lambda: coloring_baranyai_split(12, 3, 2),
        "blow_up.rainbow-triangle.240": lambda: blow_up(base_registry("rainbow-triangle"), 240),
    }

    @pytest.mark.parametrize("name", BUILDS)
    def test_one_partition_check_per_factorization(self, monkeypatch, name):
        for cached in (
            designs.one_factorization, designs.near_one_factorization,
            designs.hamiltonian_edges, designs.baranyai,
        ):
            cached.cache_clear()
        calls = []
        inner = designs._partition_ranks

        def counted(n, r, groups, cover):
            calls.append(groups)
            return inner(n, r, groups, cover)

        monkeypatch.setattr(designs, "_partition_ranks", counted)
        self.BUILDS[name]()
        # one factorization each: the Hamiltonian cycles of K_201 (for
        # both K_201 and K_200 colorings), the rounds of K_200, the
        # near-one-factorization of K_201, the factorization of K_12^3,
        # and one one-factorization of K_80 that the three parts of the
        # blow-up each take a matching from
        assert len(calls) == 1
        assert isinstance(calls[0], np.ndarray)


class TestOneEvaluation:
    """A constructor's self-check evaluates the coloring it returns, so
    the report of that object makes no second union-find pass."""

    BUILDS = {
        "blow_up.rainbow-triangle.240": lambda: blow_up(base_registry("rainbow-triangle"), 240),
        "blow_up.k6r3-six.60": lambda: blow_up(base_registry("k6r3-six"), 60),
        "blow_up.k9-five.90": lambda: blow_up(base_registry("k9-five"), 90),
        "coloring_nminus1.201": lambda: coloring_nminus1(201),
        "coloring_baranyai_split.12.3.2": lambda: coloring_baranyai_split(12, 3, 2),
        "bipartite_blow_up.k5-four.100": lambda: bipartite_blow_up(base_registry("k5-four"), 100),
    }

    @pytest.mark.parametrize("name", BUILDS)
    def test_report_reuses_self_check(self, union_finds, name):
        coloring = self.BUILDS[name]()
        built = len(union_finds)
        report = core.report_dict(coloring)
        assert len(union_finds) == built
        # the same report as a fresh object's evaluation, which does pass
        assert core.report_dict(core.coloring_from_dict(coloring.to_dict())) == report
        assert len(union_finds) == built + 1


class TestArrayRoute:
    """Every library constructor hands Coloring its int64 array, which is
    checked and evaluated as that array, never walked color by color."""

    BUILDS = {
        **TestOneEvaluation.BUILDS,
        "coloring_n.200": lambda: coloring_n(200),
        "coloring_tk2.9.12": lambda: coloring_tk2(9, 12),
        "coloring_equitable.6.2.11": lambda: coloring_equitable(6, 2, 11),
        "bipartite_from_clique.nminus1.31": lambda: bipartite_from_clique(coloring_nminus1(31)),
        "trivial.7.3": lambda: trivial_coloring(7, 3),
        "base.k5-four": lambda: base_registry("k5-four").coloring,
        "base.diamond(11)": lambda: base_registry("diamond(11)").coloring,
        "base.design(sqs(3))": lambda: base_registry("design(sqs(3))").coloring,
    }

    @pytest.mark.parametrize("name", BUILDS)
    def test_builder_passes_its_array(self, monkeypatch, name):
        given_colors = []

        def spy(shape, k, assignment):
            given_colors.append(assignment)
            return Coloring(shape, k, assignment)

        monkeypatch.setattr(cons, "Coloring", spy)
        c = self.BUILDS[name]()
        assert given_colors and all(isinstance(a, np.ndarray) for a in given_colors)
        assert type(c.assignment) is tuple and set(map(type, c.assignment)) == {int}
        fresh = core.coloring_from_dict(json.loads(json.dumps(c.to_dict())))
        assert fresh == c and hash(fresh) == hash(c)
        assert core.class_stats(fresh) == core.class_stats(c)
        # the array is held only until the coloring is evaluated
        assert "_colors" not in c.__dict__

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-3, 40), min_size=1, max_size=200))
    def test_first_use_is_relabel_canonical(self, colors):
        assert cons._first_use(np.array(colors)).tolist() == list(core.relabel_canonical(colors))

    @staticmethod
    def colors_at_per_edge(coloring):
        out = [set() for _ in range(coloring.shape.vertex_count)]
        for e, c in zip(coloring.shape.edge_array().tolist(), coloring.assignment):
            for v in e:
                out[v].add(c)
        return out

    @pytest.mark.parametrize(
        "build",
        [
            lambda: coloring_nminus1(31),
            lambda: coloring_n(30),
            lambda: trivial_coloring(7, 3),
            lambda: base_registry("k6r3-six").coloring,
            lambda: coloring_equitable(7, 2, 21),
            lambda: bipartite_from_clique(coloring_nminus1(12)),
            lambda: bipartite_blow_up(base_registry("k5-four"), 20),
            lambda: Coloring(BipartiteShape(1), 1, (0,)),
        ],
    )
    def test_colors_at_is_the_per_edge_sets(self, build):
        c = build()
        assert cons._colors_at(c) == self.colors_at_per_edge(c)
