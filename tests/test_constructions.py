"""Constructions checked against the z/f oracles and their own guarantees."""

import math
from fractions import Fraction

import pytest

import oracles
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
        for n in range(5, 13):
            m = math.comb(n, 2)
            for k in range(n - 1, m + 1):
                if m % k == 0:
                    pairs.append((n, k))
        return pairs

    def test_tk2_all_admissible(self):
        pairs = self.admissible_tk2()
        assert len(pairs) == 22
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
            assert f_value(c) == t

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

    # (8, 2, 14) needs one-step repair moves and (16, 2, 30) the two-step
    # move; the greedy pass alone is equitable on the others
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

    def test_equitable_needs_matching_room(self):
        # k so small that some class cannot stay a matching
        with pytest.raises(FractureError):
            coloring_equitable(5, 2, 3)


def class_edge_lists(coloring):
    classes = {}
    for e, c in zip(coloring.shape.edges(), coloring.assignment):
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
