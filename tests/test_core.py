"""Core metric and serialization tests against independent oracles."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracture import bounds, constructions, core, designs
from fracture.search import _edges_flat, _first_unspanned, exact_f
from fracture import (
    BipartiteShape,
    Coloring,
    FractureError,
    HypergraphShape,
    class_stats,
    coloring_from_dict,
    coloring_to_dict,
    edge_array,
    edge_ranks,
    f_value,
    fraction_str,
    report_dict,
    z_value,
)


def make(n, k, r, colors):
    return Coloring(HypergraphShape(n, r), k, tuple(colors))


def random_coloring(rng, n, k, r):
    m = math.comb(n, r)
    return make(n, k, r, (rng.randrange(k) for _ in range(m)))


def rank_of(edge, shape):
    """The colex rank of one edge, by the library's one ranking."""
    return int(edge_ranks(np.array([sorted(edge)]), shape)[0])


class TestEdgeRanking:
    def test_roundtrip_exhaustive(self):
        for n, r in [(5, 2), (6, 3), (8, 4), (7, 2)]:
            shape = HypergraphShape(n, r)
            edges = oracles.colex_edges(n, r)
            assert list(map(tuple, edge_array(n, r).tolist())) == edges
            assert edge_ranks(np.array(edges), shape).tolist() == list(range(len(edges)))

    @given(st.integers(2, 12), st.data())
    def test_roundtrip_property(self, n, data):
        r = data.draw(st.integers(2, min(n, 5)))
        shape = HypergraphShape(n, r)
        idx = data.draw(st.integers(0, math.comb(n, r) - 1))
        edge = edge_array(n, r)[idx].tolist()
        assert len(edge) == r
        assert len(set(edge)) == r
        assert all(0 <= v < n for v in edge)
        assert rank_of(edge, shape) == idx

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_comb_sum(self, data):
        # rank(S) = sum of C(v_i, i + 1) row by row, for every r the int64
        # guard admits; few rows on a wide host give sparse columns, many
        # rows on a narrow one dense columns
        r = data.draw(st.integers(2, 100))
        extra = 1
        while math.comb(r + 2 * extra, r) * r < 2**63:
            extra *= 2
        n = data.draw(st.integers(r, r + extra))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        rows = [sorted(rng.sample(range(n), r)) for _ in range(data.draw(st.integers(0, 300)))]
        expected = [sum(math.comb(v, i + 1) for i, v in enumerate(row)) for row in rows]
        vertices = np.array(rows, dtype=np.int64).reshape(-1, r)
        assert edge_ranks(vertices, HypergraphShape(n, r)).tolist() == expected

    def test_rank_is_prefix_stable(self):
        # colex rank of an edge does not depend on n
        edges = np.array(oracles.colex_edges(5, 2))
        small = edge_ranks(edges, HypergraphShape(5, 2))
        assert small.tolist() == edge_ranks(edges, HypergraphShape(9, 2)).tolist() == list(range(10))

    def test_bad_edges_rejected(self):
        shape = HypergraphShape(5, 2)
        for edge in ((1, 1), (2, 1), (0, 5)):
            with pytest.raises(FractureError):
                edge_ranks(np.array([edge]), shape)


class TestEdgeTable:
    SHAPES = [(n, r) for n in range(2, 10) for r in range(2, n + 1)]

    @pytest.mark.parametrize("n,r", SHAPES)
    def test_table_is_colex_rank_order(self, n, r):
        shape = HypergraphShape(n, r)
        table = edge_array(n, r)
        assert list(map(tuple, table.tolist())) == oracles.colex_edges(n, r)
        assert len(table) == shape.edge_count
        assert edge_ranks(table, shape).tolist() == list(range(shape.edge_count))

    @pytest.mark.parametrize("n,r", SHAPES)
    def test_flat_kernel_array_follows_table(self, n, r):
        flat = _edges_flat(HypergraphShape(n, r))
        assert flat.tolist() == [v for e in oracles.colex_edges(n, r) for v in e]

    def test_wide_edges_built_from_complements(self, monkeypatch):
        # the direct build would pass through the C(101, 50) level
        level = core._colex_level

        def narrow_level(n, j):
            assert j <= 1, f"built the {j}-subset level of range({n})"
            return level(n, j)

        monkeypatch.setattr(core, "_colex_level", narrow_level)
        edge_array.cache_clear()
        table = edge_array(101, 100)
        assert table.tolist() == [[v for v in range(101) if v != 100 - i] for i in range(101)]

    def test_cache_is_bounded(self):
        maxsize = edge_array.cache_info().maxsize
        assert maxsize is not None and 1 <= maxsize <= 8

    def test_bad_shape_rejected(self):
        with pytest.raises(FractureError):
            edge_array(3, 4)
        with pytest.raises(FractureError):
            edge_array(5, 1)

    def test_constructions_keep_no_edge_memo(self):
        assert not hasattr(constructions, "_unrank_memo")
        assert not hasattr(constructions, "_unrank_cached")

        def container_sizes():
            return {
                name: len(value)
                for name, value in vars(constructions).items()
                if isinstance(value, (dict, list, set))
            }

        before = container_sizes()
        constructions.blow_up(constructions.base_registry("rainbow-triangle"), 30)
        constructions.coloring_n(8)
        constructions.bipartite_from_clique(constructions._k5_four())
        assert container_sizes() == before


class TestEdgeArray:
    # wide shapes (2r > n) come from complements, narrow ones directly
    SHAPES = [(n, r) for n in range(2, 10) for r in range(2, n + 1)] + [(12, 9), (13, 11), (14, 5), (20, 3)]

    @pytest.mark.parametrize("n,r", SHAPES)
    def test_rows_are_unranked_edges(self, n, r):
        shape = HypergraphShape(n, r)
        array = edge_array(n, r)
        assert array.dtype == np.int64 and array.shape == (shape.edge_count, r)
        assert not array.flags.writeable
        assert list(map(tuple, array.tolist())) == oracles.colex_edges(n, r)

    @pytest.mark.parametrize("n,r", SHAPES)
    def test_ranks_invert_array(self, n, r):
        shape = HypergraphShape(n, r)
        ranks = edge_ranks(edge_array(n, r), shape)
        assert ranks.tolist() == list(range(shape.edge_count))

    def test_ranks_agree_with_oracle(self):
        rng = random.Random(7)
        for n, r in [(30, 2), (25, 4), (12, 7)]:
            shape = HypergraphShape(n, r)
            rows = [sorted(rng.sample(range(n), r)) for _ in range(200)]
            got = edge_ranks(np.array(rows), shape).tolist()
            # C(v_i, i + 1) summed, from the definition of colex rank
            assert got == [sum(math.comb(v, i + 1) for i, v in enumerate(row)) for row in rows]
        assert edge_ranks(np.zeros((0, 3), dtype=np.int64), HypergraphShape(5, 3)).tolist() == []

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1, 2]],  # wrong width
            [[0, 5]],  # vertex out of range
            [[-1, 2]],  # negative vertex
            [[2, 1]],  # not increasing
            [[1, 1]],  # repeated vertex
            [[0.0, 1.0]],  # not integers
        ],
    )
    def test_ranks_refuse_bad_rows(self, rows):
        with pytest.raises(FractureError):
            edge_ranks(np.array(rows), HypergraphShape(5, 2))

    def test_bipartite_array_closed_form(self):
        for n in range(1, 7):
            shape = BipartiteShape(n)
            assert list(map(tuple, shape.edge_array().tolist())) == oracles.bipartite_edges(n)


def oracle_stats(shape, colors):
    """color -> (edges, components, incident vertices) from the DFS oracle."""
    edges = oracles.bipartite_edges(shape.n) if shape.bipartite else oracles.colex_edges(shape.n, shape.r)
    by_color = {}
    for e, c in zip(edges, colors):
        by_color.setdefault(c, []).append(e)
    return {
        c: (len(cls), oracles.components_dfs(shape.vertex_count, cls), len({v for e in cls for v in e}))
        for c, cls in sorted(by_color.items())
    }


def stats_dict(coloring):
    return {s.color: (s.edge_count, s.components, s.incident_vertices) for s in class_stats(coloring)}


def _slot_components_2d(slots, count):
    """``core._slot_components`` as it was written before it read the slot
    table by columns: row minima over axis 1 and one ``minimum.at`` with
    a 2-D index."""
    parent = np.arange(count, dtype=np.int32 if count < 2**31 else np.int64)
    rounds = 0
    while True:
        roots = parent[slots]
        low = roots.min(axis=1)
        if (roots == low[:, None]).all():
            return parent, rounds
        rounds += 1
        np.minimum.at(parent, roots, low[:, None])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


class TestClassStatsSlots:
    """class_stats is one union-find over the (color, vertex) slots that
    edges touch, by hooking and pointer jumping."""

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_seeded_colorings_match_oracle(self, r):
        rng = random.Random(100 + r)
        for _ in range(40):
            n = rng.randrange(r, r + 6)
            shape = HypergraphShape(n, r)
            m = shape.edge_count
            k = rng.randrange(1, min(m, 9) + 1)
            colors = [rng.randrange(k) for _ in range(m)]
            assert stats_dict(Coloring(shape, k, tuple(colors))) == oracle_stats(shape, colors)

    def test_bipartite_matches_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 8)
            shape = BipartiteShape(n)
            k = rng.randrange(1, n * n + 1)
            colors = [rng.randrange(k) for _ in range(n * n)]
            assert stats_dict(Coloring(shape, k, tuple(colors))) == oracle_stats(shape, colors)

    def test_empty_classes_skipped(self):
        # colors 0, 2 and 5 of 7 are unused
        shape = HypergraphShape(6, 2)
        rng = random.Random(3)
        colors = [rng.choice([1, 3, 4, 6]) for _ in range(shape.edge_count)]
        stats = stats_dict(Coloring(shape, 7, tuple(colors)))
        assert stats == oracle_stats(shape, colors)
        assert sorted(stats) == sorted(set(colors))

    @pytest.mark.parametrize("n,r", [(7, 2), (7, 3), (8, 5)])
    def test_every_edge_its_own_class(self, n, r):
        shape = HypergraphShape(n, r)
        colors = list(range(shape.edge_count))
        random.Random(n * r).shuffle(colors)
        stats = class_stats(Coloring(shape, shape.edge_count, tuple(colors)))
        assert [(s.color, s.edge_count, s.components, s.incident_vertices) for s in stats] == [
            (c, 1, 1, r) for c in range(shape.edge_count)
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_long_path_class_shuffled_labels(self, seed):
        # a Hamiltonian path of K_60 on shuffled vertices in color 0, the
        # rest split over colors 1 and 2
        n = 60
        shape = HypergraphShape(n, 2)
        order = list(range(n))
        random.Random(seed).shuffle(order)
        colors = [1 + (i % 2) for i in range(shape.edge_count)]
        for a, b in zip(order, order[1:]):
            colors[rank_of((a, b), shape)] = 0
        stats = stats_dict(Coloring(shape, 3, tuple(colors)))
        assert stats == oracle_stats(shape, colors)
        assert stats[0] == (n - 1, 1, n)

    @pytest.mark.parametrize("length", [10, 1000, 100_000])
    def test_hooking_rounds_on_shuffled_paths(self, length):
        # one path over the slots in shuffled order takes the most rounds;
        # measured 2-3 rounds at length 10, 6-7 at 1000, 10-11 at 100,000
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(length)
            parent, rounds = core._slot_components(np.stack([order[:-1], order[1:]], axis=1), length)
            assert (parent == 0).all()
            assert 1 <= rounds <= math.ceil(math.log2(length))

    @pytest.mark.parametrize("host", ["r2", "r3", "r4", "r5", "bipartite"])
    def test_columns_hook_as_the_2d_rounds(self, host):
        # the column form must take the same rounds and leave the same
        # parents as the (m, r) formulation it replaced
        rng = np.random.default_rng(sum(map(ord, host)))
        for _ in range(20):
            if host == "bipartite":
                shape = BipartiteShape(int(rng.integers(1, 9)))
            else:
                r = int(host[1])
                shape = HypergraphShape(int(rng.integers(r, r + 6)), r)
            k = int(rng.integers(1, min(shape.edge_count, 9) + 1))
            colors = rng.integers(0, k, size=shape.edge_count)
            slots = colors[:, None] * shape.vertex_count + shape.edge_array()
            keys, dense = np.unique(slots, return_inverse=True)
            for table, count in [(slots, k * shape.vertex_count), (dense.reshape(slots.shape), len(keys))]:
                parent, rounds = core._slot_components(table, count)
                old_parent, old_rounds = _slot_components_2d(table, count)
                assert rounds == old_rounds
                assert np.array_equal(parent, old_parent)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_columns_hook_as_the_2d_rounds_on_random_tables(self, r):
        rng = np.random.default_rng(r)
        for _ in range(20):
            count = int(rng.integers(1, 200))
            table = rng.integers(0, count, size=(int(rng.integers(1, 300)), r))
            parent, rounds = core._slot_components(table, count)
            old_parent, old_rounds = _slot_components_2d(table, count)
            assert rounds == old_rounds
            assert np.array_equal(parent, old_parent)

    def test_memory_follows_edges_not_slots(self):
        # k = C(447, 2) = 99,681 classes on 447 vertices: a k*n array of
        # bools alone would take 44.6 MB, of int64 357 MB
        import tracemalloc

        coloring = constructions.trivial_coloring(447, 2)
        core.edge_array(447, 2)
        tracemalloc.start()
        try:
            stats = class_stats(coloring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stats) == coloring.k
        assert peak < coloring.k * 447


class TestBipartiteHost:
    def test_shape(self):
        shape = BipartiteShape(3)
        assert (shape.n, shape.r, shape.edge_count, shape.vertex_count) == (3, 2, 9, 6)
        edges = shape.edge_array().tolist()
        for i in range(3):
            for j in range(3):
                assert edges[i * 3 + j] == [i, 3 + j]
        assert HypergraphShape(5, 3).vertex_count == 5

    def test_metrics_divide_by_both_sides(self):
        # K_{2,2}: color 0 is the matching (0,2),(1,3), color 1 the other
        c = Coloring(BipartiteShape(2), 2, (0, 1, 1, 0))
        assert f_value(c) == 2
        assert z_value(c) == 1
        assert c.shape.edge_array()[[0, 3]].tolist() == [[0, 2], [1, 3]]
        # a single star at a_0 touches 3 of the 4 vertices
        c = Coloring(BipartiteShape(2), 2, (0, 0, 1, 1))
        assert z_value(c) == Fraction(3, 4)
        assert report_dict(c)["z"] == "3/4"
        assert [s.components for s in class_stats(c)] == [1, 1]


class TestMetrics:
    def test_rainbow_triangle(self):
        c = make(3, 3, 2, (0, 1, 2))
        assert f_value(c) == 1
        assert z_value(c) == Fraction(2, 3)

    def test_single_color(self):
        c = make(4, 1, 2, (0,) * 6)
        assert f_value(c) == 1
        assert z_value(c) == 1

    def test_perfect_matching_class(self):
        shape = HypergraphShape(4, 2)
        colors = [1] * 6
        colors[rank_of((0, 1), shape)] = 0
        colors[rank_of((2, 3), shape)] = 0
        c = make(4, 2, 2, colors)
        assert f_value(c) == 1  # color 1 is connected
        stats = class_stats(c)
        assert stats[0].components == 2
        assert stats[0].incident_vertices == 4

    def test_matches_oracle_random(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randrange(3, 8)
            r = rng.choice([2, 3])
            k = rng.randrange(1, min(8, math.comb(n, r) + 1))
            c = random_coloring(rng, n, k, r)
            assert f_value(c) == oracles.f_of(n, r, c.assignment)
            assert z_value(c) == oracles.z_of(n, r, c.assignment)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_property(self, data):
        n = data.draw(st.integers(3, 7))
        r = data.draw(st.sampled_from([2, 3]))
        m = math.comb(n, r)
        k = data.draw(st.integers(1, min(6, m)))
        colors = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
        c = make(n, k, r, colors)
        assert f_value(c) == oracles.f_of(n, r, colors)
        assert z_value(c) == oracles.z_of(n, r, colors)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_vertex_permutation_invariance(self, data):
        n = data.draw(st.integers(4, 7))
        k = data.draw(st.integers(1, 5))
        shape = HypergraphShape(n, 2)
        m = math.comb(n, 2)
        colors = data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
        perm = data.draw(st.permutations(range(n)))
        c = make(n, k, 2, colors)
        permuted = [0] * m
        for idx, edge in enumerate(oracles.colex_edges(n, 2)):
            image = tuple(sorted(perm[v] for v in edge))
            permuted[rank_of(image, shape)] = colors[idx]
        pc = make(n, k, 2, permuted)
        assert f_value(c) == f_value(pc)
        assert z_value(c) == z_value(pc)

    def test_isolated_vertices_never_count(self):
        # a single spanning class on 10 vertices is one component, not ten
        c = make(10, 1, 2, [0] * math.comb(10, 2))
        assert class_stats(c)[0].components == 1
        # and vertices missed by a class do not inflate its count
        shape = HypergraphShape(6, 2)
        colors = [1] * 15
        colors[rank_of((0, 1), shape)] = 0
        c = make(6, 2, 2, colors)
        s = class_stats(c)[0]
        assert (s.components, s.incident_vertices) == (1, 2)


class TestValidation:
    def test_shape_checks(self):
        with pytest.raises(FractureError):
            make(4, 2, 2, (0, 1))  # wrong length
        with pytest.raises(FractureError):
            make(4, 2, 2, (0, 2, 0, 0, 0, 0))  # color out of range
        with pytest.raises(FractureError):
            HypergraphShape(3, 4)  # r > n
        with pytest.raises(FractureError):
            HypergraphShape(4, 1)  # r too small
        with pytest.raises(FractureError):
            HypergraphShape(10**7, 5 * 10**6)  # far too many edges to color

    @pytest.mark.parametrize(
        "n,r", [(7.0, 2), (7, 2.0), (True, 2), (5, True), ("7", 2), (np.float64(7), 2)], ids=repr
    )
    def test_shape_needs_integers(self, n, r):
        with pytest.raises(FractureError, match="must be an integer"):
            HypergraphShape(n, r)

    def test_shape_takes_numpy_integers_as_ints(self):
        shape = HypergraphShape(np.int64(7), np.int32(2))
        assert shape == HypergraphShape(7, 2)
        assert type(shape.n) is int and type(shape.r) is int

    def test_bipartite_checks(self):
        for n in (0, -1):
            with pytest.raises(FractureError):
                BipartiteShape(n)
        with pytest.raises(FractureError):
            Coloring(BipartiteShape(2), 5, (0, 1, 2, 3))  # k above n^2
        with pytest.raises(FractureError):
            Coloring(BipartiteShape(2), 2, (0, 1, 1))  # wrong length

    def test_relabel_canonical(self):
        colors = (2, 2, 1, 1, 0, 2)
        canon = oracles.relabel_canonical(colors)
        assert canon == (0, 0, 1, 1, 2, 0)
        assert oracles.relabel_canonical(canon) == canon
        c = make(4, 3, 2, colors)
        assert f_value(make(4, 3, 2, canon)) == f_value(c)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=20))
    def test_relabel_preserves_partition(self, colors):
        canon = oracles.relabel_canonical(colors)
        groups = lambda cc: sorted(
            tuple(i for i, x in enumerate(cc) if x == col) for col in set(cc)
        )
        assert groups(colors) == groups(canon)
        assert canon[0] == 0


_FANO = designs.projective_plane(2).blocks
_K4_FACTORS = designs.one_factorization(4).factors

# entry point name -> (call taking the valid arguments, the valid arguments);
# each argument in turn is replaced by a float, a bool or a string of its value
INTEGER_ENTRY_POINTS = {
    "BipartiteShape": (BipartiteShape, (2,)),
    "Coloring": (lambda k: Coloring(HypergraphShape(3, 2), k, (0, 1, 1)), (2,)),
    "Design": (lambda v, t, b: designs.Design(v, t, b, _FANO), (7, 2, 3)),
    "MatchingDecomposition": (lambda n, r: designs.MatchingDecomposition(n, r, _K4_FACTORS, True), (4, 2)),
    "check_diamonds": (lambda n: designs.check_diamonds(n, designs.DIAMONDS_10), (10,)),
    "f_upper_counting": (bounds.f_upper_counting, (10, 3, 2)),
    "f_upper_trivial": (bounds.f_upper_trivial, (10, 3, 2)),
    "z_lower_recursive": (bounds.z_lower_recursive, (5, 2)),
    "z_upper_constructions": (bounds.z_upper_constructions, (5, 2)),
    "coloring_tk2": (constructions.coloring_tk2, (6, 5)),
    "coloring_baranyai_split": (lambda t: constructions.coloring_baranyai_split(12, 3, t), (2,)),
    "coloring_equitable": (lambda k: constructions.coloring_equitable(5, 2, k), (9,)),
    "equitable_parts": (constructions.equitable_parts, (5, 2)),
    "disjoint_max_matchings": (lambda t: designs.disjoint_max_matchings(6, 2, t), (2,)),
    "disjoint_max_matchings-n-r": (lambda n, r: designs.disjoint_max_matchings(n, r, 2), (6, 2)),
    "one_factorization": (designs.one_factorization, (8,)),
    "near_one_factorization": (designs.near_one_factorization, (7,)),
    "hamiltonian_decomposition": (designs.hamiltonian_decomposition, (7,)),
    "coloring_nminus1": (constructions.coloring_nminus1, (8,)),
    "coloring_n": (constructions.coloring_n, (7,)),
    "edge_array": (edge_array, (7, 2)),
    "baranyai": (designs.baranyai, (6, 3)),
    "gf": (designs.gf, (4,)),
    "projective_plane": (designs.projective_plane, (2,)),
    "affine_plane": (designs.affine_plane, (3,)),
    "boolean_sqs": (designs.boolean_sqs, (3,)),
    "inversive_plane": (designs.inversive_plane, (2,)),
    "k4minus_decomposition": (designs.k4minus_decomposition, (11,)),
}

# the entry points whose results are lru-cached
CACHED_ENTRY_POINTS = [
    "edge_array", "z_lower_recursive", "baranyai",
    "gf", "projective_plane", "affine_plane", "boolean_sqs", "inversive_plane",
    "one_factorization", "near_one_factorization", "hamiltonian_decomposition",
    "k4minus_decomposition",
]

# the builders of the circle rounds and Hamiltonian cycles, and the entry
# points that reach them with n: a numpy n was refused as "a point is not
# an integer", and a bool n was read as 1 or 0 ("needs even n >= 2")
CIRCLE_ENTRY_POINTS = {
    "one_factorization": (designs.one_factorization, 8),
    "near_one_factorization": (designs.near_one_factorization, 7),
    "disjoint_max_matchings-even": (lambda n: designs.disjoint_max_matchings(n, 2, 3), 8),
    "disjoint_max_matchings-odd": (lambda n: designs.disjoint_max_matchings(n, 2, 3), 7),
    "coloring_nminus1-even": (constructions.coloring_nminus1, 8),
    "coloring_nminus1-odd": (constructions.coloring_nminus1, 7),
    "coloring_n-odd": (constructions.coloring_n, 7),
    "coloring_n-even": (constructions.coloring_n, 8),
}


def _clear_factorization_caches():
    for cached in (
        designs.one_factorization, designs.near_one_factorization,
        designs.hamiltonian_edges, designs.hamiltonian_decomposition,
    ):
        cached.cache_clear()


def _bytes(result) -> str:
    """The JSON of a decomposition's factors or a coloring's assignment,
    which json refuses to write if any entry is a numpy integer."""
    return json.dumps(result.factors if isinstance(result, designs.MatchingDecomposition) else result.assignment)


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestOneIntegerRule:
    """Every object and bound takes its integers through core.as_int."""

    CASES = [
        (name, i, bad)
        for name, (_, args) in INTEGER_ENTRY_POINTS.items()
        for i in range(len(args))
        for bad in (float(args[i]), True, str(args[i]))
    ]

    @pytest.mark.parametrize("name,i,bad", CASES, ids=[f"{n}-{i}-{b!r}" for n, i, b in CASES])
    def test_refuses_float_bool_and_string(self, name, i, bad):
        call, args = INTEGER_ENTRY_POINTS[name]
        with pytest.raises(FractureError, match="must be an integer"):
            call(*args[:i], bad, *args[i + 1 :])

    @pytest.mark.parametrize("name", INTEGER_ENTRY_POINTS)
    def test_takes_numpy_integers(self, name):
        call, args = INTEGER_ENTRY_POINTS[name]
        assert _same(call(*map(np.int64, args)), call(*args))

    @pytest.mark.parametrize("name", CIRCLE_ENTRY_POINTS)
    def test_numpy_n_gives_the_int_bytes(self, name):
        call, n = CIRCLE_ENTRY_POINTS[name]
        _clear_factorization_caches()
        numpy_first = _bytes(call(np.int64(n)))
        assert numpy_first == _bytes(call(n)) == _bytes(call(np.int64(n)))

    @pytest.mark.parametrize("name", CIRCLE_ENTRY_POINTS)
    def test_refused_cold_and_warm(self, name):
        call, n = CIRCLE_ENTRY_POINTS[name]
        for warm in (False, True):
            _clear_factorization_caches()
            if warm:
                call(n)
            for bad in (float(n), True, str(n)):
                with pytest.raises(FractureError, match="must be an integer"):
                    call(bad)

    # k4minus_decomposition took no as_int and had an untyped cache: a
    # numpy n was refused as "a point is not an integer", a float n raised
    # a raw TypeError, and 10.0 was answered from np.int64(10)'s entry
    def test_diamond_decomposition_n(self):
        designs.k4minus_decomposition.cache_clear()
        assert designs.k4minus_decomposition(np.int64(11)) == designs.k4minus_decomposition(11)
        with pytest.raises(FractureError, match="must be an integer"):
            designs.k4minus_decomposition(11.0)
        assert designs.k4minus_decomposition(np.int64(10)) == designs.DIAMONDS_10
        with pytest.raises(FractureError, match="must be an integer"):
            designs.k4minus_decomposition(10.0)

    @pytest.mark.parametrize("color", [1.0, True, np.int64(1)], ids=repr)
    def test_coloring_refuses_non_int_colors(self, color):
        with pytest.raises(FractureError, match="colors must be integers"):
            Coloring(HypergraphShape(3, 2), 2, (0, color, 1))

    def test_stored_values_are_ints(self):
        assert type(BipartiteShape(np.int64(2)).n) is int
        assert type(Coloring(HypergraphShape(3, 2), np.int64(2), (0, 1, 1)).k) is int
        design = designs.Design(np.int64(7), np.int64(2), np.int64(3), _FANO)
        assert {type(design.v), type(design.strength), type(design.block_size)} == {int}

    # an untyped cache answered a float from the entry its int had made
    @pytest.mark.parametrize("name", CACHED_ENTRY_POINTS)
    def test_warm_cache_refuses_float(self, name):
        call, args = INTEGER_ENTRY_POINTS[name]
        call(*args)
        with pytest.raises(FractureError, match="must be an integer"):
            call(float(args[0]), *args[1:])


class TestColoringMemo:
    """A coloring's assignment reads back as a tuple, and its class stats
    are evaluated once per object."""

    def test_assignment_copied_from_a_list(self):
        colors = [0, 1, 1]
        c = Coloring(HypergraphShape(3, 2), 2, colors)
        colors[0] = 5
        assert c.assignment == (0, 1, 1)
        assert hash(c) == hash(make(3, 2, 2, (0, 1, 1)))

    def test_evaluated_once(self, union_finds):
        c = random_coloring(random.Random(7), 8, 4, 3)
        first = class_stats(c)
        assert len(union_finds) == 1
        kept = list(first)
        first.pop()
        first.append("stray")
        second = class_stats(c)
        assert second == kept and second is not first
        assert f_value(c) == min(s.components for s in second)
        assert report_dict(c)["per_class"][-1]["color"] == second[-1].color
        z_value(c)
        assert len(union_finds) == 1
        assert stats_dict(c) == oracle_stats(c.shape, c.assignment)

    def test_parsed_copy_evaluated_afresh(self, union_finds):
        c = random_coloring(random.Random(8), 7, 3, 2)
        report = report_dict(c)
        copy = coloring_from_dict(c.to_dict())
        assert copy == c and copy is not c
        assert report_dict(copy) == report
        assert len(union_finds) == 2
        # equal colorings share no stats: each object is evaluated on its own
        assert report_dict(make(7, 3, 2, c.assignment)) == report
        assert len(union_finds) == 3

    def test_memo_is_not_a_field(self):
        c = make(4, 2, 2, (0, 1, 0, 1, 0, 1))
        before = (repr(c), c.to_dict(), hash(c))
        class_stats(c)
        assert (repr(c), c.to_dict(), hash(c)) == before
        assert c == make(4, 2, 2, (0, 1, 0, 1, 0, 1))


class TestReadOnly:
    """A coloring cannot change once built: every attribute, stored or
    read back on first use, refuses to be set or deleted."""

    @pytest.mark.parametrize("name", ["shape", "k", "colors", "assignment", "_stats", "other"])
    def test_attributes_refuse_set_and_delete(self, name):
        c = make(4, 2, 2, (0, 1, 1, 0, 1, 1))
        f_value(c)  # fills the cached _stats and assignment
        before = (repr(c), c.to_dict(), hash(c), class_stats(c))
        with pytest.raises(AttributeError, match="Coloring is read-only"):
            setattr(c, name, 9)
        with pytest.raises(AttributeError, match="Coloring is read-only"):
            delattr(c, name)
        assert (repr(c), c.to_dict(), hash(c), class_stats(c)) == before
        assert c == make(4, 2, 2, (0, 1, 1, 0, 1, 1))

    def test_library_coloring_keeps_its_k(self):
        c = constructions.coloring_nminus1(7)
        with pytest.raises(AttributeError):
            c.k = 3
        assert c.to_dict()["k"] == 6 == max(c.to_dict()["colors"]) + 1
        assert coloring_from_dict(c.to_dict()) == c


class TestArrayRoute:
    """A 1-D integer array is checked in numpy and gives the coloring a
    tuple-built one is; anything else is read as a tuple of its items."""

    SHAPE = HypergraphShape(3, 2)

    # (k, array): each refused with the message of the tuple of its items
    REFUSED = {
        "bool": (2, np.array([0, 1, 1], dtype=bool)),
        "float": (2, np.array([0.0, 1.0, 1.0])),
        "2-D": (2, np.array([[0], [1], [1]])),
        "2-D-wide": (2, np.array([[0, 1, 1]])),
        "short": (2, np.array([0, 1])),
        "long": (2, np.array([0, 1, 1, 0])),
        "negative": (2, np.array([0, -1, 1])),
        "color-k": (2, np.array([0, 2, 1])),
        "color-k-uint": (2, np.array([0, 2, 1], dtype=np.uint8)),
        "k-zero": (0, np.array([0, 0, 0])),
        "k-above-m": (4, np.array([0, 1, 2])),
        # several colors out of range: both name the smallest if it is
        # negative, else the largest
        "two-above-k": (3, np.array([0, 5, 7])),
        "negative-and-above-k": (3, np.array([-1, 0, 9])),
        "two-negative": (3, np.array([0, -1, -2])),
    }

    @pytest.mark.parametrize("name", REFUSED)
    def test_refused_as_the_tuple_is(self, name):
        k, colors = self.REFUSED[name]
        with pytest.raises(FractureError) as from_tuple:
            Coloring(self.SHAPE, k, tuple(colors.tolist()))
        with pytest.raises(FractureError) as from_array:
            Coloring(self.SHAPE, k, colors)
        assert str(from_array.value) == str(from_tuple.value)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8, np.uint16, np.uint64])
    def test_equals_the_tuple_built_coloring(self, dtype):
        rng = random.Random(11)
        tuple_built = random_coloring(rng, 9, 5, 3)
        array_built = Coloring(tuple_built.shape, 5, np.array(tuple_built.assignment, dtype=dtype))
        assert type(array_built.assignment) is tuple
        assert set(map(type, array_built.assignment)) == {int}
        assert array_built == tuple_built
        assert hash(array_built) == hash(tuple_built)
        assert repr(array_built) == repr(tuple_built)
        assert json.dumps(array_built.to_dict()) == json.dumps(tuple_built.to_dict())
        assert class_stats(array_built) == class_stats(tuple_built)

    def test_caller_array_is_copied(self):
        colors = np.array([0, 1, 1, 0, 1, 1])
        c = Coloring(HypergraphShape(4, 2), 2, colors)
        colors[:] = 0
        assert c.assignment == (0, 1, 1, 0, 1, 1)
        assert class_stats(c) == class_stats(make(4, 2, 2, (0, 1, 1, 0, 1, 1)))

    def test_colors_held_once_and_assignment_read_back(self, union_finds):
        for given in (np.array, list):
            colors = given([0, 1, 1, 0, 1, 1])
            c = Coloring(HypergraphShape(4, 2), 2, colors)
            assert c.colors.dtype == np.int64 and not c.colors.flags.writeable
            colors[0] = 1
            assert c.colors.tolist() == [0, 1, 1, 0, 1, 1]
            assert type(c.assignment) is tuple and set(map(type, c.assignment)) == {int}
            assert list(c.assignment) == c.colors.tolist()
            del union_finds[:]
            assert class_stats(c) == class_stats(c) and len(union_finds) == 1
        # the search kernels' witness arrays, passed in as they are
        witness = exact_f(5, 3).witness
        counterexample = _first_unspanned(HypergraphShape(4, 2), 3).counterexample
        for c in (witness, counterexample):
            copy = Coloring(c.shape, c.k, tuple(c.colors.tolist()))
            assert copy == c and hash(copy) == hash(c) and repr(copy) == repr(c)


class TestSerialization:
    def test_dict_roundtrip(self):
        c = make(5, 3, 2, (0, 1, 2, 0, 1, 2, 0, 1, 2, 0))
        assert coloring_from_dict(coloring_to_dict(c)) == c

    def test_json_roundtrip_bytes(self):
        c = make(4, 2, 2, (0, 1, 0, 1, 0, 1))
        text = json.dumps(coloring_to_dict(c), sort_keys=True)
        assert coloring_from_dict(json.loads(text)) == c
        assert json.dumps(coloring_to_dict(coloring_from_dict(json.loads(text))), sort_keys=True) == text

    def test_report_shape(self):
        c = make(3, 3, 2, (0, 1, 2))
        rep = report_dict(c)
        assert rep["f"] == 1
        assert rep["z"] == "2/3"
        assert [p["color"] for p in rep["per_class"]] == [0, 1, 2]
        json.dumps(rep)  # must be json-serializable as-is

    def test_empty_classes_skipped_in_report(self):
        c = make(3, 3, 2, (0, 0, 2))  # color 1 unused
        rep = report_dict(c)
        assert [p["color"] for p in rep["per_class"]] == [0, 2]

    def test_bipartite_dict_roundtrip(self):
        c = Coloring(BipartiteShape(3), 2, (0, 1, 1, 1, 0, 1, 1, 1, 0))
        d = coloring_to_dict(c)
        assert d == {"n": 3, "r": 2, "k": 2, "bipartite": True, "colors": list(c.assignment)}
        assert c.to_dict() == d
        assert coloring_from_dict(d) == c
        assert "bipartite" not in make(3, 3, 2, (0, 1, 2)).to_dict()

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 3.9, "r": 2, "k": 2, "colors": [0.7, 1.2, "1"]},
            {"n": 3.0, "r": 2, "k": 2, "colors": [0, 1, 1]},
            {"n": 3, "r": "2", "k": 2, "colors": [0, 1, 1]},
            {"n": 3, "r": 2, "k": True, "colors": [0, 0, 0]},
            {"n": 3, "r": 2, "k": 2, "colors": [0, 1.0, 1]},
            {"n": 3, "r": 2, "k": 2, "colors": [0, "1", 1]},
            {"n": 3, "r": 2, "k": 2, "colors": [0, True, 1]},
            {"n": 2.0, "k": 2, "bipartite": True, "colors": [0, 1, 1, 0]},
            {"n": 2, "k": 2, "bipartite": True, "colors": [0, 1, 1, False]},
        ],
        ids=["issue-repro", "float-n", "string-r", "bool-k", "float-color",
             "string-color", "bool-color", "bipartite-float-n", "bipartite-bool-color"],
    )
    def test_non_integers_refused(self, data):
        # each would have been truncated or coerced by int() to a valid coloring
        with pytest.raises(FractureError, match="must be (an integer|integers)"):
            coloring_from_dict(data)

    def test_fraction_strings(self):
        assert fraction_str(Fraction(2, 3)) == "2/3"
        assert fraction_str(Fraction(3)) == "3"
        assert Fraction("2/3") == Fraction(2, 3)
        assert Fraction("3") == Fraction(3)

    @given(st.fractions(min_value=0, max_value=10))
    def test_fraction_roundtrip(self, x):
        # the stdlib parses what fraction_str writes
        assert Fraction(fraction_str(x)) == x
