"""Exact searches checked against raw enumeration on instances small
enough to enumerate every coloring."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from fracture import _kernels
from fracture.core import HypergraphShape
from fracture import search as search_mod
from fracture import (
    FractureError,
    SearchBudgetError,
    SearchOptions,
    bulk_eval,
    exact_f,
    exact_z,
    f_value,
    randomized_improve,
    relabel_canonical,
    verify_k_le_r,
    z_value,
)

ORACLE_CASES = [
    (3, 2, 2), (3, 3, 2), (4, 2, 2), (4, 3, 2), (4, 4, 2), (4, 2, 3), (4, 4, 3), (5, 2, 4)
]


class TestExactF:
    @pytest.mark.parametrize("n,k,r", ORACLE_CASES)
    def test_matches_enumeration(self, n, k, r):
        res = exact_f(n, k, r)
        assert res.exhausted
        assert res.value == oracles.brute_force_max_f(n, k, r)

    def test_known_small_values(self):
        assert exact_f(4, 3, 2).value == 2
        assert exact_f(5, 3, 2).value == 2
        assert exact_f(5, 2, 2).value == 1

    def test_witness_honest(self):
        res = exact_f(5, 3, 2)
        assert f_value(res.witness) == res.value
        assert res.witness.n == 5 and res.witness.k == 3

    def test_canonical_witness(self):
        # lexicographically first optimum in first-use color order
        res = exact_f(4, 3, 2)
        assert res.witness.assignment == (0, 1, 2, 2, 1, 0)

    def test_budget_reported(self):
        # f(7, 2) = 1 is below its cap, so the full search walks every subtree
        full = exact_f(7, 2, 2)
        capped = exact_f(7, 2, 2, SearchOptions(node_budget=full.nodes // 3))
        assert not capped.exhausted
        assert capped.value <= full.value
        assert f_value(capped.witness) == capped.value

    def test_budget_too_small_raises(self):
        with pytest.raises(SearchBudgetError):
            exact_f(6, 3, 2, SearchOptions(node_budget=4))

    def test_cap_in_later_subtree(self):
        # f(8, 4) = 3 = cap: subtree (0,0,0) spends its 10,000-node share
        # below cap, (0,0,1) reaches cap, and (0,1,2) must not count
        res = exact_f(8, 4, 2, SearchOptions(node_budget=30_000))
        assert (res.value, res.exhausted) == (3, True)
        assert 10_000 < res.nodes < 20_000

    def test_serial_merge_stops_at_cap(self, monkeypatch):
        calls = []
        kernel = _kernels.search_kernel

        def counted(*args):
            calls.append(tuple(args[6].tolist()))
            return kernel(*args)

        monkeypatch.setattr(_kernels, "search_kernel", counted)
        res = exact_f(8, 4, 2, SearchOptions(node_budget=30_000))
        assert calls == [(0, 0, 0), (0, 0, 1)]
        assert (res.value, res.exhausted) == (3, True)

    def test_bad_k_rejected(self):
        with pytest.raises(FractureError):
            exact_f(4, 0, 2)
        with pytest.raises(FractureError):
            exact_f(4, 7, 2)


class TestExactZ:
    @pytest.mark.parametrize("n,k,r", ORACLE_CASES)
    def test_matches_enumeration(self, n, k, r):
        res = exact_z(n, k, r)
        assert res.exhausted
        assert res.value == oracles.brute_force_min_z(n, k, r)

    def test_known_values(self):
        assert exact_z(3, 3, 2).value == Fraction(2, 3)
        assert exact_z(4, 6, 2).value == Fraction(1, 2)

    def test_witness_honest(self):
        res = exact_z(4, 3, 2)
        assert z_value(res.witness) == res.value

    def test_prefix_covers_whole_space(self):
        # m <= prefix depth: the kernel only evaluates leaves
        res = exact_z(3, 3, 2)
        assert res.exhausted
        assert res.value == Fraction(2, 3)


class TestOrbitPrefixes:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_one_smallest_prefix_per_orbit(self, r):
        # K_{r+1}^r under every vertex permutation, colors read in first-use order
        edges = oracles.colex_edges(r + 1, r)
        rank = {e: i for i, e in enumerate(edges)}
        moves = [
            [rank[tuple(sorted(sigma[v] for v in e))] for e in edges]
            for sigma in itertools.permutations(range(r + 1))
        ]

        def orbit_min(colors):
            # moves is a group, so reading colors through each move covers the orbit
            return min(relabel_canonical([colors[j] for j in move]) for move in moves)

        canonical = {
            relabel_canonical(colors)
            for colors in itertools.product(range(r + 1), repeat=r + 1)
        }
        orbit_of = {colors: orbit_min(colors) for colors in canonical}
        for k in range(1, 8):
            listed = search_mod._orbit_prefixes(k, r + 1)
            assert listed == sorted(listed)
            assert all(orbit_of[p] == p for p in listed)
            for colors, least in orbit_of.items():
                if max(colors) < k:
                    assert listed.count(least) == 1, (k, colors)

    def test_single_edge_host(self):
        assert search_mod._orbit_prefixes(3, 1) == [(0,)]
        res = exact_f(3, 1, 3)
        assert (res.value, res.exhausted, res.nodes) == (1, True, 0)

    def test_split_depth_is_bounded(self, monkeypatch):
        # n = r + 1 is a single K_{r+1}^r: splitting at all of it would list
        # p(101), about 2e8, prefixes before any node is searched
        depths = []
        listed = search_mod._orbit_prefixes

        def recorded(k, depth):
            depths.append(depth)
            assert depth <= 9, "split depth unbounded"
            return listed(k, depth)

        monkeypatch.setattr(search_mod, "_orbit_prefixes", recorded)
        res = exact_f(101, 101, 100)
        budgeted = exact_f(101, 101, 100, SearchOptions(node_budget=5000))
        with pytest.raises(SearchBudgetError):
            # 30 subtrees share the budget, 33 nodes each, and a leaf lies 92 deep
            exact_f(101, 101, 100, SearchOptions(node_budget=1000))
        assert depths == [9, 9, 9]
        assert (res.value, res.exhausted) == (1, True)
        assert (budgeted.value, budgeted.exhausted) == (1, True)
        assert budgeted.nodes <= 5000


# (objective, n, k, node budget, value, exhausted, nodes, witness): the search
# must give exactly these until the enumeration order or a prune rule changes
NODE_PINS = [
    ("f", 6, 3, None, 2, True, 40, (0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 1, 0)),
    ("f", 7, 3, None, 2, True, 53,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 0)),
    ("f", 7, 4, None, 2, True, 53,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 0)),
    ("z", 5, 4, None, Fraction(3, 5), True, 159, (0, 0, 0, 1, 1, 2, 3, 3, 2, 2)),
    ("z", 6, 4, None, Fraction(2, 3), True, 1168,
     (0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 2, 2)),
    ("z", 3, 3, None, Fraction(2, 3), True, 0, (0, 1, 2)),
    ("f", 8, 4, 2000, 2, False, 1998,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 1, 0)),
]


@pytest.mark.parametrize(
    "kind,n,k,budget,value,exhausted,nodes,witness",
    NODE_PINS,
    ids=[f"{kind}-{n}-{k}-{budget}" for kind, n, k, budget, *_ in NODE_PINS],
)
def test_node_for_node(kind, n, k, budget, value, exhausted, nodes, witness):
    search = exact_f if kind == "f" else exact_z
    res = search(n, k, options=SearchOptions(node_budget=budget))
    assert (res.value, res.exhausted, res.nodes) == (value, exhausted, nodes)
    assert res.witness.assignment == witness


@pytest.mark.parametrize(
    "kind,n,k,r", [("f", 7, 3, 2), ("f", 8, 4, 2), ("z", 6, 4, 2), ("f", 6, 3, 3), ("z", 7, 5, 2)]
)
@pytest.mark.parametrize("budget", [333, 1000, 2500])
def test_nodes_never_exceed_budget(kind, n, k, r, budget):
    # the node that would pass the budget is neither explored nor counted
    search = exact_f if kind == "f" else exact_z
    try:
        res = search(n, k, r, SearchOptions(node_budget=budget))
    except SearchBudgetError:
        return
    assert res.nodes <= budget


class TestVerifier:
    def test_small_claims_hold(self):
        for n, k, r in [(4, 2, 2), (5, 2, 2), (4, 2, 3)]:
            chk = verify_k_le_r(n, k, r)
            assert chk.holds
            assert chk.counterexample is None
            assert chk.checked == k ** math.comb(n, r)

    def test_k_above_r_rejected(self):
        with pytest.raises(FractureError):
            verify_k_le_r(5, 3, 2)

    def test_no_colors_rejected(self):
        with pytest.raises(FractureError):
            verify_k_le_r(4, 0, 2)

    def test_limit_guard(self):
        with pytest.raises(FractureError):
            verify_k_le_r(8, 2, 2, limit=1000)

    @pytest.mark.parametrize("n,k,r", [(60, 2, 30), (40, 2, 12)])
    def test_oversized_refused_at_once(self, n, k, r):
        # 2^C(60, 30) would exhaust memory and 2^C(40, 12) take minutes to build
        start = time.perf_counter()
        with pytest.raises(FractureError):
            verify_k_le_r(n, k, r)
        assert time.perf_counter() - start < 1.0

    def test_one_color_refused_above_desk_cap(self, monkeypatch):
        # 1^m = 1 passes the enumeration cap, so only the desk edge cap
        # keeps C(22, 6) = 74,613 edges from being listed
        def no_table(shape):
            raise AssertionError(f"edge table built for {shape}")

        monkeypatch.setattr(search_mod, "_edges_flat", no_table)
        with pytest.raises(FractureError, match="desk cap"):
            verify_k_le_r(22, 1, 6)

    def test_one_color_holds(self):
        chk = verify_k_le_r(6, 1, 2)
        assert chk.holds and chk.checked == 1 and chk.counterexample is None


class TestBulkEval:
    @staticmethod
    def check_rows(n, r, colorings, out):
        assert out.shape == (len(colorings), 2)
        for row, (f_got, inc) in zip(colorings.tolist(), out.tolist()):
            assert f_got == oracles.f_of(n, r, tuple(row))
            assert Fraction(inc, n) == oracles.z_of(n, r, tuple(row))

    def test_matches_single_eval(self):
        rng = np.random.default_rng(11)
        n, k, r = 6, 4, 2
        m = math.comb(n, r)
        colorings = rng.integers(0, k, size=(200, m)).astype(np.int64)
        self.check_rows(n, r, colorings, bulk_eval(n, r, k, colorings))

    def test_shape_checked(self):
        with pytest.raises(FractureError):
            bulk_eval(5, 2, 3, np.zeros((4, 3), dtype=np.int64))

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_oracles(self, r, k):
        n = r + 3
        m = math.comb(n, r)
        colorings = np.random.default_rng(10 * r + k).integers(0, k, size=(60, m))
        colorings[0] = 0
        colorings[1] = np.arange(m) % k
        self.check_rows(n, r, colorings, bulk_eval(n, r, k, colorings))

    @pytest.mark.parametrize("rows", [0, 1, 511, 512, 513, 1543])
    def test_block_edges(self, rows):
        # rows are evaluated 512 at a time: every row of every block, the
        # last partial one included, must land in its own output row
        n, r, k = 6, 3, 4
        colorings = np.random.default_rng(rows).integers(0, k, size=(rows, math.comb(n, r)))
        self.check_rows(n, r, colorings, bulk_eval(n, r, k, colorings))

    @pytest.mark.parametrize("n,r,k", [(10, 2, 3), (12, 2, 2), (8, 3, 2)])
    def test_any_edge_order(self, n, r, k):
        # components do not depend on the order edges are merged in; a
        # shuffled order builds deeper union-find chains than colex order
        m = math.comb(n, r)
        rng = np.random.default_rng(n * r * k)
        colorings = rng.integers(0, k, size=(300, m))
        perm = rng.permutation(m)
        edges = search_mod._edges_flat(HypergraphShape(n, r)).reshape(m, r)[perm]
        out = np.zeros((300, 2), dtype=np.int64)
        _kernels.bulk_eval_kernel(n, r, k, m, edges.reshape(-1), colorings[:, perm], out)
        self.check_rows(n, r, colorings, out)

    def test_three_deep_chain(self):
        # 6 -> 5 -> 1 -> 0 after four edges: (2, 6) must find root 0
        # three jumps up from 6, or 2 and 0 stay two components
        edges = np.array([5, 6, 1, 3, 1, 5, 0, 1, 2, 6], dtype=np.int64)
        out = np.zeros((1, 2), dtype=np.int64)
        _kernels.bulk_eval_kernel(7, 2, 1, 5, edges, np.zeros((1, 5), dtype=np.int64), out)
        assert out.tolist() == [[1, 6]]

    @pytest.mark.parametrize("color", [5, 2, -1])
    def test_color_out_of_range_refused(self, color):
        with pytest.raises(FractureError, match="colors must lie in"):
            bulk_eval(4, 2, 2, [[0, 0, 0, 0, 0, color]])

    def test_list_of_ints_accepted(self):
        assert bulk_eval(4, 2, 2, [[0, 0, 0, 0, 0, 1]]).tolist() == [[1, 4]]

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_non_integer_dtype_refused(self, dtype):
        with pytest.raises(FractureError, match="integers"):
            bulk_eval(4, 2, 2, np.zeros((2, 6), dtype=dtype))

    @pytest.mark.parametrize("k", [0, -1, 7])
    def test_k_out_of_range_refused(self, k):
        # as for a Coloring: 1 <= k <= C(4, 2) = 6
        with pytest.raises(FractureError, match="need 1 <= k <= 6"):
            bulk_eval(4, 2, k, np.zeros((2, 6), dtype=np.int64))


class TestRandomizedImprove:
    def test_seeded_and_reaches_optimum_small(self):
        a = randomized_improve(6, 3, 2, seed=0, restarts=10)
        b = randomized_improve(6, 3, 2, seed=0, restarts=10)
        assert a == b
        assert f_value(a.witness) == a.value
        assert a.value == exact_f(6, 3, 2).value
        assert not a.exhausted  # a heuristic never proves optimality

    @pytest.mark.parametrize("restarts,steps", [(0, 10), (-1, 10), (3, 0), (3, -5)])
    def test_no_restart_or_step_refused(self, restarts, steps):
        with pytest.raises(FractureError, match="restarts >= 1 and steps >= 1"):
            randomized_improve(6, 3, 2, restarts=restarts, steps=steps)

    def test_different_seeds_allowed_to_differ(self):
        a = randomized_improve(6, 3, 2, seed=1, restarts=3)
        assert a.value >= 1
