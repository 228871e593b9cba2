"""Exact searches checked against raw enumeration on instances small
enough to enumerate every coloring."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from fracture import _kernels
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
    verify_k_le_r,
    z_value,
)

ORACLE_CASES = [(3, 2, 2), (3, 3, 2), (4, 2, 2), (4, 3, 2), (4, 2, 3), (5, 2, 4)]


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

    def test_determinism_across_threads(self, monkeypatch):
        # pool subtrees as the GIL-free backend does, on the interpreted kernel
        monkeypatch.setattr(_kernels, "NUMBA_ENABLED", True)
        base = exact_f(5, 3, 2, SearchOptions(thread_hint=1))
        for hint in [2, 4]:
            again = exact_f(5, 3, 2, SearchOptions(thread_hint=hint))
            assert again == base
        assert exact_f(5, 3, 2, SearchOptions(thread_hint=1)) == base

    def test_budget_reported(self):
        full = exact_f(5, 3, 2)
        capped = exact_f(5, 3, 2, SearchOptions(node_budget=full.nodes // 3))
        assert not capped.exhausted
        assert capped.value <= full.value
        assert f_value(capped.witness) == capped.value

    def test_budget_too_small_raises(self):
        with pytest.raises(SearchBudgetError):
            exact_f(6, 3, 2, SearchOptions(node_budget=4))

    def test_interpreted_subtrees_stay_serial(self, monkeypatch):
        # the interpreted kernel holds the GIL, so a pool would only add contention
        monkeypatch.setattr(_kernels, "NUMBA_ENABLED", False)

        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool used by a GIL-bound backend")

        monkeypatch.setattr(search_mod, "ThreadPoolExecutor", no_pool)
        assert exact_f(5, 3, 2, SearchOptions(thread_hint=4)) == exact_f(5, 3, 2)

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

    def test_determinism_across_threads(self, monkeypatch):
        monkeypatch.setattr(_kernels, "NUMBA_ENABLED", True)
        base = exact_z(5, 4, 2, SearchOptions(thread_hint=1))
        again = exact_z(5, 4, 2, SearchOptions(thread_hint=4))
        assert again == base


# (objective, n, k, node budget, value, exhausted, nodes, witness): the search
# must give exactly these until the enumeration order or a prune rule changes
NODE_PINS = [
    ("f", 6, 3, None, 2, True, 1057, (0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 1, 0)),
    ("f", 7, 3, None, 2, True, 1117,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 0)),
    ("f", 7, 4, None, 2, True, 1463,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 0)),
    ("z", 5, 4, None, Fraction(3, 5), True, 690, (0, 0, 0, 1, 1, 2, 3, 3, 2, 2)),
    ("z", 6, 4, None, Fraction(2, 3), True, 2469,
     (0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 2, 2)),
    ("z", 3, 3, None, Fraction(2, 3), True, 0, (0, 1, 2)),
    ("f", 8, 4, 2000, 2, False, 1995,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 1, 0)),
]


@pytest.mark.parametrize("kind,n,k,budget,value,exhausted,nodes,witness", NODE_PINS)
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

    def test_limit_guard(self):
        with pytest.raises(FractureError):
            verify_k_le_r(8, 2, 2, limit=1000)


class TestBulkEval:
    def test_matches_single_eval(self):
        rng = np.random.default_rng(11)
        n, k, r = 6, 4, 2
        m = math.comb(n, r)
        colorings = rng.integers(0, k, size=(200, m)).astype(np.int64)
        out = bulk_eval(n, r, k, colorings)
        assert out.shape == (200, 2)
        for row, (f_got, inc) in zip(colorings, out):
            assert f_got == oracles.f_of(n, r, tuple(row))
            assert Fraction(int(inc), n) == oracles.z_of(n, r, tuple(row))

    def test_shape_checked(self):
        with pytest.raises(FractureError):
            bulk_eval(5, 2, 3, np.zeros((4, 3), dtype=np.int64))


class TestRandomizedImprove:
    def test_seeded_and_reaches_optimum_small(self):
        a = randomized_improve(6, 3, 2, seed=0, restarts=10)
        b = randomized_improve(6, 3, 2, seed=0, restarts=10)
        assert a == b
        assert f_value(a.witness) == a.value
        assert a.value == exact_f(6, 3, 2).value
        assert not a.exhausted  # a heuristic never proves optimality

    def test_different_seeds_allowed_to_differ(self):
        a = randomized_improve(6, 3, 2, seed=1, restarts=3)
        assert a.value >= 1
