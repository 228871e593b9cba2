"""Exact searches checked against raw enumeration on instances small
enough to enumerate every coloring."""

import hashlib
import math
import time
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # f(7, 2) = 1 is below its cap, so the full search walks the whole tree
        full = exact_f(7, 2, 2)
        capped = exact_f(7, 2, 2, SearchOptions(node_budget=full.nodes // 3))
        assert not capped.exhausted
        assert capped.value <= full.value
        assert f_value(capped.witness) == capped.value

    def test_budget_too_small_raises(self):
        with pytest.raises(SearchBudgetError):
            exact_f(6, 3, 2, SearchOptions(node_budget=4))

    def test_budgeted_witness_is_unbudgeted(self):
        # one walk in lexicographic order: any budget that lets it finish
        # returns the same smallest optimal coloring, and one node less does not
        full = exact_f(8, 4, 2)
        assert (full.value, full.exhausted) == (3, True)
        for budget in (full.nodes, full.nodes + 1, 30_000):
            res = exact_f(8, 4, 2, SearchOptions(node_budget=budget))
            assert (res.value, res.exhausted, res.nodes) == (3, True, full.nodes)
            assert res.witness == full.witness
        short = exact_f(8, 4, 2, SearchOptions(node_budget=full.nodes - 1))
        assert not short.exhausted and short.nodes == full.nodes - 1

    def test_one_kernel_call_with_whole_budget(self, monkeypatch):
        budgets = []
        kernel = _kernels.search_kernel

        def counted(*args):
            budgets.append(args[7])
            return kernel(*args)

        monkeypatch.setattr(_kernels, "search_kernel", counted)
        res = exact_f(8, 4, 2, SearchOptions(node_budget=30_000))
        assert budgets == [30_000]
        assert (res.value, res.exhausted) == (3, True)

    def test_single_edge_host(self):
        res = exact_f(3, 1, 3)
        assert (res.value, res.exhausted, res.nodes) == (1, True, 1)

    def test_wide_host(self):
        # n = r + 1: a leaf lies m = 101 nodes down, and the first one
        # reaches cap 1, so a budget of m proves it and m - 1 finds no leaf
        res = exact_f(101, 101, 100)
        budgeted = exact_f(101, 101, 100, SearchOptions(node_budget=101))
        with pytest.raises(SearchBudgetError):
            exact_f(101, 101, 100, SearchOptions(node_budget=100))
        assert (res.value, res.exhausted, res.nodes) == (1, True, 101)
        assert (budgeted.value, budgeted.exhausted, budgeted.nodes) == (1, True, 101)

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
        # the whole host is one triangle: every leaf lies three nodes down
        res = exact_z(3, 3, 2)
        assert res.exhausted
        assert res.value == Fraction(2, 3)


def walked_leaves(n, k, r):
    """Every leaf the search kernel reaches on K_n^r with k colors, in
    walk order, with only its symmetry breaking left to prune.

    The kernel body runs on lists under the f objective with a vertex
    count padded past n: no vertex at or above n is ever touched, so
    each bound comp + (padded - inc) // r stays above every leaf score,
    and cap is out of reach.  Each leaf reads used[m] once while it is
    scored, with the walk's assignment in the one array of m -1s."""
    shape = HypergraphShape(n, r)
    m = shape.edge_count
    padded = n + r * (n + 1)
    leaves, arrays = [], {}

    class Used(list):
        def __getitem__(self, i):
            if i == m:
                leaves.append(tuple(arrays["assign"]))
            return list.__getitem__(self, i)

    class Spy(_kernels._ListNumpy):
        @staticmethod
        def full(size, value, dtype=None):
            out = [value] * size
            if (size, value) == (m, -1):
                arrays["assign"] = out
            return out

        @staticmethod
        def zeros(size, dtype=None):
            return Used([0] * size) if size == m + 2 else [0] * size

    fn = _kernels._search_impl
    body = types.FunctionType(fn.__code__, {**fn.__globals__, "np": Spy})
    flat = search_mod._edges_flat(shape).tolist()
    twins = search_mod._twins(shape).tolist()
    body(_kernels.OBJ_F, padded, r, k, m, flat, twins, 2**62, padded, [0] * m)
    return leaves


LEX_SHAPES = {
    2: [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3)],
    3: [(4, 2), (4, 4), (5, 2), (5, 3)],
    4: [(5, 2), (5, 5), (6, 2)],
    5: [(6, 3), (6, 6)],
}


class TestLexLeader:
    @pytest.mark.parametrize("r", sorted(LEX_SHAPES))
    def test_leaves_are_lex_leaders(self, r):
        # the walk keeps exactly the first-use-canonical colorings that no
        # adjacent vertex swap makes smaller, in lexicographic order
        for n, k in LEX_SHAPES[r]:
            assert walked_leaves(n, k, r) == oracles.lex_leaders(n, k, r), (n, k)

    def test_twins_lower_one_vertex(self):
        for n, r in [(6, 2), (6, 3), (7, 4), (5, 5)]:
            edges = oracles.colex_edges(n, r)
            twins = search_mod._twins(HypergraphShape(n, r)).reshape(-1, r)
            for edge, row in zip(edges, twins):
                for j, v in enumerate(edge):
                    if v == 0 or v - 1 in edge:
                        assert row[j] == -1
                    else:
                        assert edges[row[j]] == tuple(sorted(set(edge) - {v} | {v - 1}))


# (objective, n, k, r, node budget, value, exhausted, nodes, witness): the
# search must give exactly these until the enumeration order or a prune
# rule changes.  The r = 3 and r = 4 walks run the kernel's r - 1 merges
# per edge; the budgeted ones stop mid-walk with the undo log deep.
NODE_PINS = [
    ("f", 6, 3, 2, None, 2, True, 43, (0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 1, 0)),
    ("f", 7, 3, 2, None, 2, True, 56,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 0)),
    ("f", 7, 4, 2, None, 2, True, 56,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 0)),
    ("z", 5, 4, 2, None, Fraction(3, 5), True, 61, (0, 0, 0, 1, 1, 2, 3, 3, 2, 2)),
    ("z", 6, 4, 2, None, Fraction(2, 3), True, 417,
     (0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 2, 2)),
    ("z", 3, 3, 2, None, Fraction(2, 3), True, 8, (0, 1, 2)),
    ("f", 8, 4, 2, 2000, 2, False, 2000,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 1, 0)),
    ("z", 7, 5, 2, None, Fraction(4, 7), True, 2425,
     (0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 2, 2, 4, 3, 3, 4, 4, 3)),
    ("f", 9, 5, 2, None, 3, True, 3769,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 4, 3, 3, 3, 3, 4, 0, 1,
      4, 4, 4, 4, 1, 3, 0, 2)),
    ("f", 10, 4, 2, 100_000, 2, False, 100_000, (0,) * 28 + (1,) * 7 + (2,) * 8 + (1, 0)),
    ("z", 6, 3, 3, None, Fraction(1), True, 8613, (0,) * 20),
    ("f", 8, 6, 3, 20_000, 1, False, 20_000, (0,) * 56),
    ("z", 7, 4, 3, 20_000, Fraction(6, 7), False, 20_000, (0,) * 20 + (1,) * 10 + (2,) * 4 + (3,)),
    ("z", 6, 3, 4, None, Fraction(1), True, 182, (0,) * 15),
    ("z", 7, 4, 4, 20_000, Fraction(1), False, 20_000, (0,) * 35),
    # best-found values: budgeted walks that stop below the optimum (3 and
    # 4) return the best coloring reached so far
    ("f", 11, 4, 2, 20_000, 2, False, 20_000, (0,) * 36 + (1,) * 8 + (2,) * 9 + (1, 0)),
    ("f", 10, 5, 2, 20_000, 3, False, 20_000,
     (0,) * 15 + (1,) * 5 + (2,) * 6 + (3, 4, 3, 3, 3, 3, 3, 4, 0, 1, 4, 4, 4, 4, 4, 1, 3, 0, 2)),
]


@pytest.mark.parametrize(
    "kind,n,k,r,budget,value,exhausted,nodes,witness",
    NODE_PINS,
    ids=[
        f"{kind}-{n}-{k}-{budget}" + ("" if r == 2 else f"-r{r}")
        for kind, n, k, r, budget, *_ in NODE_PINS
    ],
)
def test_node_for_node(kind, n, k, r, budget, value, exhausted, nodes, witness):
    search = exact_f if kind == "f" else exact_z
    res = search(n, k, r, SearchOptions(node_budget=budget))
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


# sha256 of (value, exhausted, nodes, witness) at every node budget from
# C(n, r) to 700 on these searches, recorded while the kernel still
# counted each lex-leader prune as a node of its own.  It now counts a
# run of them in one step, and many of these budgets stop inside a run.
BOUNDARY_CASES = [("z", 6, 4, 2), ("f", 8, 4, 2), ("z", 6, 3, 3)]
BOUNDARY_DIGEST = "1ec18db5538977eadc8ef534eb0d11d7c90197e6b3a87e16e6ef0bff2df8dd42"


def test_every_budget_boundary():
    digest = hashlib.sha256()
    for kind, n, k, r in BOUNDARY_CASES:
        search = exact_f if kind == "f" else exact_z
        for budget in range(math.comb(n, r), 701):
            res = search(n, k, r, SearchOptions(node_budget=budget))
            if not res.exhausted:
                assert res.nodes == budget, (kind, n, k, r, budget)
            digest.update(repr((res.value, res.exhausted, res.nodes, res.witness.assignment)).encode())
    assert digest.hexdigest() == BOUNDARY_DIGEST


class TestIntegerInputs:
    """Counts are ints: a bool, a float or a string is refused, never
    rounded or read as 0 or 1; numpy integers pass as operator.index
    reads them."""

    @pytest.mark.parametrize("bad", [3.0, True, np.float64(3), "3"], ids=repr)
    def test_k_refused(self, bad):
        for call in (
            lambda: exact_f(7, bad),
            lambda: exact_z(7, bad),
            lambda: bulk_eval(4, 2, bad, np.zeros((1, 6), dtype=np.int64)),
        ):
            with pytest.raises(FractureError, match="k must be an integer"):
                call()

    @pytest.mark.parametrize("bad", [True, 2.0, np.float64(2)], ids=repr)
    def test_verifier_k_refused(self, bad):
        with pytest.raises(FractureError, match="k must be an integer"):
            verify_k_le_r(5, bad, 2)

    @pytest.mark.parametrize("bad", [1e5, 100.5, True, "500"], ids=repr)
    def test_node_budget_refused(self, bad):
        with pytest.raises(FractureError, match="node budget must be an integer"):
            exact_f(7, 3, 2, SearchOptions(node_budget=bad))

    def test_numpy_integers_accepted(self):
        i64 = np.int64
        res = exact_f(i64(7), i64(3), i64(2), SearchOptions(node_budget=i64(500)))
        assert res == exact_f(7, 3, 2, SearchOptions(node_budget=500))
        assert type(res.nodes) is int and type(res.witness.n) is int
        assert verify_k_le_r(i64(4), i64(2), i64(2)) == verify_k_le_r(4, 2, 2)
        rows = np.zeros((1, 6), dtype=np.int64)
        assert bulk_eval(i64(4), i64(2), i64(2), rows).tolist() == bulk_eval(4, 2, 2, rows).tolist()


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
        # 2^28 colorings, above the 10^7 enumeration cap
        with pytest.raises(FractureError):
            verify_k_le_r(8, 2, 2)

    @pytest.mark.parametrize("n,k,r", [(60, 2, 30), (40, 2, 12)])
    def test_oversized_refused_at_once(self, n, k, r):
        # 2^C(60, 30) would exhaust memory and 2^C(40, 12) take minutes to build
        start = time.perf_counter()
        with pytest.raises(FractureError):
            verify_k_le_r(n, k, r)
        assert time.perf_counter() - start < 1.0

    def test_unbudgeted_huge_host_is_a_size_error(self):
        # no budget was given, so the desk cap answers, not the budget check
        for objective in (exact_f, exact_z):
            with pytest.raises(FractureError, match="desk cap") as info:
                objective(10**100, 2, 60)
            assert not isinstance(info.value, SearchBudgetError)

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


_BLOCK = _kernels._BLOCK_ROWS

# sha256 of the bulk_eval rows, as little-endian int64, over every shape
# of the given r with C(n, r) <= 84, k = 1..min(7, C(n, r)) and the row
# counts of _PARITY_ROWS, colorings drawn from default_rng([n, r, k, rows]);
# recorded from the edge-at-a-time, row-major kernel this one replaced
_PARITY_ROWS = (0, 1, 50, 511, 512, 513, 1543, 3000)
_PARITY_DIGESTS = {
    2: "34bc8e8a5e04ff241f1731766141fb0a86b821407ba8da40c82460d072f970f8",
    3: "11d6ddea63c0a2ea7bd55af3dd89a7318787eacd9120ce97f9dfde98411ec025",
    4: "8e3980967cb9d2e7062203ded20ada742ded87bc817c54a5ad080629b6fc4a17",
}


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

    @pytest.mark.parametrize("rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_block_edges(self, rows):
        # rows are evaluated a block at a time: every row of every block,
        # the last partial one included, must land in its own output row
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

    @pytest.mark.parametrize(
        "n,r,cls",
        [
            # two components, then one, joined through the hub in one step
            (6, 2, [(0, 1), (2, 3), (0, 5), (2, 5), (4, 5)]),
            (7, 3, [(0, 1, 2), (3, 4, 5), (0, 1, 6), (3, 4, 6)]),
            # a star at the hub beside a triangle: two components
            (6, 2, [(0, 5), (1, 5), (2, 3), (3, 4), (2, 4)]),
            (7, 3, [(0, 1, 6), (0, 2, 6), (1, 2, 6), (3, 4, 5)]),
        ],
        ids=["joined-r2", "joined-r3", "apart-r2", "apart-r3"],
    )
    def test_shared_hub(self, n, r, cls):
        # several edges of one class share their largest vertex, so one
        # grouped step writes the same hub root from several edges at once
        edges = oracles.colex_edges(n, r)
        inside = np.array([e in cls for e in edges])
        rest = 1 + np.arange(len(edges)) % 2
        colorings = np.array([np.where(inside, 0, 1), np.where(inside, 1, 0), np.where(inside, 0, rest)])
        self.check_rows(n, r, colorings, bulk_eval(n, r, 3, colorings))

    @pytest.mark.parametrize("block", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_small_blocks_any_edge_order(self, block, data):
        # tiny blocks put every block boundary, the last partial block and
        # deep union-find chains in reach of small random cases
        n = data.draw(st.integers(2, 7), label="n")
        r = data.draw(st.integers(2, min(n, 4)), label="r")
        m = math.comb(n, r)
        k = data.draw(st.integers(1, min(m, 4)), label="k")
        rows = data.draw(st.integers(0, 8), label="rows")
        perm = np.array(data.draw(st.permutations(range(m)), label="perm"), dtype=np.int64)
        cells = data.draw(st.lists(st.integers(0, k - 1), min_size=rows * m, max_size=rows * m), label="colors")
        colorings = np.array(cells, dtype=np.int64).reshape(rows, m)
        edges = search_mod._edges_flat(HypergraphShape(n, r)).reshape(m, r)[perm]
        # the largest vertex at any place in its edge
        edges = np.roll(edges, data.draw(st.integers(0, r - 1), label="roll"), axis=1)
        out = np.zeros((rows, 2), dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK_ROWS", block)
            _kernels.bulk_eval_kernel(n, r, k, m, edges.reshape(-1), colorings[:, perm], out)
        self.check_rows(n, r, colorings, out)

    @pytest.mark.parametrize("r", sorted(_PARITY_DIGESTS))
    def test_rows_pinned(self, r):
        digest = hashlib.sha256()
        n = r
        while math.comb(n, r) <= 84:
            m = math.comb(n, r)
            for k in range(1, min(7, m) + 1):
                for rows in _PARITY_ROWS:
                    colorings = np.random.default_rng([n, r, k, rows]).integers(0, k, size=(rows, m))
                    digest.update(bulk_eval(n, r, k, colorings).astype("<i8").tobytes())
            n += 1
        assert digest.hexdigest() == _PARITY_DIGESTS[r]

    @pytest.mark.parametrize("n,r,k", [(9, 2, 3), (12, 2, 2), (7, 3, 2), (8, 3, 3)])
    def test_descending_colex_order(self, n, r, k):
        # largest vertices fall from group to group, so each group's slot
        # at its largest vertex already lies in a component: the hook must
        # go under that slot's root, not under the slot
        m = math.comb(n, r)
        colorings = np.random.default_rng([n, r, k]).integers(0, k, size=(200, m))
        colorings[0] = 0
        edges = search_mod._edges_flat(HypergraphShape(n, r)).reshape(m, r)[::-1]
        out = np.zeros((200, 2), dtype=np.int64)
        _kernels.bulk_eval_kernel(n, r, k, m, edges.reshape(-1), colorings[:, ::-1], out)
        self.check_rows(n, r, colorings, out)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("n,r,k", [(6, 2, 3), (6, 3, 4), (5, 4, 2), (6, 2, 6)])
    def test_block_slots_bound(self, monkeypatch, block, n, r, k):
        # _BLOCK_SLOTS caps the union-find slots, k * n a row, and the
        # index entries, C(n, r) * r a row: just under block + 1 rows of
        # the larger gives blocks of block rows
        m = math.comb(n, r)
        monkeypatch.setattr(_kernels, "_BLOCK_SLOTS", (block + 1) * max(k * n, m * r) - 1)
        sizes = []

        class Blocks(np.ndarray):
            def __getitem__(self, key):
                part = np.asarray(super().__getitem__(key))
                sizes.append(len(part))
                return part

        rows = 3 * block + 2
        colorings = np.random.default_rng([n, r, k, block]).integers(0, k, size=(rows, m))
        out = np.zeros((rows, 2), dtype=np.int64)
        flat = search_mod._edges_flat(HypergraphShape(n, r))
        _kernels.bulk_eval_kernel(n, r, k, m, flat, colorings.view(Blocks), out)
        assert sizes == [min(block, rows - lo) for lo in range(0, rows, block)]
        self.check_rows(n, r, colorings, out)

    def test_three_deep_chain(self):
        # (1, 5) hooks 3, the root of slot 1, under 6, the root of slot 5,
        # which leaves 1 -> 3 -> 6 until that group's shortcut; without it
        # (1, 4) reads 3 as the root of 1 and hooks it under 4, cutting it
        # from 6, and {5, 6} stays a second component
        edges = np.array([5, 6, 1, 3, 1, 5, 1, 4, 0, 1, 2, 6], dtype=np.int64)
        out = np.zeros((1, 2), dtype=np.int64)
        _kernels.bulk_eval_kernel(7, 2, 1, 6, edges, np.zeros((1, 6), dtype=np.int64), out)
        assert out.tolist() == [[1, 7]]

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

    @pytest.mark.parametrize("n,k,rows", [(70, 2415, 1), (2000, 2, 0)])
    def test_refused_above_desk_cap(self, monkeypatch, n, k, rows):
        # the kernel takes k * n slots a row, and k may be C(n, 2): one row
        # of K_2000 with k = C(2000, 2) would ask for about 4e9 slots
        def refuse(*args):
            raise AssertionError("edge table or kernel reached above the desk cap")

        monkeypatch.setattr(search_mod, "_edges_flat", refuse)
        monkeypatch.setattr(_kernels, "bulk_eval_kernel", refuse)
        colorings = np.zeros((rows, math.comb(n, 2)), dtype=np.int64)
        with pytest.raises(FractureError, match=rf"C\({n},2\)={math.comb(n, 2)} above desk cap"):
            bulk_eval(n, 2, k, colorings)
