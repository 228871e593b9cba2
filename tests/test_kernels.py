"""Both executions of the one kernel source must agree exactly: same
values, same node counts, same witnesses, bit for bit.  The pure-Python
backend runs the code objects on lists and ints; the raw functions
called on numpy int64 arrays are what numba compiles, and the jitted
kernels are compared against the pure-Python ones where numba imports."""

import math

import numpy as np
import pytest

import oracles
from fracture import _kernels, search
from fracture.core import HypergraphShape
from fracture.search import _edges_flat

HAVE_NUMBA = "numba" in _kernels.IMPLS

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba backend not importable here")


def edges_flat(n, r):
    return _edges_flat(HypergraphShape(n, r))


def run_both(kernel_name, *args):
    results = {}
    for name, impl in _kernels.IMPLS.items():
        copied = [np.copy(a) if isinstance(a, np.ndarray) else a for a in args]
        results[name] = (impl[kernel_name](*copied), copied)
    return results["python"], results["numba"]


SEARCH_CASES = [(4, 2, 2), (4, 3, 2), (5, 2, 2), (5, 3, 2), (4, 2, 3), (5, 3, 3)]


@needs_numba
class TestSearchKernels:
    @pytest.mark.parametrize("n,k,r", SEARCH_CASES)
    def test_search_f_identical(self, n, k, r):
        m = math.comb(n, r)
        flat = edges_flat(n, r)
        prefix = np.empty(0, dtype=np.int64)
        wit = np.zeros(m, dtype=np.int64)
        cap = n // r
        (py, py_args), (nb, nb_args) = run_both(
            "search", _kernels.OBJ_F, n, r, k, m, flat, prefix, 2**62, cap, wit
        )
        assert py == nb
        np.testing.assert_array_equal(py_args[-1], nb_args[-1])

    @pytest.mark.parametrize("n,k,r", SEARCH_CASES)
    def test_search_z_identical(self, n, k, r):
        m = math.comb(n, r)
        flat = edges_flat(n, r)
        prefix = np.empty(0, dtype=np.int64)
        wit = np.zeros(m, dtype=np.int64)
        (py, py_args), (nb, nb_args) = run_both(
            "search", _kernels.OBJ_Z, n, r, k, m, flat, prefix, 2**62, -r, wit
        )
        assert py == nb
        np.testing.assert_array_equal(py_args[-1], nb_args[-1])

    @pytest.mark.parametrize("n,k,r", [(4, 2, 2), (5, 2, 2), (4, 2, 3), (5, 3, 3)])
    def test_search_span_identical(self, n, k, r):
        m = math.comb(n, r)
        flat = edges_flat(n, r)
        prefix = np.empty(0, dtype=np.int64)
        wit = np.full(m, -1, dtype=np.int64)
        (py, py_args), (nb, nb_args) = run_both(
            "search", _kernels.OBJ_SPAN, n, r, k, m, flat, prefix, 2**62, 1, wit
        )
        assert py == nb
        np.testing.assert_array_equal(py_args[-1], nb_args[-1])
        assert not py[3]  # the connectivity claim holds for k <= r
        assert py_args[-1].tolist() == [-1] * m
        for got in TestVerifyKernel.run_all(n, r, k):
            assert got == (True, k**m, None)

    def test_search_with_prefix(self):
        n, k, r = 5, 3, 2
        m = math.comb(n, r)
        flat = edges_flat(n, r)
        for pfx in [[0], [0, 0], [0, 1], [0, 1, 2], [0, 0, 1, 1]]:
            prefix = np.array(pfx, dtype=np.int64)
            wit = np.zeros(m, dtype=np.int64)
            (py, a1), (nb, a2) = run_both(
                "search", _kernels.OBJ_F, n, r, k, m, flat, prefix, 2**62, n // r, wit
            )
            assert py == nb
            np.testing.assert_array_equal(a1[-1], a2[-1])

    def test_search_with_budget(self):
        n, k, r = 5, 3, 2
        m = math.comb(n, r)
        flat = edges_flat(n, r)
        prefix = np.empty(0, dtype=np.int64)
        for budget in [5, 20, 100, 350]:
            wit = np.zeros(m, dtype=np.int64)
            (py, a1), (nb, a2) = run_both(
                "search", _kernels.OBJ_F, n, r, k, m, flat, prefix, budget, n // r, wit
            )
            assert py == nb
            np.testing.assert_array_equal(a1[-1], a2[-1])


@needs_numba
class TestEvalKernels:
    def test_bulk_eval_identical_and_correct(self):
        rng = np.random.default_rng(7)
        for n, k, r in [(5, 3, 2), (6, 4, 2), (6, 5, 3)]:
            m = math.comb(n, r)
            flat = edges_flat(n, r)
            colorings = rng.integers(0, k, size=(50, m)).astype(np.int64)
            out_py = np.zeros((50, 2), dtype=np.int64)
            out_nb = np.zeros((50, 2), dtype=np.int64)
            _kernels.IMPLS["python"]["bulk_eval"](n, r, k, m, flat, colorings, out_py)
            _kernels.IMPLS["numba"]["bulk_eval"](n, r, k, m, flat, colorings, out_nb)
            np.testing.assert_array_equal(out_py, out_nb)
            for row, (f_got, inc_got) in zip(colorings, out_py):
                assert f_got == oracles.f_of(n, r, tuple(row))
                assert inc_got == oracles.z_of(n, r, tuple(row)) * n


PARITY_SHAPES = [
    (n, r, k) for r in (2, 3) for n in range(r, 7) for k in range(1, min(4, math.comb(n, r)) + 1)
]


class TestListBackendParity:
    """IMPLS["python"] (lists and ints) against the raw kernel functions
    on numpy arrays."""

    @pytest.mark.parametrize("n,r,k", PARITY_SHAPES)
    @pytest.mark.parametrize(
        "objective", [_kernels.OBJ_F, _kernels.OBJ_Z, _kernels.OBJ_SPAN], ids=["f", "z", "span"]
    )
    def test_search(self, n, r, k, objective):
        m = math.comb(n, r)
        flat = edges_flat(n, r)
        cap = {_kernels.OBJ_F: n // r, _kernels.OBJ_Z: -r, _kernels.OBJ_SPAN: 1}[objective]
        for prefix, budget in [((), 2**62), ((), 50), ((0,), 7)]:
            outs = []
            for fn in (_kernels.IMPLS["python"]["search"], _kernels._search_impl):
                wit = np.full(m, -1, dtype=np.int64)
                got = fn(objective, n, r, k, m, flat, np.array(prefix, dtype=np.int64), budget, cap, wit)
                outs.append((tuple(int(x) for x in got), wit.tolist()))
            assert outs[0] == outs[1], (prefix, budget)

    @pytest.mark.parametrize("n,r,k", [(5, 3, 2), (6, 4, 2), (6, 5, 3)])
    def test_bulk_eval(self, n, r, k):
        m = math.comb(n, r)
        flat = edges_flat(n, r)
        colorings = np.random.default_rng(n * 100 + k).integers(0, k, size=(40, m)).astype(np.int64)
        rows = []
        for fn in (_kernels.IMPLS["python"]["bulk_eval"], _kernels._bulk_eval_impl):
            out = np.zeros((40, 2), dtype=np.int64)
            fn(n, r, k, m, flat, colorings, out)
            rows.append(out)
        np.testing.assert_array_equal(rows[0], rows[1])


# (n, r, k): k > r shapes end at a first counterexample, k <= r shapes hold
VERIFY_SHAPES = [
    (3, 2, 3), (4, 2, 3), (5, 2, 3), (4, 2, 4), (5, 2, 4), (4, 3, 4), (5, 3, 4),
    (3, 2, 2), (4, 2, 2), (5, 2, 2), (4, 3, 2), (4, 3, 3), (5, 3, 2), (5, 4, 3), (5, 4, 4),
]


class TestVerifyKernel:
    """The canonical span walk behind verify_k_le_r against lexicographic
    enumeration: the same verdict, the same count of colorings checked,
    and the same first counterexample, on every backend."""

    @staticmethod
    def run_all(n, r, k):
        kernels = [impl["search"] for impl in _kernels.IMPLS.values()]
        outs = []
        for fn in kernels + [_kernels._search_impl]:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_kernels, "search_kernel", fn)
                chk = search._first_unspanned(HypergraphShape(n, r), k)
            cx = None if chk.counterexample is None else list(chk.counterexample.assignment)
            outs.append((chk.holds, chk.checked, cx))
        return outs

    @pytest.mark.parametrize("n,r,k", VERIFY_SHAPES)
    def test_matches_enumeration(self, n, r, k):
        want = oracles.first_unspanned(n, k, r)
        assert want[0] == (k <= r)
        if want[0]:
            assert want[1] == k ** math.comb(n, r)
        for got in self.run_all(n, r, k):
            assert got == want

    def test_pinned_counterexamples(self):
        assert self.run_all(4, 2, 3)[0] == (False, 15, [0, 0, 0, 1, 1, 2])
        assert self.run_all(4, 3, 4)[0] == (False, 28, [0, 1, 2, 3])
        assert self.run_all(5, 2, 3)[0][:2] == (False, 42)

    def test_counts_beyond_enumeration(self):
        # 2^21 colorings of K_7: every one holds, and all are counted
        assert self.run_all(7, 2, 2)[0] == (True, 2**21, None)


class TestBackendFlag:
    def test_active_points_at_known_backend(self):
        assert _kernels.ACTIVE in _kernels.IMPLS.values()
        assert _kernels.NUMBA_ENABLED == (_kernels.ACTIVE is _kernels.IMPLS.get("numba"))
