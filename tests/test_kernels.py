"""Both executions of the one search kernel source must agree exactly:
same values, same node counts, same witnesses, bit for bit.  The pure-Python
backend runs the code objects on lists and ints; the raw functions
called on numpy int64 arrays are what numba compiles, and the jitted
kernels are compared against the pure-Python ones where numba imports."""

import math

import numpy as np
import pytest

import oracles
from fracture import _kernels, search
from fracture.core import HypergraphShape
from fracture.search import _edges_flat, _twins

HAVE_NUMBA = "numba" in _kernels.IMPLS

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba backend not importable here")


def tables(n, r):
    """The kernel's edge list and lex-leader partners for K_n^r."""
    shape = HypergraphShape(n, r)
    return _edges_flat(shape), _twins(shape)


def run_both(*args):
    results = {}
    for name, kernel in _kernels.IMPLS.items():
        copied = [np.copy(a) if isinstance(a, np.ndarray) else a for a in args]
        results[name] = (kernel(*copied), copied)
    return results["python"], results["numba"]


SEARCH_CASES = [(4, 2, 2), (4, 3, 2), (5, 2, 2), (5, 3, 2), (4, 2, 3), (5, 3, 3)]


@needs_numba
class TestSearchKernels:
    @pytest.mark.parametrize("n,k,r", SEARCH_CASES)
    def test_search_f_identical(self, n, k, r):
        m = math.comb(n, r)
        flat, twins = tables(n, r)
        wit = np.zeros(m, dtype=np.int64)
        cap = n // r
        (py, py_args), (nb, nb_args) = run_both(_kernels.OBJ_F, n, r, k, m, flat, twins, 2**62, cap, wit)
        assert py == nb
        np.testing.assert_array_equal(py_args[-1], nb_args[-1])

    @pytest.mark.parametrize("n,k,r", SEARCH_CASES)
    def test_search_z_identical(self, n, k, r):
        m = math.comb(n, r)
        flat, twins = tables(n, r)
        wit = np.zeros(m, dtype=np.int64)
        (py, py_args), (nb, nb_args) = run_both(_kernels.OBJ_Z, n, r, k, m, flat, twins, 2**62, -r, wit)
        assert py == nb
        np.testing.assert_array_equal(py_args[-1], nb_args[-1])

    @pytest.mark.parametrize("n,k,r", [(4, 2, 2), (5, 2, 2), (4, 2, 3), (5, 3, 3)])
    def test_search_span_identical(self, n, k, r):
        m = math.comb(n, r)
        flat, twins = tables(n, r)
        wit = np.full(m, -1, dtype=np.int64)
        (py, py_args), (nb, nb_args) = run_both(_kernels.OBJ_SPAN, n, r, k, m, flat, twins, 2**62, 1, wit)
        assert py == nb
        np.testing.assert_array_equal(py_args[-1], nb_args[-1])
        assert not py[3]  # the connectivity claim holds for k <= r
        assert py_args[-1].tolist() == [-1] * m
        for got in TestVerifyKernel.run_all(n, r, k):
            assert got == (True, k**m, None)

    def test_search_with_budget(self):
        n, k, r = 5, 3, 2
        m = math.comb(n, r)
        flat, twins = tables(n, r)
        for budget in [5, 20, 100, 350]:
            wit = np.zeros(m, dtype=np.int64)
            (py, a1), (nb, a2) = run_both(_kernels.OBJ_F, n, r, k, m, flat, twins, budget, n // r, wit)
            assert py == nb
            np.testing.assert_array_equal(a1[-1], a2[-1])


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
        flat, twins = tables(n, r)
        cap = {_kernels.OBJ_F: n // r, _kernels.OBJ_Z: -r, _kernels.OBJ_SPAN: 1}[objective]
        for budget in [2**62, 50, 7]:
            outs = []
            for fn in (_kernels.IMPLS["python"], _kernels._search_impl):
                wit = np.full(m, -1, dtype=np.int64)
                got = fn(objective, n, r, k, m, flat, twins, budget, cap, wit)
                outs.append((tuple(int(x) for x in got), wit.tolist()))
            assert outs[0] == outs[1], budget


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
        outs = []
        for fn in [*_kernels.IMPLS.values(), _kernels._search_impl]:
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
        assert _kernels.search_kernel in _kernels.IMPLS.values()
        assert _kernels.NUMBA_ENABLED == (_kernels.search_kernel is _kernels.IMPLS.get("numba"))
