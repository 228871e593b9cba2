"""The jitted kernels must agree with the pure-python reference exactly:
same values, same node counts, same witnesses, bit for bit."""

import math

import numpy as np
import pytest

import oracles
from fracture import _kernels
from fracture.core import HypergraphShape
from fracture.search import _edges_flat

HAVE_NUMBA = "numba" in _kernels.IMPLS

pytestmark = pytest.mark.skipif(
    not HAVE_NUMBA, reason="numba backend not importable here"
)


def edges_flat(n, r):
    return _edges_flat(HypergraphShape(n, r))


def run_both(kernel_name, *args):
    results = {}
    for name, impl in _kernels.IMPLS.items():
        copied = [np.copy(a) if isinstance(a, np.ndarray) else a for a in args]
        results[name] = (impl[kernel_name](*copied), copied)
    return results["python"], results["numba"]


SEARCH_CASES = [(4, 2, 2), (4, 3, 2), (5, 2, 2), (5, 3, 2), (4, 2, 3), (5, 3, 3)]


class TestSearchKernels:
    @pytest.mark.parametrize("n,k,r", SEARCH_CASES)
    def test_search_f_identical(self, n, k, r):
        m = math.comb(n, r)
        flat = edges_flat(n, r)
        prefix = np.empty(0, dtype=np.int64)
        wit = np.zeros(m, dtype=np.int64)
        cap = n // r
        (py, py_args), (nb, nb_args) = run_both(
            "search", False, n, r, k, m, flat, prefix, 2**62, cap, wit
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
            "search", True, n, r, k, m, flat, prefix, 2**62, -r, wit
        )
        assert py == nb
        np.testing.assert_array_equal(py_args[-1], nb_args[-1])

    def test_search_with_prefix(self):
        n, k, r = 5, 3, 2
        m = math.comb(n, r)
        flat = edges_flat(n, r)
        for pfx in [[0], [0, 0], [0, 1], [0, 1, 2], [0, 0, 1, 1]]:
            prefix = np.array(pfx, dtype=np.int64)
            wit = np.zeros(m, dtype=np.int64)
            (py, a1), (nb, a2) = run_both(
                "search", False, n, r, k, m, flat, prefix, 2**62, n // r, wit
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
                "search", False, n, r, k, m, flat, prefix, budget, n // r, wit
            )
            assert py == nb
            np.testing.assert_array_equal(a1[-1], a2[-1])


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

    def test_verify_kernel_identical(self):
        for n, k, r in [(4, 2, 2), (5, 2, 2), (4, 2, 3), (5, 3, 3)]:
            m = math.comb(n, r)
            flat = edges_flat(n, r)
            c_py = np.zeros(m, dtype=np.int64)
            c_nb = np.zeros(m, dtype=np.int64)
            res_py = _kernels.IMPLS["python"]["verify_kler"](n, r, k, m, flat, c_py)
            res_nb = _kernels.IMPLS["numba"]["verify_kler"](n, r, k, m, flat, c_nb)
            assert res_py == res_nb
            np.testing.assert_array_equal(c_py, c_nb)
            assert res_py[0]  # the connectivity claim holds for k <= r
            assert res_py[1] == k**m


class TestBackendFlag:
    def test_active_points_at_known_backend(self):
        assert _kernels.ACTIVE in _kernels.IMPLS.values()
        assert _kernels.NUMBA_ENABLED == (_kernels.ACTIVE is _kernels.IMPLS["numba"])
