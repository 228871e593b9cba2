"""Bound records, exact root arithmetic, and the growth-rate table.

The sqrt comparisons in the oracle below are done by cross-squaring
integers so the tests never trust RootValue/SqrtRate with their own
verification.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracture import (
    FractureError,
    SqrtRate,
    decimal_ceil,
    decimal_floor,
    f_upper_best,
    f_upper_counting,
    f_upper_trivial,
    growth_rate_table,
    root_value,
    z_lower_best,
    z_lower_recursive,
    z_upper_constructions,
)
from fracture.bounds import Z_LOWER_KR_CAP, RootValue, _iroot_exact


from oracles import sqrt_rate_vs, z_lower_sqrt


def test_sqrt_rate_vs_oracle_agrees_with_floats():
    for k in range(3, 40):
        v = 0.5 - 0.5 / math.sqrt(k)
        for num in range(0, 50):
            x = Fraction(num, 100)
            if abs(v - float(x)) > 1e-9:
                assert sqrt_rate_vs(k, x) == (-1 if v < float(x) else 1)


class TestRootValue:
    def test_exact_roots_collapse(self):
        assert root_value(Fraction(8, 27), 3) == Fraction(2, 3)
        assert root_value(Fraction(1, 4), 2) == Fraction(1, 2)
        assert isinstance(root_value(Fraction(1, 2), 2), RootValue)

    def test_ordering_known(self):
        half_sqrt = root_value(Fraction(1, 2), 2)  # ~0.707
        assert Fraction(2, 3) < half_sqrt < Fraction(3, 4)
        assert half_sqrt < root_value(Fraction(3, 4), 2)
        assert root_value(Fraction(1, 2), 3) > half_sqrt  # cube root is larger
        assert half_sqrt <= RootValue(Fraction(1, 2), 2) <= half_sqrt
        assert Fraction(3, 4) >= half_sqrt >= Fraction(2, 3)
        assert not half_sqrt >= Fraction(3, 4) and not half_sqrt <= Fraction(2, 3)

    @given(
        st.fractions(min_value="1/100", max_value=1),
        st.fractions(min_value="1/100", max_value=1),
        st.integers(2, 4),
        st.integers(2, 4),
    )
    @settings(max_examples=150)
    def test_ordering_matches_floats(self, a, b, da, db):
        x = root_value(a, da)
        y = root_value(b, db)
        fx, fy = float(a) ** (1 / da), float(b) ** (1 / db)
        if abs(fx - fy) > 1e-9:  # floats can resolve it, exact must agree
            assert (x < y) == (fx < fy)
            assert (x > y) == (fx > fy)

    def test_degenerate_degree_rejected(self):
        with pytest.raises(Exception):
            RootValue(Fraction(1, 2), 1)

    @pytest.mark.parametrize("other", [0.5, "1/2", None])
    def test_non_number_comparison_raises(self, other):
        x = root_value(Fraction(1, 2), 2)
        for compare in (
            lambda: x < other, lambda: x <= other, lambda: x > other, lambda: x >= other,
            lambda: other < x, lambda: other >= x,
        ):
            with pytest.raises(TypeError):
                compare()
        assert x != other


class TestIntegerRoot:
    def test_large_exact_cube(self):
        y = 10**20 + 7
        assert _iroot_exact(y**3, 3) == y
        assert root_value(Fraction(y**3, 8), 3) == Fraction(y, 2)

    def test_beyond_float_range(self):
        x = 10**400
        assert _iroot_exact(x, 2) == 10**200
        assert _iroot_exact(x, 4) == 10**100
        assert _iroot_exact(x, 3) is None

    def test_non_powers(self):
        y = 10**20 + 7
        assert _iroot_exact(y**3 + 1, 3) is None
        assert _iroot_exact(y**3 - 1, 3) is None
        assert _iroot_exact(2**61 - 1, 2) is None
        assert _iroot_exact(0, 2) is None

    def test_small_values_exhaustive(self):
        for e in range(1, 6):
            powers = {y**e: y for y in range(1, 3000)}
            for x in range(1, 3000):
                assert _iroot_exact(x, e) == powers.get(x)


class TestZLower:
    def test_table_values(self):
        # the recursion alone reaches 1/2 at k in {4, 5}; the sharper
        # 3/5 and 5/9 come from the dedicated small constructions
        expected = {
            3: Fraction(2, 3),
            4: Fraction(3, 5),
            5: Fraction(5, 9),
            6: Fraction(1, 2),
            7: Fraction(3, 7),
            8: Fraction(3, 8),
            9: Fraction(1, 3),
            10: Fraction(1, 3),
            11: Fraction(1, 3),
            12: Fraction(1, 3),
            13: Fraction(4, 13),
        }
        for k, value in expected.items():
            assert z_lower_best(k, 2).value == value, k
        assert z_lower_recursive(4, 2).value == Fraction(1, 2)
        assert z_lower_recursive(5, 2).value == Fraction(1, 2)

    def test_provenance_strings(self):
        assert z_lower_recursive(2, 2).provenance == "connected"
        assert z_lower_best(4, 2).provenance == "special_case"
        assert z_lower_best(5, 2).provenance == "special_case"
        assert z_lower_recursive(6, 2).provenance.startswith("recursion(d=")
        assert z_lower_recursive(5, 1).provenance == "singleton_split"

    def test_connected_regime(self):
        for r in range(2, 6):
            for k in range(1, r + 1):
                assert z_lower_recursive(k, r).value == 1

    def test_link_step_gives_simplex_bound(self):
        # k = r+1 colors on r-uniform: one color spans all but one vertex
        for r in range(2, 7):
            assert z_lower_recursive(r + 1, r).value == Fraction(r, r + 1)

    @pytest.mark.parametrize("r", [2, 3])
    def test_monotone_in_k(self, r):
        prev = z_lower_recursive(3, r).value
        for k in range(4, 61):
            cur = z_lower_recursive(k, r).value
            assert cur <= prev
            prev = cur

    def test_recursive_beats_sqrt(self):
        for k in range(3, 201):
            rec = z_lower_recursive(k, 2).value
            srt = z_lower_sqrt(k)
            assert rec >= srt
            assert z_lower_best(k, 2).value >= rec

    def test_desk_cap_refuses_before_recursion(self):
        # the cap admits the growth-rate table and every catalog (k, r);
        # (500, 100) and (500, 480) ran for more than 20 s under a cap on k
        assert Z_LOWER_KR_CAP >= 35 * 3
        for k, r in [(Z_LOWER_KR_CAP // 2 + 1, 2), (Z_LOWER_KR_CAP // 3 + 1, 3), (500, 100), (500, 480)]:
            z_lower_recursive.cache_clear()
            start = time.perf_counter()
            with pytest.raises(FractureError, match="desk cap"):
                z_lower_recursive(k, r)
            assert time.perf_counter() - start < 1
            assert z_lower_recursive.cache_info().currsize == 0
        for k, r in [(0, 2), (2, 0)]:
            for bound in (z_lower_recursive, z_upper_constructions):
                with pytest.raises(FractureError, match=r"need k, r >= 1"):
                    bound(k, r)

    def test_instant_answers_precede_the_cap(self):
        rec = z_lower_recursive(3, 1000)
        assert (rec.value, rec.provenance) == (1, "connected")
        rec = z_lower_recursive(10**8, 1)
        assert (rec.value, rec.provenance) == (Fraction(1, 10**8), "singleton_split")

    def test_sqrt_form(self):
        # least D with D(D+1) >= k
        assert z_lower_sqrt(9) == Fraction(1, 3)
        assert z_lower_sqrt(12) == Fraction(1, 3)
        assert z_lower_sqrt(13) == Fraction(1, 4)


class TestZUpper:
    def test_table_values(self):
        expected = {
            3: Fraction(2, 3),
            4: Fraction(3, 5),
            5: Fraction(5, 9),
            6: Fraction(1, 2),
            7: Fraction(3, 7),
            8: Fraction(3, 7),
            9: Fraction(2, 5),
            10: Fraction(2, 5),
            11: Fraction(4, 11),
            12: Fraction(1, 3),
            13: Fraction(4, 13),
        }
        for k, value in expected.items():
            assert z_upper_constructions(k, 2).value == value, k

    def test_provenance_names_construction(self):
        assert "rainbow-triangle" in z_upper_constructions(3, 2).provenance
        assert "monotone" in z_upper_constructions(8, 2).provenance
        assert "diamond(10)" in z_upper_constructions(9, 2).provenance
        assert "diamond(11)" in z_upper_constructions(11, 2).provenance
        assert "pg(3)" in z_upper_constructions(13, 2).provenance

    def test_triple_catalog(self):
        assert z_upper_constructions(4, 3).value == Fraction(3, 4)
        assert z_upper_constructions(6, 3).value == Fraction(2, 3)
        assert z_upper_constructions(14, 3).value == Fraction(1, 2)
        assert z_upper_constructions(30, 3).value == Fraction(2, 5)

    def test_sandwich(self):
        for k in range(3, 14):
            assert z_lower_best(k, 2).value <= z_upper_constructions(k, 2).value
        for k in [4, 6, 10, 14, 30]:
            assert z_lower_best(k, 3).value <= z_upper_constructions(k, 3).value


class TestFUpper:
    def test_counting_small(self):
        assert f_upper_counting(6, 3, 2).value == 2
        assert f_upper_counting(12, 3, 2).value == 3
        for n in [5, 9, 14]:
            assert f_upper_counting(n, 1, 2).value == 1

    def test_bisection_matches_scan(self):
        def scan(n, k, r):
            total = math.comb(n, r)
            for t in range(n // r, 0, -1):
                if k * (math.comb(n - r * (t - 1), r) + t - 1) >= total:
                    return t
            return 1

        for n in range(1, 41):
            for r in range(1, min(n, 5) + 1):
                for k in range(1, 13):
                    assert f_upper_counting(n, k, r).value == scan(n, k, r), (n, k, r)

    def test_huge_n_is_fast(self):
        start = time.perf_counter()
        value = f_upper_counting(10**12, 3, 2).value
        assert time.perf_counter() - start < 1
        # k classes of at most C(n - 2(t-1), 2) + t - 1 edges cover C(n, 2)
        t = int(value)
        n = 10**12
        assert 3 * (math.comb(n - 2 * (t - 1), 2) + t - 1) >= math.comb(n, 2)
        assert 3 * (math.comb(n - 2 * t, 2) + t) < math.comb(n, 2)

    def test_binomials_past_2_64_refused(self):
        for bound in (f_upper_counting, f_upper_trivial, f_upper_best):
            with pytest.raises(FractureError, match="exceeds 2"):
                bound(10**6, 2, 5 * 10**5)

    def test_trivial_formula(self):
        for n, k, r in [(12, 3, 2), (10, 5, 2), (9, 4, 3), (8, 2, 4)]:
            expect = min(n // r, math.comb(n, r) // k)
            assert f_upper_trivial(n, k, r).value == expect

    def test_best_is_min(self):
        for n, k in [(6, 3), (12, 3), (10, 4), (20, 7)]:
            c = f_upper_counting(n, k, 2).value
            t = f_upper_trivial(n, k, 2).value
            assert f_upper_best(n, k, 2).value == min(c, t)

    @pytest.mark.parametrize("k", [4, 5, 9])
    def test_counting_rate_converges(self, k):
        # counting bound per vertex approaches 1/2 - 1/(2*sqrt(k))
        for n, tol in [(1000, Fraction(3, 100)), (10000, Fraction(1, 100))]:
            rate = Fraction(int(f_upper_counting(n, k, 2).value), n)
            target = Fraction(1, 2) - Fraction(1, 2 * isqrt_exact(k)) if is_square(k) else None
            if target is None:
                lo = rate - tol
                hi = rate + tol
                assert sqrt_rate_vs(k, lo) > 0, (k, n)
                assert sqrt_rate_vs(k, hi) < 0, (k, n)
            else:
                assert abs(rate - target) <= tol


def is_square(k):
    s = math.isqrt(k)
    return s * s == k


def isqrt_exact(k):
    return math.isqrt(k)


class TestDecimalRendering:
    def test_floor_and_ceil(self):
        assert decimal_floor(Fraction(2, 7), 3) == "0.285"
        assert decimal_ceil(Fraction(2, 7), 3) == "0.286"
        assert decimal_floor(Fraction(1, 4), 3) == "0.250"
        assert decimal_ceil(Fraction(1, 4), 3) == "0.250"

    @given(st.fractions(min_value=0, max_value=2), st.integers(1, 5))
    @settings(max_examples=120)
    def test_floor_le_value_le_ceil(self, x, digits):
        lo = Fraction(decimal_floor(x, digits))
        hi = Fraction(decimal_ceil(x, digits))
        assert lo <= x <= hi
        assert hi - lo <= Fraction(1, 10**digits)

    def test_sqrt_rate_ceil(self):
        assert SqrtRate(5).decimal_ceil(3) == "0.277"
        assert SqrtRate(8).decimal_ceil(3) == "0.324"
        assert abs(float(SqrtRate(5)) - (0.5 - 0.5 / math.sqrt(5))) < 1e-12


class TestGrowthRateTable:
    def test_shape_and_exactness(self):
        rows = growth_rate_table()
        assert [row.k for row in rows] == list(range(3, 14))
        exact = [row.k for row in rows if row.z_exact]
        assert exact == [3, 4, 5, 6, 7, 12, 13]

    def test_rate_lower_is_half_gap(self):
        for row in growth_rate_table():
            assert row.f_rate_lower.value == (1 - row.z_upper.value) / 2
            assert row.f_rate_lower_str == decimal_floor(row.f_rate_lower.value, 3)

    def test_rate_upper_values(self):
        rows = {row.k: row for row in growth_rate_table()}
        assert rows[3].f_rate_upper.value == Fraction(1, 6)
        assert rows[4].f_rate_upper.value == Fraction(1, 4)
        assert rows[9].f_rate_upper.value == Fraction(1, 3)
        for k in [5, 6, 7, 8, 10, 11, 12, 13]:
            assert sqrt_rate_vs(k, Fraction(rows[k].f_rate_upper_str)) <= 0
