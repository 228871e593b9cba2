"""One test per shipped claim, each with its stated runtime budget.

Everything the claims touch is computed by build_digest; the individual
tests read the first pass and the final determinism test rebuilds the
digest three more times, requiring byte-identical JSON.  Timings are kept
outside the digest so they never perturb the byte comparison.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from fracture import (
    affine_plane,
    baranyai,
    base_registry,
    bipartite_blow_up,
    bipartite_from_clique,
    blow_up,
    boolean_sqs,
    bulk_eval,
    coloring_baranyai_split,
    coloring_equitable,
    coloring_n,
    coloring_nminus1,
    coloring_tk2,
    exact_f,
    exact_z,
    f_upper_counting,
    f_upper_trivial,
    f_value,
    fraction_str,
    growth_rate_table,
    hamiltonian_decomposition,
    inversive_plane,
    k4minus_decomposition,
    near_one_factorization,
    one_factorization,
    projective_plane,
    verify_k_le_r,
    z_value,
)

BARANYAI_SPLITS = [(6, 3, 1), (6, 3, 2), (8, 4, 1), (8, 4, 2), (12, 3, 2)]
EQUITABLE_CASES = [(5, 2, 7), (5, 2, 8), (8, 2, 13), (6, 3, 20)]
RANDOM_BATCHES = [
    (5, 2, 3),
    (6, 2, 7),
    (7, 2, 13),
    (8, 2, 9),
    (4, 2, 5),
    (3, 2, 3),
    (6, 3, 11),
    (7, 3, 13),
    (8, 3, 5),
    (5, 3, 8),
]  # 1000 colorings each


def search_blob(res):
    return {
        "value": res.value if not isinstance(res.value, Fraction) else fraction_str(res.value),
        "witness": list(res.witness.assignment),
        "exhausted": res.exhausted,
        "nodes": res.nodes,
    }


def build_digest():
    digest = {}
    timings = {}

    t0 = time.monotonic()
    f43 = exact_f(4, 3, 2)
    t43 = time.monotonic() - t0
    t0 = time.monotonic()
    f53 = exact_f(5, 3, 2)
    t53 = time.monotonic() - t0
    digest["c01"] = {"f(4,3)": search_blob(f43), "f(5,3)": search_blob(f53)}
    timings["c01"] = [t43, t53]

    t0 = time.monotonic()
    f63 = exact_f(6, 3, 2)
    timings["c02"] = time.monotonic() - t0
    digest["c02"] = search_blob(f63)

    t0 = time.monotonic()
    rainbow = base_registry("rainbow-triangle")
    values = {}
    for n in range(6, 61):
        c = blow_up(rainbow, n)
        values[str(n)] = [f_value(c), int(f_upper_counting(n, 3, 2).value)]
    digest["c03"] = values
    timings["c03"] = time.monotonic() - t0

    t0 = time.monotonic()
    rows = {}
    for n in range(4, 14):
        rows[str(n)] = [
            f_value(coloring_nminus1(n)),
            int(f_upper_trivial(n, n - 1, 2).value),
            f_value(coloring_n(n)),
            int(f_upper_trivial(n, n, 2).value),
        ]
    digest["c04"] = rows
    timings["c04"] = time.monotonic() - t0

    t0 = time.monotonic()
    tk2 = {}
    for n in range(5, 13):
        m = math.comb(n, 2)
        for k in range(n - 1, m + 1):
            if m % k == 0:
                c = coloring_tk2(n, k)
                tk2[f"{n},{k}"] = [f_value(c), list(c.assignment)]
    digest["c05"] = tk2
    timings["c05"] = time.monotonic() - t0

    t0 = time.monotonic()
    splits = {}
    for n, r, t in BARANYAI_SPLITS:
        c = coloring_baranyai_split(n, r, t)
        factors = len(baranyai(n, r).factors)
        splits[f"{n},{r},{t}"] = [f_value(c), c.k, factors]
    digest["c06"] = splits
    timings["c06"] = time.monotonic() - t0

    t0 = time.monotonic()
    equit = {}
    for n, r, k in EQUITABLE_CASES:
        c = coloring_equitable(n, r, k)
        sizes = sorted(len(v) for v in oracles.classes_of(n, r, c.assignment).values())
        equit[f"{n},{r},{k}"] = [f_value(c), sizes[0], sizes[-1]]
    digest["c07"] = equit
    timings["c07"] = time.monotonic() - t0

    t0 = time.monotonic()
    table = []
    for row in growth_rate_table():
        table.append(
            [
                row.k,
                fraction_str(row.z_lower.value),
                fraction_str(row.z_upper.value),
                fraction_str(row.f_rate_lower.value),
                str(row.f_rate_upper.value),
                row.f_rate_lower_str,
                row.f_rate_upper_str,
            ]
        )
    digest["c08"] = table
    timings["c08"] = time.monotonic() - t0

    z_times = []
    z_blobs = {}
    for n, k in [(3, 3), (5, 4), (4, 6)]:
        t0 = time.monotonic()
        res = exact_z(n, k, 2)
        z_times.append(time.monotonic() - t0)
        z_blobs[f"z({n},{k})"] = search_blob(res)
    for name in ["k9-five", "k6r3-six", "design(pg(2))", "design(ag(3))"]:
        z_blobs[name] = fraction_str(base_registry(name).realized_z)
    digest["c09"] = z_blobs
    timings["c09"] = z_times

    t0 = time.monotonic()
    checks = {}
    for n, k, r in [(4, 2, 2), (5, 2, 2), (6, 2, 2), (5, 3, 3)]:
        chk = verify_k_le_r(n, k, r)
        checks[f"{n},{k},{r}"] = [chk.holds, chk.checked]
    digest["c10"] = checks
    timings["c10"] = time.monotonic() - t0

    t0 = time.monotonic()
    designs = {}
    for q in [2, 3, 4, 5]:
        d = projective_plane(q)
        cover = oracles.subset_coverage(d.blocks, 2)
        designs[f"pg({q})"] = [len(d.blocks), len(cover), max(cover.values())]
    for q in [2, 3, 4]:
        d = affine_plane(q)
        cover = oracles.subset_coverage(d.blocks, 2)
        designs[f"ag({q})"] = [len(d.blocks), len(cover), max(cover.values())]
    d = boolean_sqs(3)
    cover = oracles.subset_coverage(d.blocks, 3)
    designs["sqs(3)"] = [len(d.blocks), len(cover), max(cover.values())]
    for q in [2, 3]:
        d = inversive_plane(q)
        cover = oracles.subset_coverage(d.blocks, 3)
        designs[f"inversive({q})"] = [len(d.blocks), len(cover), max(cover.values())]
    for n in [2, 4, 6, 8, 10, 12]:
        dec = one_factorization(n)
        designs[f"1f({n})"] = len(dec.factors)
    for n in [3, 5, 7, 9, 11, 13]:
        dec = near_one_factorization(n)
        designs[f"n1f({n})"] = len(dec.factors)
    for n in [3, 5, 7, 9, 11]:
        designs[f"ham({n})"] = len(hamiltonian_decomposition(n))
    for n, r in [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3)]:
        dec = baranyai(n, r)
        designs[f"baranyai({n},{r})"] = len(dec.factors)
    for n in [10, 11]:
        designs[f"diamonds({n})"] = len(k4minus_decomposition(n))
    digest["c11"] = designs
    timings["c11"] = time.monotonic() - t0

    t0 = time.monotonic()
    rng = np.random.default_rng(20240815)
    rand = {}
    for n, r, k in RANDOM_BATCHES:
        m = math.comb(n, r)
        colorings = rng.integers(0, k, size=(1000, m)).astype(np.int64)
        out = bulk_eval(n, r, k, colorings)
        k_used = [int(len(np.unique(row))) for row in colorings]
        rand[f"{n},{r},{k}"] = {
            "eval": out.tolist(),
            "k_used": k_used,
        }
    digest["c12"] = rand
    timings["c12"] = time.monotonic() - t0

    t0 = time.monotonic()
    bip = {}
    for name in ["rainbow-triangle", "k5-four", "design(pg(2))"]:
        base = base_registry(name).coloring
        bc = bipartite_from_clique(base)
        bip[f"double({name})"] = [
            fraction_str(z_value(bc)),
            fraction_str(z_value(base)),
        ]
    for n in [9, 30, 60]:
        bc = bipartite_blow_up(rainbow, n)
        bip[f"blow({n})"] = f_value(bc)
    digest["c13"] = bip
    timings["c13"] = time.monotonic() - t0

    return digest, timings


@pytest.fixture(scope="module")
def pass1():
    return build_digest()


def test_criterion_01_exact_f_4_and_5(pass1):
    digest, timings = pass1
    for key in ["f(4,3)", "f(5,3)"]:
        blob = digest["c01"][key]
        assert blob["value"] == 2
        assert blob["exhausted"] is True
    assert timings["c01"][0] < 10
    assert timings["c01"][1] < 10


def test_criterion_02_exact_f_6(pass1):
    digest, timings = pass1
    assert digest["c02"]["value"] == 2 == 6 // 6 + 1
    assert digest["c02"]["exhausted"] is True
    assert timings["c02"] < 300


def test_criterion_03_blow_up_exact_band(pass1):
    digest, timings = pass1
    for n in range(6, 61):
        constructed, counting = digest["c03"][str(n)]
        assert constructed == n // 6 + 1, n
        assert counting >= constructed, n  # upper bound never contradicts
    assert timings["c03"] < 30


def test_criterion_04_matching_colorings(pass1):
    digest, timings = pass1
    for n in range(4, 14):
        fm1, trivial_m1, fn, trivial_n = digest["c04"][str(n)]
        assert fm1 == n // 2 == trivial_m1
        assert fn == (n - 1) // 2 == trivial_n
    assert timings["c04"] < 5


def test_criterion_05_matching_split_all_admissible(pass1):
    digest, timings = pass1
    assert len(digest["c05"]) == 22
    for key, (got, assignment) in digest["c05"].items():
        n, k = map(int, key.split(","))
        t = math.comb(n, 2) // k
        assert got == t == n * (n - 1) // (2 * k)
        by_color = oracles.classes_of(n, 2, assignment)
        assert len(by_color) == k
        for cls in by_color.values():
            assert len(cls) == t and oracles.is_matching(cls)
    assert timings["c05"] < 60


def test_criterion_06_factor_splits(pass1):
    digest, timings = pass1
    for n, r, t in BARANYAI_SPLITS:
        got, k, factors = digest["c06"][f"{n},{r},{t}"]
        assert factors == math.comb(n, r) // (n // r)
        assert k == t * factors
        assert got == n // (r * t)
    assert timings["c06"] < 120


def test_criterion_07_equitable(pass1):
    digest, timings = pass1
    for n, r, k in EQUITABLE_CASES:
        got, smallest, largest = digest["c07"][f"{n},{r},{k}"]
        assert got == math.comb(n, r) // k
        assert largest - smallest <= 1
    assert timings["c07"] < 30


def test_criterion_08_summary_table(pass1):
    digest, timings = pass1
    pinned = {
        3: ("2/3", "2/3", Fraction(1, 6), Fraction(1, 6)),
        4: ("3/5", "3/5", Fraction(1, 4), Fraction(1, 5)),
        5: ("5/9", "5/9", "0.277", "0.222"),
        6: ("1/2", "1/2", "0.296", "0.25"),
        7: ("3/7", "3/7", "0.311", "0.285"),
        8: ("3/7", "3/8", "0.324", "0.285"),
        9: ("2/5", "1/3", Fraction(1, 3), Fraction(3, 10)),
        10: ("2/5", "1/3", "0.342", "0.3"),
        11: ("4/11", "1/3", "0.35", "0.318"),
        12: ("1/3", "1/3", "0.356", "0.333"),
        13: ("4/13", "4/13", "0.362", "0.346"),
    }
    tol = Fraction(1, 1000)
    for k, zl, zu, rate_lo, rate_up, _, _ in digest["c08"]:
        cell_zu, cell_zl, cell_up, cell_lo = pinned[k]
        assert zu == cell_zu, k
        assert zl == cell_zl, k
        # pinned decimals are some 3-digit rounding of the exact value
        if isinstance(cell_lo, Fraction):
            assert Fraction(rate_lo) == cell_lo, k
        else:
            assert abs(Fraction(rate_lo) - Fraction(cell_lo)) < tol, k
        if isinstance(cell_up, Fraction):
            assert Fraction(rate_up) == cell_up, k
        else:
            target = Fraction(cell_up)
            assert oracles.sqrt_rate_vs(k, target - tol) > 0, k
            assert oracles.sqrt_rate_vs(k, target + tol) < 0, k
    assert timings["c08"] < 10


def test_criterion_09_exact_z_and_realized(pass1):
    digest, timings = pass1
    expected = {"z(3,3)": "2/3", "z(5,4)": "3/5", "z(4,6)": "1/2"}
    for key, val in expected.items():
        blob = digest["c09"][key]
        assert blob["value"] == val
        assert blob["exhausted"] is True
    assert digest["c09"]["k9-five"] == "5/9"
    assert digest["c09"]["k6r3-six"] == "2/3"
    assert digest["c09"]["design(pg(2))"] == "3/7"
    assert digest["c09"]["design(ag(3))"] == "1/3"
    assert all(t < 60 for t in timings["c09"])


def test_criterion_10_few_colors_always_connected(pass1):
    digest, timings = pass1
    for n, k, r in [(4, 2, 2), (5, 2, 2), (6, 2, 2), (5, 3, 3)]:
        holds, checked = digest["c10"][f"{n},{k},{r}"]
        assert holds
        assert checked == k ** math.comb(n, r)
    assert timings["c10"] < 120


def test_criterion_11_design_suite(pass1):
    digest, timings = pass1
    d = digest["c11"]
    for q in [2, 3, 4, 5]:
        v = q * q + q + 1
        assert d[f"pg({q})"] == [v, math.comb(v, 2), 1]
    for q in [2, 3, 4]:
        assert d[f"ag({q})"] == [q * (q + 1), math.comb(q * q, 2), 1]
    assert d["sqs(3)"] == [14, math.comb(8, 3), 1]
    for q in [2, 3]:
        v = q * q + 1
        assert d[f"inversive({q})"] == [q * v, math.comb(v, 3), 1]
    for n in [2, 4, 6, 8, 10, 12]:
        assert d[f"1f({n})"] == n - 1
    for n in [3, 5, 7, 9, 11, 13]:
        assert d[f"n1f({n})"] == n
    for n in [3, 5, 7, 9, 11]:
        assert d[f"ham({n})"] == (n - 1) // 2
    for n, r in [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3)]:
        assert d[f"baranyai({n},{r})"] == math.comb(n, r) // (n // r)
    assert d["diamonds(10)"] == 9
    assert d["diamonds(11)"] == 11
    assert timings["c11"] < 120


def test_criterion_12_universal_bounds_hold(pass1):
    from fracture import z_lower_recursive

    digest, timings = pass1
    total = 0
    caps = {}
    for n, r, k in RANDOM_BATCHES:
        batch = digest["c12"][f"{n},{r},{k}"]
        for (f_got, inc), used in zip(batch["eval"], batch["k_used"]):
            total += 1
            # the pigeonhole caps only see the colors actually present:
            # declaring unused extra colors must not loosen anything
            if (n, r, used) not in caps:
                caps[n, r, used] = min(
                    int(f_upper_counting(n, used, r).value),
                    int(f_upper_trivial(n, used, r).value),
                    n // r,
                )
            assert f_got <= caps[n, r, used], (n, r, k, used)
            assert Fraction(inc, n) >= z_lower_recursive(used, r).value, (n, r, k)
    assert total == 10**4
    assert timings["c12"] < 120


def test_criterion_13_bipartite_transfer(pass1):
    digest, timings = pass1
    for name in ["rainbow-triangle", "k5-four", "design(pg(2))"]:
        doubled, original = digest["c13"][f"double({name})"]
        assert doubled == original
    floors = {9: 3, 30: 10, 60: 20}
    for n, need in floors.items():
        assert digest["c13"][f"blow({n})"] >= need
    assert timings["c13"] < 30


def test_criterion_14_byte_identical_runs(pass1):
    first, _ = pass1
    blobs = [json.dumps(first, sort_keys=True)]
    for _ in range(3):
        digest = build_digest()[0]
        blobs.append(json.dumps(digest, sort_keys=True))
    assert all(b == blobs[0] for b in blobs[1:])
