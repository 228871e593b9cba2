"""Lower and upper bounds for the incidence fraction and component count.

Everything here is exact: rationals are `Fraction`, radicals are kept
symbolic and compared by cross-powering integers, and decimal renderings
round outward (upper bounds up, lower bounds down) so a printed digit is
never tighter than the truth.

The two families:

* z-bounds constrain the smallest achievable maximum incidence fraction
  over colorings with at most k colors.  Lower bounds come from a
  recursion on the number of colors meeting a fixed edge; upper bounds
  come from explicit colorings in the constructions registry.
* f-bounds constrain the largest achievable minimum component count.
  The counting bound compares edges reachable from t components with the
  total; the trivial bound caps components by disjoint edges and by
  class size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import comb, isqrt

from .core import FractureError, check_binomial_size, z_value
from . import constructions


@total_ordering
@dataclass(frozen=True)
class RootValue:
    """The e-th root of a positive rational, kept exact.

    Comparisons against Fraction/int/RootValue cross-power both sides to
    integers, so ordering never goes through floats; ``total_ordering``
    derives <=, > and >= from ``__lt__`` and ``__eq__``.
    """

    base: Fraction
    degree: int

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise FractureError("degree must be >= 2; use Fraction directly")
        if self.base <= 0:
            raise FractureError("base must be positive")

    def _cmp(self, other) -> int:
        if isinstance(other, RootValue):
            lhs = self.base**other.degree
            rhs = other.base**self.degree
        elif isinstance(other, (int, Fraction)):
            lhs = self.base
            rhs = Fraction(other) ** self.degree
        else:
            return NotImplemented
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __eq__(self, other):
        c = self._cmp(other)
        return False if c is NotImplemented else c == 0

    def __hash__(self):
        return hash((self.base, self.degree))

    def __float__(self) -> float:
        return float(self.base) ** (1.0 / self.degree)

    def __str__(self) -> str:
        return f"({self.base})^(1/{self.degree})"


def root_value(base: Fraction, degree: int):
    """(base)^(1/degree) as a Fraction when the root is exact, else a
    RootValue."""
    if degree == 1:
        return base
    p = _iroot_exact(base.numerator, degree)
    q = _iroot_exact(base.denominator, degree)
    if p is not None and q is not None:
        return Fraction(p, q)
    return RootValue(base, degree)


def _iroot_exact(x: int, e: int) -> int | None:
    """The positive integer y with y**e == x, or None; integers only."""
    if x <= 0:
        return None
    # Newton's method from above converges to floor(x ** (1/e)).
    y = 1 << -(-x.bit_length() // e)
    while True:
        nxt = ((e - 1) * y + x // y ** (e - 1)) // e
        if nxt >= y:
            break
        y = nxt
    return y if y**e == x else None


@dataclass(frozen=True)
class BoundRecord:
    """An exact bound value plus a one-token account of where it came from."""

    value: object  # Fraction or RootValue
    provenance: str

    def __float__(self) -> float:
        return float(self.value)


_Z_ADHOC_LOWER = {
    (4, 2): Fraction(3, 5),
    (5, 2): Fraction(5, 9),
}


# The recursion memoizes O(k r) records at O(k) each, so its time grows
# with k*r: along k*r = 1500, (500, 3) takes about 0.9 s, the slowest,
# near (214, 7) and (250, 6), 1.9 s, and (75, 20) 0.7 s, while (500, 4)
# takes 2.3 s and (500, 100) more than 20 s.  The cap admits the
# growth-rate table (k <= 13) and every catalog (k, r), k <= 35, r <= 3.
Z_LOWER_KR_CAP = 1500


@lru_cache(maxsize=None)
def z_lower_recursive(k: int, r: int) -> BoundRecord:
    """Recursive lower bound on the limiting incidence fraction for at
    most k colors on r-uniform edges.

    Fix an edge and let d be the number of colors meeting it.  Either few
    colors meet the edge (some color class is dense around it) or many do
    (recurse on the link, one rank lower).  The bound is the best d of
    the worse of the two branches at that d.  Past the instant k <= r and
    r == 1 answers, k*r above Z_LOWER_KR_CAP is refused before any
    recursion; every inner call has a smaller k*r.
    """
    if k < 1 or r < 1:
        raise FractureError(f"need k, r >= 1, got k={k}, r={r}")
    if k <= r:
        return BoundRecord(Fraction(1), "connected")
    if r == 1:
        return BoundRecord(Fraction(1, k), "singleton_split")
    if k * r > Z_LOWER_KR_CAP:
        raise FractureError(f"k*r={k * r} above desk cap {Z_LOWER_KR_CAP}")
    best = None
    best_d = None
    for d in range(2, k + 1):
        dense = min(root_value(Fraction(d, k), r - 1), Fraction(1, d - 1))
        link = min(Fraction(d, k), z_lower_recursive(d - 1, r - 1).value)
        cand = max(dense, link)
        if best is None or cand > best:
            best = cand
            best_d = d
    return BoundRecord(best, f"recursion(d={best_d})")


def z_lower_sqrt(k: int) -> BoundRecord:
    """1/D where D is the least integer with D(D+1) >= k; a closed form
    implied by the recursion for graphs."""
    if k < 1:
        raise FractureError(f"need k >= 1, got {k}")
    d = 1
    while d * (d + 1) < k:
        d += 1
    return BoundRecord(Fraction(1, d), "sqrt_ceiling")


def z_lower_best(k: int, r: int) -> BoundRecord:
    """The better of the recursion and the small-case exact values."""
    rec = z_lower_recursive(k, r)
    adhoc = _Z_ADHOC_LOWER.get((k, r))
    if adhoc is not None and adhoc > rec.value:
        return BoundRecord(adhoc, "special_case")
    return rec


# Named colorings witnessing upper bounds, keyed by uniformity; each
# entry is (colors used, registry name).  A coloring for k' colors also
# serves any k >= k' since unused colors are free.
_Z_UPPER_CATALOG = {
    2: [
        (3, "rainbow-triangle"),
        (4, "k5-four"),
        (5, "k9-five"),
        (6, "trivial(4,2)"),
        (7, "design(pg(2))"),
        (9, "diamond(10)"),
        (10, "trivial(5,2)"),
        (11, "diamond(11)"),
        (12, "design(ag(3))"),
        (13, "design(pg(3))"),
        (15, "trivial(6,2)"),
        (21, "trivial(7,2)"),
        (28, "trivial(8,2)"),
    ],
    3: [
        (4, "trivial(4,3)"),
        (6, "k6r3-six"),
        (10, "design(inversive(2))"),
        (14, "design(sqs(3))"),
        (30, "design(inversive(3))"),
        (35, "trivial(7,3)"),
    ],
}


@lru_cache(maxsize=None)
def _catalog_entry(name: str):
    base = constructions.base_registry(name)
    return base.coloring.k, z_value(base.coloring)


def z_upper_constructions(k: int, r: int) -> BoundRecord:
    """Best explicit-coloring upper bound using at most k colors.

    Candidates are rechecked from the actual coloring, never from a
    stored constant.  Ties prefer structured colorings over one color
    per edge.
    """
    if k < 1 or r < 1:
        raise FractureError(f"need k, r >= 1, got k={k}, r={r}")
    if k <= r:
        return BoundRecord(Fraction(1), "connected")
    catalog = _Z_UPPER_CATALOG.get(r, [])
    candidates = []
    for k_entry, name in catalog:
        if k_entry > k:
            continue
        k_used, z = _catalog_entry(name)
        if k_used != k_entry:
            raise FractureError(f"catalog lists {name} at k={k_entry}, has {k_used}")
        is_trivial = name.startswith("trivial")
        candidates.append((z, is_trivial, k_entry, name))
    if not candidates:
        raise FractureError(f"no catalog coloring for k={k}, r={r}")
    z, _, k_entry, name = min(candidates)
    prov = f"construction({name})"
    if k_entry < k:
        prov += f", monotone from k={k_entry}"
    return BoundRecord(z, prov)


def f_upper_counting(n: int, k: int, r: int) -> BoundRecord:
    """Largest t such that k classes can reach t components each by the
    edge count alone: a class with t components misses at most the edges
    inside n - r(t-1) vertices plus t-1 bridging choices, and the k
    classes together must still cover all C(n, r) edges."""
    if not 1 <= r <= n:
        raise FractureError(f"need 1 <= r <= n, got n={n}, r={r}")
    if k < 1:
        raise FractureError(f"need k >= 1, got k={k}")
    check_binomial_size(n, r)
    total = comb(n, r)

    def passes(t: int) -> bool:
        return k * (comb(n - r * (t - 1), r) + t - 1) >= total

    # reachable(t) = C(n - r(t-1), r) + t - 1 never grows with t, as
    # C(a, r) - C(a - r, r) >= 1 for a >= r, so the passing t form a
    # prefix of 1..n // r: bisect for its end (t = 1 when none passes)
    lo, hi = 1, n // r
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid - 1
    return BoundRecord(Fraction(lo), "counting")


def f_upper_trivial(n: int, k: int, r: int) -> BoundRecord:
    """Components are at most disjoint edges overall and at most the
    size of the smallest class forced by averaging."""
    if not 1 <= r <= n:
        raise FractureError(f"need 1 <= r <= n, got n={n}, r={r}")
    if k < 1:
        raise FractureError(f"need k >= 1, got k={k}")
    check_binomial_size(n, r)
    return BoundRecord(Fraction(min(n // r, comb(n, r) // k)), "trivial_ratio")


def f_upper_best(n: int, k: int, r: int) -> BoundRecord:
    a = f_upper_counting(n, k, r)
    b = f_upper_trivial(n, k, r)
    return a if a.value <= b.value else b


def _render_scaled(scaled: int, digits: int) -> str:
    scale = 10**digits
    return f"{scaled // scale}.{scaled % scale:0{digits}d}"


def decimal_floor(value: Fraction, digits: int = 3) -> str:
    """Round a Fraction down to the given digits using integers only."""
    scale = 10**digits
    return _render_scaled((value.numerator * scale) // value.denominator, digits)


def decimal_ceil(value: Fraction, digits: int = 3) -> str:
    """Round a Fraction up to the given digits using integers only."""
    scale = 10**digits
    return _render_scaled(-((-value.numerator * scale) // value.denominator), digits)


@dataclass(frozen=True)
class SqrtRate:
    """1/2 - 1/(2*sqrt(k)), kept exact; renders and rounds via isqrt."""

    k: int

    def __float__(self) -> float:
        return 0.5 - 0.5 / float(self.k) ** 0.5

    def __str__(self) -> str:
        return f"1/2 - 1/(2*sqrt({self.k}))"

    def decimal_ceil(self, digits: int = 3) -> str:
        # scale/2 - floor(scale/(2 sqrt k)); squaring gives the floor as
        # isqrt(scale^2 / (4k)) since both sides are positive
        scale = 10**digits
        half = scale // 2
        return _render_scaled(half - isqrt(half * half // self.k), digits)


@dataclass(frozen=True)
class GrowthRateRow:
    """One row of the asymptotic summary: bounds on z and on f(n)/n."""

    k: int
    z_lower: BoundRecord
    z_upper: BoundRecord
    f_rate_lower: BoundRecord
    f_rate_upper: BoundRecord
    f_rate_lower_str: str
    f_rate_upper_str: str

    @property
    def z_exact(self) -> bool:
        return self.z_lower.value == self.z_upper.value


def growth_rate_table() -> list[GrowthRateRow]:
    """Two-sided bounds for graphs, k = 3..13: the incidence fraction z
    and the per-vertex growth rate of the best achievable component count.

    The rate upper bound is 1/2 - 1/(2*sqrt(k)) except k = 3 where the
    exact rate 1/6 is known; the rate lower bound is (1 - z_upper)/2.
    Decimal strings round outward.
    """
    rows = []
    for k in range(3, 14):
        zl = z_lower_best(k, 2)
        zu = z_upper_constructions(k, 2)
        rate_lower = BoundRecord((1 - zu.value) / 2, f"blow_up({zu.provenance})")
        if k == 3:
            rate_upper = BoundRecord(Fraction(1, 6), "exact_rate")
            upper_str = decimal_ceil(Fraction(1, 6), 3)
        else:
            s = isqrt(k)
            if s * s == k:
                rate_upper = BoundRecord(Fraction(1, 2) - Fraction(1, 2 * s), "sqrt_rate")
                upper_str = decimal_ceil(rate_upper.value, 3)
            else:
                rate_upper = BoundRecord(SqrtRate(k), "sqrt_rate")
                upper_str = rate_upper.value.decimal_ceil(3)
        rows.append(
            GrowthRateRow(
                k,
                zl,
                zu,
                rate_lower,
                rate_upper,
                decimal_floor(rate_lower.value, 3),
                upper_str,
            )
        )
    return rows
