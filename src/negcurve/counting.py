"""The explicit exponential counting bound |F| < u * v^rho(S).

A hemisphere-filtered family's ball system, split at distance 2 from the
pivot center (:mod:`negcurve.packing`), is counted in two parts.  The
near part is counted by the fixed formula 2^(n+1); the far part by a
spherical-cap measure argument built on the exclusion-cone aperture
2*arctan(sqrt(15)/7).  Doubling for the discarded hemisphere gives the
total, and fitting (u, v) over a horizon of ranks produces a single
closed-form envelope u * v^(n+1).

Geometry behind the cone constant: for two far balls at center distances
k, r >= 2 from the pivot, the touching/exclusion constraints force the
center separation d above both k - 1 and r - 1, which caps the cosine of
the subtended angle at (k^2 + 2r - 1)/(2kr) and its mirror image.  The
joint supremum 7/8 is attained at k = r = 2, giving a minimum subtended
angle arccos(7/8) = arctan(sqrt(15)/7) and hence an excluded cone of full
aperture 2*arctan(sqrt(15)/7) around each far center.

Every count here is exact integer and :class:`~fractions.Fraction`
arithmetic, and the module imports the standard library alone, so a
cold ``bound --n`` loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, NumericalError

#: horizon of ranks over which the (u, v) envelope constants are fitted
FIT_HORIZON = 64

#: cos of the far half-aperture arccos(7/8), as an exact rational
FAR_COS = Fraction(7, 8)


def near_bound(n: int) -> int:
    """The fixed near-count 2^(n+1).

    Reported as-is; see :func:`near_bound_volume` for the bound a plain
    volume argument actually certifies (which is larger for n >= 2, and
    achievable point configurations do exceed 2^(n+1) at n = 2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 ** (n + 1)


def near_bound_volume(n: int) -> int:
    """Rigorous near-count via volumes: spacing-1 points in the open
    radius-2 ball give disjoint half-radius balls inside radius 5/2, so
    the count is at most 5^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 5**n


def far_cone_angle() -> float:
    """Full aperture 2*arccos(7/8) = 2*arctan(sqrt(15)/7) of the cone each
    far ball excludes around its direction; half of it, arccos(7/8), is the
    guaranteed pairwise angle between far centers seen from the pivot."""
    return 2.0 * math.acos(FAR_COS)


def _reduction_tail(n: int) -> tuple[int, int]:
    """p, q with sigma_n = sigma_f - c_f p/q, f = 2 + n % 2: reducing
    int_0^alpha sin^k over W_k = int_0^pi sin^k gives sigma_(k+2) = sigma_k
    - c_k, c_k = cos(alpha) sin^(k-1)(alpha) / (k W_k), and sin^2(alpha) =
    15/64, k W_k = (k - 1) W_(k-2) make c_k / c_(k-2) = rho_k = 15 (k - 2) /
    (64 (k - 1)).  p/q sums rho_(f+2)...rho_k over k = n (mod 2), f <= k <=
    n - 2, by Horner from the top with no gcd."""
    p, q = int(n >= 4), 1
    for k in range(n - 2, 3 + n % 2, -2):
        q *= 64 * (k - 1)
        p = q + 15 * (k - 2) * p
    return p, q


def far_cap_measure(n: int) -> Fraction:
    """Exact measure of the cap of angular radius arccos(7/8) on S^(n-1),
    odd n >= 3: sigma_n = (128 q - 105 p) / (2048 q), as sigma_3 = 1/16 and
    c_3 = 105/2048 in :func:`_reduction_tail`."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    p, q = _reduction_tail(n)
    return Fraction(128 * q - 105 * p, 2048 * q)


def _atan_series(power: int, q: int) -> int:
    """sum_j (-1)^j floor(y / ((2j + 1) q^j)) from power = floor(y) (floors
    compose), within its term count + 1 of y sqrt(q) atan(1/sqrt(q)): at most
    log_q(power) + 2 < b/3 + 3 for q >= 15 and power < 2^(b + 2)."""
    total = j = 0
    while power:
        total += (-1) ** j * (power // (2 * j + 1))
        power, j = power // q, j + 1
    return total


def _far_reciprocal_floor(n: int, bits: int) -> int | None:
    """floor(1/sigma_n) for even n (see :func:`far_bound`), pi by Machin's
    formula, in integer units of 2^-bits; None when left undecided."""
    one = 1 << bits
    pi = _atan_series(16 * one // 5, 25) - _atan_series(4 * one // 239, 239**2)
    p, q = _reduction_tail(n)
    q *= 64
    den = q * _atan_series(2 * one, 15) - 105 * p * one  # (64 q 2S - 105 p) 2^bits
    err = bits + 6  # >= 2 (bits/3 + 3): bounds the errors of pi and 2S, q err that of den
    if den <= q * err:
        return None
    root = math.isqrt(15 * one * one)  # sqrt(15) 2^bits lies in [root, root + 1)
    lo = q * root * (pi - err) // (one * (den + q * err))
    return lo if lo == q * (root + 1) * (pi + err) // (one * (den - q * err)) else None


@lru_cache(maxsize=None)
def far_bound(n: int) -> int:
    """The exact ceiling of the reciprocal measure of a cap of radius
    arccos(7/8), half the exclusion-cone aperture, on S^(n-1).

    It bounds how many disjoint caps of that radius fit, so how many
    directions can be pairwise 2*arccos(7/8) apart.  Far directions are
    only known to be pairwise arccos(7/8) apart, and more of those fit:
    12 equally spaced directions on S^1 (far_bound(2) = 7) and the 20
    dodecahedron vertices on S^2 (far_bound(3) = 16).  So the far term is
    not proven.

    Both parities share one exact recurrence, :func:`_reduction_tail`; odd
    n is :func:`far_cap_measure`.  For even n, sigma_2 = alpha/pi, c_2 =
    7 sqrt(15) / (64 pi) and alpha = 2 atan(1/sqrt(15)) = 2S/sqrt(15), S =
    sum_j (-1)^j / ((2j + 1) 15^j), give 1/sigma_n = 64 q sqrt(15) pi /
    (64 q 2S - 105 p); integers enclose pi, 2S and sqrt(15) at doubling
    precision until both ends have one floor.  That ends: e^(i alpha) is no
    root of unity (4x^2 - 7x + 4 is not monic), so by Baker (1966) i k alpha
    - log(-1) is not algebraic for an integer k; 1/sigma_n = k would make it
    7 i k sqrt(15) p / (64 q).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 2
    if n % 2 == 1:
        return math.ceil(1 / far_cap_measure(n))
    bits = 64 + 9 * n // 4  # the enclosure loses about 2.09 n bits
    while (floor := _far_reciprocal_floor(n, bits)) is None:
        bits *= 2
    return floor + 1


@lru_cache(maxsize=None)
def fit_constants() -> tuple[float, float]:
    """Envelope constants (u, v) with u * v^(n+1) >= total count for every
    n up to FIT_HORIZON, exactly as rationals.

    v is the worst growth ratio of the far count (floored at 2, the near
    count's own ratio); u then absorbs the finitely many prefactors.  Both
    are fitted as fractions and reported as doubles rounded up.
    """
    ranks = range(1, FIT_HORIZON + 1)
    totals = [2 * (near_bound(k) + far_bound(k)) for k in ranks]
    ratios = [Fraction(far_bound(k + 1), far_bound(k)) for k in ranks[:-1]]
    v = max(Fraction(2), *ratios)
    u = max(t / v ** (k + 1) for k, t in zip(ranks, totals))
    # report each as the least double >= its fraction
    nearest = [(float(q), q) for q in (u, v)]
    u, v = (x if Fraction(x) >= q else math.nextafter(x, math.inf) for x, q in nearest)
    for k, t in zip(ranks, totals):
        if Fraction(u) * Fraction(v) ** (k + 1) < t:
            raise NumericalError(f"envelope constants fall below the total at n = {k}")
    return u, v


@dataclass(frozen=True)
class BoundReport:
    """The explicit counting bound at rank rho = n + 1."""

    n: int
    rho: int
    near_bound: int
    far_bound: int
    hemisphere_factor: int
    total: int
    u: float
    v: float
    envelope: float
    horizon: int
    near_bound_volume: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def total_bound(n: int) -> BoundReport:
    """Total family-size bound 2 * (near + far) with the fitted envelope;
    :class:`InputError` for n < 1, :class:`NumericalError` when the
    envelope overflows a double (n >= 566)."""
    if n < 1:  # first: the envelope overflows at a huge negative n too
        raise InputError("n must be >= 1")
    u, v = fit_constants()
    try:
        envelope = u * v ** (n + 1)
    except OverflowError:  # checked first: the far count grows with n
        raise NumericalError(
            f"the envelope u * v^(n+1) overflows a double at n = {n}"
        ) from None
    nb = near_bound(n)
    fb = far_bound(n)
    total = 2 * (nb + fb)
    return BoundReport(
        n=n,
        rho=n + 1,
        near_bound=nb,
        far_bound=fb,
        hemisphere_factor=2,
        total=total,
        u=u,
        v=v,
        envelope=envelope,
        horizon=FIT_HORIZON,
        near_bound_volume=near_bound_volume(n),
    )
