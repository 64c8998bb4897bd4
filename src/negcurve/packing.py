"""The near/far split of a cap family's distance matrix and the explicit
exponential counting bound.

Pipeline: restrict a family to caps of angular radius <= pi/2 (reflecting
the larger half through x0 -> -x0 when needed), take the angular
separations delta_ij of the kept caps as the center distances of balls
B(z_i, theta_i), rescale so the minimum center distance is 1, and split
the system at distance 2 from the first pivot center.  The near part is
counted by the fixed formula 2^(n+1); the far part by a spherical-cap
measure argument built on the exclusion-cone aperture
2*arctan(sqrt(15)/7).  Doubling for the discarded hemisphere gives the
total, and fitting (u, v) over a horizon of ranks produces a single
closed-form envelope u * v^(n+1).

The caller's exact verdict decides validity; nothing here checks it
again.  A family that passes the exact lattice validator gives a valid
ball system (no center inside another ball, every two closed balls
touch):

    after the filter theta <= pi/2, so (II) <=> (ii) gives
        cos delta_ij <= cos theta_i cos theta_j <= cos theta_i,
        that is, delta_ij >= max(theta_i, theta_j);
    (III) => (iii) gives delta_ij <= theta_i + theta_j;
    the reflection x0 -> -x0 is an H-isometry, so both hold after it.

A float re-check could only disagree with the exact verdict by rounding.

Geometry behind the cone constant: for two far balls at center distances
k, r >= 2 from the pivot, the touching/exclusion constraints force the
center separation d above both k - 1 and r - 1, which caps the cosine of
the subtended angle at (k^2 + 2r - 1)/(2kr) and its mirror image.  The
joint supremum 7/8 is attained at k = r = 2, giving a minimum subtended
angle arccos(7/8) = arctan(sqrt(15)/7) and hence an excluded cone of full
aperture 2*arctan(sqrt(15)/7) around each far center.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .conditions import (
    TOL_BOUNDARY,
    ModelFamily,
    _collector_paused,
    cap_arrays,
    pair_margins,
)
from .errors import InputError, NumericalError
from .klein import CapRep

#: horizon of ranks over which the (u, v) envelope constants are fitted
FIT_HORIZON = 64

#: guard band of the cone-separation check on the far-pair aperture
CONE_TOL = 1e-6

#: tie band of the pivot pair's distance; the lowest index pair wins a tie
PIVOT_TIE_TOL = 1e-12


# ---------------------------------------------------------------------------
# ball systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    """An open Euclidean ball, center in R^n."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True, eq=False)
class BallSystem:
    """Balls plus the authoritative pairwise center-distance matrix.

    Systems built from caps carry the spherical angular separations as
    distances (the transcription keeps theta and delta as plain Euclidean
    quantities), so the matrix, not the stored coordinates, defines the
    geometry.
    """

    balls: tuple[Ball, ...]
    dist: np.ndarray
    n: int

    def __len__(self) -> int:
        return len(self.balls)

    @property
    def radii(self) -> np.ndarray:
        return np.array([b.radius for b in self.balls])

    def check_valid(self) -> list[tuple[int, int, str]]:
        """Violations of the system invariants, as (i, j, which) triples.

        Valid systems satisfy, for every pair: no center lies in the
        other open ball (delta_ij >= radius_j) and the closed balls
        intersect (delta_ij <= radius_i + radius_j), within TOL_BOUNDARY.
        """
        k = len(self.balls)
        r = self.radii
        iu, ju = np.triu_indices(k, 1)
        d = self.dist[iu, ju]
        # one row per pair in row-major order, columns in the order reported
        bad = np.column_stack([
            d < np.maximum(r[iu], r[ju]) - TOL_BOUNDARY,
            d > r[iu] + r[ju] + TOL_BOUNDARY,
        ])
        p, which = np.divmod(np.flatnonzero(bad), 2)
        kinds = ("center-inside", "disjoint-closures")
        with _collector_paused():
            return list(
                zip(iu[p].tolist(), ju[p].tolist(), map(kinds.__getitem__, which.tolist()))
            )


# ---------------------------------------------------------------------------
# family reductions
# ---------------------------------------------------------------------------

def hemisphere_filter(fam: ModelFamily) -> ModelFamily:
    """Keep the caps on one side of theta = pi/2, at least half the family.

    The side theta <= pi/2 wins ties; when theta > pi/2 holds a strict
    majority, that side is reflected through x0 -> -x0 (an isometry fixing
    all pairwise data within a side), i.e. theta -> pi - theta with the
    same foot.
    """
    if len(fam) == 0:
        raise ValueError("cannot filter an empty family")
    small = [c for c in fam.caps if c.theta <= math.pi / 2]
    large = [c for c in fam.caps if c.theta > math.pi / 2]
    if len(small) >= len(large):
        return ModelFamily(small)
    return ModelFamily(
        [CapRep(z=c.z, theta=math.pi - c.theta) for c in large]
    )


def _require_hemisphere(fam: ModelFamily) -> None:
    for idx, cap in enumerate(fam.caps):
        if cap.theta > math.pi / 2 + TOL_BOUNDARY:
            raise ValueError(
                f"family is not hemisphere-filtered: cap {idx} has "
                f"theta = {cap.theta:.6f} > pi/2"
            )


def reduce_ii_star(fam: ModelFamily) -> list[tuple[tuple[int, int], bool, float]]:
    """Verdict of theta_i < delta_ij (+ TOL_BOUNDARY) for every ordered pair.

    Requires a hemisphere-filtered family; there the full angular
    condition (ii) implies this reduced form.
    """
    _require_hemisphere(fam)
    k = len(fam)
    z, theta = cap_arrays(fam.caps)
    delta = pair_margins(z, theta)[0]
    margin = delta - theta[:, None]
    i, j = np.nonzero(~np.eye(k, dtype=bool))
    m = margin[i, j]
    ok = m >= -TOL_BOUNDARY
    with _collector_paused():
        return list(zip(zip(i.tolist(), j.tolist()), ok.tolist(), m.tolist()))


# ---------------------------------------------------------------------------
# counting constants
# ---------------------------------------------------------------------------

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


#: cos of the far half-aperture arccos(7/8), as an exact rational
FAR_COS = Fraction(7, 8)


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


# ---------------------------------------------------------------------------
# near/far split and cone separation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeSeparationReport:
    """Minimum subtended angle among far centers, against the cone constant.

    ``min_angle`` is the smallest comparison angle at the pivot center
    between two far centers (law of cosines on the distance matrix);
    ``min_aperture`` is twice that, the excluded-cone aperture the pair
    realizes.  The check passes when the aperture clears the constant
    within ``tol`` (CONE_TOL).
    """

    min_angle: float
    min_aperture: float
    witness: tuple[int, int]
    threshold: float
    tol: float
    passed: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SplitReport:
    """A distance matrix rescaled to minimum center distance 1 and split at
    distance 2 from the pivot center.

    ``cone_separation`` is None when fewer than two balls are far.
    """

    scale: float
    pivot: tuple[int, int]
    near: tuple[int, ...]
    far: tuple[int, ...]
    cone_separation: ConeSeparationReport | None

    def to_json_dict(self) -> dict:
        """The ``bound --file`` pipeline fields; the pivot is not reported."""
        out = {"scale": self.scale, "near": list(self.near), "far": list(self.far)}
        if self.cone_separation is not None:
            out["cone_separation"] = self.cone_separation.to_json_dict()
        return out


def split_system(dist) -> SplitReport:
    """Rescale a (k, k) center-distance matrix so the minimum is 1, split
    at distance 2 from the pivot center, and check the far pairs' cone
    separation.

    Only the upper triangle of ``dist`` is read, with the pivot's own
    entry counted as 0, so the diagonal need not be zeroed; the
    ``bound --file`` pipeline passes the kernel's delta matrix of the kept
    caps as it is.  Validity is the caller's exact verdict, not checked
    here (see the module docstring); the system invariants are
    scale-invariant, so the rescaled system is valid when the input is.
    The pivot pair realizes the minimum distance (ties broken by lowest
    index pair); centers at distance exactly 2 go to the far side.  Every
    far pair must subtend at least half the cone aperture at the pivot
    (equivalently, realize aperture >= far_cone_angle() - CONE_TOL).
    Fewer than two centers, or coincident ones, raise ValueError.
    """
    k = len(dist)
    if k < 2:
        raise ValueError("need at least two balls")
    iu, ju = np.triu_indices(k, 1)
    upper = np.triu(dist, 1)
    dmin = float(np.min(upper[iu, ju]))
    if dmin <= 0.0:
        raise ValueError("coincident centers cannot be rescaled")
    scale = 1.0 / dmin
    # mirrored upper triangle: a zero diagonal, and each pair read once
    dist = (upper + upper.T) * scale
    d = dist[iu, ju]
    p = np.flatnonzero(np.abs(d - np.min(d)) <= PIVOT_TIE_TOL)[0]
    pivot = (int(iu[p]), int(ju[p]))
    d0 = dist[pivot[0]]
    far = np.flatnonzero(d0 >= 2.0)
    cone = None
    if len(far) >= 2:
        a, b = np.triu_indices(len(far), 1)
        i, j = far[a], far[b]
        d0i, d0j, dij = d0[i], d0[j], dist[i, j]
        cos_ang = (d0i * d0i + d0j * d0j - dij * dij) / (2.0 * d0i * d0j)
        ang = np.arccos(np.clip(cos_ang, -1.0, 1.0))
        # argmin takes the first minimum, in row-major pair order
        q = int(np.argmin(ang))
        min_angle = float(ang[q])
        threshold = far_cone_angle()
        aperture = 2.0 * min_angle
        cone = ConeSeparationReport(
            min_angle=min_angle,
            min_aperture=aperture,
            witness=(int(i[q]), int(j[q])),
            threshold=threshold,
            tol=CONE_TOL,
            passed=aperture >= threshold - CONE_TOL,
        )
    return SplitReport(
        scale=scale,
        pivot=pivot,
        near=tuple(np.flatnonzero(d0 < 2.0).tolist()),
        far=tuple(far.tolist()),
        cone_separation=cone,
    )


def cone_separation_infimum() -> tuple[float, float, tuple[float, float]]:
    """The smallest far-pair angle the constraint system allows, in closed
    form: (min_angle, aperture, argmin (k, r)).

    Two far centers at distances k, r >= 2 from the pivot must keep their
    separation d above both k - 1 and r - 1 (each center stays outside
    the other's ball, whose radius exceeds its pivot distance minus the
    pivot radius < 1).  Eliminating d caps cos(angle) by min(f1, f2) with
    f1 = (k^2 + 2r - 1)/(2kr) and f2 = (r^2 + 2k - 1)/(2kr).

    The supremum of min(f1, f2) is 7/8, reached only at k = r = 2.  By
    symmetry take 2 <= k <= r.  Then f1 - f2 = (k - r)(k + r - 2)/(2kr)
    <= 0, so the minimum is f1.  f1 = (k^2 - 1)/(2kr) + 1/k falls in r,
    so it is largest on r = k, where it is 1/2 + 1/k - 1/(2k^2), which
    falls in k for k >= 1.  At k = r = 2 it is 7/8 = FAR_COS.
    """
    angle = math.acos(FAR_COS)
    return angle, 2.0 * angle, (2.0, 2.0)
