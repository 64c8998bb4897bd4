"""Reduction of a cap family to a Euclidean ball system and the explicit
exponential counting bound.

Pipeline: restrict a family to caps of angular radius <= pi/2 (reflecting
the larger half through x0 -> -x0 when needed), check the reduced pair
conditions

    (ii*)  theta_i < delta_ij      (no center inside another ball)
    (iii)  delta_ij <= theta_i + theta_j   (every two closed balls touch),

transcribe the angular data into a system of balls B(z_i, theta_i) whose
pairwise distances are the angular separations, rescale so the minimum
center distance is 1, and split the system at distance 2 from the first
pivot center.  The near part is counted by the fixed formula 2^(n+1); the
far part by a spherical-cap measure argument built on the exclusion-cone
aperture 2*arctan(sqrt(15)/7).  Doubling for the discarded hemisphere
gives the total, and fitting (u, v) over a horizon of ranks produces a
single closed-form envelope u * v^(n+1).

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

import mpmath
import numpy as np

from .conditions import TOL_BOUNDARY, ModelFamily, cap_arrays, pair_margins
from .errors import InvalidFamilyError, NumericalError
from .klein import CapRep

#: horizon of ranks over which the (u, v) envelope constants are fitted
FIT_HORIZON = 64

#: how far the minimum center distance of a system handed to
#: :func:`partition` may be from 1
NORMALIZED_TOL = 1e-9

#: guard band of the cone-separation check on the far-pair aperture
CONE_TOL = 1e-6


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
    geometry.  ``scale`` accumulates rescaling factors for bookkeeping.
    """

    balls: tuple[Ball, ...]
    dist: np.ndarray
    n: int
    scale: float = 1.0

    def __len__(self) -> int:
        return len(self.balls)

    @property
    def radii(self) -> np.ndarray:
        return np.array([b.radius for b in self.balls])

    def min_distance(self) -> float:
        if len(self.balls) < 2:
            raise ValueError("need at least two balls")
        d = self.dist[np.triu_indices(len(self.balls), k=1)]
        return float(np.min(d))

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
        return [
            (i, j, kinds[w])
            for i, j, w in zip(iu[p].tolist(), ju[p].tolist(), which.tolist())
        ]


def ball_system_from_points(points, radii) -> BallSystem:
    """A plain Euclidean system: distances computed from the coordinates."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    balls = tuple(
        Ball(center=tuple(map(float, p)), radius=float(r))
        for p, r in zip(pts, radii, strict=True)
    )
    return BallSystem(balls=balls, dist=dist, n=pts.shape[1])


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
    return [
        ((a, b), ok, x)
        for a, b, ok, x in zip(i.tolist(), j.tolist(), ok.tolist(), m.tolist())
    ]


def to_ball_system(fam: ModelFamily) -> BallSystem:
    """Transcribe caps into balls: radii = theta, distances = delta.

    Rejects families violating the reduced center condition or the
    touching condition beyond TOL_BOUNDARY with
    :class:`InvalidFamilyError`, naming the first offending pair of
    :meth:`BallSystem.check_valid`.
    """
    _require_hemisphere(fam)
    if len(fam) == 0:
        raise ValueError("cannot transcribe an empty family")
    dist = pair_margins(*cap_arrays(fam.caps))[0]
    np.fill_diagonal(dist, 0.0)
    system = BallSystem(
        balls=tuple(Ball(center=cap.z, radius=cap.theta) for cap in fam.caps),
        dist=dist,
        n=fam.caps[0].n,
    )
    violations = system.check_valid()
    if violations:
        i, j, which = violations[0]
        delta, ti, tj = dist[i, j], fam.caps[i].theta, fam.caps[j].theta
        if which == "center-inside":
            raise InvalidFamilyError(
                f"pair ({i}, {j}) violates the center condition: "
                f"delta = {delta:.6f} < max theta = {max(ti, tj):.6f}"
            )
        raise InvalidFamilyError(
            f"pair ({i}, {j}) violates the touching condition: "
            f"delta = {delta:.6f} > theta_i + theta_j = {ti + tj:.6f}"
        )
    return system


def normalize_scale(sys: BallSystem) -> BallSystem:
    """Rescale so the minimum center distance is exactly 1.

    The system invariants are scale-invariant, so validity is preserved;
    coincident centers are rejected.
    """
    dmin = sys.min_distance()
    if dmin <= 0.0:
        raise ValueError("coincident centers cannot be normalized")
    f = 1.0 / dmin
    balls = tuple(
        Ball(center=tuple(f * c for c in b.center), radius=f * b.radius)
        for b in sys.balls
    )
    return BallSystem(balls=balls, dist=sys.dist * f, n=sys.n, scale=sys.scale * f)


@dataclass(frozen=True)
class PartitionResult:
    """Near/far split of a normalized system at distance 2 from the pivot."""

    pivot: tuple[int, int]
    near: tuple[int, ...]
    far: tuple[int, ...]


def partition(sys: BallSystem) -> PartitionResult:
    """Split at center distance 2 from the first pivot ball's center.

    The pivot pair realizes the minimum distance (ties broken by lowest
    index pair); centers at distance exactly 2 go to the far side.
    Requires a normalized system.
    """
    dmin = sys.min_distance()
    if not abs(dmin - 1.0) <= NORMALIZED_TOL:
        raise ValueError(
            f"partition requires a normalized system (min distance 1), got {dmin!r}"
        )
    iu, ju = np.triu_indices(len(sys.balls), 1)
    p = np.flatnonzero(np.abs(sys.dist[iu, ju] - dmin) <= 1e-12)[0]
    pivot = (int(iu[p]), int(ju[p]))
    d0 = sys.dist[pivot[0]]
    return PartitionResult(
        pivot=pivot,
        near=tuple(np.flatnonzero(d0 < 2.0).tolist()),
        far=tuple(np.flatnonzero(d0 >= 2.0).tolist()),
    )


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


def far_cone_angle() -> float:
    """Full aperture 2*arctan(sqrt(15)/7) of the cone each far ball
    excludes around its direction; half of it, arccos(7/8), is the
    guaranteed pairwise angle between far centers seen from the pivot."""
    return 2.0 * math.atan(math.sqrt(15.0) / 7.0)


#: cos of the far half-aperture arccos(7/8), as an exact rational
FAR_COS = Fraction(7, 8)

#: decimal digits kept beyond the integer part of the even-n reciprocal
FAR_GUARD_DIGITS = 30


def _half_betainc(n: int, sin2) -> mpmath.mpf:
    """I_{sin^2 alpha}((n-1)/2, 1/2) / 2, the measure of a cap of angular
    radius alpha <= pi/2 on S^(n-1) (Li 2011), at the working precision."""
    return mpmath.betainc(
        mpmath.mpf(n - 1) / 2, mpmath.mpf(1) / 2, 0, sin2, regularized=True
    ) / 2


def cap_fraction(n: int, alpha: float) -> float:
    """Normalized surface measure of a spherical cap of angular radius
    ``alpha`` on S^(n-1), by the regularized incomplete beta function."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < alpha <= math.pi:
        raise ValueError("alpha must lie in (0, pi]")
    if n == 1:
        # S^0 is two points; a cap of radius < pi is a single point
        return 0.5 if alpha < math.pi else 1.0
    if n == 2:
        return alpha / math.pi
    with mpmath.workdps(30):
        # sin^2 is symmetric about pi/2; a cap past it is the complement
        half = _half_betainc(n, mpmath.sin(mpmath.mpf(alpha)) ** 2)
        return float(half if alpha <= math.pi / 2 else 1 - half)


def far_cap_measure(n: int) -> Fraction:
    """Exact measure of the cap of angular radius arccos(7/8) on S^(n-1),
    odd n >= 3.

    With u = cos t the measure is int_c^1 (1-u^2)^k du over
    int_{-1}^1 (1-u^2)^k du, k = (n-3)/2, a ratio of polynomials in
    c = 7/8.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    k = (n - 3) // 2
    coef = [Fraction((-1) ** j * math.comb(k, j), 2 * j + 1) for j in range(k + 1)]

    def antiderivative(u: Fraction) -> Fraction:
        return sum(a * u ** (2 * j + 1) for j, a in enumerate(coef))

    top = antiderivative(Fraction(1))
    return (top - antiderivative(FAR_COS)) / (2 * top)


@lru_cache(maxsize=None)
def far_bound(n: int) -> int:
    """Count of pairwise-separated far directions: the exact ceiling of the
    reciprocal cap measure at radius arccos(7/8), half the exclusion-cone
    aperture.

    Odd n uses the rational measure.  Even n evaluates it with at least
    FAR_GUARD_DIGITS digits past the integer part of the reciprocal, and
    refuses a reciprocal too close to an integer to round.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 2
    if n % 2 == 1:
        return math.ceil(1 / far_cap_measure(n))
    # the reciprocal grows like (8/sqrt(15))^n: about 0.32 n integer digits
    with mpmath.workdps(n // 2 + FAR_GUARD_DIGITS):
        cos = mpmath.mpf(FAR_COS.numerator) / FAR_COS.denominator
        if n == 2:
            recip = mpmath.pi / mpmath.acos(cos)
        else:
            recip = 1 / _half_betainc(n, 1 - cos * cos)
        ceiling = int(mpmath.ceil(recip))
        gap = min(ceiling - recip, recip - ceiling + 1)
        if gap < mpmath.mpf(10) ** -(FAR_GUARD_DIGITS // 2):
            raise NumericalError(
                f"far_bound({n}): reciprocal too close to an integer to round"
            )
    return ceiling


@lru_cache(maxsize=None)
def fit_constants() -> tuple[float, float]:
    """Envelope constants (u, v) with u * v^(n+1) >= total count for every
    n up to FIT_HORIZON.

    v is the worst growth ratio of the far count (floored at 2, the near
    count's own ratio); u then absorbs the finitely many prefactors.
    """
    ranks = range(1, FIT_HORIZON + 1)
    totals = [2 * (near_bound(k) + far_bound(k)) for k in ranks]
    ratios = [far_bound(k + 1) / far_bound(k) for k in ranks[:-1]]
    v = max(2.0, max(ratios))
    u = max(t / v ** (k + 1) for k, t in zip(ranks, totals))
    for k, t in zip(ranks, totals):
        assert u * v ** (k + 1) >= t
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
    :class:`NumericalError` when the envelope overflows a double (n >= 566)."""
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
# cone-separation verification
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


def verify_cone_separation(
    sys: BallSystem, part: PartitionResult
) -> ConeSeparationReport:
    """Check every far pair subtends at least half the cone aperture at the
    pivot (equivalently, realizes aperture >= far_cone_angle() - CONE_TOL)."""
    if not part.far:
        raise ValueError("the far set is empty")
    if len(part.far) < 2:
        raise ValueError("need at least two far balls to compare")
    far = np.array(part.far)
    a, b = np.triu_indices(len(far), 1)
    i, j = far[a], far[b]
    d0i = sys.dist[part.pivot[0], i]
    d0j = sys.dist[part.pivot[0], j]
    dij = sys.dist[i, j]
    cos_ang = (d0i * d0i + d0j * d0j - dij * dij) / (2.0 * d0i * d0j)
    ang = np.arccos(np.clip(cos_ang, -1.0, 1.0))
    # argmin takes the first minimum, in row-major pair order
    p = int(np.argmin(ang))
    min_angle = float(ang[p])
    threshold = far_cone_angle()
    aperture = 2.0 * min_angle
    return ConeSeparationReport(
        min_angle=min_angle,
        min_aperture=aperture,
        witness=(int(i[p]), int(j[p])),
        threshold=threshold,
        tol=CONE_TOL,
        passed=aperture >= threshold - CONE_TOL,
    )


def cone_separation_infimum() -> tuple[float, float, tuple[float, float]]:
    """Minimize the far-pair angle over the constraint system by a grid scan.

    Two far centers at distances k, r >= 2 from the pivot must keep their
    separation d above both k - 1 and r - 1 (each center stays outside
    the other's ball, whose radius exceeds its pivot distance minus the
    pivot radius < 1).  Eliminating d caps cos(angle) by
    min((k^2 + 2r - 1)/(2kr), (r^2 + 2k - 1)/(2kr)); the returned triple
    is (min_angle, aperture, argmin (k, r)) over a 400 x 400 scan of
    [2, 40]^2.  The grid holds the corner k = r = 2, where the bound is
    exactly 7/8 and attains its supremum.
    """
    ks = np.linspace(2.0, 40.0, 400)
    kk, rr = np.meshgrid(ks, ks, indexing="ij")
    f1 = (kk * kk + 2.0 * rr - 1.0) / (2.0 * kk * rr)
    f2 = (rr * rr + 2.0 * kk - 1.0) / (2.0 * kk * rr)
    cos_max = np.minimum(1.0, np.minimum(f1, f2))
    idx = np.unravel_index(np.argmax(cos_max), cos_max.shape)
    angle = math.acos(float(cos_max[idx]))
    return angle, 2.0 * angle, (float(kk[idx]), float(rr[idx]))
