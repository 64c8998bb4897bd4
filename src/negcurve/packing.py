"""The near/far split of a cap family's distance matrix.

Pipeline: restrict a family to caps of angular radius <= pi/2 (reflecting
the larger half through x0 -> -x0 when needed), take the angular
separations delta_ij of the kept caps as the center distances of balls
B(z_i, theta_i), rescale so the minimum center distance is 1, and split
the system at distance 2 from the first pivot center.  Every far pair
must subtend at least arccos(7/8) at the pivot, half the exclusion-cone
aperture of :mod:`negcurve.counting`, which counts both parts.

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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .conditions import (
    TOL_BOUNDARY,
    ModelFamily,
    _collector_paused,
    cap_arrays,
    pair_margins,
)
from .counting import FAR_COS, far_cone_angle

# these two names stay only because bench/ops.py clears their caches
# through this module; they go once the bench reads them from counting
# (ROADMAP item 4)
from .counting import far_bound, fit_constants
from .klein import CapRep

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
