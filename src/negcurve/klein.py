"""The extended Klein model of (R^{1,n} - {0}) / R+.

Rays through the origin are represented by the section

    E = D+ u D- u C u boundary,

where D+/- are the open unit discs in the planes x0 = +/-1 (time-like
rays), C = (-1, 1) x S^{n-1} is the open cylinder (space-like rays), and
the shared boundary circles x0 = +/-1, |spatial| = 1 carry the null rays.

A cylinder point c is equivalently a spherical cap: its H-orthogonal
hyperplane cuts the boundary sphere of D+ in the rim of a cap of angular
radius theta = arccos(x0) centered at the foot z = spatial(c).  The
(z, theta) coordinates drive all pairwise conditions downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalError
from .lorentz import sign_class

#: unit-vector tolerance for cap feet
UNIT_TOL = 1e-12


class Region(Enum):
    DISC_PLUS = "disc+"
    DISC_MINUS = "disc-"
    CYLINDER = "cylinder"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class KleinPoint:
    """A point of the extended Klein model, tagged with its region."""

    region: Region
    coords: tuple[float, ...]

    @property
    def x0(self) -> float:
        return self.coords[0]

    @property
    def spatial(self) -> tuple[float, ...]:
        return self.coords[1:]


@dataclass(frozen=True)
class CapRep:
    """Cap coordinates (z, theta) of a cylinder point.

    ``z`` is a unit vector in R^n (the foot on the boundary sphere) and
    ``theta`` in (0, pi) is the cap's angular radius.
    """

    z: tuple[float, ...]
    theta: float

    def __post_init__(self):
        zn = math.sqrt(sum(x * x for x in self.z))
        # written so that a NaN or infinite foot fails it too
        if not abs(zn - 1.0) <= UNIT_TOL:
            raise ValueError(f"cap foot must be a unit vector, |z| = {zn!r}")
        if not 0.0 < self.theta < math.pi:
            raise ValueError(f"theta must lie in (0, pi), got {self.theta!r}")

    @property
    def n(self) -> int:
        return len(self.z)


@dataclass(frozen=True)
class OrthDisc:
    """The slice of D+ cut by the H-orthogonal hyperplane of a cylinder point.

    Stored analytically: center y = (1, cos(theta) z), Euclidean radius
    sin(theta) inside the plane x0 = 1, and the boundary foot z.  The
    defining identity |y - z| = |c - z| = 1 - cos(theta) ties the disc to
    the cap radius.
    """

    center: tuple[float, ...]
    euclid_radius: float
    foot: tuple[float, ...]
    theta: float


def project(v) -> KleinPoint:
    """Central projection of a nonzero vector onto the model section.

    The result is a positive multiple of ``v`` whose region agrees with
    the sign of the H-norm: time-like vectors land on D+/- by the sign of
    x0, space-like vectors on the cylinder, null vectors on the boundary.
    Idempotent on points already in the section.
    """
    return _project(v)


def _project(v, exact_sign: int | None = None) -> KleinPoint:
    """:func:`project`, in the region of ``exact_sign``, the sign of a
    lattice class's exact norm, when it is given."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or len(v) < 2:
        raise ValueError("expected a vector of dimension >= 2")
    s = sign_class(v)  # raises on the zero vector
    if exact_sign is not None:
        s = exact_sign
    x0 = float(v[0])
    spatial = v[1:]
    spn = float(np.linalg.norm(spatial))
    if s > 0:
        if x0 == 0.0:
            raise NumericalError("time-like vector with x0 = 0 is impossible")
        c = v / abs(x0)
        region = Region.DISC_PLUS if x0 > 0 else Region.DISC_MINUS
        coords = (math.copysign(1.0, x0), *map(float, c[1:]))
    elif s < 0:
        coords = tuple(float(x) for x in v / spn)
        if not abs(coords[0]) < 1.0:
            raise NumericalError("a space-like vector rounds onto the boundary of the model")
        region = Region.CYLINDER
    else:
        # null (within the guard band): snap onto the boundary circle
        region = Region.BOUNDARY
        coords = (math.copysign(1.0, x0), *map(float, spatial / spn))
    return KleinPoint(region=region, coords=coords)


def cap_of(point: KleinPoint) -> CapRep:
    """Cap coordinates of a cylinder point: z = spatial part, theta = arccos(x0)."""
    if point.region is not Region.CYLINDER:
        raise ValueError(f"cap_of requires a cylinder point, got {point.region}")
    x0 = min(1.0, max(-1.0, point.x0))
    return CapRep(z=point.spatial, theta=math.acos(x0))


def point_of(rep: CapRep) -> KleinPoint:
    """Inverse of :func:`cap_of`: the cylinder point (cos(theta), z)."""
    return KleinPoint(
        region=Region.CYLINDER, coords=(math.cos(rep.theta), *rep.z)
    )


def orth_disc(point: KleinPoint) -> OrthDisc:
    """The D+ component of the orthogonal-complement slice of a cylinder point.

    Every point p of the returned disc satisfies inner(c, p) = 0, the
    center is y = (1, cos(theta) z), and |y - z| = |c - z| = 1 - cos(theta).
    """
    rep = cap_of(point)  # validates the region
    cos_t = math.cos(rep.theta)
    z = np.array(rep.z)
    return OrthDisc(
        center=(1.0, *(cos_t * z)),
        euclid_radius=math.sin(rep.theta),
        foot=(1.0, *rep.z),
        theta=rep.theta,
    )


# ---------------------------------------------------------------------------
# figure data (n = 2): point streams for external plotting
# ---------------------------------------------------------------------------

def figure_streams(caps: list[CapRep]) -> dict[str, np.ndarray]:
    """Numeric point streams describing the n = 2 model and a cap family.

    Returns named arrays of rows (x0, x1, x2): the two disc rims, a wire
    grid of the cylinder, the boundary circles, plus the cap rim arcs and
    the orthogonal chords of each cap.  Rendering is left to external
    tools.
    """
    if any(cap.n != 2 for cap in caps):
        raise ValueError("figure streams are only produced for n = 2")
    samples = 256  # points per curve
    phi = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    circle = np.column_stack([np.cos(phi), np.sin(phi)])

    streams: dict[str, np.ndarray] = {}
    streams["disc_plus"] = np.column_stack([np.ones(samples), 0.999 * circle])
    streams["disc_minus"] = np.column_stack([-np.ones(samples), 0.999 * circle])
    streams["boundary"] = np.vstack(
        [
            np.column_stack([np.ones(samples), circle]),
            np.column_stack([-np.ones(samples), circle]),
        ]
    )
    levels = np.linspace(-0.9, 0.9, 7)
    streams["cylinder"] = np.vstack(
        [np.column_stack([np.full(samples, t), circle]) for t in levels]
    )

    cap_rows = []
    chord_rows = []
    for cap in caps:
        base = math.atan2(cap.z[1], cap.z[0])
        arc = np.linspace(base - cap.theta, base + cap.theta, samples)
        cap_rows.append(
            np.column_stack([np.ones(samples), np.cos(arc), np.sin(arc)])
        )
        disc = orth_disc(point_of(cap))
        center = np.array(disc.center[1:])
        tangent = np.array([-cap.z[1], cap.z[0]])
        ts = np.linspace(-disc.euclid_radius, disc.euclid_radius, samples)
        chord = center + ts[:, None] * tangent
        chord_rows.append(np.column_stack([np.ones(samples), chord]))
    if cap_rows:
        streams["caps"] = np.vstack(cap_rows)
        streams["orth_discs"] = np.vstack(chord_rows)
    return streams
