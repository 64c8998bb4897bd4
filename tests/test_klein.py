import math

import numpy as np
import pytest

from negcurve.conditions import pair_margins
from negcurve.klein import (
    CapRep,
    Region,
    cap_of,
    figure_streams,
    orth_disc,
    point_of,
    project,
)
from negcurve.lorentz import inner, sign_class

RNG = np.random.default_rng(77)


def random_cylinder_point(rng, n=2, x0_cap=0.9999):
    x0 = float(rng.uniform(-x0_cap, x0_cap))
    z = rng.normal(size=n)
    z /= np.linalg.norm(z)
    v = np.concatenate([[x0], z]) * rng.uniform(0.5, 2.0)
    return project(v)


def test_project_examples():
    p = project((2, 0, 0))
    assert p.region is Region.DISC_PLUS
    assert p.coords == (1.0, 0.0, 0.0)

    c = project((0, 3, 0))
    assert c.region is Region.CYLINDER
    assert c.coords == (0.0, 1.0, 0.0)

    b = project((-2, 2, 0))
    assert b.region is Region.BOUNDARY
    assert b.coords == (-1.0, 1.0, 0.0)


def test_project_rejects_zero():
    with pytest.raises(ValueError):
        project((0.0, 0.0, 0.0))


def test_project_section_property():
    for _ in range(500):
        v = RNG.normal(size=int(RNG.integers(3, 6)))
        lam = float(RNG.uniform(1e-3, 1e3))
        p1 = project(v).array()
        p2 = project(lam * v).array()
        assert np.max(np.abs(p1 - p2)) < 1e-12
        # the projected point is a positive multiple of v
        ratios = p1 / v
        assert np.all(ratios > 0) or np.allclose(p1, v * ratios[np.argmax(np.abs(v))])


def test_project_region_matches_sign():
    regions = {1: (Region.DISC_PLUS, Region.DISC_MINUS), -1: (Region.CYLINDER,),
               0: (Region.BOUNDARY,)}
    for _ in range(10_000):
        v = RNG.normal(size=3)
        s = sign_class(v)
        assert project(v).region in regions[s]


def test_project_idempotent():
    for _ in range(200):
        v = RNG.normal(size=4)
        p = project(v)
        again = project(p.array())
        assert p.region is again.region
        assert np.max(np.abs(p.array() - again.array())) < 1e-12


def test_cap_of_examples():
    assert cap_of(project((0, 1, 0))) == CapRep(z=(1.0, 0.0), theta=math.pi / 2)

    rep = cap_of(project((0.5, 1, 0)))
    assert rep.z == (1.0, 0.0)
    assert rep.theta == pytest.approx(math.pi / 3, abs=1e-12)
    # cross-check against the disc construction: theta = arccos(1 - |y - z|)
    disc = orth_disc(project((0.5, 1, 0)))
    gap = np.linalg.norm(np.array(disc.center) - np.array(disc.foot))
    assert math.acos(1.0 - gap) == pytest.approx(rep.theta, abs=1e-12)


def test_cap_of_canonical_pair_form():
    for _ in range(100):
        theta = RNG.uniform(0.05, math.pi - 0.05)
        d = RNG.uniform(0.05, math.pi - 0.05)
        c = project((math.cos(theta), math.cos(d), math.sin(d)))
        rep = cap_of(c)
        assert rep.theta == pytest.approx(theta, abs=1e-12)
        assert np.allclose(rep.z, (math.cos(d), math.sin(d)), atol=1e-12)


def test_cap_of_rejects_disc_points():
    with pytest.raises(ValueError):
        cap_of(project((2, 0, 0)))


@pytest.mark.parametrize(
    "foot",
    [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (1.0, -math.inf)],
)
def test_cap_rejects_non_finite_foot(foot):
    with pytest.raises(ValueError, match="unit vector"):
        CapRep(z=foot, theta=1.0)


def test_point_of_examples():
    p = point_of(CapRep(z=(1.0, 0.0), theta=math.pi / 2))
    assert p.region is Region.CYLINDER
    assert np.allclose(p.coords, (0.0, 1.0, 0.0), atol=1e-16)

    q = point_of(CapRep(z=(0.0, 1.0), theta=math.pi / 3))
    assert np.allclose(q.coords, (0.5, 0.0, 1.0), atol=1e-15)


def test_cap_point_round_trip():
    for _ in range(1000):
        n = int(RNG.integers(2, 5))
        z = RNG.normal(size=n)
        z /= np.linalg.norm(z)
        theta = float(RNG.uniform(0.01, math.pi - 0.01))
        rep = CapRep(z=tuple(z), theta=theta)
        back = cap_of(point_of(rep))
        assert back.theta == pytest.approx(theta, abs=1e-12)
        assert np.max(np.abs(np.array(back.z) - z)) < 1e-12

        c = random_cylinder_point(RNG, n=n)
        again = point_of(cap_of(c))
        assert np.max(np.abs(again.array() - c.array())) < 1e-12


def test_orth_disc_example():
    disc = orth_disc(project((0.5, 1, 0)))
    assert np.allclose(disc.center, (1.0, 0.5, 0.0), atol=1e-15)
    assert np.allclose(disc.foot, (1.0, 1.0, 0.0), atol=1e-15)
    assert disc.euclid_radius == pytest.approx(math.sin(math.pi / 3), abs=1e-15)
    assert np.linalg.norm(np.array(disc.center) - np.array(disc.foot)) == pytest.approx(
        0.5, abs=1e-15
    )


def test_orth_disc_center_at_theta_right_angle():
    disc = orth_disc(project((0, 1, 0)))
    assert np.allclose(disc.center, (1.0, 0.0, 0.0), atol=1e-15)
    assert disc.euclid_radius == pytest.approx(1.0, abs=1e-15)


def test_orth_disc_points_are_orthogonal():
    for _ in range(50):
        n = int(RNG.integers(2, 5))
        c = random_cylinder_point(RNG, n=n)
        disc = orth_disc(c)
        pts = disc.sample_points(RNG, 100)
        for p in pts:
            assert abs(inner(c.array(), p)) < 1e-9
            # inside the x0 = 1 disc
            assert np.linalg.norm(p[1:]) < 1.0 + 1e-12


def test_construction_identity():
    # |y - z| = |c - z| = 1 - cos(theta)
    for _ in range(10_000):
        c = random_cylinder_point(RNG, n=3)
        rep = cap_of(c)
        disc = orth_disc(c)
        y = np.array(disc.center)
        z = np.array(disc.foot)
        expected = 1.0 - math.cos(rep.theta)
        assert abs(np.linalg.norm(y - z) - expected) < 1e-12
        assert abs(np.linalg.norm(c.array() - z) - expected) < 1e-12


def test_rotation_equivariance():
    for _ in range(100):
        n = int(RNG.integers(2, 5))
        c = random_cylinder_point(RNG, n=n)
        rep = cap_of(c)
        q, _ = np.linalg.qr(RNG.normal(size=(n, n)))
        rotated = project(np.concatenate([[c.x0], q @ np.array(c.spatial)]))
        rep_rot = cap_of(rotated)
        assert rep_rot.theta == pytest.approx(rep.theta, abs=1e-12)
        assert np.max(np.abs(np.array(rep_rot.z) - q @ np.array(rep.z))) < 1e-9


def test_angular_distance_examples():
    # the angular distance of two cap feet is the pair kernel's delta
    delta = pair_margins([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], [1.0, 1.0, 1.0])[0]
    assert delta[0, 0] == 0.0
    assert delta[0, 1] == pytest.approx(math.pi / 2, abs=1e-15)
    assert delta[0, 2] == pytest.approx(math.pi, abs=1e-15)
    # feet must be unit vectors
    with pytest.raises(ValueError):
        CapRep(z=(2.0, 0.0), theta=1.0)


def test_figure_streams_shapes():
    caps = [CapRep(z=(1.0, 0.0), theta=math.pi / 3)]
    streams = figure_streams(caps)
    for name in ("disc_plus", "disc_minus", "boundary", "cylinder", "caps",
                 "orth_discs"):
        assert name in streams
        assert streams[name].shape[1] == 3
    with pytest.raises(ValueError):
        figure_streams([CapRep(z=(1.0, 0.0, 0.0), theta=1.0)])
