import math
from fractions import Fraction

import numpy as np
import pytest

from negcurve.conditions import CurveFamily, validate_family
from negcurve.errors import NumericalError, SignatureError
from negcurve.lorentz import (
    QuadraticLattice,
    embed_class,
    inner,
    minkowski_matrix,
    sign_class,
    signature,
    standardize,
)

RNG = np.random.default_rng(1234)


def test_inner_canonical_basis():
    assert inner((1, 0, 0), (1, 0, 0)) == 1.0
    assert inner((0, 1, 0), (0, 0, 1)) == 0.0
    assert inner((0, 1, 0), (0, 1, 0)) == -1.0


def test_inner_cap_pairing_identity():
    # H((cos ti, 1, 0), (cos tj, cos d, sin d)) == cos ti cos tj - cos d
    for _ in range(200):
        ti, tj = RNG.uniform(0.01, math.pi - 0.01, size=2)
        d = RNG.uniform(0.01, math.pi)
        u = (math.cos(ti), 1.0, 0.0)
        v = (math.cos(tj), math.cos(d), math.sin(d))
        assert inner(u, v) == pytest.approx(
            math.cos(ti) * math.cos(tj) - math.cos(d), abs=1e-12
        )


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner((1, 0), (1, 0, 0))


def test_inner_bilinear_symmetric():
    for _ in range(300):
        dim = int(RNG.integers(2, 7))
        u, v, w = RNG.normal(size=(3, dim))
        a, b = RNG.normal(size=2)
        assert inner(u, v) == pytest.approx(inner(v, u), rel=1e-9, abs=1e-12)
        assert inner(a * u + b * w, v) == pytest.approx(
            a * inner(u, v) + b * inner(w, v), rel=1e-9, abs=1e-9
        )


def test_sign_class_basics():
    assert sign_class((2, 0, 0)) == 1
    assert sign_class((0, 1, 0)) == -1
    assert sign_class((1, 1, 0)) == 0


def test_sign_class_zero_vector_rejected():
    with pytest.raises(ValueError):
        sign_class((0.0, 0.0, 0.0))


@pytest.mark.filterwarnings("error")
def test_sign_class_square_beyond_double_is_numerical_failure():
    # the entry is a double, its square is not; no overflow warning leaks
    with pytest.raises(NumericalError):
        sign_class((0.0, 1.0, 1e155))
    assert sign_class((0.0, 1.0, 1e150)) == -1


def test_sign_class_scale_invariant():
    for _ in range(500):
        v = RNG.normal(size=int(RNG.integers(2, 6)))
        lam = float(RNG.uniform(1e-6, 1e6))
        assert sign_class(v) == sign_class(lam * v)


def test_signature_exact_small_cases():
    assert signature([[1, 0], [0, -1]]) == (1, 1, 0)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([[2, 0, 0], [0, -3, 0], [0, 0, 5]]) == (2, 1, 0)
    assert signature([[-2, 2], [2, -2]]) == (0, 1, 1)
    assert signature([[0, 0], [0, 0]]) == (0, 0, 2)


def test_signature_matches_eigenvalues():
    for _ in range(200):
        dim = int(RNG.integers(2, 6))
        a = RNG.integers(-5, 6, size=(dim, dim))
        g = a + a.T
        evals = np.linalg.eigvalsh(g.astype(float))
        expected = (
            int(np.sum(evals > 1e-9)),
            int(np.sum(evals < -1e-9)),
            int(np.sum(np.abs(evals) <= 1e-9)),
        )
        assert signature(g.tolist()) == expected


def test_lattice_rejects_wrong_signature():
    with pytest.raises(SignatureError) as err:
        QuadraticLattice([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert err.value.inertia == (2, 1, 0)
    assert "2 positive" in str(err.value)


def test_lattice_rejects_asymmetric():
    with pytest.raises(ValueError):
        QuadraticLattice([[1, 2], [0, -1]])


def test_standardize_identity_on_canonical_form():
    lat = QuadraticLattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    m = standardize(lat).matrix
    assert np.allclose(m, np.eye(3), atol=1e-12)


def test_standardize_hyperbolic_plane():
    lat = QuadraticLattice([[0, 1], [1, 0]])
    smap = standardize(lat)
    j = smap.matrix.T @ np.array(lat.gram, dtype=float) @ smap.matrix
    assert np.allclose(j, minkowski_matrix(2), atol=1e-9)


def test_standardize_random_lattices():
    found = 0
    while found < 1000:
        dim = int(RNG.integers(2, 6))
        a = RNG.integers(-5, 6, size=(dim, dim))
        g = (a + a.T).tolist()
        if signature(g) != (1, dim - 1, 0):
            continue
        found += 1
        lat = QuadraticLattice(g)
        smap = standardize(lat)
        j = smap.matrix.T @ np.array(lat.gram, dtype=float) @ smap.matrix
        assert np.max(np.abs(j - minkowski_matrix(dim))) < 1e-7


def test_standardize_deterministic():
    lat = QuadraticLattice([[2, 1, 0], [1, -1, 1], [0, 1, -3]])
    first = standardize(lat).matrix.copy()
    standardize.cache_clear()
    second = standardize(QuadraticLattice([[2, 1, 0], [1, -1, 1], [0, 1, -3]])).matrix
    assert np.array_equal(first, second)


def test_gram_above_int64_embeds_with_exact_norms():
    lat = QuadraticLattice([[1, 0, 0], [0, -1, 0], [0, 0, -10**20]])
    e1, e2 = embed_class(lat, (0, 1, 0)), embed_class(lat, (0, 0, 1))
    assert inner(e1, e1) == lat.norm((0, 1, 0)) == -1
    # 10^20 is a double exactly, so the float norm is the exact one
    assert inner(e2, e2) == lat.norm((0, 0, 1)) == -10**20
    assert inner(e1, e2) == 0.0


def test_gram_beyond_double_is_numerical_error():
    lat = QuadraticLattice([[1, 0, 0], [0, -1, 0], [0, 0, -10**400]])
    assert lat.norm((0, 0, 1)) == -10**400  # the exact path is unaffected
    with pytest.raises(NumericalError, match="Gram entries exceed the double range"):
        embed_class(lat, (0, 1, 0))


def test_gram_that_rounds_singular_is_numerical_error(recwarn):
    # signature (1, 1) holds exactly, but both rows round to 2^62 * (1, 1)
    lat = QuadraticLattice([[2**62, 2**62 + 1], [2**62 + 1, 2**62]])
    with pytest.raises(NumericalError, match="residual nan"):
        standardize(lat)
    assert not recwarn.list


def test_standardize_residual_failure_is_numerical_error():
    # signature (1, 1) holds exactly; only the floating-point map fails
    lat = QuadraticLattice([[10**8, 10**8 + 1], [10**8 + 1, 10**8]])
    standardize.cache_clear()
    with pytest.raises(NumericalError, match="residual"):
        standardize(lat)


def test_embed_class_simple_norms():
    lat = QuadraticLattice([[1, 0], [0, -1]])
    v = embed_class(lat, (0, 1))
    assert inner(v, v) == pytest.approx(-1.0, abs=1e-9)

    lat3 = QuadraticLattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    e1 = embed_class(lat3, (0, 1, 0))
    e2 = embed_class(lat3, (0, 0, 1))
    assert inner(e1, e1) == pytest.approx(-1.0, abs=1e-9)
    assert inner(e2, e2) == pytest.approx(-1.0, abs=1e-9)
    assert inner(e1, e2) == pytest.approx(0.0, abs=1e-9)


def test_embed_class_hyperbolic_plane():
    lat = QuadraticLattice([[0, 1], [1, 0]])
    v = embed_class(lat, (1, -1))
    # exact quadratic form value is -2
    assert lat.norm((1, -1)) == -2
    assert inner(v, v) == pytest.approx(-2.0, abs=1e-9)


def test_embed_class_rejects_zero():
    lat = QuadraticLattice([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        embed_class(lat, (0, 0))


def test_embed_preserves_pairings():
    checked = 0
    while checked < 60:
        dim = int(RNG.integers(2, 6))
        a = RNG.integers(-5, 6, size=(dim, dim))
        g = (a + a.T).tolist()
        if signature(g) != (1, dim - 1, 0):
            continue
        checked += 1
        lat = QuadraticLattice(g)
        classes = RNG.integers(-7, 8, size=(6, dim))
        classes = [c for c in classes if np.any(c)]
        vecs = [embed_class(lat, c) for c in classes]
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                exact = lat.pairing(ci, cj)
                assert abs(inner(vecs[i], vecs[j]) - exact) < 1e-7


def test_pairing_exact_values():
    lat = QuadraticLattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert lat.pairing((1, -1, 0), (1, 0, -1)) == 1
    assert lat.norm((1, -1, -1)) == -1
    big = QuadraticLattice([[0, 1], [1, 0]])
    assert big.pairing((10**12, 1), (1, 10**12)) == 10**24 + 1


DIAG3 = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]


@pytest.mark.parametrize(
    "bad", [1.5, np.float64(1.9), Fraction(3, 2), float("nan"), float("inf")],
    ids=["float", "numpy-float", "fraction", "nan", "inf"],
)
def test_exact_path_rejects_non_integral_entries(bad):
    # the exact path refuses a non-integral entry; it never truncates it
    lat = QuadraticLattice(DIAG3)
    with pytest.raises(ValueError, match="must be integers"):
        CurveFamily(lat, [[0, bad, 0]])
    with pytest.raises(ValueError, match="must be integers"):
        lat.pairing((0, bad, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="must be integers"):
        lat.pairing((0, 1, 0), (0, bad, 0))
    with pytest.raises(ValueError, match="must be integers"):
        lat.norm(np.array([0.0, bad, 0.0]))
    with pytest.raises(ValueError, match="must be integers"):
        QuadraticLattice([[1, 0, 0], [0, -1, 0], [0, 0, -bad]])


@pytest.mark.parametrize(
    "two",
    [2, np.int64(2), np.int32(2), np.uint8(2), 2.0, np.float64(2.0), Fraction(4, 2)],
    ids=["int", "int64", "int32", "uint8", "float", "numpy-float", "fraction"],
)
def test_exact_path_accepts_integral_entries(two):
    lat = QuadraticLattice(DIAG3)
    fam = CurveFamily(lat, [[0, two, 0], np.array([1, two, 1], dtype=object)])
    assert fam.classes == ((0, 2, 0), (1, 2, 1))
    assert all(type(x) is int for c in fam.classes for x in c)
    assert validate_family(fam).checked == {"I": 2, "II": 1, "III": 1}
    pair = lat.pairing((0, two, 0), (1, two, 1))
    norm = lat.norm(np.array([0, two, 0], dtype=object))
    assert (pair, norm) == (-4, -4)
    assert type(pair) is int and type(norm) is int
    gram = QuadraticLattice([[two, 1], [1, 0]]).gram
    assert gram == ((2, 1), (1, 0)) and type(gram[0][0]) is int


def test_exact_path_checks_class_length():
    lat = QuadraticLattice(DIAG3)
    for call in (
        lambda: CurveFamily(lat, [[0, 1]]),
        lambda: lat.pairing((0, 1), (0, 1, 0)),
        lambda: lat.norm((0, 1, 0, 0)),
    ):
        with pytest.raises(ValueError, match="class length must equal the lattice rank"):
            call()
