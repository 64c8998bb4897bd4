"""The two condition systems on families of negative classes.

Lattice level, on integer classes C_i of a rank-(n+1) lattice with
signature (1, n) (exact integer arithmetic throughout):

    (I)    C_i^2 < 0
    (II)   C_i . C_j >= 0
    (III)  (a C_i + b C_j)^2 <= 0 for all positive a, b

Condition (III) is decided in closed form by maximizing the quadratic
q(t) = C_i^2 t^2 + 2 t (C_i . C_j) + C_j^2 over t > 0: when the cross
term is nonpositive the supremum is max(C_i^2, C_j^2) < 0, otherwise the
maximum sits at t* = -(C_i.C_j)/C_i^2 > 0 with value
(C_i^2 C_j^2 - (C_i.C_j)^2) / C_i^2, so (III) holds iff

    C_i . C_j <= 0   or   (C_i . C_j)^2 <= C_i^2 C_j^2.

Model level, on cap coordinates (z_i, theta_i) with delta_ij the angular
distance of the feet:

    (i)    the class projects onto the cylinder
    (ii)   cos(delta_ij) <= cos(theta_i) cos(theta_j)
    (iii)  theta_i + theta_j >= delta_ij

(i)/(ii) match (I)/(II) identically on the whole cylinder;
H(c_i, c_j) = cos(theta_i)cos(theta_j) - cos(delta_ij) is an identity.
(III) always implies (iii), and the two are equivalent whenever
theta_i + theta_j <= pi; for larger caps (iii) is strictly weaker (the
cap closures can overlap while a positive combination is already
time-like).  ``equivalence_probe`` measures all of this empirically.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateCapPairError, NumericalError
from .klein import CapRep
from .lorentz import QuadraticLattice

#: symmetric guard band for all non-strict model-level inequalities
TOL_BOUNDARY = 1e-9


# ---------------------------------------------------------------------------
# the model-level pair kernel
# ---------------------------------------------------------------------------

def pair_margins(Z, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular distances and the (ii)/(iii) margins of every pair of caps.

    ``Z`` is a (k, n) array of unit feet and ``theta`` a (k,) array of
    radii.  Returns three (k, k) arrays: ``delta`` with
    delta_ij = arccos(z_i . z_j), ``m_ii`` = cos(theta_i) cos(theta_j) -
    cos(delta_ij) and ``m_iii`` = theta_i + theta_j - delta_ij.  The
    margins are positive when the condition holds with room to spare;
    the diagonal carries no meaning.
    """
    Z = np.asarray(Z, dtype=float)
    theta = np.asarray(theta, dtype=float)
    delta = np.arccos(np.clip(Z @ Z.T, -1.0, 1.0))
    cos_t = np.cos(theta)
    # the negated value cos(delta) - cos cos, so that a zero keeps its sign
    m_ii = -(np.cos(delta) - np.multiply.outer(cos_t, cos_t))
    m_iii = np.add.outer(theta, theta) - delta
    return delta, m_ii, m_iii


def cap_arrays(caps: Sequence[CapRep]) -> tuple[np.ndarray, np.ndarray]:
    """The feet and radii of ``caps`` as the arrays :func:`pair_margins` takes."""
    n = caps[0].n if caps else 0
    return (
        np.array([cap.z for cap in caps], dtype=float).reshape(len(caps), n),
        np.array([cap.theta for cap in caps], dtype=float),
    )


def coincident_feet(Z) -> np.ndarray:
    """(k, k) mask of the pairs of rows of ``Z`` that are the same foot,
    compared exactly (arccos of the dot product cannot tell feet closer
    than ~1.5e-8 apart from equal ones); the diagonal is true."""
    Z = np.asarray(Z, dtype=float)
    same = np.ones((len(Z), len(Z)), dtype=bool)
    # column by column: a (k, k, n) comparison reduced over n is ~5x slower
    for col in Z.T:
        same &= np.equal.outer(col, col)
    return same


@dataclass(frozen=True)
class RayMax:
    """Maximum of f(a) = |a c_i + c_j|_H^2 along a ray, in canonical position
    c_i = (0, 1, 0, ..., 0), c_j = (cos theta_j, cos delta, sin delta, 0, ...).

    ``a_star = -cos(delta)`` is the unconstrained maximizer with value
    cos^2(theta_j) - sin^2(delta).  When a_star <= 0 the supremum over
    a > 0 is instead cos^2(theta_j) - 1, approached as a -> 0+;
    ``sup_positive`` always reports the supremum over the open ray.
    """

    a_star: float
    value: float
    sup_positive: float


def max_norm_on_ray(theta_j: float, delta: float) -> RayMax:
    if not 0.0 < theta_j < math.pi:
        raise ValueError(f"theta_j must lie in (0, pi), got {theta_j!r}")
    if not 0.0 < delta <= math.pi:
        raise ValueError(f"delta must lie in (0, pi], got {delta!r}")
    a_star = -math.cos(delta)
    cos_tj = math.cos(theta_j)
    value = cos_tj * cos_tj - math.sin(delta) ** 2
    sup_positive = value if a_star > 0 else cos_tj * cos_tj - 1.0
    return RayMax(a_star=a_star, value=value, sup_positive=sup_positive)


# ---------------------------------------------------------------------------
# families and validation reports
# ---------------------------------------------------------------------------

def _as_class_tuple(cls) -> tuple[int, ...]:
    out = tuple(int(c) for c in cls)
    if not any(out):
        raise ValueError("family classes must be nonzero")
    return out


@dataclass(frozen=True)
class CurveFamily:
    """Integer classes on a common lattice."""

    lattice: QuadraticLattice
    classes: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __init__(self, lattice, classes, labels=None):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(
            self, "classes", tuple(_as_class_tuple(c) for c in classes)
        )
        for c in self.classes:
            if len(c) != lattice.rank:
                raise ValueError("class length must equal the lattice rank")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != len(self.classes):
                raise ValueError("labels must match classes one to one")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class ModelFamily:
    """A family of cap representations."""

    caps: tuple[CapRep, ...]

    def __init__(self, caps):
        object.__setattr__(self, "caps", tuple(caps))

    def __len__(self) -> int:
        return len(self.caps)


@dataclass(frozen=True, slots=True)
class PairVerdict:
    """The signed margin of one condition on one element or pair: a
    failure in a :class:`ValidationReport`, or any entry of a search
    certificate."""

    indices: tuple[int, ...]
    condition: str
    margin: float


@dataclass
class ValidationReport:
    """Every failing element/pair, plus aggregate counts.

    ``overall`` is the conjunction of all per-element and per-pair
    verdicts; ``failures`` lists each violation with the condition name
    and the (signed) margin by which it failed.
    """

    kind: str
    size: int
    overall: bool
    failures: list[PairVerdict]
    checked: dict[str, int]
    min_margins: dict[str, float]

    def to_json_dict(self) -> dict:
        # not asdict, which deep-copies each failure record: on the 27k
        # failures of a 300-cap family it takes 0.32 s against 0.01 s
        # (2-core VM, Python 3.11)
        return {
            "kind": self.kind,
            "size": self.size,
            "overall": self.overall,
            "checked": dict(self.checked),
            "min_margins": dict(self.min_margins),
            "failures": [
                {"indices": f.indices, "condition": f.condition, "margin": f.margin}
                for f in self.failures
            ],
        }


def _pair_matrix(lat: QuadraticLattice, classes) -> np.ndarray:
    """All pairwise intersection numbers, exactly: int64 when B^2 < 2^61
    for B = max|c|^2 sum|G|, which bounds every pairing and partial sum by
    B and the (III) discriminant n_i n_j - h_ij^2 by 2 B^2, so no
    arithmetic on the matrix overflows; Python integers otherwise."""
    max_c = max(abs(x) for cls in classes for x in cls)
    sum_g = sum(abs(x) for row in lat.gram for x in row)
    dtype = np.int64 if (max_c * max_c * sum_g) ** 2 < 2**61 else object
    v = np.array(classes, dtype=dtype)
    return v @ np.array(lat.gram, dtype=dtype) @ v.T


def validate_family(fam: Union[CurveFamily, ModelFamily]) -> ValidationReport:
    """Check every element and pair of a family against its condition system.

    Lattice families are checked with exact integer arithmetic; model
    families with the cap inequalities, guard-banded by TOL_BOUNDARY.  The
    report is order-independent: permuting the family changes only record
    order, never the overall verdict.
    """
    if not isinstance(fam, (CurveFamily, ModelFamily)):
        raise TypeError(f"cannot validate {type(fam).__name__}")
    if len(fam) == 0:
        raise ValueError("cannot validate an empty family")
    return _validate_lattice(fam) if isinstance(fam, CurveFamily) else _validate_model(fam)


def _report(kind, names, pairs, elem_margin, elem_ok, margins, ok, checked) -> ValidationReport:
    """The report from the (k,) element margins and verdicts and the
    (pairs, 2) pair margins, verdicts and checked masks, one row per pair
    i < j of ``pairs`` = np.triu_indices(k, 1), of the conditions
    ``names``; failures are ordered by (indices, condition)."""
    k = len(elem_margin)
    iu, ju = pairs
    bad = np.flatnonzero(~elem_ok)
    failures = [
        PairVerdict((i,), names[0], m)
        for i, m in zip(bad.tolist(), elem_margin[bad].tolist())
    ]
    p, c = np.divmod(np.flatnonzero(checked & ~ok), 2)
    failures += [
        PairVerdict((i, j), names[1 + col], m)
        for i, j, col, m in zip(
            iu[p].tolist(), ju[p].tolist(), c.tolist(), margins[p, c].tolist()
        )
    ]
    if len(bad):
        # stable: the two conditions of a pair already come in order
        failures.sort(key=lambda f: f.indices)

    min_margins = {names[0]: float(elem_margin.min())}
    for col in (0, 1):
        if checked[:, col].any():
            min_margins[names[1 + col]] = float(margins[checked[:, col], col].min())
    return ValidationReport(
        kind=kind,
        size=k,
        overall=not failures,
        failures=failures,
        checked=dict(zip(names, [k, *checked.sum(axis=0).tolist()])),
        min_margins=min_margins,
    )


def _validate_lattice(fam: CurveFamily) -> ValidationReport:
    gram = _pair_matrix(fam.lattice, fam.classes)
    norms = np.diagonal(gram)
    iu, ju = np.triu_indices(len(fam), 1)
    h, n1, n2 = gram[iu, ju], norms[iu], norms[ju]
    # bool dtype forced: on the object arrays of Python integers, a
    # comparison gives an object array, where ~ is the integer invert
    holds_I = np.asarray(norms < 0, dtype=bool)
    nonpos_h = np.asarray(h <= 0, dtype=bool)
    disc = n1 * n2 - h * h
    # the verdicts are exact; only the reported margins are doubles
    try:
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = disc.astype(float) / n1.astype(float)
        # the supremum of the norm on the positive combinations
        sup = np.where(nonpos_h, np.maximum(n1, n2).astype(float), ratio)
        margin_I, margin_II = -norms.astype(float), h.astype(float)
    except OverflowError as exc:
        raise NumericalError("class pairings exceed the double range of the margins") from exc
    return _report(
        "lattice",
        ("I", "II", "III"),
        (iu, ju),
        margin_I,
        holds_I,
        np.column_stack([margin_II, -sup]),
        np.column_stack([
            np.asarray(h >= 0, dtype=bool),
            nonpos_h | np.asarray(disc >= 0, dtype=bool),
        ]),
        # (III) is decided only on pairs of negative classes
        np.column_stack([np.ones(len(h), dtype=bool), holds_I[iu] & holds_I[ju]]),
    )


def positive_combination_witness(
    lat: QuadraticLattice, c1: Sequence[int], c2: Sequence[int]
):
    """A witness that (III) fails: integer (a, b) with positive square if one
    exists within the grid {1..50}^2, else the real maximizer ray.

    Returns None when (III) holds.
    """
    n1, n2 = lat.norm(c1), lat.norm(c2)
    if n1 >= 0 or n2 >= 0:
        raise ValueError(
            f"a (III) witness needs negative classes, got norms {n1} and {n2}"
        )
    report = _validate_lattice(CurveFamily(lat, [c1, c2]))
    if all(f.condition != "III" for f in report.failures):
        return None
    h = lat.pairing(c1, c2)
    grid = range(1, 51)
    for a in grid:
        for b in grid:
            val = a * a * n1 + 2 * a * b * h + b * b * n2
            if val > 0:
                return ("integer", (a, b), val)
    # (III) fails only when h > 0, so t* = -h/n1 > 0; the value is the
    # exact supremum of the norm on the positive combinations
    return ("real", (Fraction(-h, n1), Fraction(1)), Fraction(n1 * n2 - h * h, n1))


def _validate_model(fam: ModelFamily) -> ValidationReport:
    z, theta = cap_arrays(fam.caps)
    iu, ju = np.triu_indices(len(fam), 1)
    if coincident_feet(z)[iu, ju].any():
        raise DegenerateCapPairError(
            "cap feet coincide (angular distance 0); the pair predicates "
            "degenerate to equality or nesting of the caps"
        )
    _, m_ii, m_iii = pair_margins(z, theta)
    margins = np.column_stack([m_ii[iu, ju], m_iii[iu, ju]])
    # the normalized H-norm -H(c, c)/|c|^2 of the cylinder point (cos theta, z)
    c = np.cos(theta)
    return _report(
        "model",
        ("i", "ii", "iii"),
        (iu, ju),
        (1.0 - c * c) / (1.0 + c * c),
        # a cap lies on the cylinder, so (i) holds for every element
        np.ones(len(fam), dtype=bool),
        margins,
        margins >= -TOL_BOUNDARY,
        np.ones(margins.shape, dtype=bool),
    )


# ---------------------------------------------------------------------------
# randomized equivalence probe
# ---------------------------------------------------------------------------

@dataclass
class ProbeReport:
    """Agreement statistics between the two condition systems on random
    space-like pairs.

    Disagreements are counted per condition pair; a disagreement is
    "boundary" when either formulation's scale-normalized margin is
    within ``tol_boundary`` (TOL_BOUNDARY) of zero.
    ``big_cap_disagreements`` counts how many non-boundary disagreements
    fall in the theta_i + theta_j > pi regime, where the cap-overlap condition (iii) is strictly weaker than
    the positive-combination condition (III); outside that regime the
    systems agree exactly.
    """

    n: int
    samples: int
    seed: int
    tol_boundary: float
    disagreements: dict[str, int]
    boundary_disagreements: dict[str, int]
    big_cap_disagreements: int
    iii_without_III: int
    III_without_iii: int
    examples: list[dict]

    @property
    def total_disagreements(self) -> int:
        return sum(self.disagreements.values())

    def to_json_dict(self) -> dict:
        return asdict(self)


#: disagreement examples a probe report lists, the first of each
#: condition pair in sample order
PROBE_EXAMPLES = 10

#: sample pairs the probe evaluates together; the fixed block keeps its
#: temporaries small, and every row gets the same arithmetic as alone
_PROBE_BLOCK = 1 << 14

#: numpy adds fewer terms than this one after another, more pairwise
_PAIRWISE_TERMS = 8


def _coordinate_sum(cols: np.ndarray) -> np.ndarray:
    """Per-sample sums of a (terms, samples) column array.

    The rounding equals ``np.sum(rows, axis=1)`` on the C-ordered
    (samples, terms) array of the same values: numpy adds up to seven
    terms left to right, which a running sum of the columns repeats, and
    more terms pairwise, which only its own reduction over rows repeats.
    """
    if len(cols) >= _PAIRWISE_TERMS:
        return np.sum(np.ascontiguousarray(cols.T), axis=1)
    # numpy starts from +0.0, which turns a leading -0.0 into +0.0
    total = cols[0] + 0.0
    for col in cols[1:]:
        total += col
    return total


def _sample_spacelike(
    rng: np.random.Generator, count: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian vectors in R^{n+1} conditioned on a negative H-norm.

    Returns the vectors as an (n + 1, count) column array and their
    H-norms.
    """
    rows = np.empty((count, n + 1))
    norms = np.empty(count)
    filled = 0
    while filled < count:
        batch = rng.normal(size=(max(count - filled, 64), n + 1))
        q = np.empty(len(batch))
        for lo in range(0, len(batch), _PROBE_BLOCK):
            cols = batch[lo : lo + _PROBE_BLOCK].T
            q[lo : lo + _PROBE_BLOCK] = cols[0] ** 2 - _coordinate_sum(cols[1:] ** 2)
        keep = np.flatnonzero(q < 0)[: count - filled]
        take = len(keep)
        # the row numbers in keep are in range, so "clip" only skips the
        # bounds check, and with it a buffered copy of the rows
        np.take(batch, keep, axis=0, out=rows[filled : filled + take], mode="clip")
        norms[filled : filled + take] = q[keep]
        filled += take
    return np.ascontiguousarray(rows.T), norms


def _probe_block(a, b, n1, n2):
    """Both condition systems on one block of sample pairs.

    ``a`` and ``b`` are (n + 1, rows) column blocks and ``n1``, ``n2``
    their H-norms.  Returns the per-row quantities the examples report
    and, per condition pair, (lattice verdict, model verdict, lattice
    margin, model margin).
    """
    e1 = _coordinate_sum(a * a)
    e2 = _coordinate_sum(b * b)
    cross = _coordinate_sum(a[1:] * b[1:])
    h = a[0] * b[0] - cross

    # lattice-level margins, normalized to be scale-invariant
    m_I = np.minimum(-n1 / e1, -n2 / e2)
    verdict_I = (n1 < 0) & (n2 < 0)
    scale = np.sqrt(e1 * e2)
    m_II = h / scale
    verdict_II = h >= 0
    # supremum of |a v1 + b v2|_H^2 over positive ray directions: for a
    # nonpositive cross term it is max of the endpoint norms, otherwise
    # the interior critical value (n1 n2 - h^2)/n1
    sup_pos = np.where(h > 0, (n1 * n2 - h * h) / n1, np.maximum(n1, n2))
    m_III = -sup_pos / (scale * scale)
    verdict_III = sup_pos <= 0

    # model level: normalize onto the cylinder
    s1 = np.sqrt(_coordinate_sum(a[1:] * a[1:]))
    s2 = np.sqrt(_coordinate_sum(b[1:] * b[1:]))
    theta1 = np.arccos(np.clip(a[0] / s1, -1.0, 1.0))
    theta2 = np.arccos(np.clip(b[0] / s2, -1.0, 1.0))
    delta = np.arccos(np.clip(cross / (s1 * s2), -1.0, 1.0))

    # projection classifies with the relative guard band of sign_class, so
    # near-null vectors file as boundary points and fail (i); any mismatch
    # with the strict sign in (I) lies inside the band by construction
    verdict_i = (n1 < -TOL_BOUNDARY * e1) & (n2 < -TOL_BOUNDARY * e2)
    val_ii = np.cos(delta) - np.cos(theta1) * np.cos(theta2)
    val_iii = theta1 + theta2 - delta

    values = {"theta1": theta1, "theta2": theta2, "delta": delta,
              "n1": n1, "n2": n2, "h": h}
    pairs = {
        "I/i": (verdict_I, verdict_i, m_I, m_I),
        "II/ii": (verdict_II, val_ii <= TOL_BOUNDARY, m_II, -val_ii),
        "III/iii": (verdict_III, val_iii >= -TOL_BOUNDARY, m_III, val_iii),
    }
    return values, pairs


def equivalence_probe(
    n: int,
    samples: int,
    seed: int = 0,
) -> ProbeReport:
    """Draw random space-like pairs and compare the two condition systems.

    Lattice-level verdicts are evaluated directly from inner products of
    the raw vectors; model-level verdicts from the cap coordinates of the
    projected points.  Both sides use scale-invariant margins so the
    boundary band is meaningful across samples.  The pairs are evaluated
    in fixed blocks of rows; the report does not depend on the block size.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 2:
        raise ValueError("the probe needs n >= 2")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    v1, q1 = _sample_spacelike(rng, samples, n)
    v2, q2 = _sample_spacelike(rng, samples, n)

    disagreements = {"I/i": 0, "II/ii": 0, "III/iii": 0}
    boundary = dict(disagreements)
    found: dict[str, list[dict]] = {name: [] for name in disagreements}
    big_cap = iii_without_III = III_without_iii = 0
    for lo in range(0, samples, _PROBE_BLOCK):
        rows = slice(lo, lo + _PROBE_BLOCK)
        values, pairs = _probe_block(v1[:, rows], v2[:, rows], q1[rows], q2[rows])
        for name, (va, vb, ma, mb) in pairs.items():
            diff = va != vb
            near = np.minimum(np.abs(ma), np.abs(mb)) <= TOL_BOUNDARY
            idx = np.flatnonzero(diff & ~near)
            disagreements[name] += len(idx)
            boundary[name] += int(np.count_nonzero(diff & near))
            if name == "III/iii":
                big_cap += int(np.count_nonzero(
                    (values["theta1"][idx] + values["theta2"][idx]) > math.pi
                ))
            for k in idx[: PROBE_EXAMPLES - len(found[name])]:
                found[name].append(
                    {
                        "conditions": name,
                        "lattice_verdict": bool(va[k]),
                        "model_verdict": bool(vb[k]),
                        "theta1": float(values["theta1"][k]),
                        "theta2": float(values["theta2"][k]),
                        "delta": float(values["delta"][k]),
                        "norms": [float(values["n1"][k]), float(values["n2"][k])],
                        "pairing": float(values["h"][k]),
                    }
                )
        verdict_III, verdict_iii = pairs["III/iii"][:2]
        iii_without_III += int(np.count_nonzero(verdict_iii & ~verdict_III))
        III_without_iii += int(np.count_nonzero(verdict_III & ~verdict_iii))

    # examples in the order I/i, II/ii, III/iii, each by ascending index
    examples = [ex for exs in found.values() for ex in exs][:PROBE_EXAMPLES]
    return ProbeReport(
        n=n,
        samples=samples,
        seed=seed,
        tol_boundary=TOL_BOUNDARY,
        disagreements=disagreements,
        boundary_disagreements=boundary,
        big_cap_disagreements=big_cap,
        iii_without_III=iii_without_III,
        III_without_iii=III_without_iii,
        examples=examples,
    )
