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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import DegenerateCapPairError
from .klein import CapRep, KleinPoint, Region
from .lorentz import QuadraticLattice

#: symmetric guard band for all non-strict model-level inequalities
TOL_BOUNDARY = 1e-9

#: angular-distance threshold below which a cap pair is rejected as degenerate
DEGENERATE_DELTA = 1e-12


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a single condition check.

    ``margin`` is a signed distance to the condition's boundary, positive
    when the condition holds with room to spare.  For the exact integer
    checks it is an int or Fraction; for model-level checks a float.
    """

    holds: bool
    margin: Union[int, float, Fraction]
    value: Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# lattice-level checks (exact)
# ---------------------------------------------------------------------------

def _require_nonzero(cls: Sequence[int]) -> None:
    if not any(int(c) for c in cls):
        raise ValueError("class must be nonzero")


def check_I(lat: QuadraticLattice, cls: Sequence[int]) -> ConditionVerdict:
    """C^2 < 0, exactly."""
    _require_nonzero(cls)
    v = lat.norm(cls)
    return ConditionVerdict(holds=v < 0, margin=-v, value=v)


def check_II(lat: QuadraticLattice, c1: Sequence[int], c2: Sequence[int]) -> ConditionVerdict:
    """C_1 . C_2 >= 0, exactly."""
    _require_nonzero(c1)
    _require_nonzero(c2)
    v = lat.pairing(c1, c2)
    return ConditionVerdict(holds=v >= 0, margin=v, value=v)


def check_III(lat: QuadraticLattice, c1: Sequence[int], c2: Sequence[int]) -> ConditionVerdict:
    """(a C_1 + b C_2)^2 <= 0 for all positive a, b, decided exactly.

    ``value`` is the supremum of the combined norm over the positive ray
    directions (a Fraction), so holds == (value <= 0).
    """
    n1 = lat.norm(c1)
    n2 = lat.norm(c2)
    if n1 >= 0 or n2 >= 0:
        raise ValueError(
            f"check_III requires negative classes, got norms {n1} and {n2}"
        )
    h = lat.pairing(c1, c2)
    if h <= 0:
        sup = Fraction(max(n1, n2))
    else:
        sup = Fraction(n1 * n2 - h * h, n1)
    return ConditionVerdict(holds=sup <= 0, margin=-sup, value=sup)


def positive_combination_witness(
    lat: QuadraticLattice,
    c1: Sequence[int],
    c2: Sequence[int],
    limit: int = 50,
):
    """A witness that (III) fails: integer (a, b) with positive square if one
    exists within the grid {1..limit}^2, else the real maximizer ray.

    Returns None when (III) holds.
    """
    verdict = check_III(lat, c1, c2)
    if verdict.holds:
        return None
    n1, n2 = lat.norm(c1), lat.norm(c2)
    h = lat.pairing(c1, c2)
    best = None
    for a in range(1, limit + 1):
        for b in range(1, limit + 1):
            val = a * a * n1 + 2 * a * b * h + b * b * n2
            if val > 0:
                best = ("integer", (a, b), val)
                break
        if best:
            break
    if best is None:
        t_star = Fraction(-h, n1)  # > 0 since h > 0 and n1 < 0
        best = ("real", (t_star, Fraction(1)), verdict.value)
    return best


# ---------------------------------------------------------------------------
# model-level checks
# ---------------------------------------------------------------------------

def check_i(obj: Union[KleinPoint, CapRep]) -> ConditionVerdict:
    """Membership in the cylinder.

    The margin is the normalized H-norm with sign flipped
    (-H(c,c)/|c|^2), which is positive exactly on space-like rays.
    """
    if isinstance(obj, CapRep):
        cos_t = math.cos(obj.theta)
        margin = (1.0 - cos_t * cos_t) / (1.0 + cos_t * cos_t)
        return ConditionVerdict(holds=True, margin=margin, value=-margin)
    c = obj.array()
    h = c[0] * c[0] - float(c[1:] @ c[1:])
    margin = -h / float(c @ c)
    return ConditionVerdict(
        holds=obj.region is Region.CYLINDER, margin=margin, value=h
    )


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


def _degenerate_pair_error() -> DegenerateCapPairError:
    return DegenerateCapPairError(
        "cap feet coincide (angular distance 0); the pair predicates "
        "degenerate to equality or nesting of the caps"
    )


def pair_margin(c1: CapRep, c2: CapRep) -> tuple[float, float]:
    """(m_ii, m_iii) of one pair of caps, from the 1x1 block of
    :func:`pair_margins`; raises :class:`DegenerateCapPairError` when the
    feet coincide."""
    delta, m_ii, m_iii = pair_margins((c1.z, c2.z), (c1.theta, c2.theta))
    if delta[0, 1] <= DEGENERATE_DELTA:
        raise _degenerate_pair_error()
    return float(m_ii[0, 1]), float(m_iii[0, 1])


def check_ii(c1: CapRep, c2: CapRep, tol: float = TOL_BOUNDARY) -> ConditionVerdict:
    """cos(delta) <= cos(theta_1) cos(theta_2), with a symmetric guard band."""
    margin = pair_margin(c1, c2)[0]
    return ConditionVerdict(holds=margin >= -tol, margin=margin, value=-margin)


def check_iii(c1: CapRep, c2: CapRep, tol: float = TOL_BOUNDARY) -> ConditionVerdict:
    """theta_1 + theta_2 >= delta: the closed caps on S^{n-1} intersect."""
    margin = pair_margin(c1, c2)[1]
    return ConditionVerdict(holds=margin >= -tol, margin=margin, value=margin)


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
    """One condition evaluated on one element or pair."""

    indices: tuple[int, ...]
    condition: str
    holds: bool
    margin: float


@dataclass
class ValidationReport:
    """Every failing element/pair, plus aggregate counts.

    ``overall`` is the conjunction of all per-element and per-pair
    verdicts; ``failures`` lists each violation with the condition name
    and the (signed) margin by which it failed.  ``verdicts`` iterates
    all records, passing and failing, for callers that want the full map.
    """

    kind: str
    size: int
    overall: bool
    failures: list[PairVerdict]
    checked: dict[str, int]
    min_margins: dict[str, float]
    _all_records: list[PairVerdict] = field(default_factory=list, repr=False)

    @property
    def verdicts(self) -> Iterator[PairVerdict]:
        return iter(self._all_records)

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "size": self.size,
            "overall": self.overall,
            "checked": dict(sorted(self.checked.items())),
            "min_margins": {
                k: float(v) for k, v in sorted(self.min_margins.items())
            },
            "failures": [
                {
                    "indices": list(f.indices),
                    "condition": f.condition,
                    "margin": float(f.margin),
                }
                for f in self.failures
            ],
        }
        if self._all_records:
            out["verdicts"] = [
                {
                    "indices": list(r.indices),
                    "condition": r.condition,
                    "holds": r.holds,
                    "margin": float(r.margin),
                }
                for r in self._all_records
            ]
        return out


def _pair_matrix(lat: QuadraticLattice, classes) -> np.ndarray:
    """All pairwise intersection numbers, exactly, as an object array of ints.

    Uses int64 matrix products when a conservative magnitude bound rules
    out overflow, falling back to Python integers otherwise.
    """
    v = np.array(classes, dtype=object)
    g = np.array(lat.gram, dtype=object)
    max_c = max((max(abs(int(x)) for x in row) for row in classes), default=0)
    sum_g = sum(abs(x) for row in lat.gram for x in row)
    bound = max_c * max_c * sum_g
    if bound < 2**62:
        vi = np.array(classes, dtype=np.int64)
        gi = np.array(lat.gram, dtype=np.int64)
        return (vi @ gi @ vi.T).astype(object)
    return v @ g @ v.T


def validate_family(
    fam: Union[CurveFamily, ModelFamily],
    tol: float = TOL_BOUNDARY,
    collect_all: bool = False,
) -> ValidationReport:
    """Check every element and pair of a family against its condition system.

    Lattice families are checked with exact integer arithmetic; model
    families with the guard-banded cap inequalities.  The report is
    order-independent: permuting the family changes only record order,
    never the overall verdict.
    """
    if isinstance(fam, CurveFamily):
        return _validate_lattice(fam, collect_all)
    if isinstance(fam, ModelFamily):
        return _validate_model(fam, tol, collect_all)
    raise TypeError(f"cannot validate {type(fam).__name__}")


def _validate_lattice(fam: CurveFamily, collect_all: bool) -> ValidationReport:
    if len(fam) == 0:
        raise ValueError("cannot validate an empty family")
    k = len(fam)
    pairs = _pair_matrix(fam.lattice, fam.classes)
    diag = np.array([pairs[i, i] for i in range(k)], dtype=pairs.dtype)

    iu, ju = np.triu_indices(k, 1)
    h = pairs[iu, ju]
    n1 = diag[iu]
    n2 = diag[ju]

    # force bool dtype: the exact path may hand back object arrays, where
    # elementwise ~ would hit Python's integer invert
    holds_I = np.asarray(diag < 0, dtype=bool)
    margin_I = -diag.astype(float)

    holds_II = np.asarray(h >= 0, dtype=bool) if len(iu) else np.zeros(0, bool)
    margin_II = h.astype(float)

    both_neg = np.asarray(holds_I[iu] & holds_I[ju], dtype=bool)
    nonpos_h = np.asarray(h <= 0, dtype=bool)
    # exact Python integers: the Gram discriminant squares pair values and
    # could overflow a fixed-width product
    disc = n1.astype(object) * n2.astype(object) - h.astype(object) * h.astype(object)
    disc_ok = np.asarray(disc >= 0, dtype=bool) if len(iu) else np.zeros(0, bool)
    holds_III = both_neg & (nonpos_h | disc_ok)
    with np.errstate(invalid="ignore", divide="ignore"):
        margin_III = np.where(
            nonpos_h,
            -np.maximum(n1, n2).astype(float),
            disc.astype(float) / (-n1.astype(float)),
        )

    failures: list[PairVerdict] = []
    for i in np.nonzero(~holds_I)[0]:
        failures.append(PairVerdict((int(i),), "I", False, margin_I[i]))
    for p in np.nonzero(~holds_II)[0]:
        failures.append(
            PairVerdict((int(iu[p]), int(ju[p])), "II", False, margin_II[p])
        )
    for p in np.nonzero(both_neg & ~holds_III)[0]:
        failures.append(
            PairVerdict((int(iu[p]), int(ju[p])), "III", False, margin_III[p])
        )
    failures.sort(key=lambda f: (f.indices, f.condition))

    records: list[PairVerdict] = []
    if collect_all:
        for i in range(k):
            records.append(PairVerdict((i,), "I", bool(holds_I[i]), margin_I[i]))
        for p in range(len(iu)):
            idx = (int(iu[p]), int(ju[p]))
            records.append(PairVerdict(idx, "II", bool(holds_II[p]), margin_II[p]))
            if both_neg[p]:
                records.append(
                    PairVerdict(idx, "III", bool(holds_III[p]), margin_III[p])
                )

    checked = {"I": k, "II": len(iu), "III": int(np.sum(both_neg))}
    min_margins: dict[str, float] = {"I": float(np.min(margin_I))}
    if len(iu):
        min_margins["II"] = float(np.min(margin_II))
    if checked["III"]:
        min_margins["III"] = float(np.min(margin_III[both_neg]))

    return ValidationReport(
        kind="lattice",
        size=k,
        overall=not failures,
        failures=failures,
        checked=checked,
        min_margins=min_margins,
        _all_records=records,
    )


def _validate_model(fam: ModelFamily, tol: float, collect_all: bool) -> ValidationReport:
    if len(fam) == 0:
        raise ValueError("cannot validate an empty family")
    k = len(fam)
    delta, m_ii, m_iii = pair_margins(*cap_arrays(fam.caps))
    iu, ju = np.triu_indices(k, 1)
    if np.any(delta[iu, ju] <= DEGENERATE_DELTA):
        raise _degenerate_pair_error()
    # one row per pair in row-major order, columns (ii, iii)
    margins = np.column_stack([m_ii[iu, ju], m_iii[iu, ju]])
    holds = margins >= -tol

    def pair_records(flat):
        p, c = np.divmod(flat, 2)
        return [
            PairVerdict((i, j), ("ii", "iii")[col], ok, m)
            for i, j, col, ok, m in zip(
                iu[p].tolist(), ju[p].tolist(), c.tolist(),
                holds.ravel()[flat].tolist(), margins.ravel()[flat].tolist(),
            )
        ]

    records_i = [
        PairVerdict((i,), "i", v.holds, float(v.margin))
        for i, v in enumerate(map(check_i, fam.caps))
    ]
    failures = [r for r in records_i if not r.holds]
    failures += pair_records(np.flatnonzero(~holds))
    records: list[PairVerdict] = []
    if collect_all:
        records = records_i + pair_records(np.arange(margins.size))

    min_margins = {"i": min(r.margin for r in records_i)}
    if len(iu):
        min_margins["ii"] = float(margins[:, 0].min())
        min_margins["iii"] = float(margins[:, 1].min())
    return ValidationReport(
        kind="model",
        size=k,
        overall=not failures,
        failures=failures,
        checked={"i": k, "ii": len(iu), "iii": len(iu)},
        min_margins=min_margins,
        _all_records=records,
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
    within ``tol_boundary`` of zero.  ``big_cap_disagreements`` counts
    how many non-boundary disagreements fall in the theta_i + theta_j > pi
    regime, where the cap-overlap condition (iii) is strictly weaker than
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
        return {
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "tol_boundary": self.tol_boundary,
            "disagreements": dict(sorted(self.disagreements.items())),
            "boundary_disagreements": dict(
                sorted(self.boundary_disagreements.items())
            ),
            "big_cap_disagreements": self.big_cap_disagreements,
            "iii_without_III": self.iii_without_III,
            "III_without_iii": self.III_without_iii,
            "examples": self.examples,
        }


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


def _probe_block(a, b, n1, n2, tol_boundary):
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
    verdict_i = (n1 < -tol_boundary * e1) & (n2 < -tol_boundary * e2)
    val_ii = np.cos(delta) - np.cos(theta1) * np.cos(theta2)
    val_iii = theta1 + theta2 - delta

    values = {"theta1": theta1, "theta2": theta2, "delta": delta,
              "n1": n1, "n2": n2, "h": h}
    pairs = {
        "I/i": (verdict_I, verdict_i, m_I, m_I),
        "II/ii": (verdict_II, val_ii <= tol_boundary, m_II, -val_ii),
        "III/iii": (verdict_III, val_iii >= -tol_boundary, m_III, val_iii),
    }
    return values, pairs


def equivalence_probe(
    n: int,
    samples: int,
    seed: int = 0,
    tol_boundary: float = TOL_BOUNDARY,
    max_examples: int = 10,
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
    if max_examples < 0:
        raise ValueError("max_examples must be >= 0")
    rng = np.random.default_rng(seed)
    v1, q1 = _sample_spacelike(rng, samples, n)
    v2, q2 = _sample_spacelike(rng, samples, n)

    disagreements = {"I/i": 0, "II/ii": 0, "III/iii": 0}
    boundary = dict(disagreements)
    found: dict[str, list[dict]] = {name: [] for name in disagreements}
    big_cap = iii_without_III = III_without_iii = 0
    for lo in range(0, samples, _PROBE_BLOCK):
        rows = slice(lo, lo + _PROBE_BLOCK)
        values, pairs = _probe_block(
            v1[:, rows], v2[:, rows], q1[rows], q2[rows], tol_boundary
        )
        for name, (va, vb, ma, mb) in pairs.items():
            diff = va != vb
            near = np.minimum(np.abs(ma), np.abs(mb)) <= tol_boundary
            idx = np.flatnonzero(diff & ~near)
            disagreements[name] += len(idx)
            boundary[name] += int(np.count_nonzero(diff & near))
            if name == "III/iii":
                big_cap += int(np.count_nonzero(
                    (values["theta1"][idx] + values["theta2"][idx]) > math.pi
                ))
            for k in idx[: max_examples - len(found[name])]:
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
    examples = [ex for exs in found.values() for ex in exs][:max_examples]
    return ProbeReport(
        n=n,
        samples=samples,
        seed=seed,
        tol_boundary=tol_boundary,
        disagreements=disagreements,
        boundary_disagreements=boundary,
        big_cap_disagreements=big_cap,
        iii_without_III=iii_without_III,
        III_without_iii=III_without_iii,
        examples=examples,
    )
