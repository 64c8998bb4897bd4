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

import gc
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from .errors import DegenerateCapPairError, InputError, NumericalError
from .klein import CapRep
from .lorentz import DEFAULT_SIGN_TOL, QuadraticLattice, _as_ints

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
    return _block_margins(Z, theta, Z, theta)


def _block_margins(Z1, theta1, Z2, theta2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pair_margins` of each cap (Z1[i], theta1[i]) against each cap
    (Z2[j], theta2[j]), as three (k1, k2) float arrays.  Passing the same
    array as ``Z1`` and ``Z2`` keeps numpy's symmetric ``Z @ Z.T``
    product."""
    delta = np.arccos((Z1 @ Z2.T).clip(-1.0, 1.0))
    # the negated value cos(delta) - cos cos, so that a zero keeps its sign
    m_ii = -(np.cos(delta) - np.cos(theta1)[:, None] * np.cos(theta2))
    m_iii = theta1[:, None] + theta2 - delta
    return delta, m_ii, m_iii


def cap_arrays(caps: Sequence[CapRep]) -> tuple[np.ndarray, np.ndarray]:
    """The feet and radii of ``caps`` as the arrays :func:`pair_margins` takes.

    Raises ValueError when the caps do not all have the same dimension.
    """
    dims = {cap.n for cap in caps}
    if len(dims) > 1:
        raise ValueError(f"caps of mixed dimension {sorted(dims)}")
    n = dims.pop() if dims else 0
    return (
        np.array([cap.z for cap in caps], dtype=float).reshape(len(caps), n),
        np.array([cap.theta for cap in caps], dtype=float),
    )


def coincident_feet(Z, Z2=None) -> np.ndarray:
    """(k, k) mask of the pairs of rows of ``Z`` that are the same foot,
    compared exactly (arccos of the dot product cannot tell feet closer
    than ~1.5e-8 apart from equal ones); the diagonal is true.  With
    ``Z2``, the (k, k2) mask of each row of ``Z`` against each row of
    ``Z2``."""
    Z = np.asarray(Z, dtype=float)
    Z2 = Z if Z2 is None else np.asarray(Z2, dtype=float)
    same = np.ones((len(Z), len(Z2)), dtype=bool)
    # column by column: a (k, k, n) comparison reduced over n is ~5x slower
    for col, col2 in zip(Z.T, Z2.T):
        same &= col[:, None] == col2
    return same


# ---------------------------------------------------------------------------
# families and validation reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveFamily:
    """Integer classes on a common lattice."""

    lattice: QuadraticLattice
    classes: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __init__(self, lattice, classes, labels=None):
        object.__setattr__(self, "lattice", lattice)
        classes = tuple(_as_ints(c, lattice.rank) for c in classes)
        if not all(map(any, classes)):
            raise ValueError("family classes must be nonzero")
        object.__setattr__(self, "classes", classes)
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


class PairVerdict(NamedTuple):
    """The signed margin of one condition on one element or pair: a
    failure in a :class:`ValidationReport`, or any entry of a search
    certificate.  A named tuple, so it equals the plain tuple
    ``(indices, condition, margin)``."""

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
        # not asdict, which would keep each record a named tuple, and json
        # writes a tuple as a list
        return {
            "kind": self.kind,
            "size": self.size,
            "overall": self.overall,
            "checked": dict(self.checked),
            "min_margins": dict(self.min_margins),
            "failures": [
                {"indices": i, "condition": c, "margin": m} for i, c, m in self.failures
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


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while bulk records are built.

    Each record of atoms is a new tracked tuple, so tens of thousands of
    them trigger collections, full ones included, that find nothing to
    free: the records hold no reference cycles.  The caller's collector
    state is restored on exit, also when the body raises.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _verdicts(indices, conditions, margins) -> list[PairVerdict]:
    """The :class:`PairVerdict` records of three columns.  tuple.__new__
    fills each record from zip's tuple in C, without a Python-level call
    per record."""
    with _collector_paused():
        return list(map(tuple.__new__, repeat(PairVerdict), zip(indices, conditions, margins)))


def _report(kind, names, pairs, elem_margin, elem_ok, margins, ok, checked) -> ValidationReport:
    """The report from the (k,) element margins and verdicts and the
    (pairs, 2) pair margins, verdicts and checked masks, one row per pair
    i < j of ``pairs`` = np.triu_indices(k, 1), of the conditions
    ``names``; failures are ordered by (indices, condition)."""
    k = len(elem_margin)
    iu, ju = pairs
    bad = np.flatnonzero(~elem_ok)
    p, c = np.divmod(np.flatnonzero(checked & ~ok), 2)
    first = iu[p]
    # the pairs in (i, j, condition) order
    failures = _verdicts(
        zip(first.tolist(), ju[p].tolist()),
        np.array(names[1:], dtype=object)[c].tolist(),
        margins[p, c].tolist(),
    )
    if len(bad):
        # each element (i,) goes before the pairs (i, j): at the first
        # pair whose first index is at least i
        pair_records, failures, start = failures, [], 0
        cuts = np.searchsorted(first, bad).tolist()
        elements = _verdicts(zip(bad.tolist()), repeat(names[0]), elem_margin[bad].tolist())
        for cut, element in zip(cuts, elements):
            failures += pair_records[start:cut]
            failures.append(element)
            start = cut
        failures += pair_records[start:]

    counts = checked.sum(axis=0).tolist()
    min_margins = {names[0]: float(elem_margin.min())}
    for col in (0, 1):
        if counts[col]:
            min_margins[names[1 + col]] = float(margins[checked[:, col], col].min())
    return ValidationReport(
        kind=kind,
        size=k,
        overall=not failures,
        failures=failures,
        checked=dict(zip(names, [k, *counts])),
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

#: sample rows the probe draws, and pairs it evaluates, together; the
#: fixed block keeps its temporaries small, and every row gets the same
#: arithmetic as alone
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


def _h_norms(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The squares of the columns of an (n + 1, samples) array, their
    spatial sums x_1^2 + ... + x_n^2 and their H-norms x_0^2 - (x_1^2 +
    ... + x_n^2).  A column's values do not depend on the layout of
    ``cols`` or on the other columns."""
    # x * x rounds as ** 2 does; the product keeps the layout of
    # ``cols``, so a drawn chunk's transpose is squared in one pass over
    # its C-ordered rows
    squares = cols * cols
    spatial = _coordinate_sum(squares[1:])
    return squares, spatial, squares[0] - spatial


def _take_columns(cols: np.ndarray, keep: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.take(cols, keep, axis=1)`` written into ``out``, one
    coordinate row at a time: the same values, at a third of the cost of
    gathering from the transposed chunk in one call."""
    for src, dest in zip(cols, out):
        # mode="clip" takes into ``out`` unbuffered; ``keep`` is in range
        np.take(src, keep, out=dest, mode="clip")
    return out


def _sample_spacelike(
    rng: np.random.Generator, count: int, n: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Gaussian vectors in R^{n+1} conditioned on a negative H-norm.

    Yields ``count`` vectors in sample order, in drawn (n + 1, rows)
    column chunks of at most ``_PROBE_BLOCK`` rows, each with the indices
    of the columns it keeps; ``np.take(cols, keep, axis=1)`` gives the
    vectors, and :func:`_h_norms` of them the norms the filter read.
    Each round draws max(count - filled, 64) rows and keeps the first
    negative ones it needs.  A round is drawn ``_PROBE_BLOCK`` rows at a
    time, which reads the same stream as one draw, since numpy's
    Generator fills an array element by element; the rows left after the
    last kept one are drawn all the same, so the stream after the
    generator is done does not depend on the block.
    The chunks are those of ``rng.normal``: it returns 0.0 + 1.0 * x for
    the standard normal x, which is x with -0.0 turned into +0.0, and
    adding 0.0 in place does just that, for less than the scaled draw.
    """
    filled = 0
    while filled < count:
        left = max(count - filled, 64)
        while left:
            chunk = rng.standard_normal(size=(min(left, _PROBE_BLOCK), n + 1))
            left -= len(chunk)
            if filled == count:
                continue
            chunk += 0.0
            q = _h_norms(chunk.T)[2]
            keep = np.flatnonzero(q < 0)[: count - filled]
            if len(keep):
                filled += len(keep)
                yield chunk.T, keep


def _one_ahead(worker, items: Iterator) -> Iterator:
    """The items of ``items``, none of them None, each made on ``worker``
    while the caller works on the one before.  An exception raised while
    an item is made is raised where the caller takes it."""
    pending = worker.submit(next, items, None)
    while (item := pending.result()) is not None:
        pending = worker.submit(next, items, None)
        yield item


def _probe_block(a, b):
    """Both condition systems on one block of sample pairs.

    ``a`` and ``b`` are (n + 1, rows) column blocks.  Their squares give
    the Euclidean norms, and :func:`_h_norms` the spatial sums and the
    H-norms, the same bits as the sampler's filter read.  Returns the
    per-row quantities that the examples and :func:`_probe_margins` read
    and, per condition pair, the lattice and the model verdict.
    """
    sq1, spatial1, n1 = _h_norms(a)
    sq2, spatial2, n2 = _h_norms(b)
    e1 = _coordinate_sum(sq1)
    e2 = _coordinate_sum(sq2)
    cross = _coordinate_sum(a[1:] * b[1:])
    h = a[0] * b[0] - cross

    verdict_I = (n1 < 0) & (n2 < 0)
    verdict_II = h >= 0
    # supremum of |a v1 + b v2|_H^2 over positive ray directions: for a
    # nonpositive cross term it is max of the endpoint norms, otherwise
    # the interior critical value (n1 n2 - h^2)/n1
    sup_pos = np.where(h > 0, (n1 * n2 - h * h) / n1, np.maximum(n1, n2))
    verdict_III = sup_pos <= 0

    # model level: normalize onto the cylinder
    s1, s2 = np.sqrt(spatial1), np.sqrt(spatial2)
    c1 = np.clip(a[0] / s1, -1.0, 1.0)
    c2 = np.clip(b[0] / s2, -1.0, 1.0)
    cd = np.clip(cross / (s1 * s2), -1.0, 1.0)
    # cos(delta) - cos(theta1) cos(theta2) from the cosines at hand, not
    # through a cos(arccos(x)) round trip
    val_ii = cd - c1 * c2
    # in place: the cosines are not read again
    theta1, theta2, delta = (np.arccos(c, out=c) for c in (c1, c2, cd))

    # projection classifies with the relative guard band of sign_class, so
    # near-null vectors file as boundary points and fail (i); any mismatch
    # with the strict sign in (I) lies inside the band by construction
    verdict_i = (n1 < -DEFAULT_SIGN_TOL * e1) & (n2 < -DEFAULT_SIGN_TOL * e2)
    val_iii = theta1 + theta2 - delta

    values = {"theta1": theta1, "theta2": theta2, "delta": delta,
              "n1": n1, "n2": n2, "h": h, "e1": e1, "e2": e2,
              "sup_pos": sup_pos, "val_ii": val_ii, "val_iii": val_iii}
    verdicts = {
        "I/i": (verdict_I, verdict_i),
        "II/ii": (verdict_II, val_ii <= TOL_BOUNDARY),
        "III/iii": (verdict_III, val_iii >= -TOL_BOUNDARY),
    }
    return values, verdicts


def _probe_margins(values, name, rows):
    """The lattice and the model margin of condition pair ``name`` on
    ``rows`` of a block's ``values``, each normalized to be
    scale-invariant.  Elementwise, so a row's margins do not depend on
    the other rows taken."""
    e1, e2 = values["e1"][rows], values["e2"][rows]
    if name == "I/i":
        m_I = np.minimum(-values["n1"][rows] / e1, -values["n2"][rows] / e2)
        return m_I, m_I
    scale = np.sqrt(e1 * e2)
    if name == "II/ii":
        return values["h"][rows] / scale, -values["val_ii"][rows]
    return -values["sup_pos"][rows] / (scale * scale), values["val_iii"][rows]


def equivalence_probe(
    n: int = 3,
    samples: int = 100_000,
    seed: int = 0,
) -> ProbeReport:
    """Draw random space-like pairs and compare the two condition systems.

    Lattice-level verdicts are evaluated directly from inner products of
    the raw vectors; model-level verdicts from the cap coordinates of the
    projected points.  Both sides use scale-invariant margins so the
    boundary band is meaningful across samples; they are computed only
    for the pairs whose verdicts differ, the only ones the report counts
    or lists; the (III)/(iii) directional counts split those pairs.
    Only the first sample set is held, as one (n + 1, samples) array; the
    second set is drawn after it in chunks of at most ``_PROBE_BLOCK``
    rows, and each chunk is evaluated against the first set's matching
    rows as soon as it is drawn; the evaluation takes both sets' H-norms
    from the squares it forms anyway.  The report does not depend on the
    block size.

    A one-worker thread pool draws both sets, and filters out the
    vectors that are not space-like, one chunk ahead of the calling
    thread, which evaluates the chunk before; the worker starts once the
    held set is allocated and is joined before the probe returns or
    raises.  The report does not depend on how the two are scheduled:
    the worker alone reads the generator, in the order of a serial run,
    and the caller takes the chunks strictly in that order.  An exception
    on the worker, a ``MemoryError`` included, is raised in the caller.
    Raises :class:`MemoryError` at once when a (samples, n + 1) array of
    doubles is beyond what numpy can address.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    if n < 2:
        raise InputError("the probe needs n >= 2")
    if seed < 0:
        raise InputError("seed must be >= 0")
    if samples * (n + 1) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(
            f"a {samples} x {n + 1} array of doubles is beyond numpy's size limit"
        )
    v1 = np.empty((n + 1, samples))
    rng = np.random.default_rng(seed)
    # the two sets, one after the other, as a serial run draws them
    draws = (chunk for _ in range(2) for chunk in _sample_spacelike(rng, samples, n))

    disagreements = {"I/i": 0, "II/ii": 0, "III/iii": 0}
    boundary = dict(disagreements)
    found: dict[str, list[dict]] = {name: [] for name in disagreements}
    big_cap = iii_without_III = III_without_iii = 0
    # imported here, so that a cold validate, embed or bound does not load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as worker:
        chunks = _one_ahead(worker, draws)
        # the first set's chunks fill the held set, and the rest are the second's
        lo = 0
        for cols, keep in chunks:
            rows = slice(lo, lo + len(keep))
            _take_columns(cols, keep, v1[:, rows])
            lo = rows.stop
            if lo == samples:
                break
        lo = 0
        for cols, keep in chunks:
            rows = slice(lo, lo + len(keep))
            lo = rows.stop
            v2 = _take_columns(cols, keep, np.empty((n + 1, len(keep))))
            values, verdicts = _probe_block(v1[:, rows], v2)
            for name, (va, vb) in verdicts.items():
                cand = np.flatnonzero(va != vb)
                ma, mb = _probe_margins(values, name, cand)
                near = np.minimum(np.abs(ma), np.abs(mb)) <= TOL_BOUNDARY
                idx = cand[~near]
                disagreements[name] += len(idx)
                boundary[name] += int(np.count_nonzero(near))
                if name == "III/iii":
                    # every differing verdict, boundary or not
                    lattice_only = int(np.count_nonzero(va[cand]))
                    III_without_iii += lattice_only
                    iii_without_III += len(cand) - lattice_only
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
