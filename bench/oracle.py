"""Reference answers computed without the program.

Exact integer counts for the lattice conditions, float counts for the
model conditions on inputs kept away from every tie (see
``inputs.model_caps``), and the counting bound's far term as a 60-digit
ceiling.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np

from inputs import TOL


@lru_cache(maxsize=None)
def far_bound(n: int) -> int:
    """ceil(1 / sigma_n) where sigma_n is the normalized measure of a cap of
    angular radius arccos(7/8) on S^(n-1), at 60 significant digits.

    For n >= 3 the measure is I_{sin^2}((n-1)/2, 1/2) / 2 (regularized
    incomplete beta, sin^2 = 15/64).  A reciprocal within 1e-40 of an
    integer is that integer (n = 3 gives exactly 16).
    """
    with mpmath.workdps(60):
        if n == 1:
            recip = mpmath.mpf(2)
        elif n == 2:
            recip = mpmath.pi / mpmath.acos(mpmath.mpf(7) / 8)
        else:
            frac = mpmath.betainc(
                mpmath.mpf(n - 1) / 2, mpmath.mpf(1) / 2, 0, mpmath.mpf(15) / 64,
                regularized=True,
            ) / 2
            recip = 1 / frac
        nearest = mpmath.nint(recip)
        if abs(recip - nearest) < mpmath.mpf(10) ** -40:
            return int(nearest)
        return int(mpmath.ceil(recip))


def total_bound(n: int) -> int:
    return 2 * (2 ** (n + 1) + far_bound(n))


def bound_fields_ok(bound: dict, n: int) -> bool:
    return (
        bound.get("n") == n
        and bound.get("near_bound") == 2 ** (n + 1)
        and bound.get("far_bound") == far_bound(n)
        and bound.get("total") == total_bound(n)
    )


def lattice_counts(gram, classes) -> tuple[dict, dict]:
    """(checked, failures per condition) of the exact lattice conditions."""
    c = np.array(classes, dtype=np.int64)
    g = np.array(gram, dtype=np.int64)
    p = c @ g @ c.T
    k = len(c)
    diag = np.diag(p)
    iu, ju = np.triu_indices(k, 1)
    h, n1, n2 = p[iu, ju], diag[iu], diag[ju]
    both_neg = (n1 < 0) & (n2 < 0)
    holds_iii = (h <= 0) | (h * h <= n1 * n2)
    checked = {"I": k, "II": len(iu), "III": int(both_neg.sum())}
    failures = {
        "I": int((diag >= 0).sum()),
        "II": int((h < 0).sum()),
        "III": int((both_neg & ~holds_iii).sum()),
    }
    return checked, failures


def angular_distances(zs: np.ndarray) -> np.ndarray:
    d = np.arccos(np.clip(zs @ zs.T, -1.0, 1.0))
    np.fill_diagonal(d, 0.0)
    return d


def model_counts(zs: np.ndarray, ths: np.ndarray) -> tuple[dict, dict]:
    """(checked, failures per condition) of the model conditions."""
    k = len(ths)
    d = angular_distances(zs)
    iu, ju = np.triu_indices(k, 1)
    delta = d[iu, ju]
    val_ii = np.cos(delta) - np.cos(ths[iu]) * np.cos(ths[ju])
    val_iii = ths[iu] + ths[ju] - delta
    checked = {"i": k, "ii": len(iu), "iii": len(iu)}
    failures = {
        "i": 0,
        "ii": int((val_ii > TOL).sum()),
        "iii": int((val_iii < -TOL).sum()),
    }
    return checked, failures


def hemisphere(zs: np.ndarray, ths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The side of theta = pi/2 the program keeps, reflected if needed."""
    small = ths <= math.pi / 2
    if small.sum() >= (~small).sum():
        return zs[small], ths[small]
    return zs[~small], math.pi - ths[~small]


def packing_counts(zs: np.ndarray, ths: np.ndarray) -> dict:
    """Failures of the reduced center condition over ordered pairs, and
    the ball-system violations by kind, on the kept side."""
    d = angular_distances(zs)
    k = len(ths)
    off = ~np.eye(k, dtype=bool)
    ii_star = int(((d - ths[:, None] < -TOL) & off).sum())
    iu, ju = np.triu_indices(k, 1)
    dd = d[iu, ju]
    inside = int((dd < np.maximum(ths[iu], ths[ju]) - TOL).sum())
    apart = int((dd > ths[iu] + ths[ju] + TOL).sum())
    return {"ii_star": ii_star, "center-inside": inside, "disjoint-closures": apart}


def caps_pairwise_valid(zs: np.ndarray, ths: np.ndarray) -> bool:
    """Every pair of a search result passes (ii) and (iii)."""
    if len(ths) < 2:
        return True
    _, failures = model_counts(zs, ths)
    return failures["ii"] == 0 and failures["iii"] == 0
