"""Signature-(1, n) linear algebra over integer intersection lattices.

The ambient space is R^{n+1} with the Minkowski-type pairing

    H(u, v) = u0*v0 - u1*v1 - ... - un*vn,

so positive H-norm is time-like and negative H-norm space-like.  Integer
lattices enter as symmetric Gram matrices of signature (1, rank-1);
``standardize`` produces a congruence taking the Gram matrix to the
canonical form diag(1, -1, ..., -1) and ``embed_class`` pushes integer
classes through it while preserving all pairings.

Lattice-level predicates elsewhere in the package work on the Gram matrix
with exact integer arithmetic; floats only appear once vectors are mapped
into the canonical space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import NumericalError, SignatureError

#: relative guard band for classifying a float norm as zero
DEFAULT_SIGN_TOL = 1e-9

#: tolerance for checking M^T G M against the canonical form
STANDARDIZE_TOL = 1e-9


def minkowski_matrix(dim: int) -> np.ndarray:
    """The canonical Gram matrix diag(1, -1, ..., -1) of size ``dim``."""
    j = -np.eye(dim)
    j[0, 0] = 1.0
    return j


def inner(u, v):
    """Minkowski pairing ``u0*v0 - sum_{i>=1} ui*vi``.

    Accepts single vectors or arrays of vectors (pairing taken along the
    last axis, broadcasting the rest).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: {u.shape[-1]} vs {v.shape[-1]}")
    out = u[..., 0] * v[..., 0] - np.sum(u[..., 1:] * v[..., 1:], axis=-1)
    if out.ndim == 0:
        return float(out)
    return out


def sign_class(u) -> int:
    """Sign of the H-norm of ``u``: +1 time-like, -1 space-like, 0 null.

    The zero band is DEFAULT_SIGN_TOL relative to the Euclidean norm
    squared, so the classification is invariant under positive scaling.
    """
    u = np.asarray(u, dtype=float)
    # entries from ~1e154 up square beyond the double range
    with np.errstate(over="ignore"):
        eucl = float(u @ u)
    if eucl == 0.0:
        raise ValueError("sign_class of the zero vector is undefined")
    if not math.isfinite(eucl):
        raise NumericalError("vector entries exceed the double range when squared")
    q = inner(u, u)
    band = DEFAULT_SIGN_TOL * eucl
    if q > band:
        return 1
    if q < -band:
        return -1
    return 0


def signature(gram) -> tuple[int, int, int]:
    """Exact inertia (n_pos, n_neg, n_zero) of a symmetric rational matrix.

    Uses Lagrange congruence diagonalization over ``Fraction``, so integer
    input is classified without any floating-point tolerance.
    """
    a = [[Fraction(x) for x in row] for row in gram]
    m = len(a)
    if any(len(row) != m for row in a):
        raise ValueError("matrix is not square")
    for i in range(m):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")

    pos = neg = zero = 0
    t = 0
    while t < m:
        if a[t][t] == 0:
            swap = next((j for j in range(t + 1, m) if a[j][j] != 0), None)
            if swap is not None:
                a[t], a[swap] = a[swap], a[t]
                for row in a:
                    row[t], row[swap] = row[swap], row[t]
            else:
                free = next((j for j in range(t + 1, m) if a[t][j] != 0), None)
                if free is None:
                    # row t vanishes on the active block: radical direction
                    zero += 1
                    t += 1
                    continue
                # all active diagonal entries vanish; fold row/col `free`
                # into t, making a[t][t] = 2*a[t][free] != 0
                for j in range(t, m):
                    a[t][j] += a[free][j]
                for i in range(t, m):
                    a[i][t] += a[i][free]
        d = a[t][t]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(t + 1, m):
            if a[i][t] == 0:
                continue
            f = a[i][t] / d
            for j in range(t + 1, m):
                a[i][j] -= f * a[t][j]
        # column update is implied by symmetry; row/col t is never revisited
        t += 1
    return pos, neg, zero


def _as_ints(entries, rank: int | None = None) -> tuple[int, ...]:
    """``entries`` as exact Python integers, the one integer rule of the
    exact path: a non-integral entry raises ``ValueError`` and is never
    truncated (numpy integers, 2.0 and Fraction(4, 2) are integers).
    With ``rank``, a class of another length raises too."""
    out = []
    for x in entries:
        try:
            xi = int(x)
        except (ValueError, OverflowError):  # nan, inf
            xi = None
        if xi is None or xi != x:
            raise ValueError(f"entries must be integers, got {x!r}")
        out.append(xi)
    if rank is not None and len(out) != rank:
        raise ValueError("class length must equal the lattice rank")
    return tuple(out)


@dataclass(frozen=True)
class QuadraticLattice:
    """An integer lattice given by a symmetric Gram matrix of signature (1, rank-1).

    The signature is verified exactly at construction; a failure raises
    :class:`SignatureError` carrying the inertia actually found.  The rank
    must be at least 2 (``ValueError`` otherwise): by the Hodge index
    theorem a rank-1 lattice carries no negative class.
    """

    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram):
        object.__setattr__(self, "gram", tuple(_as_ints(row) for row in gram))
        inertia = signature(self.gram)
        if inertia != (1, self.rank - 1, 0):
            raise SignatureError(inertia)
        if self.rank < 2:
            raise ValueError(
                f"rank must be >= 2, got {self.rank}: a rank-1 lattice has no "
                "negative class"
            )

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, c1: Sequence[int], c2: Sequence[int]) -> int:
        """Exact intersection pairing c1^T G c2 in Python integers; a
        non-integral entry raises ``ValueError``."""
        a, b = _as_ints(c1, self.rank), _as_ints(c2, self.rank)
        return sum(
            ai * sum(g * bj for g, bj in zip(row, b) if bj)
            for ai, row in zip(a, self.gram)
            if ai
        )

    def norm(self, c: Sequence[int]) -> int:
        return self.pairing(c, c)


@dataclass(frozen=True, eq=False)
class StandardizingMap:
    """Change of basis M with M^T G M = diag(1, -1, ..., -1).

    ``inverse`` sends lattice coordinates to canonical coordinates:
    with w = M^{-1} c, the pairing satisfies w^T J w = c^T G c.
    """

    matrix: np.ndarray
    inverse: np.ndarray


@lru_cache(maxsize=256)
def standardize(lat: QuadraticLattice) -> StandardizingMap:
    """Congruence to canonical form via a symmetric eigendecomposition.

    Columns are eigenvectors scaled by 1/sqrt(|eigenvalue|), ordered with
    the positive eigenvalue first, then descending.  Eigenvector signs are
    fixed so the map is deterministic for a fixed Gram matrix; any two
    valid choices differ by an H-isometry, which every downstream
    predicate is invariant under.  The Gram entries become doubles in one
    correctly rounded step; :class:`NumericalError` if one is beyond the
    double range or the max-norm residual exceeds STANDARDIZE_TOL.
    """
    try:
        g = np.array(lat.gram, dtype=float)
    except OverflowError as exc:
        raise NumericalError("Gram entries exceed the double range") from exc
    evals, evecs = np.linalg.eigh(g)
    # positive eigenvalue first, stable ties so diagonal input maps to identity
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    evecs = evecs[:, order]
    for k in range(evecs.shape[1]):
        col = evecs[:, k]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0:
            evecs[:, k] = -col
    j = minkowski_matrix(lat.rank)
    # an eigenvalue that rounds to 0 gives inf, and the residual nan
    with np.errstate(divide="ignore", invalid="ignore"):
        m = evecs / np.sqrt(np.abs(evals))
        residual = float(np.max(np.abs(m.T @ g @ m - j)))
    # the signature was verified exactly, so a large residual is a
    # floating-point failure of the map, not a bad input
    if not residual <= STANDARDIZE_TOL:
        raise NumericalError(
            f"standardization residual {residual:.3g} exceeded tolerance {STANDARDIZE_TOL:g}"
        )
    # M^{-1} = J M^T G, avoiding a general inverse
    return StandardizingMap(matrix=m, inverse=j @ m.T @ g)


def embed_class(lat: QuadraticLattice, coeffs: Sequence[int]) -> np.ndarray:
    """Map an integer class into canonical R^{1,n} coordinates.

    The image w satisfies inner(w, w) = coeffs^T G coeffs, and all
    pairwise pairings are likewise preserved.
    """
    try:
        c = np.array(coeffs, dtype=float)
    except OverflowError as exc:
        raise NumericalError(
            "class entries exceed the double range of the floating-point path"
        ) from exc
    if c.ndim != 1 or len(c) != lat.rank:
        raise ValueError("class length must equal the lattice rank")
    if not np.any(c):
        raise ValueError("cannot embed the zero class")
    return standardize(lat).inverse @ c
