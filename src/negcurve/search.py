"""Search for large cap families satisfying the pairwise conditions.

A family of caps is valid when every pair passes the angular conditions
(ii) and (iii); valid families are exactly the cliques of the
compatibility graph over a candidate set.  The searches here produce
certified configurations whose size is a lower bound for the largest
valid family in dimension n (the pi/2-separation kissing count of the
model): a deterministic seeded greedy over grid-plus-random candidates,
and an exact branch-and-bound maximum clique for candidate sets small
enough to afford it.

Candidate generation always includes the 2n cross-polytope directions
with theta = pi/2, the natural extremal stratum: those caps are pairwise
compatible, so every run certifies at least 2n.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass

import mpmath
import numpy as np

from .conditions import (
    TOL_BOUNDARY,
    ModelFamily,
    PairVerdict,
    cap_arrays,
    coincident_feet,
    pair_margins,
)
from .errors import NumericalError
from .klein import CapRep
from .packing import total_bound

#: decimal digits used when re-verifying certificates
CERTIFY_DPS = 60

#: certificates reject margins below this (absorbs working-precision
#: residue on exact-boundary pairs)
CERTIFY_FLOOR = mpmath.mpf("-1e-30")

#: the double closest to pi/2; certificates read it as the exact right
#: angle, since the extremal stratum theta = pi/2 is exact by construction
#: and no double can represent it
RIGHT_ANGLE = math.pi / 2

#: largest candidate set :func:`exact_max` accepts
MAX_CLIQUE_CUTOFF = 256


@dataclass(frozen=True)
class SearchParams:
    """Knobs for the configuration search."""

    n: int
    seed: int = 20240601
    restarts: int = 8
    candidate_grid: float = math.pi / 12
    random_candidates: int = 64

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("search requires n >= 2")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not self.candidate_grid > 0:
            raise ValueError("candidate_grid must be positive")


@dataclass(frozen=True)
class Certificate:
    """High-precision re-verification of a configuration.

    All pair margins are recomputed at ``digits`` (CERTIFY_DPS)
    significant digits from the stored coordinates; the certificate is
    valid when no margin falls below the tiny negative floor reserved for
    exact-boundary pairs.
    """

    valid: bool
    digits: int
    min_margin: float
    worst: PairVerdict | None
    violations: tuple[PairVerdict, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Configuration:
    """A cap family together with its certificate."""

    caps: ModelFamily
    certificate: Certificate

    def __len__(self) -> int:
        return len(self.caps)


@dataclass(frozen=True)
class SearchResult:
    best: Configuration
    size: int
    method: str
    elapsed: float

    def to_json_dict(self) -> dict:
        # elapsed is intentionally omitted: reports must be byte-identical
        # across reruns with the same inputs and seed
        return {
            "size": self.size,
            "method": self.method,
            "caps": [
                {"z": [float(x) for x in cap.z], "theta": float(cap.theta)}
                for cap in self.best.caps.caps
            ],
            "certificate": self.best.certificate.to_json_dict(),
        }


def compatible(c1: CapRep, c2: CapRep) -> bool:
    """Pairwise compatibility: conditions (ii) and (iii) both hold within
    TOL_BOUNDARY.

    Caps with coincident feet are never compatible here (the pair checks
    reject them as degenerate, but a total relation is needed to build
    the compatibility graph).
    """
    return bool(_compatibility_matrix([c1, c2])[0, 1])


def _compatibility_matrix(caps: list[CapRep]) -> np.ndarray:
    """:func:`compatible` over all pairs, as a symmetric (k, k) boolean
    matrix with a false diagonal."""
    z, theta = cap_arrays(caps)
    _, m_ii, m_iii = pair_margins(z, theta)
    ok = ~coincident_feet(z) & (m_ii >= -TOL_BOUNDARY) & (m_iii >= -TOL_BOUNDARY)
    # the verdict of the pair i < j decides both entries
    ok = np.triu(ok, 1)
    return ok | ok.T


def certify(caps: ModelFamily) -> Certificate:
    """Recompute every pair margin at CERTIFY_DPS digits.

    An empty or single-cap family certifies vacuously.  Fails when any
    margin drops below the floor, naming the pair and the condition.
    """
    k = len(caps)
    if k < 2:
        return Certificate(
            valid=True, digits=CERTIFY_DPS, min_margin=math.inf, worst=None,
            violations=(),
        )
    entries: list[PairVerdict] = []
    with mpmath.workdps(CERTIFY_DPS):
        zs = [[mpmath.mpf(x) for x in cap.z] for cap in caps.caps]
        thetas = [
            mpmath.pi / 2 if cap.theta == RIGHT_ANGLE else mpmath.mpf(cap.theta)
            for cap in caps.caps
        ]
        for i in range(k):
            for j in range(i + 1, k):
                dot = mpmath.fsum(a * b for a, b in zip(zs[i], zs[j]))
                dot = max(mpmath.mpf(-1), min(mpmath.mpf(1), dot))
                delta = mpmath.acos(dot)
                m_ii = mpmath.cos(thetas[i]) * mpmath.cos(thetas[j]) - mpmath.cos(delta)
                m_iii = thetas[i] + thetas[j] - delta
                entries.append(PairVerdict((i, j), "ii", float(m_ii)))
                entries.append(PairVerdict((i, j), "iii", float(m_iii)))
    violations = tuple(
        e for e in entries if e.margin < float(CERTIFY_FLOOR)
    )
    worst = min(entries, key=lambda e: e.margin)
    return Certificate(
        valid=not violations,
        digits=CERTIFY_DPS,
        min_margin=worst.margin,
        worst=worst,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

def _snap_direction(z) -> tuple[float, ...]:
    """Canonicalize grid directions: trig residue near 0 or +/-1 becomes
    exact, so symmetry-axis points dedupe onto their exact forms."""
    out = []
    for x in z:
        if abs(x) < 1e-12:
            x = 0.0
        elif abs(abs(x) - 1.0) < 1e-12:
            x = math.copysign(1.0, x)
        out.append(float(x))
    norm = math.sqrt(sum(x * x for x in out))
    return tuple(x / norm for x in out)


def _cross_polytope(n: int) -> list[tuple[float, ...]]:
    dirs = []
    for axis in range(n):
        for sign in (1.0, -1.0):
            z = [0.0] * n
            z[axis] = sign
            dirs.append(tuple(z))
    return dirs


def _grid_directions(n: int, grid: float) -> list[tuple[float, ...]]:
    if n == 2:
        count = max(4, int(round(2.0 * math.pi / grid)))
        return [
            _snap_direction(
                (math.cos(2.0 * math.pi * k / count),
                 math.sin(2.0 * math.pi * k / count))
            )
            for k in range(count)
        ]
    if n == 3:
        out = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
        n_polar = max(2, int(round(math.pi / grid)))
        n_azim = max(4, int(round(2.0 * math.pi / grid)))
        for a in range(1, n_polar):
            phi = math.pi * a / n_polar
            for b in range(n_azim):
                psi = 2.0 * math.pi * b / n_azim
                out.append(
                    _snap_direction(
                        (
                            math.sin(phi) * math.cos(psi),
                            math.sin(phi) * math.sin(psi),
                            math.cos(phi),
                        )
                    )
                )
        return out
    # higher dimensions: grids explode, rely on axes plus random augmentation
    return []


def candidate_caps(params: SearchParams, rng: np.random.Generator) -> list[CapRep]:
    """Cross-polytope axes and a uniform grid at theta = pi/2, plus random
    directions paired with random radii in (0, pi/2]."""
    n = params.n
    seen: set[tuple] = set()
    caps: list[CapRep] = []

    def push(z, theta):
        key = tuple(round(x, 9) for x in z) + (round(theta, 9),)
        if key in seen:
            return
        seen.add(key)
        caps.append(CapRep(z=tuple(float(x) for x in z), theta=float(theta)))

    for z in _cross_polytope(n):
        push(z, math.pi / 2)
    for z in _grid_directions(n, params.candidate_grid):
        push(z, math.pi / 2)
    if params.random_candidates:
        pts = rng.normal(size=(params.random_candidates, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        half = params.random_candidates // 2
        thetas = np.concatenate(
            [
                np.full(half, math.pi / 2),
                rng.uniform(0.0, math.pi / 2, size=params.random_candidates - half),
            ]
        )
        thetas = np.clip(thetas, 1e-6, math.pi / 2)
        for z, theta in zip(pts, thetas):
            push(z, float(theta))
    return caps


def _greedy_order(caps: list[CapRep]) -> list[int]:
    # larger caps constrain most, so place them first; feet break ties
    return sorted(range(len(caps)), key=lambda i: (-caps[i].theta, caps[i].z))


def _greedy_clique(caps: list[CapRep]) -> list[int]:
    adj = _compatibility_matrix(caps)
    # candidates compatible with every cap chosen so far
    open_ = np.ones(len(caps), dtype=bool)
    chosen: list[int] = []
    for idx in _greedy_order(caps):
        if open_[idx]:
            chosen.append(idx)
            open_ &= adj[idx]
    return chosen


def _config_key(caps: list[CapRep]) -> str:
    payload = sorted(
        ([round(x, 12) for x in cap.z], round(cap.theta, 12)) for cap in caps
    )
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def greedy_max(params: SearchParams) -> SearchResult:
    """Best greedy clique over ``restarts`` independently seeded candidate
    draws; deterministic for a fixed seed (the reduction is max by size
    with certificate-hash tie-break).

    Raises :class:`NumericalError` if the result exceeds the counting
    bound ``total_bound(n).total``, which no valid family can, and before
    any search if ``total_bound(n)`` does.
    """
    limit = total_bound(params.n).total
    t0 = time.perf_counter()
    outcomes = []
    for seq in np.random.SeedSequence(params.seed).spawn(params.restarts):
        caps = candidate_caps(params, np.random.default_rng(seq))
        picked = [caps[i] for i in _greedy_clique(caps)]
        outcomes.append((len(picked), _config_key(picked), picked))
    size, _, best_caps = max(outcomes, key=lambda o: (o[0], o[1]))

    family = ModelFamily(best_caps)
    cert = certify(family)
    result = SearchResult(
        best=Configuration(caps=family, certificate=cert),
        size=size,
        method="greedy",
        elapsed=time.perf_counter() - t0,
    )
    if result.size > limit:
        raise NumericalError(
            f"search produced {result.size} caps, above the counting bound {limit}"
        )
    return result


# ---------------------------------------------------------------------------
# exact maximum clique
# ---------------------------------------------------------------------------

def _adjacency_masks(caps: list[CapRep]) -> list[int]:
    """Row i of the compatibility matrix as a Python-int bitset (bit j set
    when caps i and j are compatible); Python ints, since numpy shifts
    overflow past bit 63."""
    rows = np.packbits(_compatibility_matrix(caps), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _max_clique_bitset(masks: list[int]) -> list[int]:
    """Branch and bound with greedy-coloring bounds on bitset adjacency."""
    k = len(masks)
    best: list[int] = []

    def color_order(p: int) -> list[tuple[int, int]]:
        order = []
        color = 0
        while p:
            color += 1
            avail = p
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= avail & ~masks[v] & ~(1 << v)
                p &= ~(1 << v)
                order.append((v, color))
        return order

    def expand(r: list[int], p: int):
        nonlocal best
        for v, bound in reversed(color_order(p)):
            if len(r) + bound <= len(best):
                return
            r.append(v)
            np_ = p & masks[v]
            if np_:
                expand(r, np_)
            elif len(r) > len(best):
                best = list(r)
            r.pop()
            p &= ~(1 << v)

    expand([], (1 << k) - 1)
    return best


def exact_max(params: SearchParams, candidates: list[CapRep]) -> SearchResult:
    """True maximum clique over an explicit candidate set.

    Refuses candidate sets above MAX_CLIQUE_CUTOFF (fall back to
    :func:`greedy_max` there).  The candidates alone decide the result;
    ``params`` is not read.
    """
    if len(candidates) > MAX_CLIQUE_CUTOFF:
        raise ValueError(
            f"{len(candidates)} candidates exceed the exact-search cutoff "
            f"{MAX_CLIQUE_CUTOFF}; use greedy_max instead"
        )
    t0 = time.perf_counter()
    masks = _adjacency_masks(candidates)
    chosen = sorted(_max_clique_bitset(masks))
    family = ModelFamily([candidates[i] for i in chosen])
    cert = certify(family)
    return SearchResult(
        best=Configuration(caps=family, certificate=cert),
        size=len(chosen),
        method="exact",
        elapsed=time.perf_counter() - t0,
    )
