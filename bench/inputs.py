"""Deterministic benchmark inputs, made from the workload seed alone.

Every generator takes the seed's *variant* (``seed % VARIANTS``), so each
input the benchmark can produce has its reference outputs recorded in
``refs.json`` (see ``record_refs.py``).  Inputs are plain integers,
floats and JSON documents; nothing here calls into the program, so the
program receives only the generated data.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: number of distinct input sets; the seed picks one of them
VARIANTS = 16

#: model-level guard band of the program; generated caps keep every
#: pair margin at least NEAR_TIE away from it, so an independent float
#: reference decides every verdict the same way
TOL = 1e-9
NEAR_TIE = 1e-6


def variant(seed: int) -> int:
    return seed % VARIANTS


def rng_for(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([variant(seed), tag])


# ---------------------------------------------------------------------------
# lattices: G = U^T J U for a random unimodular U, classes c = U^-1 w
# ---------------------------------------------------------------------------

def unimodular(rng: np.random.Generator, dim: int, steps: int):
    """A random integer matrix of determinant +/-1 and its exact inverse,
    built from elementary row additions."""
    u = np.eye(dim, dtype=np.int64)
    inv = np.eye(dim, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(dim, size=2, replace=False)
        s = int(rng.choice([-1, 1]))
        u[i] += s * u[j]  # U <- E U with E = I + s e_i e_j^T
        inv[:, j] -= s * inv[:, i]  # U^-1 <- U^-1 E^-1
    return u, inv


def lattice(rng: np.random.Generator, rank: int, steps: int = 6):
    """Gram matrix of signature (1, rank-1) in a scrambled basis, plus the
    map from canonical coordinates w to lattice coordinates."""
    u, inv = unimodular(rng, rank, steps)
    j = np.diag([1] + [-1] * (rank - 1)).astype(np.int64)
    gram = u.T @ j @ u
    return gram, inv


def to_lattice(inv: np.ndarray, ws) -> list[list[int]]:
    return [[int(x) for x in inv @ np.asarray(w, dtype=np.int64)] for w in ws]


# ---------------------------------------------------------------------------
# cli-cold documents
# ---------------------------------------------------------------------------

def blowup_classes(rank: int) -> list[list[int]]:
    """Exceptional classes e_1..e_{rank-1} plus, from rank 4 on, the line
    class e_0 - e_1 - e_2: a valid family (every (III) pair with e_1, e_2
    is an exact tie) in canonical coordinates."""
    ws = []
    for k in range(1, rank):
        w = [0] * rank
        w[k] = 1
        ws.append(w)
    if rank >= 4:
        ws.append([1, -1, -1] + [0] * (rank - 3))
    return ws


def cli_documents(seed: int) -> dict:
    """The documents and arguments of the cold-CLI mix."""
    rng = rng_for(seed, 1)
    v = variant(seed)
    rank = 3 + v % 4
    gram, inv = lattice(rng, rank)
    curves = to_lattice(inv, blowup_classes(rank))
    labels = [f"C{k}" for k in range(len(curves))]
    valid = {"gram": gram.tolist(), "curves": curves, "labels": labels}
    dup = int(rng.integers(len(curves)))
    invalid = {
        "gram": gram.tolist(),
        "curves": curves + [curves[dup]],
        "labels": labels + [f"C{dup}'"],
    }
    return {
        "valid": valid,
        "invalid": invalid,
        "bound_n": 2 + v % 8,
        "search_seed": 1000 + v,
        "probe_seed": 2000 + v,
    }


def cli_argv(docs: dict, workdir: Path) -> list[tuple[str, list[str], int]]:
    """(kind, argv after ``negcurve``, expected exit code) for one pass of
    the mix; writes the two family documents into ``workdir``."""
    valid = workdir / "valid.json"
    invalid = workdir / "invalid.json"
    valid.write_text(json.dumps(docs["valid"]))
    invalid.write_text(json.dumps(docs["invalid"]))
    return [
        ("validate", ["validate", str(valid)], 0),
        ("validate_invalid", ["validate", str(invalid)], 1),
        ("embed", ["embed", str(valid)], 0),
        ("bound_n", ["bound", "--n", str(docs["bound_n"])], 0),
        ("bound_file", ["bound", "--file", str(valid)], 0),
        ("search", ["search", "--n", "3", "--seed", str(docs["search_seed"]),
                    "--restarts", "2"], 0),
        ("probe", ["probe", "--n", "3", "--samples", "20000",
                   "--seed", str(docs["probe_seed"])], 0),
    ]


# ---------------------------------------------------------------------------
# pairs inputs
# ---------------------------------------------------------------------------

def lattice_family(seed: int, size: int = 400, rank: int = 6):
    """``size`` distinct classes of a scrambled rank-``rank`` lattice.
    About nine in ten are negative (they land on the cylinder); the rest
    are time-like or null, so (I) fails for them and they land on the
    discs or the boundary."""
    rng = rng_for(seed, 2)
    gram, inv = lattice(rng, rank)
    seen = set()
    ws = []
    while len(ws) < size:
        w = rng.integers(-3, 4, size=rank)
        w[0] = abs(w[0])
        norm = int(w[0] * w[0] - w[1:] @ w[1:])
        want_negative = len(ws) % 10 != 9
        if not w.any() or (norm < 0) != want_negative:
            continue
        key = tuple(int(x) for x in w)
        if key in seen:
            continue
        seen.add(key)
        ws.append(key)
    return gram.tolist(), to_lattice(inv, ws), ws


def model_caps(seed: int, size: int = 300, n: int = 5):
    """``size`` caps with uniform feet on S^(n-1) and theta uniform on
    (0.05, pi - 0.05): many caps beyond pi/2 and many pairs with
    theta_i + theta_j > pi, where (iii) is weaker than (III).  A cap is
    redrawn while any pair margin that the model checks or the packing
    reductions compare lies within NEAR_TIE of its guard band."""
    rng = rng_for(seed, 3)
    zs = np.empty((0, n))
    ths = np.empty(0)
    while len(ths) < size:
        z = rng.normal(size=n)
        z /= np.linalg.norm(z)
        th = float(rng.uniform(0.05, math.pi - 0.05))
        if abs(th - math.pi / 2) < NEAR_TIE:
            continue
        if len(ths):
            delta = np.arccos(np.clip(zs @ z, -1.0, 1.0))
            ref_th = th if th <= math.pi / 2 else math.pi - th
            ref_ths = np.where(ths <= math.pi / 2, ths, math.pi - ths)
            margins = np.concatenate([
                np.cos(delta) - math.cos(th) * np.cos(ths) - TOL,  # (ii)
                th + ths - delta + TOL,  # (iii)
                delta - ref_th + TOL,  # (ii*) both ways, reflected
                delta - ref_ths + TOL,
                delta - np.maximum(ref_th, ref_ths) + TOL,  # ball system
                ref_th + ref_ths - delta + TOL,
            ])
            if np.min(np.abs(margins)) < NEAR_TIE or np.min(delta) < NEAR_TIE:
                continue
        zs = np.vstack([zs, z])
        ths = np.append(ths, th)
    return zs, ths


# ---------------------------------------------------------------------------
# search inputs
# ---------------------------------------------------------------------------

def search_seeds(seed: int) -> dict:
    v = variant(seed)
    return {"greedy_seed": 3000 + v, "candidates_seed": 4000 + v}
