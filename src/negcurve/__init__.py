"""Minkowski-lattice curve families, the extended Klein model, explicit
packing bounds, and kissing-configuration search."""

__version__ = "0.1.0"

from .conditions import (
    CurveFamily,
    ModelFamily,
    ValidationReport,
    equivalence_probe,
    max_norm_on_ray,
    pair_margins,
    validate_family,
)
from .errors import (
    DegenerateCapPairError,
    InputError,
    InvalidFamilyError,
    NegCurveError,
    NumericalError,
    SignatureError,
)
from .klein import (
    CapRep,
    KleinPoint,
    OrthDisc,
    Region,
    cap_of,
    orth_disc,
    point_of,
    project,
)
from .lorentz import (
    QuadraticLattice,
    StandardizingMap,
    embed_class,
    inner,
    sign_class,
    signature,
    standardize,
)
from .packing import (
    Ball,
    BallSystem,
    BoundReport,
    PartitionResult,
    ball_system_from_points,
    cap_fraction,
    far_bound,
    far_cap_measure,
    far_cone_angle,
    hemisphere_filter,
    near_bound,
    near_bound_volume,
    normalize_scale,
    partition,
    reduce_ii_star,
    to_ball_system,
    total_bound,
    verify_cone_separation,
)
from .search import (
    Certificate,
    Configuration,
    SearchParams,
    SearchResult,
    certify,
    compatible,
    exact_max,
    greedy_max,
)

__all__ = [name for name in dir() if not name.startswith("_")]
