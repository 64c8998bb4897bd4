"""Minkowski-lattice curve families, the extended Klein model, explicit
packing bounds, and kissing-configuration search."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

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
    ball_system_from_points,
    cap_fraction,
    far_bound,
    far_cap_measure,
    far_cone_angle,
    hemisphere_filter,
    near_bound,
    near_bound_volume,
    reduce_ii_star,
    split_system,
    total_bound,
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

# the names imported above; the submodules they come from are bound as
# attributes too, but are not part of ``from negcurve import *``
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
