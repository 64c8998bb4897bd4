import dataclasses
import inspect

import negcurve
from negcurve.conditions import positive_combination_witness
from negcurve.klein import figure_streams
from negcurve.packing import cone_separation_infimum, fit_constants

#: the public defaulted parameters: seeds, search sizes and plain
#: bookkeeping; guard bands, precisions and the probe's example count are
#: module constants
DEFAULTED = {
    "BallSystem.scale",
    "CurveFamily.labels",
    "SearchParams.candidate_grid",
    "SearchParams.random_candidates",
    "SearchParams.restarts",
    "SearchParams.seed",
    "equivalence_probe(seed)",
}

#: every public name; adding or dropping one changes this set on purpose
PUBLIC = {
    # classes
    "Ball", "BallSystem", "BoundReport", "CapRep", "Certificate",
    "Configuration", "CurveFamily", "KleinPoint", "ModelFamily", "OrthDisc",
    "PartitionResult", "QuadraticLattice", "Region", "SearchParams",
    "SearchResult", "StandardizingMap", "ValidationReport",
    # errors
    "DegenerateCapPairError", "InputError", "InvalidFamilyError",
    "NegCurveError", "NumericalError", "SignatureError",
    # functions
    "ball_system_from_points", "cap_fraction", "cap_of", "certify",
    "compatible", "embed_class", "equivalence_probe", "exact_max",
    "far_bound", "far_cap_measure", "far_cone_angle", "greedy_max",
    "hemisphere_filter", "inner", "max_norm_on_ray", "near_bound",
    "near_bound_volume", "normalize_scale", "orth_disc", "pair_margins",
    "partition", "point_of", "project", "reduce_ii_star", "sign_class",
    "signature", "standardize", "to_ball_system", "total_bound",
    "validate_family", "verify_cone_separation",
    # submodules, which the package import binds as attributes
    "conditions", "errors", "klein", "lorentz", "packing", "search",
}


def test_public_names_are_pinned():
    assert set(negcurve.__all__) == PUBLIC
    assert len(negcurve.__all__) == len(PUBLIC)


def defaulted(name, fn):
    return {
        f"{name}({p.name})"
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty
    }


def test_public_defaulted_parameters_are_pinned():
    found = set()
    for name in negcurve.__all__:
        obj = getattr(negcurve, name)
        if inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found |= {
                    f"{name}.{f.name}"
                    for f in dataclasses.fields(obj)
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING
                }
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    found |= defaulted(f"{name}.{attr}", member)
        elif callable(obj):
            found |= defaulted(name, obj)
    assert found == DEFAULTED
    for fn in (positive_combination_witness, figure_streams,
               cone_separation_infimum, fit_constants):
        assert defaulted(fn.__name__, fn) == set()
