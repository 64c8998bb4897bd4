"""Minkowski-lattice curve families, the extended Klein model, explicit
packing bounds, and kissing-configuration search."""

__version__ = "0.1.0"

from importlib import import_module as _import_module

#: each submodule and the public names it exports.  A name, or a
#: submodule read as ``negcurve.packing``, is imported on first use, so
#: ``import negcurve`` loads no submodule, numpy or mpmath
_EXPORTS = {
    "conditions": (
        "CurveFamily", "ModelFamily", "ValidationReport", "equivalence_probe",
        "pair_margins", "validate_family",
    ),
    "counting": (
        "BoundReport", "far_bound", "far_cap_measure", "far_cone_angle",
        "near_bound", "near_bound_volume", "total_bound",
    ),
    "errors": (
        "DegenerateCapPairError", "InputError", "InvalidFamilyError",
        "NegCurveError", "NumericalError", "SignatureError",
    ),
    "klein": (
        "CapRep", "KleinPoint", "OrthDisc", "Region", "cap_of", "orth_disc",
        "point_of", "project",
    ),
    "lorentz": (
        "QuadraticLattice", "StandardizingMap", "embed_class", "inner",
        "sign_class", "signature", "standardize",
    ),
    "packing": (
        "Ball", "BallSystem", "hemisphere_filter", "reduce_ii_star",
        "split_system",
    ),
    "search": (
        "Certificate", "Configuration", "SearchParams", "SearchResult",
        "certify", "compatible", "exact_max", "greedy_max",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# the exported names; the submodules resolve as attributes too, but are
# not part of ``from negcurve import *``
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE, *_EXPORTS})
