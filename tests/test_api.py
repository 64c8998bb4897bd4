import dataclasses
import inspect

import negcurve
from negcurve.conditions import positive_combination_witness
from negcurve.klein import figure_streams
from negcurve.packing import cone_separation_infimum, fit_constants

#: the public defaulted parameters: seeds, search sizes, the probe's
#: example count and plain bookkeeping; guard bands and precisions are
#: module constants
DEFAULTED = {
    "BallSystem.scale",
    "CurveFamily.labels",
    "SearchParams.candidate_grid",
    "SearchParams.random_candidates",
    "SearchParams.restarts",
    "SearchParams.seed",
    "equivalence_probe(max_examples)",
    "equivalence_probe(seed)",
}


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
