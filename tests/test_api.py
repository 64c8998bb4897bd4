import ast
import dataclasses
import inspect
from pathlib import Path

import negcurve
from negcurve.conditions import positive_combination_witness
from negcurve.klein import figure_streams
from negcurve.packing import cone_separation_infimum, fit_constants

#: the public defaulted parameters: seeds, search and probe sizes and
#: plain bookkeeping; guard bands, precisions and the probe's example
#: count are module constants
DEFAULTED = {
    "CurveFamily.labels",
    "SearchParams.candidate_grid",
    "SearchParams.random_candidates",
    "SearchParams.restarts",
    "SearchParams.seed",
    "equivalence_probe(n)",
    "equivalence_probe(samples)",
    "equivalence_probe(seed)",
}

#: every public name; adding or dropping one changes this set on purpose
PUBLIC = {
    # classes
    "Ball", "BallSystem", "BoundReport", "CapRep", "Certificate",
    "Configuration", "CurveFamily", "KleinPoint", "ModelFamily", "OrthDisc",
    "QuadraticLattice", "Region", "SearchParams", "SearchResult",
    "StandardizingMap", "ValidationReport",
    # errors
    "DegenerateCapPairError", "InputError", "InvalidFamilyError",
    "NegCurveError", "NumericalError", "SignatureError",
    # functions
    "ball_system_from_points", "cap_fraction", "cap_of", "certify",
    "compatible", "embed_class", "equivalence_probe", "exact_max",
    "far_bound", "far_cap_measure", "far_cone_angle", "greedy_max",
    "hemisphere_filter", "inner", "max_norm_on_ray", "near_bound",
    "near_bound_volume", "orth_disc", "pair_margins", "point_of",
    "project", "reduce_ii_star", "sign_class", "signature",
    "split_system", "standardize", "to_ball_system", "total_bound",
    "validate_family",
}


def test_public_names_are_pinned():
    assert set(negcurve.__all__) == PUBLIC
    assert len(negcurve.__all__) == len(PUBLIC)
    # a star import binds the public names and no submodule
    namespace = {}
    exec("from negcurve import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


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


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_imports_exist():
    # the benchmark imports these names from the package; one that is
    # deleted or renamed fails here rather than in a benchmark run
    imported = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "negcurve"):
                imported |= {(node.module, alias.name) for alias in node.names}
    assert imported
    missing = []
    for module, name in sorted(imported):
        try:  # the statement itself, which also finds submodules
            exec(f"from {module} import {name}", {})
        except ImportError:
            missing.append(f"{module}.{name}")
    assert missing == []
