import ast
import dataclasses
import importlib
import inspect
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import modules_loaded_by
import negcurve
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
    "cap_of", "certify", "compatible", "embed_class", "equivalence_probe",
    "exact_max", "far_bound", "far_cap_measure", "far_cone_angle",
    "greedy_max", "hemisphere_filter", "inner", "near_bound",
    "near_bound_volume", "orth_disc", "pair_margins", "point_of", "project",
    "reduce_ii_star", "sign_class", "signature", "split_system",
    "standardize", "total_bound", "validate_family",
}


def test_public_names_are_pinned():
    assert set(negcurve.__all__) == PUBLIC
    assert len(negcurve.__all__) == len(PUBLIC)
    # a star import binds the public names and no submodule
    namespace = {}
    exec("from negcurve import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_public_names_resolve_lazily_to_their_submodules():
    # one table lists each submodule's names; it alone builds __all__
    table = [(module, name) for module, names in negcurve._EXPORTS.items() for name in names]
    assert sorted(name for _, name in table) == negcurve.__all__
    for module, name in table:
        assert getattr(negcurve, name) is getattr(importlib.import_module(f"negcurve.{module}"), name)
    assert set(negcurve.__all__) | set(negcurve._EXPORTS) <= set(dir(negcurve))
    with pytest.raises(AttributeError, match="no_such_name"):
        negcurve.no_such_name
    # a fresh process reaches the submodules through the package alone
    loaded = modules_loaded_by(
        "import negcurve\n"
        "negcurve.packing.total_bound\n"
        "from negcurve import lorentz, search\n"
    )
    assert {"negcurve.packing", "negcurve.lorentz", "negcurve.search"} <= loaded


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
    for fn in (figure_streams, cone_separation_infimum, fit_constants):
        assert defaulted(fn.__name__, fn) == set()


ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PACKAGE = Path(negcurve.__file__).resolve().parent


def _own_nodes(scope):
    """The nodes of a module or function body, outside nested functions
    and classes."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _bench_imports(tree):
    """(scope, module, name, alias) for each name a module or function
    of ``tree`` imports from the package."""
    scopes = [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef))]
    for scope in scopes:
        for node in _own_nodes(scope):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "negcurve"):
                for alias in node.names:
                    yield scope, node.module, alias.name, alias.asname or alias.name


def _dotted_read(node):
    """(name, [attr, ...]) for a read ``name.attr.attr...``, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) and attrs else None


def _bench_missing_names(sources) -> list[str]:
    """The names that ``sources`` import from the package, or read as
    dotted attributes of an object (module, function or class) they
    import in the same function or module body, and that the package
    does not have."""
    missing = []
    for source in sources:
        tree = ast.parse(source)
        for scope, module, name, alias in _bench_imports(tree):
            namespace = {}
            try:  # the statement itself, which also finds submodules
                exec(f"from {module} import {name}", namespace)
            except ImportError:
                missing.append(f"{module}.{name}")
                continue
            # a nested function sees its enclosing scope's imports too
            for node in ast.walk(scope):
                read = (_dotted_read(node) if isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load) else None)
                if read is None or read[0] != alias:
                    continue
                obj, path = namespace[name], f"{module}.{name}"
                for attr in read[1]:
                    path += f".{attr}"
                    if not hasattr(obj, attr):
                        missing.append(path)
                        break
                    obj = getattr(obj, attr)
    return sorted(set(missing))


def test_bench_imports_exist():
    # the benchmark imports these names from the package and reads these
    # attributes of them; one that is deleted or renamed fails here
    # rather than in a benchmark run
    sources = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert any(_bench_imports(ast.parse(source)) for source in sources)
    assert _bench_missing_names(sources) == []
    # the check sees a renamed attribute anywhere in a chain of reads from
    # an imported submodule or function, and reads of a local name that
    # shadows a submodule elsewhere are not taken for the submodule
    probe = (
        "def clear():\n"
        "    from negcurve import lorentz, packing\n"
        "    packing.fit_constants_renamed.cache_clear()\n"
        "    packing.far_bound.cache_clear()\n"
        "    lorentz.standardize.cache_clear_renamed()\n"
        "def klein():\n"
        "    from negcurve.packing import fit_constants\n"
        "    fit_constants.cache_clear_renamed()\n"
        "def pairs():\n"
        "    def packing():\n"
        "        return 0\n"
        "    packing.not_an_attribute_of_the_module\n"
    )
    assert _bench_missing_names([probe]) == [
        "negcurve.lorentz.standardize.cache_clear_renamed",
        "negcurve.packing.fit_constants.cache_clear_renamed",
        "negcurve.packing.fit_constants_renamed",
    ]


def test_failure_records_are_immutable_named_fields():
    # bench/ops.py reads report.failures and each record's condition, and
    # bench/selftest.py pops from the list
    lat = negcurve.QuadraticLattice([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    report = negcurve.validate_family(negcurve.CurveFamily(lat, [(1, 0, 0), (0, 1, 0), (0, 1, 0)]))
    assert type(report.failures) is list
    assert [tuple(f) for f in report.failures] == [((0,), "I", -1.0), ((1, 2), "II", -1.0)]
    for f in report.failures:
        assert (f.indices, f.condition, f.margin) == tuple(f)
        hash(f)
        with pytest.raises(AttributeError):
            f.margin = 0.0
    # a search certificate writes its records as JSON objects
    caps = negcurve.ModelFamily([negcurve.CapRep(z=(1.0, 0.0), theta=0.5),
                                 negcurve.CapRep(z=(0.0, 1.0), theta=0.7)])
    cert = negcurve.certify(caps).to_json_dict()
    assert cert["violations"]
    for record in [cert["worst"], *cert["violations"]]:
        assert type(record) is dict and list(record) == ["indices", "condition", "margin"]


def _module_constants():
    """``module.NAME`` for each public UPPERCASE name a package module
    assigns at top level."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id):
                    yield f"{path.stem}.{target.id}"


def _listed_constants() -> dict:
    """{"module.NAME": value text} from README's list of guard bands,
    precisions and limits."""
    text = (ROOT / "README.md").read_text()
    start = text.index("- Guard bands, precisions and limits")
    end = text.index("\n- ", start)
    return dict(re.findall(r"`(\w+\.[A-Z][A-Z0-9_]*)` = ([^\s:;,]+)", text[start:end]))


def _number(text):
    """A listed value: an integer, a decimal, a ratio a/b or pi/b."""
    num, _, den = text.partition("/")
    value = math.pi if num == "pi" else Fraction(num)
    return value / int(den) if den else value


def test_readme_lists_every_module_constant():
    listed = _listed_constants()
    # the report schema is a name, not a guard band, precision or limit
    assert sorted(set(_module_constants()) - {"cli.SCHEMA"} - set(listed)) == []
    for key, text in listed.items():
        module, name = key.split(".")
        value = getattr(importlib.import_module(f"negcurve.{module}"), name)
        assert float(_number(text)) == float(value), key


def test_no_assert_statements_in_the_package():
    # a check must not depend on the interpreter's -O flag
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _top_level_imports(source: str, nodes=_own_nodes) -> set[str]:
    """The absolute names a package module imports outside its functions
    and classes (or, with ``nodes=ast.walk``, anywhere in it): each
    module, and each module.name of a from-import."""
    found = set()
    for node in nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["negcurve" * bool(node.level), node.module]))
            found |= {base, *(f"{base}.{alias.name}" for alias in node.names)}
    return found


def _eager(source: str, modules, nodes=_own_nodes) -> list[str]:
    """The names from ``modules`` that ``source`` imports at top level
    (or, with ``nodes=ast.walk``, anywhere)."""
    return sorted(
        name for name in _top_level_imports(source, nodes)
        if any(name == m or name.startswith(m + ".") for m in modules)
    )


def test_cold_path_imports_stay_inside_functions():
    # mpmath costs a cold process ~30 ms and serves only certify, and
    # concurrent.futures serves only the probe; cli imports packing and
    # search in the commands that run them
    found = {path.name: _eager(path.read_text(), ["mpmath", "concurrent"])
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
    # far_bound is integer arithmetic: packing imports no mpmath at all
    packing = (PACKAGE / "packing.py").read_text()
    assert _eager(packing, ["mpmath"], ast.walk) == []
    cli = (PACKAGE / "cli.py").read_text()
    assert _eager(cli, ["negcurve.packing", "negcurve.search"]) == []
    # the guard sees imports under a top-level if or try, relative and
    # absolute, and not those inside a function
    probe = (
        "import mpmath.libmp\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "try:\n"
        "    from . import packing\n"
        "except ImportError:\n"
        "    pass\n"
        "if True:\n"
        "    from negcurve.search import certify\n"
        "def f():\n"
        "    import mpmath\n"
        "    from .packing import total_bound\n"
    )
    assert _eager(probe, ["mpmath", "concurrent", "negcurve.packing", "negcurve.search"]) == [
        "concurrent.futures", "concurrent.futures.ThreadPoolExecutor", "mpmath.libmp",
        "negcurve.packing", "negcurve.search", "negcurve.search.certify",
    ]
    assert _eager(probe, ["mpmath"], ast.walk) == ["mpmath", "mpmath.libmp"]
