"""The package's public names: each is listed once, in its own module's ``__all__``."""

import ast
import collections
import inspect
import pathlib
import re

import fermatcurves
from fermatcurves import cli, core, errors, oracle, sampling

PUBLIC_NAMES = [
    "AffineFrame", "DEFAULT_TOL", "IDENTITY", "InvalidAngle", "MAX_EXPONENT", "OffCurve",
    "OriginPoint", "OutOfRange", "Point2", "QuadratureFailure", "SampledCurve", "SingularFrame",
    "TWO_PI", "TooFewSamples", "__version__", "affine_curve_point", "arc_length",
    "bisect_radial_factor", "convergence_gap", "curve_point", "curve_speed", "curve_velocity",
    "forward_affine", "implicit_solve_x", "inverse_affine", "limit_map", "normalize_angle",
    "oracle_polyline", "polyline_hausdorff", "radial_factor", "radial_factor_limit",
    "resample_by_arclength", "residual_log", "sample_uniform_theta", "square_point",
    "theta_of_point",
]

# The parameters of every public function and class, exceptions aside: a
# change that adds or removes an option edits this table.
PARAMETERS = {
    "AffineFrame": ("alpha", "beta", "gamma", "delta", "epsilon", "zeta"),
    "SampledCurve": ("thetas", "points", "closed", "exponent", "frame"),
    "affine_curve_point": ("theta", "n", "frame"),
    "arc_length": ("n", "frame", "theta_a", "theta_b", "tol"),
    "bisect_radial_factor": ("theta", "n"),
    "convergence_gap": ("n", "frame"),
    "curve_from_json": ("data",),
    "curve_point": ("theta", "n"),
    "curve_speed": ("theta", "n", "frame"),
    "curve_velocity": ("theta", "n", "frame"),
    "emit_csv": ("curve",),
    "emit_json": ("curve",),
    "emit_svg": ("curves",),
    "fmt": ("value",),
    "forward_affine": ("p", "frame"),
    "implicit_solve_x": ("y", "n"),
    "inverse_affine": ("p", "frame"),
    "limit_map": ("p", "frame"),
    "main": (),
    "normalize_angle": ("theta",),
    "oracle_polyline": ("n", "frame", "count"),
    "polyline_hausdorff": ("a", "b"),
    "radial_factor": ("theta", "n"),
    "radial_factor_limit": ("theta",),
    "resample_by_arclength": ("n", "frame", "count", "tol"),
    "residual_log": ("p", "n", "frame"),
    "run": ("argv",),
    "sample_uniform_theta": ("n", "frame", "count"),
    "square_point": ("theta",),
    "theta_of_point": ("p", "frame"),
}


def test_the_package_exports_its_public_names():
    assert len(PUBLIC_NAMES) == 36
    assert sorted(fermatcurves.__all__) == PUBLIC_NAMES
    assert all(hasattr(fermatcurves, name) for name in PUBLIC_NAMES)


def test_each_public_name_is_written_in_one_all():
    modules = (core, errors, oracle, sampling, cli)
    counts = collections.Counter(name for module in modules for name in module.__all__)
    assert max(counts.values()) == 1, counts
    assert all(hasattr(module, name) for module in modules for name in module.__all__)
    # The package's own __all__ writes out only the one name it defines.
    tree = ast.parse(pathlib.Path(fermatcurves.__file__).read_text(encoding="utf-8"))
    (assignment,) = (node for node in tree.body if isinstance(node, ast.Assign)
                     and any(getattr(target, "id", None) == "__all__" for target in node.targets))
    literals = [node.value for node in ast.walk(assignment.value) if isinstance(node, ast.Constant)]
    assert literals == ["__version__"]
    assert set(fermatcurves.__all__) == {"__version__", *counts} - set(cli.__all__)


def test_each_public_callable_keeps_its_parameters():
    modules = (fermatcurves, cli)
    callables = {
        name: obj
        for module in modules
        for name in module.__all__
        if inspect.isfunction(obj := getattr(module, name))
        or (inspect.isclass(obj) and not issubclass(obj, BaseException))
    }
    assert {name: tuple(inspect.signature(obj).parameters) for name, obj in callables.items()} == PARAMETERS


def test_every_private_name_the_source_cites_resolves():
    # A private name cited after a module prefix anywhere in src/ (core._x,
    # sampling._x, oracle._x), or bare in a docstring (``_x``, _x's), names
    # an attribute of that module, or of the docstring's own: no text
    # outlives the code it describes.
    modules = {"core": core, "sampling": sampling, "oracle": oracle}
    cited = []
    for path in sorted(pathlib.Path(fermatcurves.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        own = fermatcurves if path.stem == "__init__" else getattr(fermatcurves, path.stem)
        cited += [(path.name, modules[prefix], name)
                  for prefix, name in re.findall(r"\b(core|sampling|oracle)\.(_[A-Za-z]\w*)", text)]
        docstrings = (ast.get_docstring(node) or "" for node in ast.walk(ast.parse(text))
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)))
        cited += [(path.name, own, name) for doc in docstrings for name in re.findall(r"(?<![\w.])_[A-Za-z]\w*", doc)]
    assert len(cited) > 50
    assert [(file, module.__name__, name) for file, module, name in cited if not hasattr(module, name)] == []
