import ast
import re
from pathlib import Path
from types import ModuleType

import pytest

import phototherm
from phototherm import (
    MeasurementSeries,
    cooling_fit,
    load_config,
    plateau_value,
    read_series,
    response_time_63,
)

# every public name the package exports; adding or removing one is an API change
PUBLIC_NAMES = {
    # errors
    "NumericalError", "PhotothermError", "StabilityError", "ValidationError",
    # model
    "Environment", "HeatSource", "KELVIN_OFFSET", "STEFAN_BOLTZMANN", "ThermalLayer",
    "WallAssembly", "convective_conductance", "coupling_conductance",
    "heat_capacity", "steady_state",
    # simulate
    "LightSchedule", "SimConfig", "Trajectory", "run", "stability_limit",
    # metrics
    "MeasurementSeries", "RESPONSE_FRACTION", "ResponseReport",
    "cooling_fit", "cycle_degradation", "cycle_peaks", "normalize_curve", "plateau_value",
    "response_time_63", "series_from_trajectory",
    # calibrate
    "CalibrationProblem", "CalibrationResult", "ParamSpec", "apply_named_parameter", "fit",
    "objective",
    # fileio
    "RunConfig", "SweepResult", "available_presets", "illuminance_scale",
    "load_config", "preset_path", "read_series", "run_sweep", "write_series",
    "write_trajectory",
}

# a model type has one constructor, its own; none of these alias
# classmethods may come back
REMOVED_ALIASES = {
    "WallAssembly": ("single", "bilayer"),
    "HeatSource": ("constant_flux", "radiative"),
    "LightSchedule": ("always_on", "off"),
}

# every exit-2 error is a ValidationError; none of these leaf classes may
# come back
REMOVED_NAMES = ("ConfigError", "SeriesFormatError", "MetricError", "NoCrossingError",
                 "NoPlateauError")

# the package's exception classes, all that errors.py defines
ERROR_CLASSES = {"PhotothermError", "ValidationError", "StabilityError", "NumericalError"}


def test_exports_exactly_the_public_names():
    # submodules become attributes once imported, so they are left out
    exported = {name for name, value in vars(phototherm).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == PUBLIC_NAMES


def test_model_types_have_no_alias_constructors():
    present = [f"{cls}.{name}" for cls, names in REMOVED_ALIASES.items() for name in names
               if hasattr(getattr(phototherm, cls), name)]
    assert present == []


def test_removed_error_classes_stay_removed():
    present = [f"{module.__name__}.{name}" for module in (phototherm, phototherm.errors)
               for name in REMOVED_NAMES if hasattr(module, name)]
    assert present == []
    assert {name for name, value in vars(phototherm.errors).items()
            if isinstance(value, type)} == ERROR_CLASSES


def test_raises_only_the_four_error_classes():
    # a class raised by name, `raise X(...)` or `raise X`, or an error built
    # by name for a later raise, as `return X(...)` in a helper; _forked_map
    # raises RuntimeError for a child that died
    raised = set()
    for path in sorted(Path(phototherm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name)
                    and node.exc.id[0].isupper()):  # not `raise exc` of a caught one
                raised.add((path.name, node.exc.id))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id.endswith(("Error", "Exception"))):
                raised.add((path.name, node.func.id))
    assert {name for _, name in raised} >= {"ValidationError", "NumericalError"}
    assert sorted(r for r in raised if r[1] not in ERROR_CLASSES | {"RuntimeError"}) == []


def written(path, text):
    path.write_text(text, encoding="utf-8")
    return path


RISING = MeasurementSeries((0.0, 1.0, 2.0), (300.0, 305.0, 310.0))


@pytest.mark.parametrize("call, message", [
    (lambda tmp: response_time_63(RISING, final=330.0),
     "series never reaches the 63.2% level 318.96"),
    (lambda tmp: plateau_value(RISING, threshold=1.0, window=1.0),
     "no 1 s window stays within 1"),
    (lambda tmp: cooling_fit(RISING, ambient=298.0), "series is not decaying toward ambient"),
    (lambda tmp: read_series(written(tmp / "s.csv", "time_s,value\n0,1\nx,2\n")),
     "s.csv:3: non-numeric row"),
    (lambda tmp: load_config(written(tmp / "c.ini", "[assembly]\nkind = triangle\n")),
     "c.ini:2: [assembly] kind must be 'single_layer' or 'bilayer', got 'triangle'"),
], ids=["no-crossing", "no-plateau", "not-decaying", "malformed-series", "malformed-config"])
def test_every_bad_input_is_a_value_error(tmp_path, call, message):
    # a metric the series cannot give is bad input like a malformed file:
    # plain `except ValueError` catches each, with its message
    with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
        call(tmp_path)


def test_every_private_function_and_class_is_used_in_the_package():
    # a private helper that only tests call belongs with the tests
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(phototherm.__file__).parent.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name.startswith("_") and node.name not in used]
    assert unused == []


def test_readme_api_sketch_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("## Python API sketch", 1)[1]
    code = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
