import ast
from pathlib import Path
from types import ModuleType

import phototherm

# every public name the package exports; adding or removing one is an API change
PUBLIC_NAMES = {
    # errors
    "ConfigError", "MetricError", "NoCrossingError", "NoPlateauError",
    "NumericalError", "PhotothermError", "SeriesFormatError", "StabilityError",
    "ValidationError",
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


def test_exports_exactly_the_public_names():
    # submodules become attributes once imported, so they are left out
    exported = {name for name, value in vars(phototherm).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == PUBLIC_NAMES


def test_model_types_have_no_alias_constructors():
    present = [f"{cls}.{name}" for cls, names in REMOVED_ALIASES.items() for name in names
               if hasattr(getattr(phototherm, cls), name)]
    assert present == []


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
