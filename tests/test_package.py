import ast
from pathlib import Path
from types import ModuleType

import phototherm

# every public name the package exports; adding or removing one is an API change
PUBLIC_NAMES = {
    # errors
    "ConfigError", "KindMismatchError", "MetricError", "NoCrossingError", "NoPlateauError",
    "NumericalError", "PhotothermError", "SeriesFormatError", "StabilityError",
    "ValidationError",
    # model
    "Environment", "HeatSource", "KELVIN_OFFSET", "STEFAN_BOLTZMANN", "SourceMode",
    "ThermalLayer", "ThermalState", "WallAssembly", "WallKind", "convective_conductance",
    "coupling_conductance", "heat_capacity", "steady_state",
    # simulate
    "LightSchedule", "SimConfig", "Trajectory", "run", "stability_limit",
    # metrics
    "FinalConvention", "MeasurementSeries", "RESPONSE_FRACTION", "ResponseReport",
    "cooling_fit", "cycle_degradation", "cycle_peaks", "normalize_curve", "plateau_value",
    "response_time_63", "series_from_trajectory",
    # calibrate
    "CalibrationProblem", "CalibrationResult", "ParamSpec", "apply_named_parameter", "fit",
    "objective",
    # fileio
    "RunConfig", "SweepResult", "SweepSpec", "available_presets", "illuminance_scale",
    "load_config", "preset_path", "read_series", "run_sweep", "write_series",
    "write_trajectory",
}


def test_exports_exactly_the_public_names():
    # submodules become attributes once imported, so they are left out
    exported = {name for name, value in vars(phototherm).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == PUBLIC_NAMES


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
