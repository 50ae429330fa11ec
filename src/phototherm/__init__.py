"""Lumped-parameter photothermal heating toolkit for light-driven
soft-actuator walls: flux laws, explicit time integration, response-time
and plateau metrics, and derivative-free parameter calibration."""

from .errors import (
    ConfigError,
    KindMismatchError,
    MetricError,
    NoCrossingError,
    NoPlateauError,
    NumericalError,
    PhotothermError,
    SeriesFormatError,
    StabilityError,
    ValidationError,
)
from .model import (
    Environment,
    HeatSource,
    KELVIN_OFFSET,
    STEFAN_BOLTZMANN,
    SourceMode,
    ThermalLayer,
    ThermalState,
    WallAssembly,
    WallKind,
    convective_conductance,
    coupling_conductance,
    heat_capacity,
    steady_state,
)
from .simulate import (
    LightSchedule,
    SimConfig,
    Trajectory,
    run,
    stability_limit,
)
from .metrics import (
    FinalConvention,
    MeasurementSeries,
    RESPONSE_FRACTION,
    ResponseReport,
    cooling_fit,
    cycle_degradation,
    cycle_peaks,
    normalize_curve,
    plateau_value,
    response_time_63,
    series_from_trajectory,
)
from .calibrate import (
    CalibrationProblem,
    CalibrationResult,
    ParamSpec,
    apply_named_parameter,
    fit,
    objective,
)
from .fileio import (
    RunConfig,
    SweepResult,
    SweepSpec,
    available_presets,
    illuminance_scale,
    load_config,
    preset_path,
    read_series,
    run_sweep,
    write_series,
    write_trajectory,
)

__version__ = "0.1.0"
