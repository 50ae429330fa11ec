import tracemalloc

import pytest

from phototherm import (
    Environment,
    HeatSource,
    LightSchedule,
    SimConfig,
    ThermalLayer,
    WallAssembly,
    load_config,
    preset_path,
    run,
)

# wall and source constants used throughout the suite (bundled preset values)
SILICONE = dict(specific_heat=1300.0, density=1050.0, thickness=1.0e-3,
                area=1.0e-4, emissivity=0.95, absorptance=0.17,
                conductivity=0.2, conv_coeff=6.0)
LIG = dict(specific_heat=700.0, density=400.0, thickness=1.0e-4,
           area=1.0e-4, emissivity=0.95, absorptance=0.83,
           conductivity=1.0, conv_coeff=18.0)
POWER_W = 0.075
AMBIENT_K = 298.0

CAP_SILICONE = 1300.0 * 1050.0 * 1.0e-4 * 1.0e-3  # 0.1365 J/K
CAP_LIG = 700.0 * 400.0 * 1.0e-4 * 1.0e-4  # 2.8e-3 J/K
COUPLING_W_PER_K = 0.2 * 1.0e-4 / 1.0e-3  # 0.02 W/K
TAU_SINGLE_S = CAP_SILICONE / (2 * 6.0 * 1.0e-4)  # 113.75 s


def read_as_products(names, bilayer):
    """Whether a constant-flux model reads these free parameters only as
    products, alpha Q_h scale per layer, so that CalibrationProblem rejects
    them: on a single layer two or more of alpha_s, Q_h and scale; on a
    bilayer Q_h with scale, or both absorptances with either of them."""
    free = set(names)
    if not bilayer:
        return len(free & {"alpha_s", "Q_h", "scale"}) >= 2
    return {"Q_h", "scale"} <= free or (
        {"alpha_s", "alpha_L"} <= free and bool(free & {"Q_h", "scale"}))


@pytest.fixture
def silicone_layer():
    return ThermalLayer(**SILICONE)


@pytest.fixture
def lig_layer():
    return ThermalLayer(**LIG)


@pytest.fixture
def single_wall(silicone_layer):
    return WallAssembly(silicone_layer)


@pytest.fixture
def bilayer_wall(silicone_layer, lig_layer):
    return WallAssembly(silicone_layer, lig_layer)


@pytest.fixture
def flux_source():
    return HeatSource(power=POWER_W)


@pytest.fixture
def environment():
    return Environment(AMBIENT_K)


def forward_trajectory():
    """The benchmark's forward run: the bilayer preset lit for 275 s of a
    400 s run at dt = 0.01 s and stride 1, so 40 001 samples."""
    cfg = load_config(preset_path("table1_bilayer"))
    return run(cfg.assembly, cfg.source, LightSchedule(((0.0, 275.0, 1.0),)), cfg.env,
               SimConfig(duration=400.0, dt=0.01))


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated during fn(), after one untraced
    call has done any lazy set-up. It counts Python and numpy allocations,
    not page faults or time, so it is the same on every run."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
