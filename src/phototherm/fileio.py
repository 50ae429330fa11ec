"""Config files, CSV data formats, bundled presets and scenario sweeps.

Configs are flat INI files, one section per model piece, hand-editable and
strictly validated: unknown sections or keys are rejected with the file
line. Series files are two-column CSV (`time_s,value`) with an optional
`# unit: K|C|deg` comment; trajectory files are three-column CSV and always
kelvin. Every emitted file is re-ingestible by the matching reader.
"""

import functools
import math
import os
import pickle
import threading
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .calibrate import PARAM_RANGES, _check_applicable, apply_named_parameter
from .decimals import read_decimals
from .errors import PhotothermError, ValidationError
from .metrics import (
    MeasurementSeries,
    _TIME_EPS,
    plateau_value,
    response_time_63,
    series_from_trajectory,
)
from .model import (
    Environment,
    HeatSource,
    KELVIN_OFFSET,
    ThermalLayer,
    WallAssembly,
    steady_state,
)
from .simulate import LightSchedule, SimConfig, Trajectory, _resolve_channel, _segments, run

TRAJECTORY_HEADER = "t_s,theta_s_K,theta_L_K"
SERIES_HEADER = "time_s,value"

_LAYER_KEYS = ("specific_heat", "density", "thickness", "area", "emissivity",
               "absorptance", "conductivity", "conv_coeff")
_SECTION_KEYS = {
    "assembly": {"kind"},
    "silicone": set(_LAYER_KEYS) | {"conv_faces"},
    "lig": set(_LAYER_KEYS) | {"conv_faces"},
    "source": {"mode", "power", "source_temperature", "source_emissivity"},
    "environment": {"ambient_temperature"},
    "schedule": {"intervals"},
    "sim": {"duration", "dt", "record_stride", "metric_window"},
    "metrics": {"plateau_window", "plateau_threshold", "channel"},
}

SWEEP_OUTPUTS = ("t63", "peak", "steady", "plateau")
_OUTPUT_COLUMNS = {
    "t63": ("t63_s",),
    "peak": ("peak_K", "peak_time_s"),
    "steady": ("steady_theta_s_K", "steady_theta_L_K"),
    "plateau": ("plateau_K", "plateau_reach_s"),
}
# The fewest Euler steps, summed over a sweep's points, that run_sweep
# splits across forked processes. Measured on a 2-vCPU VM (Python 3.11),
# serial against forked, bilayer wall at stride 10, warm and in a fresh
# interpreter: a fork breaks even at 20 000 to 40 000 radiative steps and
# at 60 000 to 80 000 constant-flux steps. The largest keeps every sweep
# as fast.
_PARALLEL_STEPS = 80_000


def illuminance_scale(d: float, d_ref: float, p: float = 1.0) -> float:
    """Drive scale at working distance d relative to d_ref: (d_ref / d) ** p.

    The default exponent 1 matches a beam lamp whose illuminance doubles
    when the distance halves; p = 2 covers point-like sources.
    """
    if not (0.0 < d < math.inf and 0.0 < d_ref < math.inf):
        raise ValidationError("distances must be finite and strictly positive")
    if not math.isfinite(p):
        raise ValidationError(f"illuminance exponent must be finite, got {p!r}")
    try:
        return (d_ref / d) ** p
    except OverflowError:
        raise ValidationError(
            f"illuminance scale ({d_ref:g} / {d:g}) ** {p:g} overflows a float") from None


@dataclass(frozen=True)
class RunConfig:
    """Fully validated scenario: wall, source, environment, schedule and
    integration settings, plus the metric choices used downstream."""

    assembly: WallAssembly
    source: HeatSource
    env: Environment
    schedule: LightSchedule
    sim: SimConfig
    plateau_window: float | None = None
    plateau_threshold: float | None = None
    channel: str = "auto"


def preset_directory() -> Path:
    """Directory holding bundled presets; PHOTOTHERM_PRESETS overrides it."""
    override = os.environ.get("PHOTOTHERM_PRESETS")
    if override:
        return Path(override)
    return Path(str(resources.files("phototherm") / "presets"))


def available_presets() -> list[str]:
    directory = preset_directory()
    if not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.glob("*.ini"))


def preset_path(name: str) -> Path:
    path = preset_directory() / f"{name}.ini"
    if not path.is_file():
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(available_presets()) or 'none'}")
    return path


def load_config(path) -> RunConfig:
    """Parse and validate a scenario config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: config must be UTF-8: {exc}") from exc
    return parse_config(text, origin=str(path))


def _read_ini(text: str, origin: str) -> tuple[dict, dict]:
    """{section: {key: value}} of an INI text, and the line of each section
    at (section, None) and each key at (section, key). It reads as
    ConfigParser(interpolation=None, delimiters=("=",)) does, to the same
    values and errors, but [DEFAULT] is a plain section: full-line # and ;
    comments, lower-cased keys, values continued on deeper-indented lines. A
    duplicate or a line before the first header raises at once, the first
    malformed line at the end."""
    sections: dict = {}
    lines: dict = {}
    name = section = key = malformed = None
    indent = blanks = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            blanks += 1
            continue
        if stripped[0] in "#;":
            continue
        depth = len(line) - len(line.lstrip())
        if key and depth > indent:
            # blank lines join a value only once a line follows them
            section[key] += "\n" * (blanks + 1) + stripped
            blanks = 0
            continue
        indent, blanks = depth, 0
        end = stripped.rfind("]")
        # a header is configparser's match of \[(.+)\]: up to the last ]
        if stripped[0] == "[" and end > 1:
            name, key = stripped[1:end], None
            if name in sections:
                raise ValidationError(f"{origin}:{lineno}: section {name!r} already exists")
            section = sections[name] = {}
            lines[name, None] = lineno
        elif section is None:
            raise ValidationError(
                f"{origin}:{lineno}: line before the first [section] header: {stripped!r}")
        elif "=" in stripped:
            raw, _, value = stripped.partition("=")
            key = raw.rstrip().lower()
            if key in section:
                raise ValidationError(f"{origin}:{lineno}: [{name}] option {key!r} already exists")
            section[key], lines[name, key] = value.strip(), lineno
            if not key:  # malformed, but held like any other key
                malformed = malformed or lineno
        else:
            malformed = malformed or lineno
    if malformed:
        raise ValidationError(
            f"{origin}:{malformed}: expected a [section] header or a key = value line")
    return sections, lines


def parse_config(text: str, origin: str = "<config>") -> RunConfig:
    sections, lines = _read_ini(text, origin)

    def where(section: str, key: str | None = None) -> str:
        lineno = lines.get((section, key)) or lines.get((section, None))
        return f"{origin}:{lineno}" if lineno else origin

    for section, keys in sections.items():
        if section not in _SECTION_KEYS:
            raise ValidationError(f"{where(section)}: unknown section [{section}]")
        extra = keys.keys() - _SECTION_KEYS[section]
        if extra:
            key = sorted(extra)[0]
            raise ValidationError(f"{where(section, key)}: unknown key {key!r} in [{section}]")

    _REQUIRED = object()

    def get(section: str, key: str, cast=float, default=_REQUIRED):
        """The key's value as cast. An error names the key but not its
        line: build() adds that."""
        raw = sections.get(section, {}).get(key)
        if raw is None:
            if default is _REQUIRED:
                raise ValidationError(f"missing key {key!r}")
            return default
        raw = raw.strip()
        try:
            return cast(raw)
        except ValueError:
            what = "a number" if cast is float else "an integer"
            raise ValidationError(f"{key}: not {what}: {raw!r}") from None

    def build(section: str, make, required: bool = True):
        """make() for a section, which must be present if required. Its
        ValidationError is located at the key the message starts with, or
        else at the section."""
        if required and section not in sections:
            raise ValidationError(f"{origin}: missing section [{section}]")
        try:
            return make()
        except ValidationError as exc:
            key = str(exc).partition(" ")[0].rstrip(":")
            key = key if key in _SECTION_KEYS[section] else None
            raise ValidationError(f"{where(section, key)}: [{section}] {exc}") from exc

    def choice(section: str, key: str, *values: str) -> str:
        raw = get(section, key, cast=str)
        if raw not in values:
            raise ValidationError(f"{key} must be {' or '.join(map(repr, values))}, got {raw!r}")
        return raw

    def layer(section: str) -> ThermalLayer:
        return ThermalLayer(**{key: get(section, key) for key in _LAYER_KEYS},
                            conv_faces=get(section, "conv_faces", cast=int, default=None))

    def heat_source() -> HeatSource:
        mode = choice("source", "mode", "constant_flux", "radiative_body")
        flux = mode == "constant_flux"
        for key in ("source_temperature", "source_emissivity") if flux else ("power",):
            if key in sections["source"]:
                raise ValidationError(f"{key} is not valid in {mode} mode")
        if flux:
            return HeatSource(power=get("source", "power"))
        return HeatSource(source_temperature=get("source", "source_temperature"),
                          source_emissivity=get("source", "source_emissivity"))

    def metric_choices() -> tuple:
        window = get("metrics", "plateau_window", default=None)
        threshold = get("metrics", "plateau_threshold", default=None)
        # plateau_value's own rules, so that a bad value fails here at its line
        if window is not None and not 0.0 < window < math.inf:
            raise ValidationError(f"plateau_window must be finite and > 0, got {window!r}")
        if threshold is not None and not threshold > 0.0:
            raise ValidationError(f"plateau_threshold must be > 0, got {threshold!r}")
        channel = get("metrics", "channel", cast=str, default="auto")
        if channel not in ("auto", "theta_s", "theta_L"):
            raise ValidationError(f"channel must be auto, theta_s or theta_L, got {channel!r}")
        if channel == "theta_L" and not bilayer:
            raise ValidationError("channel theta_L is not valid for a single-layer assembly")
        return window, threshold, channel

    bilayer = build("assembly", lambda: choice("assembly", "kind",
                                               "single_layer", "bilayer")) == "bilayer"
    silicone = build("silicone", lambda: layer("silicone"))
    if bilayer:
        lig = build("lig", lambda: layer("lig"))
        # the coupling conductance comes from the silicone layer
        assembly = build("silicone", lambda: WallAssembly(silicone, lig))
    else:
        if "lig" in sections:
            raise ValidationError(
                f"{where('lig')}: [lig] section is not valid for a single-layer assembly")
        assembly = WallAssembly(silicone)
    source = build("source", heat_source)
    env = build("environment",
                lambda: Environment(get("environment", "ambient_temperature")))
    schedule = parse_intervals(get("schedule", "intervals", cast=str, default=""),
                               where("schedule", "intervals"))
    sim = build("sim", lambda: SimConfig(
        duration=get("sim", "duration"),
        dt=get("sim", "dt", default=0.01),
        record_stride=get("sim", "record_stride", cast=int, default=1),
        metric_window=get("sim", "metric_window", default=300.0)))
    plateau_window, plateau_threshold, channel = build("metrics", metric_choices,
                                                       required=False)

    return RunConfig(assembly=assembly, source=source, env=env, schedule=schedule,
                     sim=sim, plateau_window=plateau_window,
                     plateau_threshold=plateau_threshold, channel=channel)


def parse_intervals(text: str, where: str = "<schedule>") -> LightSchedule:
    """Parse 'start:end:scale, start:end:scale, ...'; 'inf' ends are allowed
    and an empty string means the light stays off."""
    text = text.strip()
    if not text:
        return LightSchedule()
    triples = []
    for part in text.split(","):
        bits = [b.strip() for b in part.strip().split(":")]
        if len(bits) != 3:
            raise ValidationError(
                f"{where}: interval must be start:end:scale, got {part.strip()!r}")
        try:
            triples.append(tuple(float(b) for b in bits))
        except ValueError:
            raise ValidationError(f"{where}: non-numeric interval {part.strip()!r}") from None
    try:
        return LightSchedule(tuple(triples))
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def read_series(path, column: str = "auto") -> MeasurementSeries:
    """Read a measurement CSV or a trajectory CSV as one series.

    Plain series files carry `time_s,value` plus an optional leading
    `# unit: K|C|deg` comment (default K); Celsius values are converted to
    kelvin on ingest. Trajectory files carry `t_s,theta_s_K,theta_L_K` and
    `column` picks the channel: 'theta_s', 'theta_L', or 'auto' for the
    liquid-contact channel (theta_L when populated, else theta_s).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read series: {exc}") from exc
    rows = _bulk_rows(data, column)
    if rows is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: series must be UTF-8: {exc}") from exc
        if "\r" in text:  # as a text-mode read translates line ends
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        rows = _parse_rows(path, text, column)
    times, values, unit = rows

    if len(times) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {len(times)}")
    if unit == "C":
        values = np.add(values, KELVIN_OFFSET)
        unit = "K"
    try:
        return MeasurementSeries(times, values, unit=unit)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


_UNITS = {b"K": "K", b"C": "C", b"deg": "deg"}


def _bulk_rows(data: bytes, column: str):
    """(times, values, unit) of a well-formed file's bytes, parsed with
    array operations; None for anything else.

    Accepted: the header on the first line, or a `# unit: K|C|deg` line
    and then the header; then LF-ended rows of exactly the header's number
    of cells, ASCII only, whose time cells and read value cells are plain
    decimals (see decimals.read_decimals) with strictly increasing times. A
    single-layer trajectory's empty theta_L cells are never parsed. On
    None, read_series decodes the file and reruns the row loop, which
    accepts every other spelling float() reads, makes every error message
    and reports every line number.
    """
    unit, top = "K", 0
    if data.startswith(b"# unit: "):
        top = data.find(b"\n") + 1
        unit = _UNITS.get(data[8:top - 1])
    end = data.find(b"\n", top)
    if unit is None or end < 0 or not data.endswith(b"\n") or end + 1 == len(data):
        return None  # a lone unit line and a header-only file included
    header = data[top:end]
    if header == SERIES_HEADER.encode() and column in ("auto", "value"):
        n_cols = 2
    elif header == TRAJECTORY_HEADER.encode() and column in ("auto", "value", "theta_s",
                                                             "theta_L"):
        unit, n_cols = "K", 3
    else:
        return None
    # from the header on, whose separators follow the rows' pattern. Every
    # byte below "-" must be a comma or a newline, so no CR, space or "+",
    # and as int8 every byte past ASCII is below it too, so all would decode
    raw = np.frombuffer(data, dtype=np.int8, offset=top)
    cuts = np.flatnonzero(raw < 45)
    if raw[cuts].tobytes() != (b"," * (n_cols - 1) + b"\n") * (len(cuts) // n_cols):
        return None
    cuts = cuts.reshape(-1, n_cols)  # row 0 is the header
    value_idx = 1
    if n_cols == 3 and column in ("auto", "theta_L"):
        # the theta_L cell runs from the row's second comma to its newline
        if (cuts[1:, 2] - cuts[1:, 1] > 1).any():
            value_idx = 2
        elif column == "theta_L":
            return None
    # int32 offsets halve read_decimals' index arrays; the margin covers
    # the few bytes of padding it may add ahead of raw
    offset = np.int32 if len(raw) < 2 ** 31 - 2 ** 10 else np.intp
    ends = np.concatenate((cuts[1:, 0], cuts[1:, value_idx]), dtype=offset)
    starts = np.concatenate((cuts[:-1, -1], cuts[1:, value_idx - 1]), dtype=offset)
    starts += 1
    del cuts  # lowers the peak memory of what follows
    cells = read_decimals(raw, starts, ends)
    if cells is None:
        return None
    times, values = cells.reshape(2, -1)
    if not (times[1:] > times[:-1]).all():
        return None
    return times, values, unit


def _parse_rows(path: Path, text: str, column: str):
    """(times, values, unit) from a row-by-row parse that checks each line
    and raises ValidationError with its line number."""
    unit = "K"
    header = None
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.lower().startswith("unit:"):
                unit = body.split(":", 1)[1].strip()
            continue
        if header is None:
            header = line
            continue
        rows.append((lineno, [c.strip() for c in line.split(",")]))

    if header is None:
        raise ValidationError(f"{path}: empty file, expected a header row")

    if header == SERIES_HEADER:
        if column not in ("auto", "value"):
            raise ValidationError(
                f"{path}: plain series files have no {column!r} column")
        value_idx, n_cols = 1, 2
    elif header == TRAJECTORY_HEADER:
        unit = "K"
        n_cols = 3
        if column in ("auto", "theta_L"):
            has_lig = any(len(cells) > 2 and cells[2] for _, cells in rows)
            if column == "theta_L" and not has_lig:
                raise ValidationError(f"{path}: trajectory has no theta_L data")
            value_idx = 2 if has_lig else 1
        elif column in ("value", "theta_s"):
            value_idx = 1
        else:
            raise ValidationError(f"{path}: unknown column {column!r}")
    else:
        raise ValidationError(
            f"{path}:1: unrecognized header {header!r}; expected "
            f"{SERIES_HEADER!r} or {TRAJECTORY_HEADER!r}")

    if unit not in ("K", "C", "deg"):
        raise ValidationError(f"{path}: unit must be K, C or deg, got {unit!r}")

    times: list[float] = []
    values: list[float] = []
    for lineno, cells in rows:
        if len(cells) != n_cols:
            raise ValidationError(f"{path}:{lineno}: expected {n_cols} columns, got {len(cells)}")
        try:
            t = float(cells[0])
            v = float(cells[value_idx])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric row") from None
        if math.isnan(t) or math.isnan(v):
            raise ValidationError(f"{path}:{lineno}: NaN is not allowed")
        if times and t <= times[-1]:
            raise ValidationError(
                f"{path}:{lineno}: time stamps must be strictly increasing")
        times.append(t)
        values.append(v)

    return times, values, unit


def write_trajectory(trajectory: Trajectory, path) -> None:
    """Write a trajectory to a path or an open text stream as CSV with
    6-decimal fixed formatting and LF endings; the theta_L column stays
    empty for single-layer runs."""
    lig = () if trajectory.lig is None else (trajectory.lig,)
    _write_csv(path, TRAJECTORY_HEADER + "\n", (trajectory.times, trajectory.silicone, *lig),
               "" if lig else ",")


def write_series(series: MeasurementSeries, path) -> None:
    """Write a series to a path or an open text stream as `time_s,value`
    CSV with a `# unit:` comment."""
    _write_csv(path, f"# unit: {series.unit}\n{SERIES_HEADER}\n", (series.times, series.values))


# Rows per formatted block: every temporary of a block stays below glibc's
# 128 KiB mmap threshold, so each block reuses heap memory already paged in
# instead of faulting in fresh pages for the whole file.
_BLOCK_ROWS = 2048


def _write_csv(path, head: str, columns, trailing: str = "") -> None:
    """Write head and the rows of _csv_body in blocks of _BLOCK_ROWS, as
    bytes to a path or as text to an open text stream."""
    stream = hasattr(path, "write")
    with nullcontext(path) if stream else open(path, "wb") as fh:
        fh.write(head if stream else head.encode())
        for i in range(0, len(columns[0]), _BLOCK_ROWS):
            block = _csv_body(*(c[i:i + _BLOCK_ROWS] for c in columns), trailing=trailing)
            fh.write(block.decode() if stream else block)


def _pieces(pattern: bytes) -> np.ndarray:
    """pattern % i for i in 0..999, four bytes each as one uint32, with
    spaces made NUL."""
    text = b"".join(pattern % i for i in range(1000)).replace(b" ", b"\0")
    return np.frombuffer(text, dtype=np.uint32)


# Four-byte pieces of a "%.6f" cell; NUL bytes are dropped from the
# finished text. An integer triple has a free first byte, where the top
# triple of a negative number takes its minus; _LEADING writes the zeros
# ahead of a number's first digit as NUL. The decimal triples carry the
# point and the comma.
_DIGITS, _LEADING = _pieces(b"\0%03d"), _pieces(b"\0%3d")
_POINT_DIGITS, _DIGITS_COMMA, _DIGITS_END = (_pieces(b".%03d"), _pieces(b"%03d,"),
                                             _pieces(b"%03d\0"))
_MINUS = np.frombuffer(b"-\0\0\0", dtype=np.uint32)[0]


def _csv_body(*columns, trailing: str = "") -> bytes:
    """CSV rows of the equal-length columns, each cell `"%.6f" % x` and
    each row ended by trailing + newline: the ASCII bytes of the %-format,
    built with array operations instead of one format call per cell."""
    y = np.column_stack(columns)
    rows, n_cols = y.shape
    if not (-1e9 < y.min() and y.max() < 1e9):  # also false for inf and nan
        row_format = ",".join(["%.6f"] * n_cols) + trailing + "\n"
        return "".join(map(row_format.__mod__, zip(*columns))).encode()
    y *= 1e6
    # "%.6f" prints the exact x * 10**6 rounded half to even. Below 2**52
    # every half is a double and rounding is monotone, so the rounded
    # product y lies between the same two halves as the exact one unless y
    # is itself a half: rint(y) is the printed integer except on those
    # cells, which are formatted one by one. Every step below is exact;
    # the digits, below 10**15 < 2**53, split as int64.
    digits = np.rint(y)
    halves = np.abs(y - digits) == 0.5
    negative = np.signbit(y)
    np.abs(digits, out=digits)
    if halves.any():
        for i, j in zip(*np.nonzero(halves)):
            digits[i, j] = abs(float(("%.6f" % columns[j][i]).replace(".", "")))
    groups = -(-len("%d" % (digits.max() // 1e6)) // 3)  # integer digits, in threes
    slots = groups + 2
    text = np.zeros((rows, n_cols * slots + 1), dtype=np.uint32)
    cells = text[:, :-1].reshape(rows, n_cols, slots)
    rest = digits.astype(np.int64)
    for k in range(slots):  # triples from the last decimal up
        above = rest // 1000
        triple = rest - 1000 * above
        if k == 0:
            cells[..., -1] = _DIGITS_COMMA[triple]
            cells[:, -1, -1] = _DIGITS_END[triple[:, -1]]  # the row's last cell
        elif k == 1:
            cells[..., -2] = _POINT_DIGITS[triple]
        else:
            piece = np.where(above > 0, _DIGITS[triple], _LEADING[triple])
            if k > 2:
                piece *= rest > 0  # a triple wholly ahead of the first digit
            cells[..., slots - 1 - k] = piece
        rest = above
    if negative.any():
        cells[..., 0] |= negative * _MINUS
    text[:, -1] = np.frombuffer((trailing + "\n").encode().ljust(4, b"\0"), dtype=np.uint32)
    return text.tobytes().translate(None, b"\0")


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    failures: int

    def to_csv(self) -> str:
        def cell(row, col):
            value = row.get(col)
            if value is None:
                return ""
            if isinstance(value, float):
                return f"{value:.6f}" if col not in ("value", "scale") else f"{value:.6g}"
            return str(value)

        out = [",".join(self.columns)]
        for row in self.rows:
            out.append(",".join(cell(row, c) for c in self.columns))
        return "\n".join(out) + "\n"


def run_sweep(config: RunConfig, param: str, points: Sequence[float],
              outputs: Sequence[str] = ("t63",), d_ref: float | None = None,
              exponent: float = 1.0) -> SweepResult:
    """Evaluate the requested outputs at every point: values of a
    PARAM_RANGES name, or distances whose scale is illuminance_scale(point,
    d_ref, exponent). Every input, and what the scenario lacks for them, is
    checked before the first point. Rows keep the input order; a point that
    fails is marked failed, keeps the exception's class name as "error" and
    its text as "message", and the sweep continues.

    When the points' runs add up to _PARALLEL_STEPS Euler steps or more,
    the calling process runs its share of the points and one forked child
    per other usable CPU runs each other share, if there are two or more
    CPUs, the platform can fork and the caller runs no other thread. The
    rows are the same either way."""
    points, outputs = tuple(points), tuple(outputs)
    if not points:
        raise ValidationError("need at least one sweep point")
    if param == "distance":
        if any(not 0.0 < d < math.inf for d in points):
            raise ValidationError("distances must be finite and strictly positive")
        if d_ref is None or not 0.0 < d_ref < math.inf:
            raise ValidationError("distance sweeps need a finite positive d_ref")
        if not math.isfinite(exponent):
            raise ValidationError(f"illuminance exponent must be finite, got {exponent!r}")
    elif param not in PARAM_RANGES:
        raise ValidationError(f"unknown sweep parameter {param!r}; choose from "
                              f"{sorted(PARAM_RANGES) + ['distance']}")
    elif d_ref is not None or exponent != 1.0:
        raise ValidationError("d_ref and exponent apply only to distance sweeps")
    unknown = set(outputs) - set(SWEEP_OUTPUTS)
    if unknown:
        raise ValidationError(
            f"unknown sweep outputs {sorted(unknown)}; choose from {SWEEP_OUTPUTS}")
    if not outputs:
        raise ValidationError("need at least one requested output")
    repeated = sorted({o for o in outputs if outputs.count(o) > 1})
    if repeated:
        raise ValidationError(f"repeated sweep outputs {repeated}; name each once")
    if "plateau" in outputs and (config.plateau_threshold is None
                                 or config.plateau_window is None):
        raise ValidationError("plateau output needs plateau_threshold and plateau_window "
                              "in the [metrics] config section")
    # every point records the same stamps, so a window that passes the last
    # one would fail each point
    sim = config.sim
    last = (sim.n_steps // sim.record_stride) * sim.record_stride * sim.dt
    for output, key, window in (("t63", "[sim] metric_window", sim.metric_window),
                                ("plateau", "[metrics] plateau_window",
                                 config.plateau_window)):
        if output in outputs and window > last + _TIME_EPS:
            raise ValidationError(f"{key} {window!r} s exceeds the last recorded "
                                  f"time {last:g} s of the run")
    if param != "distance":
        _check_applicable(param, config.assembly, config.source)
    needs_run = any(o in outputs for o in ("t63", "peak", "plateau"))
    if needs_run:
        _resolve_channel(config.assembly.lig is not None, config.channel)

    columns = ["index", "param", "value", "scale", "status"]
    for output in outputs:
        columns.extend(_OUTPUT_COLUMNS[output])

    # the scale and the point's model, here and in input order: this is the
    # only step that can warn
    rows, jobs = [], []
    for index, point in enumerate(points):
        row = {"index": index, "param": param, "value": point, "status": "ok"}
        try:
            assembly, source = config.assembly, config.source
            if param == "distance":
                scale = illuminance_scale(point, d_ref, exponent)
            elif param == "scale":
                scale = point
            else:
                scale = 1.0
                assembly, source, _ = apply_named_parameter(
                    assembly, source, config.schedule, param, point)
            row["scale"] = scale
            jobs.append((row, assembly, source, config.schedule.scaled(scale)))
        except PhotothermError as exc:
            row = _failed_row(row, exc)
        rows.append(row)

    task = functools.partial(_sweep_point, config, outputs, needs_run)
    workers = min(_usable_cpus(), len(jobs))
    # a fork of a process that runs other threads can deadlock in the child
    if not (needs_run and workers > 1 and len(jobs) * sim.n_steps >= _PARALLEL_STEPS
            and hasattr(os, "fork") and threading.active_count() == 1):
        workers = 1  # forks nothing; also where no point has a job and min() gave 0
    done = _forked_map(task, jobs, workers)
    for (row, *_), result in zip(jobs, done):
        rows[row["index"]] = result
    failures = sum(row["status"] == "failed" for row in rows)
    return SweepResult(tuple(columns), tuple(rows), failures)


def _sweep_point(config: RunConfig, outputs: tuple, needs_run: bool, job: tuple) -> dict:
    """The row of one sweep point: its run, metrics and steady state. It
    returns a failed row rather than raising, so that a worker process
    hands back only plain values."""
    row, assembly, source, schedule = job
    sim = config.sim
    try:
        if needs_run:
            trajectory = run(assembly, source, schedule, config.env, sim)
            series = series_from_trajectory(trajectory, config.channel)
            if "t63" in outputs:
                report = response_time_63(series, window=sim.metric_window)
                row["t63_s"] = report.t63
            if "peak" in outputs:
                peak_idx = int(np.argmax(series.values))
                row["peak_K"] = float(series.values[peak_idx])
                row["peak_time_s"] = float(series.times[peak_idx])
            if "plateau" in outputs:
                value, reach = plateau_value(series, config.plateau_threshold,
                                             config.plateau_window)
                row["plateau_K"] = value
                row["plateau_reach_s"] = reach
        if "steady" in outputs:
            # the hottest drive the run sees; a schedule never on gives ambient
            drive = max(s for _, _, s in _segments(schedule, sim.n_steps, sim.dt))
            row["steady_theta_s_K"], row["steady_theta_L_K"] = steady_state(
                assembly, source, config.env, drive)
    except PhotothermError as exc:
        return _failed_row(row, exc)
    return row


def _forked_map(task, jobs: list, workers: int) -> list:
    """[task(job) for job in jobs]: the calling process computes
    jobs[0::workers], and a forked child computes each other share and
    sends it back as one pickle over a pipe, so with workers 1 it forks
    nothing and runs every job here. workers must be at least 1. An
    exception in a child's share is raised here, as one in the caller's
    own would be; every child is reaped before this returns or raises, and
    killed first when it raises."""
    pids, pipes = [], []
    try:
        for share in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(write_end)
                raise
            if pid == 0:  # the child never returns into the caller's code
                code = 1
                try:
                    pipes[-1].close()  # so a write to a dead caller fails
                    try:
                        payload = [task(job) for job in jobs[share::workers]]
                    except BaseException as exc:
                        payload = exc
                    data = pickle.dumps(payload)
                    with open(write_end, "wb") as pipe:
                        pipe.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            pids.append(pid)
        done = [None] * len(jobs)
        done[0::workers] = [task(job) for job in jobs[0::workers]]
        for share, (pid, pipe) in enumerate(zip(pids, pipes), start=1):
            try:
                payload = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # nothing, or cut short
                raise RuntimeError(
                    f"sweep worker process {pid} ended without sending its rows") from None
            if isinstance(payload, BaseException):
                raise payload
            done[share::workers] = payload
        return done
    except BaseException:
        import signal  # here, not at start-up, which it would slow by about 1 ms
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _failed_row(row: dict, exc: PhotothermError) -> dict:
    return {"index": row["index"], "param": row["param"], "value": row["value"],
            "status": "failed", "error": type(exc).__name__, "message": str(exc)}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1
