"""Descriptors of measured or simulated response curves.

Covers the quantities used to compare runs against bench data: 63% response
time toward a window-end or given final value, plateau detection over a
sliding window, curve normalization, exponential cooling fits, and
peak-degradation ratios across repeated actuation cycles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .simulate import Trajectory, _column, _resolve_channel

#: level fraction defining the response time: baseline + 0.632 * (final - baseline)
RESPONSE_FRACTION = 0.632

#: tolerance for window-span bookkeeping on floating time stamps, in s
_TIME_EPS = 1e-9

# plateau_value scans at least this many anchors at a time. While a window
# holds under about 14 000 samples, each of a block's arrays stays below
# glibc's 128 KiB mmap threshold, so a warm call faults in no fresh pages
_ANCHOR_BLOCK = 2048

_RISE_FRACTION = 0.5  # cycle_peaks' open and close levels, as fractions of the swing
_RETURN_FRACTION = 0.1

_UNITS = ("K", "C", "deg")


@dataclass(frozen=True, eq=False)
class MeasurementSeries:
    """Time-stamped samples of one scalar channel, held as two read-only
    float64 columns."""

    times: np.ndarray
    values: np.ndarray
    unit: str = "K"

    def __post_init__(self):
        times, values = _column(self.times), _column(self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) != len(values):
            raise ValidationError("times and values must have equal length")
        if len(times) < 2:
            raise ValidationError("series needs at least 2 points")
        if not np.isfinite(times).all():
            raise ValidationError("series times must be finite")
        if not (times[1:] > times[:-1]).all():
            raise ValidationError("series times must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValidationError("series values must be finite (no NaN)")
        if self.unit not in _UNITS:
            raise ValidationError(f"unit must be one of {_UNITS}, got {self.unit!r}")

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class ResponseReport:
    """Result of a 63% response-time analysis."""

    baseline: float
    final: float
    t63: float  # s, linearly interpolated crossing time
    peak_value: float
    peak_time: float  # s


def series_from_trajectory(trajectory: Trajectory, channel: str = "auto") -> MeasurementSeries:
    """View one trajectory channel as a measurement series.

    channel "auto" picks the liquid-contact surface: the absorber film when
    present, otherwise the silicone wall itself.
    """
    channel = _resolve_channel(trajectory.lig is not None, channel)
    values = trajectory.lig if channel == "theta_L" else trajectory.silicone
    return MeasurementSeries(trajectory.times, values, unit="K")


def response_time_63(series: MeasurementSeries, window: float | None = None,
                     final: float | None = None) -> ResponseReport:
    """Earliest time the series covers 63.2% of its baseline-to-final swing.

    The baseline is the first sample. Pass exactly one of window, for the
    (interpolated) value at baseline time + window as the final, or final
    itself: a known asymptote, or a plateau found with plateau_value. The
    crossing time is linearly interpolated between the bracketing samples,
    and falling series are handled symmetrically (crossing downward toward
    a lower final). A swing, level or crossing time beyond the float range
    is a ValidationError.
    """
    if (window is None) == (final is None):
        raise ValidationError("pass exactly one of window and final")
    times, values = series.times, series.values
    if window is not None:
        if not (window > 0.0 and math.isfinite(window)):
            raise ValidationError(f"window must be finite and > 0, got {window!r}")
        end, last = float(times[0]) + window, float(times[-1])
        if end > last + _TIME_EPS:
            raise ValidationError(
                f"window {window:g} s exceeds the series span {series.span:g} s")
        final = np.interp(min(end, last), times, values)
    elif not math.isfinite(final):
        raise ValidationError(f"final must be finite, got {final!r}")
    final, baseline = float(final), float(values[0])

    if final == baseline:
        raise ValidationError("final equals baseline: no response to time")
    swing = final - baseline
    level = baseline + RESPONSE_FRACTION * swing
    if not (math.isfinite(swing) and math.isfinite(level)):
        raise ValidationError(f"the swing from the baseline {baseline:g} to the final "
                              f"{final:g} overflows a float")
    rising = final > baseline

    crossed = values[1:] >= level if rising else values[1:] <= level
    i = int(np.argmax(crossed)) + 1
    if not crossed[i - 1]:
        raise ValidationError(f"series never reaches the {RESPONSE_FRACTION:.1%} level {level:g}")
    # interpolate between the bracketing samples in Python floats
    v0, v1 = values[i - 1:i + 1].tolist()
    t0, t1 = times[i - 1:i + 1].tolist()
    t63 = t0 + (level - v0) * (t1 - t0) / (v1 - v0)
    if not math.isfinite(t63):
        raise ValidationError(f"the {RESPONSE_FRACTION:.1%} crossing between {v0:g} at "
                              f"t={t0:g} s and {v1:g} at t={t1:g} s overflows a float")

    peak_idx = int(np.argmax(values))
    return ResponseReport(baseline=baseline, final=final, t63=t63,
                          peak_value=float(values[peak_idx]),
                          peak_time=float(times[peak_idx]))


# a range that overflows to inf is not under any threshold, as it should not be
@np.errstate(over="ignore")
def plateau_value(series: MeasurementSeries, threshold: float,
                  window: float) -> tuple[float, float]:
    """Earliest window of the given length whose value range stays under
    the threshold; returns (mean over that window, window start time).

    Windows are anchored at sample times and include every sample in
    [t, t + window].

    The scan is O(n log n) in the number of samples, not O(n x window).
    It takes the anchors in blocks of at least _ANCHOR_BLOCK, and at least
    as many as the block's first window holds, and stops at the first
    block that holds a flat window. Within a block one searchsorted finds
    every window end, and each window's max and min come from two
    overlapping power-of-two runs of samples (the sparse-table range query
    of Bender & Farach-Colton, "The LCA problem revisited", LATIN 2000),
    built one level at a time over the block's anchors and its last
    window. Each block starts at or past its predecessor's first window
    end, so a sample falls in at most two blocks. A block in which no
    window's first and last samples differ by less than the threshold is
    skipped without a table: the rounded range max - min is at least the
    rounded gap between those two. Max and min are exact, so the result
    equals a window-by-window scan. A flat window whose mean overflows a
    float is a ValidationError.
    """
    if not threshold > 0.0:
        raise ValidationError(f"threshold must be > 0, got {threshold!r}")
    if not window > 0.0:
        raise ValidationError(f"window must be > 0, got {window!r}")
    if series.span + _TIME_EPS < window:
        raise ValidationError(
            f"series span {series.span:g} s is shorter than the window {window:g} s")

    times, values = series.times, series.values
    last_anchor = times[-1] - window
    n_anchors = int(np.searchsorted(times, last_anchor + _TIME_EPS, side="right"))
    start = 0
    while start < n_anchors:
        first_end = int(np.searchsorted(times, times[start] + window + _TIME_EPS,
                                        side="right"))
        stop = min(max(start + _ANCHOR_BLOCK, first_end), n_anchors)
        ends = np.searchsorted(times, times[start:stop] + window + _TIME_EPS, side="right")
        ends -= start
        block = values[start:start + ends[-1]]
        # a window's range is at least the gap between its end samples, so
        # a block in which every gap reaches the threshold holds no flat window
        if (abs(block[ends - 1] - block[:len(ends)]) < threshold).any():
            flat = _flat_windows(block, ends, threshold)
            if flat.any():
                i = int(np.argmax(flat))
                mean = float(block[i:ends[i]].mean())
                if not math.isfinite(mean):
                    raise ValidationError(f"the mean of the flat window at "
                                          f"t={times[start + i]:g} s overflows a float")
                return mean, float(times[start + i])
        start = stop
    raise ValidationError(f"no {window:g} s window stays within {threshold:g}")


def _flat_windows(values: np.ndarray, ends: np.ndarray, threshold: float) -> np.ndarray:
    """Whether the range of values[i:ends[i]] is below threshold, for each i
    in range(len(ends))."""
    starts = np.arange(len(ends))
    # window [i, j) is covered by the runs of 2**k samples at i and j - 2**k
    levels = np.frexp(ends - starts)[1] - 1
    counts = np.bincount(levels).tolist()
    flat = np.zeros(len(ends), dtype=bool)
    block_max = block_min = values
    for k, count in enumerate(counts):
        if k:
            half = 1 << (k - 1)
            block_max = np.maximum(block_max[:-half], block_max[half:])
            block_min = np.minimum(block_min[:-half], block_min[half:])
        if not count:
            continue
        lo = starts[levels == k]
        hi = ends[lo] - (1 << k)
        flat[lo] = (np.maximum(block_max[lo], block_max[hi])
                    - np.minimum(block_min[lo], block_min[hi])) < threshold
    return flat


def normalize_curve(series: MeasurementSeries, plateau: float) -> MeasurementSeries:
    """Affine rescale sending the first sample to 0 and the plateau to 1. A
    rescaled value beyond the float range is a ValidationError."""
    start = float(series.values[0])
    swing = plateau - start
    if swing == 0.0:
        raise ValidationError("plateau equals the initial value: normalization degenerate")
    with np.errstate(over="ignore", invalid="ignore"):
        values = (series.values - start) / swing
    if not (math.isfinite(swing) and np.isfinite(values).all()):
        raise ValidationError(f"rescaling by the swing from {start:g} to the plateau "
                              f"{plateau:g} overflows a float")
    return MeasurementSeries(series.times, values, unit=series.unit)


def cooling_fit(series: MeasurementSeries, ambient: float) -> tuple[float, float]:
    """Newton-cooling fit of a decaying series: least squares on
    log(value - ambient) against time. Returns (tau_s, r_squared). The
    ambient must be finite, and so must each value - ambient and the sum of
    the squared times, which the least-squares solve scales by."""
    if not math.isfinite(ambient):
        raise ValidationError(f"ambient must be finite, got {ambient!r}")
    times, values = series.times, series.values
    if not np.all(values > ambient):
        raise ValidationError(
            "all values must sit strictly above ambient for a log-domain fit")
    with np.errstate(over="ignore"):
        excess = values - ambient
        squares = (times * times).sum()
    if not np.isfinite(excess).all():
        raise ValidationError(
            f"a value minus the ambient {ambient:g} overflows a float")
    if not math.isfinite(squares):
        raise ValidationError("the squared series times overflow a float")
    logs = np.log(excess)
    slope, intercept = np.polyfit(times, logs, 1)
    if slope >= 0.0:
        raise ValidationError("series is not decaying toward ambient")
    residuals = logs - (slope * times + intercept)
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float((residuals ** 2).sum()) / ss_tot
    return -1.0 / float(slope), r_squared


def cycle_degradation(peak_angles) -> list[float]:
    """Per-cycle peaks normalized by the first cycle's peak. Every peak must
    be finite, and so must every ratio."""
    peaks = [float(p) for p in peak_angles]
    if not peaks:
        raise ValidationError("peak list must not be empty")
    for p in peaks:
        if not math.isfinite(p):
            raise ValidationError(f"peaks must be finite, got {p!r}")
    if peaks[0] <= 0.0:
        raise ValidationError(f"first peak must be > 0, got {peaks[0]!r}")
    first = peaks[0]
    ratios = [p / first for p in peaks]
    if not all(map(math.isfinite, ratios)):
        raise ValidationError(f"a peak over the first peak {first:g} overflows a float")
    return ratios


def cycle_peaks(series: MeasurementSeries) -> list[float]:
    """Peak value of each actuation cycle in a multi-cycle series.

    A cycle opens when the signal climbs above baseline + _RISE_FRACTION of
    the global swing and closes when it falls back below baseline +
    _RETURN_FRACTION of the swing. Intended for repeated on/off records
    where the signal returns near its starting value between cycles.
    """
    values = series.values.tolist()
    baseline = values[0]
    swing = max(values) - baseline
    if swing <= 0.0:
        raise ValidationError("series never rises above its first sample")
    rise_level = baseline + _RISE_FRACTION * swing
    return_level = baseline + _RETURN_FRACTION * swing

    peaks: list[float] = []
    current: float | None = None
    for v in values:
        if current is None:
            if v >= rise_level:
                current = v
        else:
            current = max(current, v)
            if v <= return_level:
                peaks.append(current)
                current = None
    if current is not None:
        peaks.append(current)
    return peaks
