import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phototherm import (
    MeasurementSeries,
    MetricError,
    NoCrossingError,
    NoPlateauError,
    RESPONSE_FRACTION,
    Trajectory,
    ValidationError,
    cooling_fit,
    cycle_degradation,
    cycle_peaks,
    normalize_curve,
    plateau_value,
    response_time_63,
    series_from_trajectory,
)
import phototherm.metrics as metrics_module
from phototherm.metrics import _TIME_EPS
from conftest import forward_trajectory, traced_peak

TAU = 113.75
SWING = 10.625
AMBIENT = 298.0


def first_order_series(step=0.1, span=300.0, tau=TAU, swing=SWING, base=AMBIENT):
    t = np.arange(0.0, span + step / 2, step)
    return MeasurementSeries(tuple(t), tuple(base + swing * (1 - np.exp(-t / tau))))


class TestMeasurementSeries:
    def test_rejects_short_series(self):
        with pytest.raises(ValidationError):
            MeasurementSeries((0.0,), (1.0,))

    def test_rejects_non_monotone_times(self):
        with pytest.raises(ValidationError):
            MeasurementSeries((0.0, 1.0, 1.0), (1.0, 2.0, 3.0))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            MeasurementSeries((0.0, 1.0), (1.0, float("nan")))

    @pytest.mark.parametrize("bad", (math.inf, -math.inf))
    def test_rejects_infinite_time(self, bad):
        with pytest.raises(ValidationError, match="times must be finite"):
            MeasurementSeries((0.0, bad), (1.0, 2.0))

    @pytest.mark.parametrize("bad", (math.inf, -math.inf))
    def test_rejects_infinite_value(self, bad):
        with pytest.raises(ValidationError, match="values must be finite"):
            MeasurementSeries((0.0, 1.0), (bad, 2.0))

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValidationError):
            MeasurementSeries((0.0, 1.0), (1.0, 2.0), unit="F")

    @pytest.mark.parametrize("container", (list, np.array), ids=("list", "array"))
    def test_columns_are_read_only_float64_copies(self, container):
        times, values, lig = (container([0.0, 0.5, 2.0]), container([1.0, -0.0, 3.5]),
                              container([4.0, 5.0, 6.0]))
        series = MeasurementSeries(times, values)
        trajectory = Trajectory(times, values, lig)
        columns = (series.times, series.values,
                   trajectory.times, trajectory.silicone, trajectory.lig)
        for column in columns:
            assert column.dtype == np.float64
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 7.0
        times[0] = values[1] = lig[2] = 9.0  # the caller's columns change later
        assert repr(series.times.tolist()) == repr(trajectory.times.tolist()) == "[0.0, 0.5, 2.0]"
        assert repr(series.values.tolist()) == repr(trajectory.silicone.tolist()) \
            == "[1.0, -0.0, 3.5]"
        assert trajectory.lig.tolist() == [4.0, 5.0, 6.0]


class TestResponseTime:
    def test_window_final_on_first_order_curve(self):
        # analytic inversion of the exponential with the window-final level:
        # t63 = -tau ln(1 - 0.632 (1 - e^(-300/tau))) = 100.5296 s
        series = first_order_series()
        report = response_time_63(series, window=300.0)
        assert report.t63 == pytest.approx(100.5296, abs=0.01)
        assert report.t63 == pytest.approx(100.4, abs=0.2)
        assert report.baseline == AMBIENT
        assert report.final == pytest.approx(AMBIENT + SWING * (1 - math.exp(-300 / TAU)),
                                             abs=1e-6)

    def test_supplied_final_recovers_time_constant(self):
        # with the asymptote supplied, t63 = -tau ln(1 - 0.632) = 113.7127 s
        series = first_order_series(span=600.0)
        report = response_time_63(series, final=AMBIENT + SWING)
        assert report.t63 == pytest.approx(113.7127, abs=0.01)
        assert report.t63 == pytest.approx(113.75, abs=0.2)

    def test_constant_series_has_no_crossing(self):
        series = MeasurementSeries((0.0, 1.0, 2.0), (5.0, 5.0, 5.0), unit="deg")
        with pytest.raises(NoCrossingError):
            response_time_63(series, window=2.0)

    def test_window_longer_than_span_rejected(self):
        series = first_order_series(span=100.0)
        with pytest.raises(ValidationError):
            response_time_63(series, window=200.0)

    def test_falling_series_crossing(self):
        # recovery curve: decays from 10 toward 0 with tau = 20 s
        t = np.arange(0.0, 120.0, 0.1)
        series = MeasurementSeries(tuple(t), tuple(10.0 * np.exp(-t / 20.0)),
                                   unit="deg")
        report = response_time_63(series, window=100.0)
        # level = 10 + 0.632 (final - 10); analytic crossing of the decay
        final = 10.0 * math.exp(-100.0 / 20.0)
        level = 10.0 + RESPONSE_FRACTION * (final - 10.0)
        expected = -20.0 * math.log(level / 10.0)
        assert report.t63 == pytest.approx(expected, abs=0.01)

    def test_plateau_convention(self):
        t = np.concatenate([np.arange(0.0, 50.0, 0.5), np.arange(50.0, 100.0, 0.5)])
        v = np.concatenate([np.linspace(0.0, 51.7, 100), np.full(100, 51.7)])
        series = MeasurementSeries(tuple(t), tuple(v), unit="deg")
        report = response_time_63(series,
                                  final=plateau_value(series, threshold=1.0, window=20.0)[0])
        assert report.final == pytest.approx(51.7, abs=0.15)
        assert report.peak_value == pytest.approx(51.7)

    def test_supplied_needs_final(self):
        with pytest.raises(ValidationError):
            response_time_63(first_order_series())

    def test_window_and_final_together_rejected(self):
        with pytest.raises(ValidationError, match="exactly one of window and final"):
            response_time_63(first_order_series(), window=300.0, final=AMBIENT + SWING)

    @pytest.mark.parametrize("window", [0.0, -5.0, math.nan, math.inf, -math.inf])
    def test_bad_window_rejected_by_name(self, window):
        # 0 and -5 once read the baseline as the final, and nan a nan level
        with pytest.raises(ValidationError,
                           match=rf"^window must be finite and > 0, got {window!r}$"):
            response_time_63(first_order_series(), window=window)

    @pytest.mark.parametrize("final", [math.nan, math.inf, -math.inf])
    def test_non_finite_final_rejected_by_name(self, final):
        with pytest.raises(ValidationError, match=rf"^final must be finite, got {final!r}$"):
            response_time_63(first_order_series(), final=final)

    @given(gain=st.floats(0.01, 100.0), offset=st.floats(-500.0, 500.0))
    @settings(max_examples=60)
    def test_affine_invariance(self, gain, offset):
        t = tuple(np.arange(0.0, 60.0, 0.5))
        base = tuple(298.0 + 5.0 * (1 - math.exp(-x / 15.0)) for x in t)
        plain = MeasurementSeries(t, base)
        mapped = MeasurementSeries(t, tuple(gain * v + offset for v in base))
        t_plain = response_time_63(plain, window=60.0 - 0.5).t63
        t_mapped = response_time_63(mapped, window=60.0 - 0.5).t63
        assert t_mapped == pytest.approx(t_plain, abs=1e-6)

    def test_shorter_window_never_lengthens_t63(self):
        series = first_order_series()
        windows = [300.0, 250.0, 200.0, 150.0, 100.0]
        t63s = [response_time_63(series, window=w).t63 for w in windows]
        assert all(b <= a + 1e-12 for a, b in zip(t63s, t63s[1:]))


class TestPlateau:
    def test_constant_series_plateaus_immediately(self):
        t = tuple(np.arange(0.0, 60.0, 1.0))
        series = MeasurementSeries(t, tuple(51.7 for _ in t), unit="deg")
        value, reach = plateau_value(series, threshold=1.0, window=20.0)
        assert value == pytest.approx(51.7)
        assert reach == 0.0

    def test_first_order_curve_analytic_reach(self):
        # range over [t, t+30] is swing e^(-t/tau) (1 - e^(-30/tau));
        # solving range < 0.1 analytically gives t* = 364.46 s, so the first
        # qualifying 1 Hz anchor is 365 s with window mean 308.2476 K
        series = first_order_series(step=1.0, span=600.0)
        value, reach = plateau_value(series, threshold=0.1, window=30.0)
        assert reach == pytest.approx(365.0, abs=1.0)
        assert value == pytest.approx(308.2476, abs=1e-3)

    def test_nested_window_monotonicity(self):
        series = first_order_series(step=1.0, span=600.0)
        _, reach20 = plateau_value(series, threshold=0.5, window=20.0)
        _, reach30 = plateau_value(series, threshold=0.5, window=30.0)
        assert reach30 >= reach20

    def test_threshold_monotonicity(self):
        series = first_order_series(step=1.0, span=600.0)
        _, loose = plateau_value(series, threshold=1.0, window=30.0)
        _, tight = plateau_value(series, threshold=0.1, window=30.0)
        assert tight >= loose

    def test_no_plateau_on_steep_ramp(self):
        t = tuple(np.arange(0.0, 100.0, 1.0))
        series = MeasurementSeries(t, tuple(2.0 * x for x in t), unit="deg")
        with pytest.raises(NoPlateauError):
            plateau_value(series, threshold=1.0, window=10.0)

    def test_window_beyond_span_rejected(self):
        series = first_order_series(span=20.0)
        with pytest.raises(ValidationError):
            plateau_value(series, threshold=1.0, window=30.0)


def plateau_oracle(series, threshold, window):
    """plateau_value as a window-by-window scan, O(samples x window): the
    reference the sparse-table scan must match bit for bit."""
    times, values = series.times, series.values
    last_anchor = float(times[-1]) - window
    for i, t0 in enumerate(times.tolist()):
        if t0 > last_anchor + _TIME_EPS:
            break
        j = int(np.searchsorted(times, t0 + window + _TIME_EPS, side="right"))
        chunk = values[i:j]
        if float(chunk.max()) - float(chunk.min()) < threshold:
            return float(chunk.mean()), t0
    raise NoPlateauError(
        f"no {window:g} s window stays within {threshold:g}")


@st.composite
def uneven_series(draw):
    """Strictly increasing, non-uniform time stamps; coarse values so that
    ties and flat stretches occur. Large start times make one ulp of time
    comparable to the window bookkeeping's _TIME_EPS."""
    steps = draw(st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=80))
    t0 = draw(st.one_of(st.floats(-100.0, 100.0), st.sampled_from([1e6, 1e7, 3e7])))
    times = list(np.cumsum([t0] + steps))
    assume(all(a < b for a, b in zip(times, times[1:])))
    grain = draw(st.sampled_from([1.0, 0.25, 1e-3]))
    values = draw(st.lists(st.integers(-20, 20), min_size=len(times),
                           max_size=len(times)))
    return MeasurementSeries(tuple(times), tuple(grain * v for v in values))


class TestPlateauOracle:
    # plateau_value scans anchors in blocks of at least _ANCHOR_BLOCK: 3
    # puts block edges, windows longer than a block and plateaus in a late
    # block into the drawn series
    @pytest.mark.parametrize("anchor_block", (3, metrics_module._ANCHOR_BLOCK))
    @given(series=uneven_series(),
           window_kind=st.sampled_from(["fraction", "span", "gap"]),
           fraction=st.floats(1e-3, 1.0),
           pair=st.tuples(st.integers(0, 80), st.integers(0, 80)),
           threshold=st.one_of(st.floats(1e-6, 50.0), st.sampled_from([0.25, 1.0, 2.0])))
    @settings(max_examples=400, deadline=None)
    @example(series=MeasurementSeries((0.466, 9.899), (1.0, 1.0)), window_kind="span",
             fraction=1.0, pair=(0, 1), threshold=1.0)  # span rounds: the anchor needs _TIME_EPS
    @example(series=MeasurementSeries(range(10), (0, 5, 10, 15, 20, 25, 30, 30, 30, 30)),
             window_kind="fraction", fraction=2 / 9, pair=(0, 0),
             threshold=1.0)  # flat only in the last block of 3
    @example(series=MeasurementSeries(range(12), (0, 1) * 6), window_kind="fraction",
             fraction=3 / 11, pair=(0, 0), threshold=1.0)  # every range equals the threshold
    @example(series=MeasurementSeries(range(40), range(40)), window_kind="fraction",
             fraction=10 / 39, pair=(0, 0), threshold=1.0)  # no plateau; windows of 11
    def test_matches_window_scan(self, anchor_block, series, window_kind, fraction, pair,
                                 threshold):
        times = series.times
        if window_kind == "span":  # a single anchor
            window = series.span
        elif window_kind == "gap":  # the window ends exactly on a sample
            i, j = sorted(k % len(times) for k in pair)
            assume(i < j)
            window = times[j] - times[i]
        else:
            window = fraction * series.span
        assume(window > 0.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics_module, "_ANCHOR_BLOCK", anchor_block)
            try:
                expected = plateau_oracle(series, threshold, window)
            except NoPlateauError:
                with pytest.raises(NoPlateauError):
                    plateau_value(series, threshold, window)
                return
            assert repr(plateau_value(series, threshold, window)) == repr(expected)


def test_forward_plateau_scan_stops_early_in_small_blocks():
    # the scan builds a sparse table per block of anchors and stops at the
    # first flat window, at about 170 s of the 400 s run. One table over all
    # 40 001 samples peaked at 3 247 325 B here
    series = series_from_trajectory(forward_trajectory())
    assert traced_peak(lambda: plateau_value(series, 0.5, 20.0)) <= 512 * 2 ** 10


def crossing_oracle(series, level, rising):
    """The t63 crossing as a sample-by-sample loop."""
    values, times = series.values.tolist(), series.times.tolist()
    for i in range(1, len(values)):
        crossed = values[i] >= level if rising else values[i] <= level
        if crossed:
            v0, v1 = values[i - 1], values[i]
            t0, t1 = times[i - 1], times[i]
            return t0 + (level - v0) * (t1 - t0) / (v1 - v0)
    return None


class TestResponseTimeOracle:
    @given(series=uneven_series(), final=st.floats(-30.0, 30.0))
    @settings(max_examples=300, deadline=None)
    def test_crossing_matches_loop(self, series, final):
        baseline = float(series.values[0])
        assume(final != baseline)
        level = baseline + RESPONSE_FRACTION * (final - baseline)
        expected = crossing_oracle(series, level, final > baseline)
        if expected is None:
            with pytest.raises(NoCrossingError):
                response_time_63(series, final=final)
            return
        report = response_time_63(series, final=final)
        assert repr(report.t63) == repr(expected)


class TestNormalize:
    def test_affine_map_endpoints(self):
        series = MeasurementSeries((0.0, 1.0, 2.0), (0.0, 25.85, 51.7), unit="deg")
        normalized = normalize_curve(series, plateau=51.7)
        assert normalized.values.tolist() == [0.0, 0.5, 1.0]

    def test_already_normalized_is_identity(self):
        series = MeasurementSeries((0.0, 1.0, 2.0), (0.0, 0.5, 1.0), unit="deg")
        assert normalize_curve(series, plateau=1.0).values.tolist() == [0.0, 0.5, 1.0]

    def test_round_trip(self):
        values = (3.0, 8.5, 14.2, 17.0)
        series = MeasurementSeries((0.0, 1.0, 2.0, 3.0), values, unit="deg")
        normalized = normalize_curve(series, plateau=17.0)
        recovered = [v * (17.0 - 3.0) + 3.0 for v in normalized.values]
        assert recovered == pytest.approx(list(values), abs=1e-12)

    def test_degenerate_plateau_rejected(self):
        series = MeasurementSeries((0.0, 1.0), (5.0, 6.0), unit="deg")
        with pytest.raises(ValidationError):
            normalize_curve(series, plateau=5.0)


class TestCoolingFit:
    def test_recovers_synthetic_tau(self):
        t = np.arange(0.0, 300.0, 0.5)
        series = MeasurementSeries(tuple(t), tuple(298.0 + 20.0 * np.exp(-t / TAU)))
        tau, r2 = cooling_fit(series, ambient=298.0)
        assert tau == pytest.approx(TAU, abs=0.01)
        assert r2 > 0.9999

    def test_two_points_fit_exactly(self):
        series = MeasurementSeries((0.0, 10.0), (318.0, 308.0))
        tau, r2 = cooling_fit(series, ambient=298.0)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert tau == pytest.approx(10.0 / math.log(20.0 / 10.0), rel=1e-9)

    def test_value_at_ambient_rejected(self):
        series = MeasurementSeries((0.0, 1.0), (298.0, 299.0))
        with pytest.raises(ValidationError):
            cooling_fit(series, ambient=298.0)

    def test_rising_series_rejected(self):
        series = MeasurementSeries((0.0, 1.0, 2.0), (300.0, 305.0, 310.0))
        with pytest.raises(MetricError):
            cooling_fit(series, ambient=298.0)

    @given(tau=st.floats(5.0, 500.0), amplitude=st.floats(0.5, 100.0))
    @settings(max_examples=40)
    def test_recovers_generating_tau_to_a_tenth_percent(self, tau, amplitude):
        t = np.linspace(0.0, 2.0 * tau, 200)
        series = MeasurementSeries(tuple(t),
                                   tuple(298.0 + amplitude * np.exp(-t / tau)))
        fitted, r2 = cooling_fit(series, ambient=298.0)
        assert fitted == pytest.approx(tau, rel=1e-3)
        assert r2 > 0.9999


class TestCycles:
    def test_reported_three_cycle_ratios(self):
        ratios = cycle_degradation([51.7, 51.6, 50.7])
        assert ratios[0] == 1.0
        assert ratios[1] == pytest.approx(0.998, abs=5e-4)
        assert ratios[2] == pytest.approx(0.981, abs=5e-4)

    def test_fourth_cycle_ratio_matches_stated_percentage(self):
        ratios = cycle_degradation([51.7, 51.6, 50.7, 46.74])
        assert ratios[3] == pytest.approx(0.904, abs=5e-4)

    def test_singleton(self):
        assert cycle_degradation([42.0]) == [1.0]

    def test_degenerate_baseline_rejected(self):
        with pytest.raises(ValidationError):
            cycle_degradation([])
        with pytest.raises(ValidationError):
            cycle_degradation([0.0, 1.0])

    def test_always_starts_at_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            peaks = rng.uniform(0.5, 60.0, size=rng.integers(1, 9))
            assert cycle_degradation(peaks)[0] == 1.0


class TestCyclePeaks:
    @staticmethod
    def multi_cycle(peaks, period=60.0, step=0.5):
        tau_rise, tau_fall = 8.0, 5.0
        times, values = [], []
        t0 = 0.0
        for peak in peaks:
            on = np.arange(0.0, period / 2, step)
            off = np.arange(0.0, period / 2, step)
            rise = peak * (1 - np.exp(-on / tau_rise))
            top = rise[-1]
            fall = top * np.exp(-off / tau_fall)
            times.extend(t0 + on)
            values.extend(rise)
            times.extend(t0 + period / 2 + off)
            values.extend(fall)
            t0 += period
        return MeasurementSeries(tuple(times), tuple(values), unit="deg")

    def test_detects_each_cycle_peak(self):
        series = self.multi_cycle([51.7, 51.6, 50.7])
        peaks = cycle_peaks(series)
        assert len(peaks) == 3
        expected = [p * (1 - math.exp(-29.5 / 8.0)) for p in (51.7, 51.6, 50.7)]
        assert peaks == pytest.approx(expected, rel=1e-6)

    def test_single_cycle(self):
        series = self.multi_cycle([40.0])
        assert len(cycle_peaks(series)) == 1

    def test_flat_series_rejected(self):
        series = MeasurementSeries((0.0, 1.0, 2.0), (3.0, 3.0, 3.0), unit="deg")
        with pytest.raises(ValidationError):
            cycle_peaks(series)
