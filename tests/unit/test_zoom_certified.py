"""Differential suite: the certified zoom refinement == the full-basis zoom.

``estimate_range_zoom`` screens every zoom candidate with a factorised
basis whose error is bounded, then computes exact responses only for the
candidates the bound cannot rule out (and their neighbours).  Its estimates
must equal ``reference_estimate_range_zoom`` (one freshly built full basis
and one GEMV per chirp) **bitwise**, and the two numerical facts that make
that hold are checked here on the alphabet's chirp lengths:

- each row of a GEMV over two or more basis rows equals the same row of
  the full basis GEMV, while a one-row product need not (it goes to a
  different BLAS routine), so the exact step never uses one;
- the screen is within its documented bound of the exact response.

The one intended difference: a row with a NaN or inf sample has no peak
and yields ``nan`` (the reference returns the grid's low edge).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import SPEED_OF_LIGHT
from repro.core.cssk import CsskAlphabet, DecoderDesign
from repro.radar import range_processing
from repro.radar.config import XBAND_9GHZ
from repro.radar.range_processing import (
    _screen_zoom_responses,
    _zoom_basis,
    estimate_range_zoom,
)
from repro.utils.dsp import _make_window
from repro.waveform.parameters import ChirpParameters
from test_radar_oracle import reference_estimate_range_zoom

FS = XBAND_9GHZ.if_sample_rate_hz
ZOOM = dict(zoom_width_m=0.4, zoom_points=161)


def _alphabet_chirps():
    """Every distinct chirp of the paper alphabet (header + data symbols)."""
    alphabet = CsskAlphabet.design(
        bandwidth_hz=1e9,
        decoder=DecoderDesign.from_inches(45.0),
        symbol_bits=5,
        chirp_period_s=120e-6,
        min_chirp_duration_s=20e-6,
    )
    durations = [alphabet.header_duration_s] + [
        alphabet.data_symbol_duration_s(s) for s in range(alphabet.num_data_symbols)
    ]
    return [
        ChirpParameters(
            start_frequency_hz=XBAND_9GHZ.start_frequency_hz,
            bandwidth_hz=alphabet.bandwidth_hz,
            duration_s=duration,
        )
        for duration in durations
    ]


CHIRPS = _alphabet_chirps()


def _length(chirp):
    return int(round(chirp.duration_s * FS))


def _tone(chirp, range_m, *, amplitude=1.0):
    n = np.arange(_length(chirp))
    return amplitude * np.exp(2j * np.pi * chirp.beat_frequency_for_range(range_m) * n / FS)


def _grid(chirp, coarse_range_m, *, zoom_width_m=0.4, zoom_points=161):
    """The reference's candidate ranges and beats."""
    low = max(coarse_range_m - zoom_width_m, 1e-3)
    ranges = np.linspace(low, coarse_range_m + zoom_width_m, zoom_points)
    return ranges, 2.0 * chirp.slope_hz_per_s * ranges / SPEED_OF_LIGHT


def _exact_response(row, chirp, coarse_range_m, window="hann", **zoom):
    _, beats = _grid(chirp, coarse_range_m, **zoom)
    weighted = row * _make_window(window, row.size)
    return np.abs(_zoom_basis(beats, np.arange(row.size), FS) @ weighted)


def assert_matches_reference(rows, chirp, **kwargs):
    rows = np.atleast_2d(rows)
    stacked = estimate_range_zoom(rows, chirp, FS, **kwargs)
    assert stacked.shape == (rows.shape[0],)
    for row, estimate in zip(rows, stacked):
        single = estimate_range_zoom(row, chirp, FS, **kwargs)
        want = reference_estimate_range_zoom(row, chirp, FS, **kwargs)
        # An overflowing row's parabolic offset is nan in both.
        assert np.array_equal([float(estimate), single], [want, want], equal_nan=True)


# ---------------------------------------------------------------------------
# The numerical assumptions
# ---------------------------------------------------------------------------


class TestNumericalAssumptions:
    @pytest.mark.parametrize("chirp", CHIRPS, ids=_length)
    def test_multi_row_gemv_rows_equal_full_gemv_rows(self, chirp):
        # The exact basis spans the union of a stack's bands, so a product
        # can have any number of rows from two up to every candidate.
        rng = np.random.default_rng(_length(chirp))
        n = np.arange(_length(chirp))
        for coarse in rng.uniform(0.5, 8.0, 3):
            _, beats = _grid(chirp, coarse)
            basis = _zoom_basis(beats, n, FS)
            row = (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)) * (
                _make_window("hann", n.size)
            )
            full = basis @ row
            for size in range(2, beats.size + 1):
                start = int(rng.integers(0, beats.size - size + 1))
                for columns in (
                    np.arange(start, start + size),
                    np.sort(rng.choice(beats.size, size, replace=False)),
                ):
                    # The basis is elementwise, so its rows are the full
                    # basis's rows (checked on a few sizes to keep this fast).
                    sub = basis[columns]
                    if size % 20 == 2:
                        assert np.array_equal(_zoom_basis(beats[columns], n, FS), sub)
                    assert np.array_equal(sub @ row, full[columns])

    def test_exact_products_never_use_one_row(self, monkeypatch):
        shapes = []

        def recording_basis(beats, n, sample_rate_hz):
            basis = _zoom_basis(beats, n, sample_rate_hz)
            shapes.append((basis.shape, n.size))
            return basis

        monkeypatch.setattr(range_processing, "_zoom_basis", recording_basis)
        rng = np.random.default_rng(3)
        for chirp in CHIRPS:
            length = _length(chirp)
            for range_m in (0.6, 3.05, 3.399, 7.7):
                rows = _tone(chirp, range_m) + 0.5 * rng.standard_normal((3, length))
                shapes.clear()
                estimate_range_zoom(rows, chirp, FS, coarse_range_m=3.0, **ZOOM)
                exact = [shape for shape, size in shapes if shape[1] == length]
                assert exact and all(rows_ >= 2 for rows_, _ in exact)

    @pytest.mark.parametrize("chirp", CHIRPS, ids=_length)
    def test_screen_error_within_bound(self, chirp):
        rng = np.random.default_rng(100 + _length(chirp))
        length = _length(chirp)
        n = np.arange(length)
        win = _make_window("hann", length)
        rows = np.vstack(
            [
                _tone(chirp, 3.02) + 0.1 * rng.standard_normal(length),
                _tone(chirp, 6.5, amplitude=1e-9) + _tone(chirp, 2.2, amplitude=1e6),
                rng.standard_normal(length) + 1j * rng.standard_normal(length),
                1e-300 * rng.standard_normal(length),
            ]
        )
        for coarse in (0.2, 3.0, 6.4, 40.0):
            _, beats = _grid(chirp, coarse)
            screen, bound = _screen_zoom_responses(rows, win, beats, FS)
            exact = np.abs(_zoom_basis(beats, n, FS) @ (rows * win).T).T
            assert np.all(np.abs(screen - exact) <= bound[:, None])


# ---------------------------------------------------------------------------
# Certified zoom against the full-basis reference
# ---------------------------------------------------------------------------


def _record_exact_basis_rows(monkeypatch, length):
    """Record the row count of every exact (length-``length``) zoom basis."""
    exact_rows = []

    def recording_basis(beats, n, sample_rate_hz):
        if n.size == length:
            exact_rows.append(beats.size)
        return _zoom_basis(beats, n, sample_rate_hz)

    monkeypatch.setattr(range_processing, "_zoom_basis", recording_basis)
    return exact_rows


def _bisected_tie(chirp, coarse_range_m):
    """A tone whose exact responses at two adjacent candidates tie bitwise.

    Bisects the tone's range between two candidates until the exact
    argmax flips between adjacent floats, trying candidate pairs in turn
    until the lower end is an exact tie.
    """
    ranges, _ = _grid(chirp, coarse_range_m)
    for k in range(60, 100):
        lo, hi = ranges[k], ranges[k + 1]

        def picks_k(range_m):
            response = _exact_response(_tone(chirp, range_m), chirp, coarse_range_m)
            return int(np.argmax(response)) == k

        assert picks_k(lo) and not picks_k(hi)
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if picks_k(mid):
                lo = mid
            else:
                hi = mid
        response = _exact_response(_tone(chirp, lo), chirp, coarse_range_m)
        if response[k] == response[k + 1]:
            return _tone(chirp, lo), k
    raise AssertionError("no exact two-candidate tie found")


class TestCertifiedZoom:
    @pytest.mark.parametrize("chirp", [CHIRPS[0], CHIRPS[5]], ids=_length)
    def test_exact_two_candidate_tie_takes_the_first(self, chirp):
        row, k = _bisected_tie(chirp, 3.0)
        ranges, _ = _grid(chirp, 3.0)
        assert_matches_reference(row, chirp, coarse_range_m=3.0, **ZOOM)
        # The first of the tied pair is the peak, refined half a step up.
        estimate = estimate_range_zoom(row, chirp, FS, coarse_range_m=3.0, **ZOOM)
        assert estimate == pytest.approx(ranges[k] + 0.5 * (ranges[1] - ranges[0]))

    @pytest.mark.parametrize("range_m, edge", [(1.45, 1.6), (2.55, 2.4)])
    def test_peak_at_either_grid_edge(self, range_m, edge):
        # A tone just outside the zoom window peaks at the nearer edge,
        # where no parabolic refinement applies.
        chirp = CHIRPS[3]
        rows = np.vstack([_tone(chirp, range_m), 0.5 * _tone(chirp, range_m)])
        assert_matches_reference(rows, chirp, coarse_range_m=2.0, **ZOOM)
        estimates = estimate_range_zoom(rows, chirp, FS, coarse_range_m=2.0, **ZOOM)
        assert estimates.tolist() == pytest.approx([edge, edge], abs=1e-12)

    @pytest.mark.parametrize("window", ["hann", "rect"])
    def test_eight_zoom_points(self, window):
        chirp = CHIRPS[10]
        rng = np.random.default_rng(8)
        rows = _tone(chirp, 3.11) + 0.3 * rng.standard_normal((5, _length(chirp)))
        assert_matches_reference(
            rows, chirp, coarse_range_m=3.0, zoom_width_m=0.3, zoom_points=8, window=window
        )

    @pytest.mark.parametrize("zoom_points", [8, 161])
    def test_all_zero_rows(self, zoom_points):
        chirp = CHIRPS[0]
        rows = np.zeros((3, _length(chirp)), dtype=complex)
        rows[1] = _tone(chirp, 3.2)
        assert_matches_reference(
            rows, chirp, coarse_range_m=3.0, zoom_width_m=0.4, zoom_points=zoom_points
        )

    def test_noise_only_rows_stay_certified(self, monkeypatch):
        chirp = CHIRPS[20]
        length = _length(chirp)
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((4, length)) + 1j * rng.standard_normal((4, length))
        exact_rows = _record_exact_basis_rows(monkeypatch, length)
        assert_matches_reference(rows, chirp, coarse_range_m=4.0, **ZOOM)
        assert exact_rows and max(exact_rows) < ZOOM["zoom_points"]

    @pytest.mark.parametrize(
        "amplitude, screen_finite", [(3e306, True), (1e308, False)], ids=["bound", "screen"]
    )
    def test_overflowing_noise_row_takes_every_candidate(
        self, monkeypatch, amplitude, screen_finite
    ):
        # A noise-only row so large that its bound overflows (or its screen
        # too) cannot rule out any candidate: its band is the whole grid,
        # so the one exact basis is the full basis, and the tone stacked
        # with it is scored over every candidate as well.
        chirp = CHIRPS[20]
        length = _length(chirp)
        rng = np.random.default_rng(11)
        noise = amplitude * np.exp(2j * np.pi * rng.random(length))
        rows = np.vstack([noise, _tone(chirp, 4.1)])
        win = _make_window("hann", length)
        _, beats = _grid(chirp, 4.0)
        with np.errstate(over="ignore", invalid="ignore"):
            screen, bound = _screen_zoom_responses(rows, win, beats, FS)
            assert np.isinf(bound[0]) and np.isfinite(bound[1])
            assert np.isfinite(screen[0]).all() == screen_finite
            exact_rows = _record_exact_basis_rows(monkeypatch, length)
            assert_matches_reference(rows, chirp, coarse_range_m=4.0, **ZOOM)
            estimates = estimate_range_zoom(rows, chirp, FS, coarse_range_m=4.0, **ZOOM)
        assert ZOOM["zoom_points"] in exact_rows
        assert estimates[1] == pytest.approx(4.1, abs=0.01)

    def test_stacked_rows_with_different_peaks(self):
        chirp = CHIRPS[0]
        rng = np.random.default_rng(12)
        length = _length(chirp)
        rows = np.vstack(
            [_tone(chirp, r) for r in (2.65, 2.9, 3.0004, 3.21, 3.39, 5.0)]
        ) + 0.05 * rng.standard_normal((6, length))
        assert_matches_reference(rows, chirp, coarse_range_m=3.0, **ZOOM)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf * 1j])
    def test_non_finite_row_has_no_estimate(self, bad):
        chirp = CHIRPS[0]
        row = _tone(chirp, 3.0)
        row[17] = bad
        rows = np.vstack([row, _tone(chirp, 3.0)])
        with np.errstate(invalid="ignore"):
            assert np.isnan(estimate_range_zoom(row, chirp, FS, coarse_range_m=3.0, **ZOOM))
            estimates = estimate_range_zoom(rows, chirp, FS, coarse_range_m=3.0, **ZOOM)
        assert np.isnan(estimates[0])
        assert estimates[1] == reference_estimate_range_zoom(
            rows[1], chirp, FS, coarse_range_m=3.0, **ZOOM
        )
        assert estimates[1] == pytest.approx(3.0, abs=0.01)

    @settings(max_examples=40, deadline=None)
    @given(
        chirp=st.sampled_from(CHIRPS),
        coarse_range_m=st.floats(0.3, 9.0),
        offsets=st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=4),
        noise=st.sampled_from([0.0, 0.1, 1.0, 30.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_rows(self, chirp, coarse_range_m, offsets, noise, seed):
        rng = np.random.default_rng(seed)
        length = _length(chirp)
        rows = np.vstack(
            [_tone(chirp, max(coarse_range_m + o, 0.05)) for o in offsets]
        ) + noise * (
            rng.standard_normal((len(offsets), length))
            + 1j * rng.standard_normal((len(offsets), length))
        )
        assert_matches_reference(rows, chirp, coarse_range_m=coarse_range_m, **ZOOM)
