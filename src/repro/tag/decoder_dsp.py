"""Tag-side decoding DSP (paper Section 3.2.2, Fig. 6).

Pipeline over the raw ADC stream:

1. **Chirp-period estimation** — a large analysis window over the header
   field; the repeating chirp bursts make the energy envelope periodic at
   ``T_period``, found by autocorrelation (the "FFT across multiple header
   bits" of Fig. 6(c), realized time-domain for robustness).
2. **Slot alignment** — the first signal-energy edge anchors slot 0.
3. **Sync search** — per-slot classification until the sync-field run is
   found; payload begins at the slot after the last sync (Fig. 6(e):
   chirp-aligned windows no larger than a chirp).
4. **Symbol demodulation** — duration-aware single-bin DFT (Goertzel): each
   CSSK hypothesis is scored by correlating the DC-removed slot samples
   against its beat frequency over *its own* chirp duration, normalized so
   scores are duration-invariant.  This is the matched filter for the
   "tone of known duration" hypothesis set and is exactly the per-point
   Goertzel evaluation the paper recommends for the MCU.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from repro.core.cssk import CsskAlphabet
from repro.core.packet import PacketFields
from repro.errors import SyncError
from repro.tag.frontend import TagCapture
from repro.utils.dsp import SlidingWindowSpec, sliding_windows


@dataclass(frozen=True)
class PeriodEstimate:
    """Result of chirp-period estimation."""

    period_s: float
    first_chirp_start_s: float
    confidence: float


@dataclass(frozen=True)
class DecodedPacket:
    """Everything the tag recovered from one downlink packet."""

    bits: np.ndarray
    symbols: list[int]
    measured_beats_hz: np.ndarray
    period: PeriodEstimate
    payload_start_slot: int
    num_sync_slots_seen: int


class TagDecoder:
    """Decodes CSSK downlink packets from tag ADC captures.

    Parameters
    ----------
    alphabet:
        The CSSK alphabet (shared radar/tag configuration).
    fields:
        Expected preamble sizing.
    window_fraction:
        Fraction of each hypothesis' chirp duration used for correlation
        (slightly below 1 tolerates edge transients; Fig. 6(e)).
    clock_offset_ppm:
        Tag oscillator error relative to nominal.  The tag clocks its ADC
        (and hence its notion of every beat frequency) from the same
        drifted oscillator, so a ppm offset skews the whole hypothesis
        grid by ``1 / (1 + ppm * 1e-6)`` — small CFO costs a little
        correlation margin, CFO beyond one beat bin makes neighbouring
        symbols indistinguishable.  0 (the default) is bit-identical to
        the pre-drift decoder.
    """

    def __init__(
        self,
        alphabet: CsskAlphabet,
        *,
        fields: PacketFields | None = None,
        window_fraction: float = 1.0,
        clock_offset_ppm: float = 0.0,
    ) -> None:
        if not 0.1 < window_fraction <= 1.0:
            raise ValueError(f"window_fraction must be in (0.1, 1], got {window_fraction}")
        if not np.isfinite(clock_offset_ppm) or clock_offset_ppm * 1e-6 <= -1.0:
            raise ValueError(
                f"clock_offset_ppm must be finite and > -1e6, got {clock_offset_ppm}"
            )
        self.alphabet = alphabet
        self.fields = fields or PacketFields()
        self.window_fraction = window_fraction
        self.clock_offset_ppm = clock_offset_ppm

    # ------------------------------------------------------------------ period

    def estimate_period(
        self,
        capture: TagCapture,
        *,
        min_period_s: float | None = None,
        max_period_s: float | None = None,
        snap_tolerance: float = 0.08,
    ) -> PeriodEstimate:
        """Estimate the chirp period and first chirp start from the stream.

        Autocorrelates the smoothed energy envelope of the *header region*
        (the first ``header_repeats`` nominal periods, where the repeating
        header chirps make the envelope cleanly periodic — the "FFT across
        multiple header bits" of the paper, realized time-domain).  The
        protocol fixes the chirp period, so when the raw estimate lands
        within ``snap_tolerance`` of the configured period it snaps to the
        exact protocol value; the estimate still serves to *verify* the
        radar is transmitting the expected framing.
        """
        fs = capture.sample_rate_hz
        x = np.asarray(capture.samples, dtype=float)
        if x.size < 8:
            raise SyncError("capture too short for period estimation")
        nominal = self.alphabet.chirp_period_s
        first_start = self._first_energy_edge(x, fs)
        # Restrict to the header field: periodicity there is unpolluted by
        # the mixed-duration payload chirps.
        begin = int(first_start * fs)
        span = int((self.fields.header_repeats + 0.5) * nominal * fs)
        segment = x[begin : begin + span] if span <= x.size - begin else x[begin:]
        if segment.size < 8:
            raise SyncError("capture too short after the first energy edge")
        energy = segment**2
        # Smooth away the beat-tone ripple (periods of a few us) while
        # keeping the chirp on/off envelope (tens of us).
        smooth_n = max(int(0.05 * nominal * fs), 1)
        kernel = np.ones(smooth_n) / smooth_n
        envelope = np.convolve(energy, kernel, mode="same")
        envelope = envelope - envelope.mean()

        low = 0.7 * nominal if min_period_s is None else min_period_s
        high = 1.3 * nominal if max_period_s is None else max_period_s
        min_lag = max(int(low * fs), 1)
        max_lag = min(int(high * fs), envelope.size - 2)
        if max_lag <= min_lag:
            raise SyncError(
                f"capture of {x.size} samples cannot resolve periods in [{low}, {high}]s"
            )
        spectrum = np.fft.rfft(envelope, n=2 * envelope.size)
        autocorr = np.fft.irfft(np.abs(spectrum) ** 2)[: envelope.size]
        window = autocorr[min_lag : max_lag + 1]
        best = int(np.argmax(window))
        best_lag = min_lag + best
        if 0 < best < window.size - 1:
            from repro.utils.dsp import parabolic_peak_offset

            best_lag = best_lag + parabolic_peak_offset(
                window[best - 1], window[best], window[best + 1]
            )
        confidence = float(window.max() / autocorr[0]) if autocorr[0] > 0 else 0.0
        period = best_lag / fs
        if abs(period - nominal) <= snap_tolerance * nominal:
            period = nominal
        return PeriodEstimate(
            period_s=float(period),
            first_chirp_start_s=first_start,
            confidence=confidence,
        )

    def _first_energy_edge(self, x: np.ndarray, fs: float) -> float:
        """Time of the first sustained signal-energy rise."""
        block = max(int(0.05 * self.alphabet.chirp_period_s * fs), 4)
        num_blocks = x.size // block
        if num_blocks < 2:
            return 0.0
        blocks = x[: num_blocks * block].reshape(num_blocks, block)
        power = np.var(blocks, axis=1)
        floor = np.median(power)
        peak = power.max()
        if peak <= floor * 4.0:
            return 0.0
        threshold = floor + 0.25 * (peak - floor)
        above = np.where(power > threshold)[0]
        if above.size == 0:
            return 0.0
        return float(above[0] * block / fs)

    # ------------------------------------------------------------------ symbols

    @staticmethod
    def _slot_projector(beat_hz: float, n_on: int, n_slot: int, fs: float) -> np.ndarray:
        """(5 x n_slot) orthonormal projector for one CSSK hypothesis.

        The hypothesis signal model over a whole slot is a *gated* tone on
        a *gated* DC pedestal riding on an arbitrary slow baseline:
        ``x[n] = b0 + b1 n + (A_dc + A_c cos(w n) + A_s sin(w n)) *
        rect[n < n_on]`` plus noise.  The first two (full-slot constant and
        ramp) basis vectors absorb video-amplifier offset and thermal
        wander so they cannot masquerade as pedestal evidence; the gated
        trio rewards BOTH matching the beat frequency and matching the
        chirp *duration* (a wrong-duration hypothesis leaves pedestal-step
        energy unexplained), and is phase-exact for real tones (no
        negative-frequency image bias).  ``||W @ x||^2`` is the GLRT
        statistic; model dimension is equal for all hypotheses, and the
        nuisance (baseline) terms are common, so scores compare directly.
        """
        indices = np.arange(n_on)
        omega = 2.0 * np.pi * beat_hz / fs
        basis = np.zeros((n_slot, 5))
        basis[:, 0] = 1.0
        basis[:, 1] = np.linspace(-1.0, 1.0, n_slot)
        basis[:n_on, 2] = 1.0
        basis[:n_on, 3] = np.cos(omega * indices)
        basis[:n_on, 4] = np.sin(omega * indices)
        q, _ = np.linalg.qr(basis)
        # Drop the two baseline directions (identical across hypotheses):
        # the score is the energy explained BEYOND any offset/ramp.
        return q[:, 2:].T.copy()

    def _scoring_cache(self, fs: float) -> "MappingProxyType":
        """This decoder's hypothesis bank at sample rate ``fs``.

        Read from the process-wide :func:`_hypothesis_bank` under the key
        ``(fs, window_fraction, clock_offset_ppm, alphabet)``, so every
        decoder with equal settings shares one bank, and changing one of
        those inputs on a decoder reaches its next score.
        """
        return _hypothesis_bank(
            float(fs), self.window_fraction, self.clock_offset_ppm, self.alphabet
        )

    def score_slot(
        self, slot_samples: np.ndarray, fs: float
    ) -> "list[tuple[str, int | None, float, float]]":
        """Score every hypothesis on one slot's samples.

        Returns (kind, symbol, beat_hz, score) tuples; score is the
        explained energy of the hypothesis' gated DC + tone model over the
        slot (see :meth:`_slot_projector`).  All hypotheses span the same
        slot with the same model dimension, so scores compare directly.
        """
        cache = self._scoring_cache(fs)
        windows = self._window_matrix(np.asarray(slot_samples, dtype=float)[None], cache["n_slot"])
        scores = self._score_windows(windows, cache["projectors"])[0]
        return [
            (kind, symbol, beat, score)
            for (kind, symbol, beat, _), score in zip(cache["table"], scores.tolist())
        ]

    def classify_slot(self, slot_samples: np.ndarray, fs: float) -> tuple[str, int | None, float]:
        """Best hypothesis (kind, symbol, beat) for one slot."""
        scores = self.score_slot(slot_samples, fs)
        kind, symbol, beat, _ = max(scores, key=lambda entry: entry[3])
        return kind, symbol, beat

    def demodulate_data_slot(self, slot_samples: np.ndarray, fs: float) -> tuple[int, float]:
        """ML data symbol for a slot known to carry payload.

        Restricting the hypothesis set to data symbols (the packet layer
        guarantees payload slots carry data) is both faster and the correct
        ML decision.
        """
        scores = [
            entry for entry in self.score_slot(slot_samples, fs) if entry[0] == "data"
        ]
        kind, symbol, beat, _ = max(scores, key=lambda entry: entry[3])
        return int(symbol), float(beat)

    # ------------------------------------------------------------------ batched

    def _window_matrix(self, slot_samples, n_slot: int) -> np.ndarray:
        """Zero-pad or truncate ``(batch, n)`` slot rows to ``(batch, n_slot)`` windows.

        An empty batch is a caller error (mirrors
        :class:`~repro.sim.executor.ChunkTiming` rejecting zero-trial chunks).
        """
        x = np.asarray(slot_samples, dtype=float)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError(f"slot batch must be a non-empty (batch, n) array, got {x.shape}")
        if x.shape[1] >= n_slot:
            return np.ascontiguousarray(x[:, :n_slot])
        windows = np.zeros((x.shape[0], n_slot))
        windows[:, : x.shape[1]] = x
        return windows

    def _score_windows(self, windows: np.ndarray, projectors: np.ndarray) -> np.ndarray:
        """(batch, num_hypotheses) score matrix for padded slot windows.

        This is the exact scoring kernel: every public score comes from
        it.  The stacked product keeps an explicit trailing column axis
        (``matmul(P, W[:, None, :, None])``) so BLAS applies the *same*
        per-slice matrix-vector kernel as a single-slot ``P @ w`` — each
        row's scores are bitwise independent of the batch it rides in,
        which keeps every score identical however the slots are grouped.
        :meth:`_data_argmax` reaches the same decisions faster and falls
        back to this kernel for any row it cannot certify.
        """
        components = np.matmul(projectors, windows[:, None, :, None])[..., 0]
        return np.sum(components**2, axis=2)

    def _data_argmax(self, windows: np.ndarray, cache: dict) -> np.ndarray:
        """Best data hypothesis per window row, certified against the exact kernel.

        Returns, for every row, the index (into the data hypotheses) that
        ``argmax`` over :meth:`_score_windows` picks — bit for bit — while
        scoring with one GEMM, ``windows @ data_pflat``, whose scores may
        differ from the exact ones in their last bits.  The decision is
        kept only where a floating-point error bound proves it:

        * Each projector row ``p`` is a unit vector, so any summation
          order computes ``p . w`` within ``gamma_n ||w||`` of its true
          value (``gamma_n ~ n eps``, ``n = n_slot``).  A rank-3 score is
          then within ``(2 sqrt(3) + 3 / n) n eps ||w||^2`` of the true
          score, in the GEMM and in the exact kernel alike.
        * Two such scores differ by at most ``~7 (n + 1) eps ||w||^2``;
          the bound below, ``64 (n + 8) eps ||w||^2`` plus the smallest
          normal float (for underflow), leaves a wide margin over that.
        * Where the GEMM's best score beats its runner-up by more than
          the bound, the exact scores have the same strict maximum.

        Every other row (``not margin > bound``, which also catches
        zero, tied and non-finite rows) is rescored with the exact kernel.
        """
        n_rows, n_slot = windows.shape
        num_data = cache["data_symbols"].size
        components = windows @ cache["data_pflat"]
        components *= components
        scores = components[:, :num_data] + components[:, num_data : 2 * num_data]
        scores += components[:, 2 * num_data :]
        pick = np.argmax(scores, axis=1)
        every_row = np.arange(n_rows)
        best = scores[every_row, pick]
        scores[every_row, pick] = -np.inf
        margin = best - scores.max(axis=1)
        finfo = np.finfo(float)
        energy = np.einsum("ij,ij->i", windows, windows)
        bound = 64.0 * (n_slot + 8) * finfo.eps * energy + finfo.tiny
        unproven = np.flatnonzero(~(margin > bound))
        if unproven.size:
            exact = self._score_windows(windows[unproven], cache["data_projectors"])
            pick[unproven] = np.argmax(exact, axis=1)
        return pick

    def score_slots(self, slot_samples, fs: float) -> np.ndarray:
        """Score every hypothesis on a batch of slots.

        ``slot_samples`` is ``(batch, n)``; returns a ``(batch,
        num_hypotheses)`` array whose row ``b`` equals, bitwise, the scores
        :meth:`score_slot` reports for row ``b``.  Hypothesis order matches
        the table exposed via :meth:`score_slot` (header, sync, then data
        symbols ascending).
        """
        cache = self._scoring_cache(fs)
        windows = self._window_matrix(slot_samples, cache["n_slot"])
        return self._score_windows(windows, cache["projectors"])

    def decode_aligned_block(
        self,
        samples: np.ndarray,
        fs: float,
        *,
        num_payload_symbols: int,
        start_slot: int,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Genie-aligned ``(symbols, beats)`` grids for a ``(batch, N)`` capture block.

        Grid entry ``[k, b]`` decides payload slot ``start_slot + k`` of
        row ``b``, read at ``k * chirp_period_s`` from the row start; the
        grids stop early at the first slot past the end of the rows or
        shorter than 4 samples.  The ``(K*batch, n_slot)`` window matrix
        is filled straight from the block and scored against the data
        hypotheses in one GEMM, each decision certified against, or
        recomputed with, the exact per-slice kernel (see
        :meth:`_data_argmax`), so column ``b`` depends only on row ``b``.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or not len(samples) or num_payload_symbols < 1 or start_slot < 0:
            raise ValueError(
                f"need a non-empty (batch, N) block, num_payload_symbols >= 1 and "
                f"start_slot >= 0, got {samples.shape}, {num_payload_symbols}, {start_slot}"
            )
        batch, size = samples.shape
        cache = self._scoring_cache(fs)
        n_slot = cache["n_slot"]
        period = self.alphabet.chirp_period_s
        slots = np.arange(start_slot, start_slot + num_payload_symbols)
        begins = np.round(slots * period * fs).astype(int)
        widths = np.minimum(np.round((slots + 1) * period * fs).astype(int), size) - begins
        # The grids stop at the first slot under 4 samples (every slot at or
        # past the end of the rows is one).
        num_blocks = int(np.argmax(np.append(widths < 4, True)))
        if not num_blocks:
            return np.empty((0, batch), dtype=int), np.empty((0, batch))
        begins, widths = begins[:num_blocks], widths[:num_blocks]
        # One gather of samples[:, begin_k + arange(n_slot)] for every slot,
        # from the strided view of every n_slot-sample window of the rows
        # (zero-extended if the last window runs past them), in the
        # (K, batch, n_slot) order the GEMM reads as K*batch windows; a
        # short slot's samples past its width are zeroed.
        if begins[-1] + n_slot > size:
            samples = np.pad(samples, ((0, 0), (0, begins[-1] + n_slot - size)))
        every_window = sliding_windows(samples, SlidingWindowSpec(n_slot, 1))
        windows = every_window.swapaxes(0, 1)[begins]
        if widths.min() < n_slot:
            np.copyto(windows, 0.0, where=np.arange(n_slot) >= widths[:, None, None])
        pick = self._data_argmax(windows.reshape(-1, n_slot), cache)
        return (
            cache["data_symbols"][pick].reshape(num_blocks, batch),
            cache["data_beats"][pick].reshape(num_blocks, batch),
        )

    def decode_aligned_batch(
        self,
        captures: "list[TagCapture]",
        *,
        num_payload_symbols: int,
        skip_slots: int | None = None,
    ) -> "list[DecodedPacket]":
        """Genie-aligned decode of equal-length captures (see :meth:`decode_aligned`).

        The captures wrapper around :meth:`decode_aligned_block`: packet
        ``b`` depends only on ``captures[b]``.  Raises ``ValueError`` for
        an empty or ragged batch (captures must share sample rate and
        sample count, as the executor's per-chunk trials do) or a
        negative ``skip_slots``.
        """
        if skip_slots is not None and skip_slots < 0:
            raise ValueError(f"skip_slots must be >= 0, got {skip_slots}")
        if not captures:
            raise ValueError("decode_aligned_batch requires at least one capture")
        fs = captures[0].sample_rate_hz
        if any(capture.sample_rate_hz != fs for capture in captures):
            raise ValueError("ragged capture batch: captures differ in sample rate")
        start_slot = self.fields.preamble_length if skip_slots is None else skip_slots
        symbols_grid, beats_grid = self.decode_aligned_block(
            # np.stack rejects captures of different lengths.
            np.stack([np.asarray(c.samples, dtype=float) for c in captures]),
            fs,
            num_payload_symbols=num_payload_symbols,
            start_slot=start_slot,
        )
        period = PeriodEstimate(
            period_s=self.alphabet.chirp_period_s,
            first_chirp_start_s=0.0,
            confidence=1.0,
        )
        bits_table = self._scoring_cache(fs)["bits_table"]
        return [
            DecodedPacket(
                bits=bits_table[symbols].reshape(-1),
                symbols=symbols.tolist(),
                measured_beats_hz=beats.copy(),
                period=period,
                payload_start_slot=start_slot,
                num_sync_slots_seen=self.fields.sync_repeats,
            )
            for symbols, beats in zip(symbols_grid.T, beats_grid.T)
        ]

    # ------------------------------------------------------------------ packets

    def _fine_align(
        self,
        capture: TagCapture,
        period: PeriodEstimate,
        *,
        coarse_span: int | None = None,
    ) -> PeriodEstimate:
        """Sample-level refinement of the first-chirp start.

        The energy-edge detector is block-granular and noisy at range; this
        step slides the slot grid across +/- a quarter period (coarse, then
        +/-2-sample refine) and keeps the offset maximizing the summed
        header-hypothesis score over the first few slots (slot 0 is a
        header chirp by construction of the packet preamble).  Integer-slot
        misalignment is irrelevant here — the preamble matched search in
        :meth:`decode` absorbs whole-slot shifts.
        """
        fs = capture.sample_rate_hz
        base = int(round(period.first_chirp_start_s * fs))
        slot_n = int(round(period.period_s * fs))
        average_slots = min(self.fields.header_repeats, 4)

        def alignment_score(offset: int) -> float:
            total = 0.0
            valid = 0
            for k in range(average_slots):
                begin = base + offset + k * slot_n
                if begin < 0 or begin + 4 > capture.samples.size:
                    continue
                window = capture.samples[begin : begin + slot_n]
                scores = self.score_slot(window, fs)
                total += next(s for kind, _, _, s in scores if kind == "header")
                valid += 1
            return total if valid else -np.inf

        if coarse_span is None:
            coarse_span = max(slot_n // 4, 8)
        coarse_offsets = range(-coarse_span, coarse_span + 1, 2)
        best_offset = max(coarse_offsets, key=alignment_score)
        fine_offsets = range(best_offset - 2, best_offset + 3)
        best_offset = max(fine_offsets, key=alignment_score)
        return PeriodEstimate(
            period_s=period.period_s,
            first_chirp_start_s=(base + best_offset) / fs,
            confidence=period.confidence,
        )

    def _slot_window(self, capture: TagCapture, start_s: float, period_s: float, k: int) -> np.ndarray:
        fs = capture.sample_rate_hz
        begin = int(round((start_s + k * period_s) * fs))
        end = int(round((start_s + (k + 1) * period_s) * fs))
        if begin >= capture.samples.size:
            return np.empty(0)
        return capture.samples[begin : min(end, capture.samples.size)]

    def decode(
        self,
        capture: TagCapture,
        *,
        num_payload_symbols: int | None = None,
        max_search_slots: int = 64,
        reacquisitions: int = 0,
    ) -> DecodedPacket:
        """Full receive chain: period estimate, sync search, payload demod.

        Parameters
        ----------
        num_payload_symbols:
            Expected payload length; ``None`` decodes until the capture
            ends.
        max_search_slots:
            Bound on the preamble search (guards against captures with no
            sync field).
        reacquisitions:
            Widened-window retries after a :class:`SyncError`.  Each retry
            doubles the preamble search span and relaxes the period-search
            bounds; 0 (the default) is the classic single-shot behaviour,
            bit-identical to before this knob existed.
        """
        if reacquisitions < 0:
            raise ValueError(f"reacquisitions must be >= 0, got {reacquisitions}")
        attempt = 0
        while True:
            try:
                return self._decode_attempt(
                    capture,
                    num_payload_symbols=num_payload_symbols,
                    max_search_slots=max_search_slots * (2**attempt),
                    widen=attempt,
                )
            except SyncError:
                if attempt >= reacquisitions:
                    raise
                attempt += 1
                from repro import obs
                from repro.obs import runtime as _obs_runtime

                if _obs_runtime._enabled:
                    obs.inc("impair.sync_reacquisitions")
                    obs.log("tag.decoder.reacquire", attempt=attempt)

    def _decode_attempt(
        self,
        capture: TagCapture,
        *,
        num_payload_symbols: int | None,
        max_search_slots: int,
        widen: int = 0,
    ) -> DecodedPacket:
        """One synchronization + demodulation pass.

        ``widen > 0`` marks a reacquisition attempt: the period search
        opens from the nominal +/-30% band to [0.5x, 2x] with a relaxed
        snap tolerance, trading false-lock margin for a chance to recover
        a badly impaired preamble.
        """
        if widen:
            period = self.estimate_period(
                capture,
                min_period_s=0.5 * self.alphabet.chirp_period_s,
                max_period_s=2.0 * self.alphabet.chirp_period_s,
                snap_tolerance=0.2,
            )
        else:
            period = self.estimate_period(capture)
        fs = capture.sample_rate_hz
        period = self._fine_align(capture, period)

        # Matched preamble search at slot granularity: slide the known
        # [header x H][sync x S] pattern over the per-slot header/sync
        # scores and take the best-aligned payload start.  Far more robust
        # at low SNR than classifying slots one at a time.
        header_scores: list[float] = []
        sync_scores: list[float] = []
        slot = 0
        while slot < max_search_slots:
            samples = self._slot_window(capture, period.first_chirp_start_s, period.period_s, slot)
            if samples.size < 4:
                break
            scores = self.score_slot(samples, fs)
            header_scores.append(next(s for kind, _, _, s in scores if kind == "header"))
            sync_scores.append(next(s for kind, _, _, s in scores if kind == "sync"))
            slot += 1
        h_rep = self.fields.header_repeats
        s_rep = self.fields.sync_repeats
        preamble = self.fields.preamble_length
        if len(header_scores) < preamble:
            raise SyncError(
                f"capture holds only {len(header_scores)} searchable slots, "
                f"fewer than the {preamble}-slot preamble"
            )
        best_start = None
        best_score = -np.inf
        for candidate in range(preamble, len(header_scores) + 1):
            header_part = header_scores[candidate - preamble : candidate - s_rep]
            sync_part = sync_scores[candidate - s_rep : candidate]
            score = float(np.mean(header_part) + np.mean(sync_part))
            if score > best_score:
                best_score = score
                best_start = candidate
        payload_start = best_start
        sync_seen = s_rep
        if payload_start is None:
            raise SyncError(
                f"no preamble alignment found within {max_search_slots} slots"
            )

        symbols: list[int] = []
        beats: list[float] = []
        slot = payload_start
        while True:
            if num_payload_symbols is not None and len(symbols) >= num_payload_symbols:
                break
            samples = self._slot_window(capture, period.first_chirp_start_s, period.period_s, slot)
            if samples.size < 4:
                break
            symbol, beat = self.demodulate_data_slot(samples, fs)
            symbols.append(symbol)
            beats.append(beat)
            slot += 1

        bits = (
            np.concatenate([self.alphabet.bits_for_symbol(s) for s in symbols])
            if symbols
            else np.empty(0, dtype=np.uint8)
        )
        return DecodedPacket(
            bits=bits,
            symbols=symbols,
            measured_beats_hz=np.asarray(beats),
            period=period,
            payload_start_slot=payload_start,
            num_sync_slots_seen=sync_seen,
        )

    def decode_aligned(
        self,
        capture: TagCapture,
        *,
        num_payload_symbols: int,
        skip_slots: int | None = None,
    ) -> DecodedPacket:
        """Decode with genie-aided alignment (skip period/sync estimation).

        Used by benches isolating *symbol-level* BER from synchronization
        effects, and by the ISAC session when the tag has already locked to
        the radar's timing in a previous packet.  Payload slot ``k`` is
        read at ``k * chirp_period_s`` from the capture start, from
        ``skip_slots`` (default: the preamble length) onward; decoding
        stops early where the capture runs out.  A one-capture
        :meth:`decode_aligned_batch`.
        """
        return self.decode_aligned_batch(
            [capture], num_payload_symbols=num_payload_symbols, skip_slots=skip_slots
        )[0]


@lru_cache(maxsize=1024)
def _cached_slot_projector(
    beat_hz: float, n_on: int, n_slot: int, fs: float
) -> np.ndarray:
    """Process-wide memo of :meth:`TagDecoder._slot_projector`.

    The projector is a pure function of its four scalar arguments (the QR
    factorization is deterministic), so identical keys always reproduce
    the identical array — decoders rebuilt chunk after chunk (the
    executor recreates its DSP objects per chunk) skip the repeated QR
    work.  Callers copy rows into their own stacks; the cached array is
    frozen read-only as a guard.
    """
    return _frozen(TagDecoder._slot_projector(beat_hz, n_on, n_slot, fs))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=8)
def _hypothesis_bank(
    fs: float, window_fraction: float, clock_offset_ppm: float, alphabet: CsskAlphabet
) -> MappingProxyType:
    """Vectorized hypothesis bank, built once per process and key.

    An (H x 3 x N_slot) stack of gated-model projectors so one tensor
    product scores every hypothesis — the simulator-side stand-in for the
    MCU's per-candidate Goertzel evaluations plus an envelope-duration
    check — together with the data-hypothesis views
    :meth:`TagDecoder.decode_aligned_block` reads.  The bank is a pure
    function of its key, so decoders rebuilt chunk after chunk and point
    after point share it; the mapping and its arrays are read-only.

    ``table`` holds (kind, symbol, beat_hz, window_samples) for every
    hypothesis.  A drifted tag clock (``clock_offset_ppm``) makes the ADC
    run fast or slow, so a true tone at ``f`` lands at ``f / (1 + delta)``
    on the tag's sample grid — the whole bank skews by that factor.  With
    zero offset the skew is exactly 1.0 and the table is unchanged.
    """
    skew = 1.0 / (1.0 + clock_offset_ppm * 1e-6)
    table = (
        ("header", None, alphabet.header_beat_hz * skew,
         max(int(round(window_fraction * alphabet.header_duration_s * fs)), 4)),
        ("sync", None, alphabet.sync_beat_hz * skew,
         max(int(round(window_fraction * alphabet.sync_duration_s * fs)), 4)),
    ) + tuple(
        ("data", symbol, beat * skew,
         max(int(round(window_fraction * alphabet.data_symbol_duration_s(symbol) * fs)), 4))
        for symbol, beat in enumerate(alphabet.data_beats_hz)
    )
    n_slot = max(int(round(alphabet.chirp_period_s * fs)), 4)
    projectors = np.zeros((len(table), 3, n_slot))
    for row, (_, _, beat, n_on) in enumerate(table):
        projectors[row] = _cached_slot_projector(
            float(beat), int(min(n_on, n_slot)), int(n_slot), float(fs)
        )
    data_rows = np.array([row for row, entry in enumerate(table) if entry[0] == "data"])
    data_projectors = projectors[data_rows]
    return MappingProxyType({
        "table": table,
        "projectors": _frozen(projectors),
        "n_slot": n_slot,
        # The exact kernel scores each hypothesis slice on its own, so
        # scoring only the data rows gives the same bits as scoring
        # every row and slicing.
        "data_projectors": _frozen(data_projectors),
        # (n_slot, 3 * H_data): column j * H_data + h is data hypothesis
        # h's j-th projector row, so ``windows @ data_pflat`` scores
        # every window in one GEMM, one contiguous block per rank.
        "data_pflat": _frozen(np.ascontiguousarray(
            data_projectors.transpose(1, 0, 2).reshape(-1, n_slot).T
        )),
        "data_symbols": _frozen(
            np.array([table[row][1] for row in data_rows], dtype=int)
        ),
        "data_beats": _frozen(np.array([table[row][2] for row in data_rows])),
        "bits_table": _frozen(np.stack(
            [alphabet.bits_for_symbol(s) for s in range(alphabet.num_data_symbols)]
        )),
    })
