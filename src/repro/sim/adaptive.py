"""Adaptive Monte-Carlo: confidence-interval-driven sequential stopping.

Fixed ``num_frames`` budgets spend as much on trivially-easy operating
points (most fig12/13 cells sit at exactly 0.0 BER) as on the error
floors that actually need resolution.  This module adds a variance-aware
mode: trials run in deterministic index-keyed *rounds* — round ``r``
covers trial indices ``[r*batch, (r+1)*batch)`` — until a binomial
confidence interval on the BER is tighter than a requested relative
width, or a hard ``max_frames`` cap is hit.

**Determinism is preserved by construction.**  Trial ``i``'s seed is a
pure function of ``(root SeedSequence, i)`` and never depends on the
stopping decision; the rule only chooses *how many* indices run.  Each
round is one :func:`repro.sim.executor.map_trials` call over its index
window, so ``workers=1/2/4`` stay bit-exact and the differential-oracle
contract survives unchanged.  Because the stopping rule is part of the
work unit, engines fold the :class:`AdaptiveConfig` into their store
fingerprints — adaptive and fixed-budget results never collide in the
cache.

The decision logic is factored into pure functions
(:func:`should_stop`, :func:`stopping_trials`) of the *cumulative*
per-trial outcome prefix, which is exactly the property the Hypothesis
suite checks: the round at which a run stops depends only on the prefix
of per-trial outcomes up to that round, never on outcomes that were
never drawn.

Stopping rule, evaluated after each completed round with cumulative
``(bit_errors, bits)`` over ``t`` trials:

1. ``t >= max_frames`` — stop (hard cap).
2. ``t < min_frames`` — continue (never trust a tiny sample).
3. ``target_rel_width <= 0`` — continue (degenerate mode: the CI can
   never be "tight enough", so the run is bit-identical to a fixed
   ``num_frames=max_frames`` budget — the CI smoke diffs exactly this).
4. ``bit_errors == 0`` — stop.  The point estimate is 0 and no finite
   sample tightens a *relative* interval around zero; the upper bound
   already shrinks like ``z**2/(z**2+n)``, so further sampling cannot
   change the verdict "no errors observed in >= min_frames frames".
5. Otherwise stop iff ``(hi - lo) <= target_rel_width * (errors/bits)``
   for the configured interval (Wilson score by default,
   Clopper-Pearson exact on request).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro import obs
from repro.obs import manifest as _obs_manifest
from repro.sim.executor import ExecutionPlan, ExecutionReport, map_trials
from repro.utils.rng import SeedSpec

__all__ = [
    "AdaptiveConfig",
    "AdaptiveResult",
    "wilson_interval",
    "clopper_pearson_interval",
    "binomial_interval",
    "should_stop",
    "stop_reason",
    "stopping_trials",
    "run_adaptive_trials",
]

#: Interval methods :class:`AdaptiveConfig` accepts.
INTERVAL_METHODS = ("wilson", "clopper-pearson")


def _normal_quantile(p: float) -> float:
    """The standard-normal quantile via the stdlib (no scipy needed)."""
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


def wilson_interval(
    errors: int, total: int, confidence: float = 0.95
) -> "tuple[float, float]":
    """Wilson score interval for a binomial proportion.

    Well-behaved at the extremes (0 and ``total`` errors both give
    non-degenerate bounds), cheap, and standard for BER work.  Returns
    ``(lo, hi)`` with ``0 <= lo <= hi <= 1``; ``total == 0`` returns the
    vacuous ``(0, 1)``.
    """
    _check_counts(errors, total, confidence)
    if total == 0:
        return 0.0, 1.0
    z = _normal_quantile(0.5 + confidence / 2.0)
    p_hat = errors / total
    denom = 1.0 + z * z / total
    center = (p_hat + z * z / (2 * total)) / denom
    margin = (
        z * math.sqrt(p_hat * (1 - p_hat) / total + z * z / (4 * total * total))
        / denom
    )
    # At the extremes the bound equals p_hat analytically (lo = 0 when
    # errors == 0, hi = 1 when errors == total); pin it so float rounding
    # can't place the interval on the wrong side of the point estimate.
    lo = 0.0 if errors == 0 else max(0.0, center - margin)
    hi = 1.0 if errors == total else min(1.0, center + margin)
    return lo, hi


def clopper_pearson_interval(
    errors: int, total: int, confidence: float = 0.95
) -> "tuple[float, float]":
    """Exact (Clopper-Pearson) binomial interval via the beta quantile.

    Conservative — guaranteed coverage at the cost of width.  Needs
    ``scipy``; the import is deferred so the default Wilson path never
    touches it.
    """
    from scipy.stats import beta

    _check_counts(errors, total, confidence)
    if total == 0:
        return 0.0, 1.0
    alpha = 1.0 - confidence
    lo = 0.0 if errors == 0 else float(beta.ppf(alpha / 2, errors, total - errors + 1))
    hi = (
        1.0
        if errors == total
        else float(beta.ppf(1 - alpha / 2, errors + 1, total - errors))
    )
    return lo, hi


def _check_counts(errors: int, total: int, confidence: float) -> None:
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if not 0 <= errors <= max(total, 0):
        raise ValueError(f"errors must be in [0, total], got {errors}/{total}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


@dataclass(frozen=True)
class AdaptiveConfig:
    """The sequential-stopping rule for one adaptive Monte-Carlo run.

    Parameters
    ----------
    target_rel_width:
        Stop once the BER confidence interval's full width is at most
        this fraction of the point estimate.  ``0`` is the degenerate
        mode: never satisfied, so exactly ``max_frames`` trials run —
        bit-identical to a fixed budget of the same size.
    min_frames / max_frames:
        Never stop on the CI criterion before ``min_frames`` trials;
        always stop at ``max_frames`` (the hard cap, and the trial count
        of a degenerate run).
    batch_frames:
        Trials per round.  Round ``r`` covers trial indices
        ``[r*batch_frames, (r+1)*batch_frames)`` (the last round is
        truncated at ``max_frames``); the stopping rule is evaluated on
        round boundaries only.
    confidence:
        Two-sided CI coverage (default 95%).
    method:
        ``"wilson"`` (default) or ``"clopper-pearson"``.

    The config is a frozen dataclass so it canonicalizes into store
    fingerprints: the stopping rule is part of the work unit, and
    adaptive results never collide with fixed-budget results (or with
    adaptive results under a different rule).
    """

    target_rel_width: float = 0.25
    min_frames: int = 10
    max_frames: int = 1000
    batch_frames: int = 10
    confidence: float = 0.95
    method: str = "wilson"

    def __post_init__(self) -> None:
        if self.target_rel_width < 0:
            raise ValueError(
                f"target_rel_width must be >= 0, got {self.target_rel_width}"
            )
        if self.min_frames < 1:
            raise ValueError(f"min_frames must be >= 1, got {self.min_frames}")
        if self.max_frames < self.min_frames:
            raise ValueError(
                f"max_frames must be >= min_frames, got "
                f"{self.max_frames} < {self.min_frames}"
            )
        if self.batch_frames < 1:
            raise ValueError(f"batch_frames must be >= 1, got {self.batch_frames}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.method not in INTERVAL_METHODS:
            raise ValueError(
                f"method must be one of {INTERVAL_METHODS}, got {self.method!r}"
            )

    def interval(self, errors: int, total: int) -> "tuple[float, float]":
        """The configured (lo, hi) confidence interval for errors/total."""
        return binomial_interval(
            errors, total, confidence=self.confidence, method=self.method
        )


def binomial_interval(
    errors: int, total: int, *, confidence: float = 0.95, method: str = "wilson"
) -> "tuple[float, float]":
    """Dispatch to the named interval helper."""
    if method == "wilson":
        return wilson_interval(errors, total, confidence)
    if method == "clopper-pearson":
        return clopper_pearson_interval(errors, total, confidence)
    raise ValueError(f"method must be one of {INTERVAL_METHODS}, got {method!r}")


def should_stop(
    errors: int, bits: int, trials_done: int, config: AdaptiveConfig
) -> bool:
    """The stopping rule — a pure function of the cumulative outcome.

    ``trials_done`` is the number of *trials* completed (round boundary);
    ``errors``/``bits`` are the cumulative bit counts over them.  Nothing
    here touches RNG state, so the decision cannot perturb any trial's
    seed — the determinism contract the test suite pins.
    """
    if trials_done >= config.max_frames:
        return True
    if trials_done < config.min_frames:
        return False
    if config.target_rel_width <= 0:
        return False
    if bits == 0:
        return False
    if errors == 0:
        return True
    lo, hi = config.interval(errors, bits)
    return (hi - lo) <= config.target_rel_width * (errors / bits)


def stop_reason(
    errors: int, bits: int, trials_done: int, config: AdaptiveConfig
) -> "str | None":
    """Why a run at this cumulative state stops (None = keeps going)."""
    if not should_stop(errors, bits, trials_done, config):
        return None
    if errors == 0 and trials_done < config.max_frames:
        return "zero-errors"
    if trials_done >= config.max_frames:
        # The cap fires even if the CI also happened to be met — the cap
        # is what bounded the run.
        lo, hi = config.interval(errors, bits) if bits else (0.0, 1.0)
        if (
            config.target_rel_width > 0
            and errors > 0
            and (hi - lo) <= config.target_rel_width * (errors / bits)
        ):
            return "ci-met"
        return "cap"
    return "ci-met"


def stopping_trials(
    per_trial_counts: "Sequence[tuple[int, int]]", config: AdaptiveConfig
) -> int:
    """How many trials an adaptive run over these outcomes would run.

    ``per_trial_counts[i]`` is trial ``i``'s ``(bit_errors, bits)``.
    This is the driver's round loop with the Monte-Carlo replaced by a
    table lookup — a *pure* function of the outcome prefix, used by the
    property suite to prove the stopping round never depends on outcomes
    beyond the stopping point.  The sequence must cover at least
    ``min(len needed)``; shorter sequences stop at their end.
    """
    errors = bits = 0
    trials = 0
    limit = min(len(per_trial_counts), config.max_frames)
    while trials < limit:
        end = min(trials + config.batch_frames, limit)
        for index in range(trials, end):
            e, b = per_trial_counts[index]
            errors += int(e)
            bits += int(b)
        trials = end
        if should_stop(errors, bits, trials, config):
            break
    return trials


@dataclass
class AdaptiveResult:
    """One adaptive run: per-trial results plus the stopping trajectory."""

    per_trial: "list[Any]"
    frames: int
    rounds: int
    errors: int
    bits: int
    ci_low: float
    ci_high: float
    reason: str
    reports: "list[ExecutionReport]" = field(default_factory=list)

    @property
    def ber(self) -> float:
        return self.errors / self.bits if self.bits else 0.0

    @property
    def rel_width(self) -> float:
        """Achieved relative CI width (inf when the estimate is zero)."""
        if self.errors == 0 or self.bits == 0:
            return float("inf")
        return (self.ci_high - self.ci_low) / (self.errors / self.bits)

    def summary(self) -> "dict[str, Any]":
        """JSON-safe trajectory record for result payloads / benches."""
        rel = self.rel_width
        return {
            "frames": int(self.frames),
            "rounds": int(self.rounds),
            "errors": int(self.errors),
            "bits": int(self.bits),
            "ci_low": float(self.ci_low),
            "ci_high": float(self.ci_high),
            "rel_width": None if math.isinf(rel) else float(rel),
            "reason": self.reason,
        }


def run_adaptive_trials(
    chunk_fn,
    payload: Any,
    config: AdaptiveConfig,
    rng: "int | SeedSpec | Any" = 0,
    plan: "ExecutionPlan | None" = None,
    *,
    counts: "Callable[[Any], tuple[int, int]]",
) -> AdaptiveResult:
    """Run index-keyed rounds of ``chunk_fn`` until the CI rule stops.

    ``chunk_fn`` follows the :func:`~repro.sim.executor.map_trials`
    contract (module-level, ``(payload, spec, indices) -> results``);
    ``counts`` maps one per-trial result to its ``(bit_errors, bits)``
    contribution and runs in the parent only, so it need not pickle.

    Round ``r`` is one ``map_trials`` call over
    ``[r*batch, min((r+1)*batch, max_frames))`` — retries and pool
    rebuilds apply per round unchanged.  Returns every per-trial result in trial order plus the
    stopping trajectory.
    """
    spec = SeedSpec.from_rng(rng)
    plan = plan if plan is not None else ExecutionPlan()
    per_trial: "list[Any]" = []
    reports: "list[ExecutionReport]" = []
    errors = bits = 0
    round_index = 0
    reason = None
    obs.log(
        "adaptive.start",
        target_rel_width=config.target_rel_width,
        min_frames=config.min_frames,
        max_frames=config.max_frames,
        batch_frames=config.batch_frames,
        method=config.method,
    )
    while reason is None:
        start = round_index * config.batch_frames
        end = min(start + config.batch_frames, config.max_frames)
        round_results, report = map_trials(
            chunk_fn, payload, end - start, spec, plan, start_trial=start
        )
        per_trial.extend(round_results)
        reports.append(report)
        for result in round_results:
            e, b = counts(result)
            errors += int(e)
            bits += int(b)
        round_index += 1
        reason = stop_reason(errors, bits, end, config)
        obs.inc("adaptive.rounds")
        obs.inc("adaptive.trials", end - start)
        obs.log(
            "adaptive.round",
            round=round_index - 1,
            trials=end,
            errors=errors,
            bits=bits,
            stop=reason,
        )
    lo, hi = config.interval(errors, bits) if bits else (0.0, 1.0)
    result = AdaptiveResult(
        per_trial=per_trial,
        frames=len(per_trial),
        rounds=round_index,
        errors=errors,
        bits=bits,
        ci_low=lo,
        ci_high=hi,
        reason=reason,
        reports=reports,
    )
    obs.log("adaptive.done", **result.summary())
    if _obs_manifest._active is not None:
        _obs_manifest.note_adaptive(result.summary())
    return result
