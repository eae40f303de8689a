"""Simulation harness: scenarios, Monte-Carlo engines, parameter sweeps."""

from repro import _exports

# ``sweep`` names both a function and the submodule defining it; bound
# lazily, the first ``import repro.sim.sweep`` would rebind the package
# attribute to the module, so it binds here.
from repro.sim.sweep import sweep, sweep_grid

__all__ = [
    "Scenario",
    "default_office_scenario",
    "AdaptiveConfig",
    "AdaptiveResult",
    "binomial_interval",
    "clopper_pearson_interval",
    "run_adaptive_trials",
    "should_stop",
    "stopping_trials",
    "wilson_interval",
    "DownlinkTrialConfig",
    "run_downlink_trials",
    "run_uplink_snr_measurement",
    "run_localization_trials",
    "ChunkFailure",
    "ChunkTiming",
    "ExecutionPlan",
    "ExecutionReport",
    "ExecutorError",
    "chunk_indices",
    "default_start_method",
    "map_trials",
    "strip_execution",
    "sweep_results_equal",
    "BerPoint",
    "SweepResult",
    "format_table",
    "DegradationCurve",
    "RobustnessConfig",
    "run_robustness_point",
    "run_robustness_sweep",
    "sweep",
    "sweep_grid",
    "load_capture",
    "load_if_frame",
    "save_capture",
    "save_if_frame",
    "LinkTargets",
    "SessionReport",
    "build_report",
]

_EXPORTS = {
    "repro.sim.scenario": ("Scenario", "default_office_scenario"),
    "repro.sim.adaptive": (
        "AdaptiveConfig",
        "AdaptiveResult",
        "binomial_interval",
        "clopper_pearson_interval",
        "run_adaptive_trials",
        "should_stop",
        "stopping_trials",
        "wilson_interval",
    ),
    "repro.sim.engine": (
        "DownlinkTrialConfig",
        "run_downlink_trials",
        "run_uplink_snr_measurement",
        "run_localization_trials",
    ),
    "repro.errors": ("ChunkFailure", "ExecutorError"),
    "repro.sim.executor": (
        "ChunkTiming",
        "ExecutionPlan",
        "ExecutionReport",
        "chunk_indices",
        "default_start_method",
        "map_trials",
        "strip_execution",
        "sweep_results_equal",
    ),
    "repro.sim.results": ("BerPoint", "SweepResult", "format_table"),
    "repro.sim.robustness": (
        "DegradationCurve",
        "RobustnessConfig",
        "run_robustness_point",
        "run_robustness_sweep",
    ),
    "repro.sim.trace": ("load_capture", "load_if_frame", "save_capture", "save_if_frame"),
    "repro.sim.report": ("LinkTargets", "SessionReport", "build_report"),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
