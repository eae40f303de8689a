"""FMCW radar: configuration presets, IF-domain simulation, and processing."""

from repro import _exports

__all__ = [
    "RadarConfig",
    "XBAND_9GHZ",
    "TINYRAD_24GHZ",
    "AUTOMOTIVE_77GHZ",
    "FMCWRadar",
    "IFFrame",
    "Scatterer",
    "bin_ranges_m",
    "range_fft",
    "range_profile_power_db",
    "find_peak_range",
    "align_profiles_to_common_grid",
    "IFCorrectionResult",
    "slow_time_spectrum",
    "range_doppler_map",
    "modulation_signature_score",
    "estimate_velocity",
    "cfar_detect",
    "detect_all_tags",
    "detect_modulated_tag",
    "TagDetection",
    "AngleEstimate",
    "estimate_tag_angle",
    "unambiguous_fov_deg",
    "ChirpEngine",
    "ChirpProfile",
    "EngineLimits",
    "compile_frame",
]

_EXPORTS = {
    "repro.radar.config": ("AUTOMOTIVE_77GHZ", "RadarConfig", "TINYRAD_24GHZ", "XBAND_9GHZ"),
    "repro.radar.fmcw": ("FMCWRadar", "IFFrame", "Scatterer"),
    "repro.radar.range_processing": (
        "bin_ranges_m",
        "range_fft",
        "range_profile_power_db",
        "find_peak_range",
    ),
    "repro.radar.if_correction": ("align_profiles_to_common_grid", "IFCorrectionResult"),
    "repro.radar.doppler_processing": (
        "slow_time_spectrum",
        "range_doppler_map",
        "modulation_signature_score",
        "estimate_velocity",
    ),
    "repro.radar.detection": (
        "cfar_detect",
        "detect_all_tags",
        "detect_modulated_tag",
        "TagDetection",
    ),
    "repro.radar.angle": ("AngleEstimate", "estimate_tag_angle", "unambiguous_fov_deg"),
    "repro.radar.programming": ("ChirpEngine", "ChirpProfile", "EngineLimits", "compile_frame"),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
