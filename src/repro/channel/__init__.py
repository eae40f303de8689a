"""RF channel models: path loss, link budgets, noise, multipath, Doppler."""

from repro import _exports

__all__ = [
    "free_space_path_loss_db",
    "one_way_received_power_dbm",
    "radar_received_power_dbm",
    "DownlinkBudget",
    "UplinkBudget",
    "TwoRayDownlinkBudget",
    "TwoRayGeometry",
    "NoiseModel",
    "awgn",
    "thermal_noise_power_dbm",
    "Clutter",
    "ClutterReflector",
    "doppler_shift_hz",
    "radial_velocity_phase",
]

_EXPORTS = {
    "repro.channel.propagation": (
        "free_space_path_loss_db",
        "one_way_received_power_dbm",
        "radar_received_power_dbm",
    ),
    "repro.channel.link_budget": ("DownlinkBudget", "UplinkBudget"),
    "repro.channel.two_ray": ("TwoRayDownlinkBudget", "TwoRayGeometry"),
    "repro.channel.noise": ("NoiseModel", "awgn", "thermal_noise_power_dbm"),
    "repro.channel.multipath": ("Clutter", "ClutterReflector"),
    "repro.channel.doppler": ("doppler_shift_hz", "radial_velocity_phase"),
}


def __getattr__(name):
    return _exports.load(globals(), _EXPORTS, name)


def __dir__():
    return _exports.listing(globals())
