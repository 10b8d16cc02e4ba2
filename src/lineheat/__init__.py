"""Intensity estimation for point patterns on linear networks.

Estimators: fixed-bandwidth kernel sums with edge corrections, equal-split
path enumeration, and the diffusion (heat-kernel) estimator, plus adaptive
per-point bandwidths accelerated by a bandwidth-quantile partition.  Includes
simulators for log-Gaussian and Gaussian-mixture intensities and an
ISE/timing study harness.

``import lineheat`` loads no module of the package and no numpy: the first
access to a name that is not yet bound imports every module and binds every
exported name at once (PEP 562).
"""

__version__ = "0.1.0"

_EXPORTS = {
    "adaptive": ("BandwidthSet", "PartitionPlan", "abramson_bandwidths", "adaptive_bandwidths",
                 "estimate_adaptive_partition", "heuristic_global_bandwidth", "make_partition"),
    "heat": ("BETA", "HeatConfig", "default_dx", "deposit_initial_mass", "estimate_heat",
             "estimate_heat_batch", "heat_solve", "heat_step"),
    "ingest": ("read_network_geojson", "read_points", "write_lattice_function", "write_points_csv"),
    "kernels": ("Kernel1D", "equal_split_continuous", "equal_split_discontinuous", "estimate_jones_diggle",
                "estimate_uniform_corrected"),
    "lattice": ("Lattice", "LatticeFunction", "discretize"),
    "network": ("LinearNetwork", "NetworkLocation", "PointPattern", "build_network",
                "shortest_path_distance"),
    "experiment": ("estimate_adaptive_direct", "ise", "run_partition_study"),
    "sim": ("ExpCovSpec", "MixtureSpec", "field_to_network_intensity", "gm5_mixture",
            "mixture_to_network_intensity", "sample_gaussian_field", "sample_poisson_on_network",
            "unit_square_map"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    # All at once, not name by name: a caller that swaps the functions the
    # loaded modules hold (perfbench's call counter) must find every module
    # loaded, whichever name it reached the package through.
    from importlib import import_module

    for module, names in _EXPORTS.items():
        loaded = import_module(f".{module}", __name__)
        for n in names:
            globals().setdefault(n, getattr(loaded, n))
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
