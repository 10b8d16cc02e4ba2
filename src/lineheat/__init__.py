"""Intensity estimation for point patterns on linear networks.

Estimators: fixed-bandwidth kernel sums with edge corrections, equal-split
path enumeration, and the diffusion (heat-kernel) estimator, plus adaptive
per-point bandwidths accelerated by a bandwidth-quantile partition.  Includes
simulators for log-Gaussian and Gaussian-mixture intensities and an
ISE/timing study harness.
"""

__version__ = "0.1.0"

from .adaptive import (
    BandwidthSet,
    PartitionPlan,
    abramson_bandwidths,
    estimate_adaptive_partition,
    heuristic_global_bandwidth,
    make_partition,
)
from .heat import (
    BETA,
    HeatConfig,
    default_dx,
    deposit_initial_mass,
    estimate_heat,
    estimate_heat_batch,
    heat_solve,
    heat_step,
)
from .ingest import (
    read_lattice_function,
    read_network_geojson,
    read_points,
    write_lattice_function,
    write_network_geojson,
    write_points_csv,
)
from .kernels import (
    Kernel1D,
    equal_split_continuous,
    equal_split_discontinuous,
    estimate_jones_diggle,
    estimate_uniform_corrected,
    precompute_edge_correction,
)
from .lattice import Lattice, LatticeFunction, discretize
from .network import (
    LinearNetwork,
    NetworkLocation,
    PointPattern,
    build_network,
    shortest_path_distance,
)
from .experiment import estimate_adaptive_direct, ise, run_partition_study
from .sim import (
    ExpCovSpec,
    MixtureSpec,
    field_to_network_intensity,
    gm5_mixture,
    mixture_to_network_intensity,
    sample_gaussian_field,
    sample_poisson_on_network,
    unit_square_map,
)
