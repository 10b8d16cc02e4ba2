"""ISE metric and the partition-vs-direct study harness.

A study replicate simulates an intensity on a network, draws a Poisson
pattern, computes per-point bandwidths from a pilot estimate, then compares
the direct adaptive estimate (the paper's baseline of one solve per point,
computed once) against the partition approximation for each requested
quantile step, recording the integrated squared error and wall-clock ratio.
It also times the exact estimate as one batched pass, which the CLI runs.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .adaptive import BandwidthSet, adaptive_bandwidths, bin_count, heuristic_global_bandwidth, make_partition
from .errors import LatticeMismatch
from .heat import (DEFAULT_CONFIG, HeatConfig, _check_node_steps, deposit_initial_mass, estimate_heat,
                   estimate_heat_batch, heat_solve, resolve_dx, step_size)
from .lattice import Lattice, LatticeFunction, _require_same_network
from .network import LinearNetwork, PointPattern
from .sim import (
    ExpCovSpec,
    check_field_res,
    field_to_network_intensity,
    gm5_mixture,
    interpolated_variance,
    mixture_to_network_intensity,
    sample_gaussian_field,
    sample_poisson_on_network,
    scale_to_target,
    unit_square_map,
)

#: Simulation scenarios: four log-Gaussian (variance, scale) cases plus the
#: five-component Gaussian-mixture preset.
LOGGAUSSIAN_SCENARIOS = {
    "loggaussian-1": ExpCovSpec(variance=0.9, scale=0.03),
    "loggaussian-2": ExpCovSpec(variance=0.9, scale=0.09),
    "loggaussian-3": ExpCovSpec(variance=2.0, scale=0.03),
    "loggaussian-4": ExpCovSpec(variance=2.0, scale=0.09),
}

SCENARIOS = tuple(LOGGAUSSIAN_SCENARIOS) + ("paper-gm5",)

#: Most points a simulation may expect: a ``simulate`` run peaks at about
#: 90 MB at this target with ``paper-gm5``, which samples no field.
MAX_TARGET_POINTS = 10**6

STUDY_COLUMNS = (
    "scenario",
    "replicate",
    "delta",
    "n_points",
    "ise",
    "time_direct_s",
    "time_exact_onepass_s",
    "time_partition_s",
    "time_ratio",
)


def ise(estimate: LatticeFunction, reference: LatticeFunction) -> float:
    """Integrated squared error between two functions on the same lattice."""
    if not estimate.lattice.compatible(reference.lattice):
        raise LatticeMismatch("functions live on different lattices")
    diff = estimate.values - reference.values
    return float(np.add.reduce(estimate.lattice.node_weight * (diff * diff)))  # in a fixed order, as integral


def check_simulation(target_points: float, field_res: int) -> None:
    """Reject a target count outside (0, ``MAX_TARGET_POINTS``] or a field
    resolution :func:`~lineheat.sim.check_field_res` rejects."""
    if not 0 < target_points <= MAX_TARGET_POINTS:
        raise ValueError(f"target points must be in (0, {MAX_TARGET_POINTS:g}], got {target_points:g}")
    check_field_res(field_res)


def simulate_intensity(lattice: Lattice, scenario: str, seed, target_points: float, field_res: int):
    """True intensity for a named scenario on ``lattice``, scaled/offset to the target count."""
    net = lattice.network
    if scenario in LOGGAUSSIAN_SCENARIOS:
        spec = LOGGAUSSIAN_SCENARIOS[scenario]
        grid = sample_gaussian_field(field_res, spec, seed)
        scale = unit_square_map(net)[0]
        # lognormal mean identity with each node's actual (interpolated)
        # marginal variance, so E[count] hits the target at any grid res
        node_var = interpolated_variance(spec, lattice, field_res)
        mu = math.log(target_points / (net.total_length * scale)) - node_var / 2.0
        lam = field_to_network_intensity(grid, lattice, mu)
        # node values are per unit length in unit-square coordinates; convert
        # back to network units so integrals count points on the real network
        return LatticeFunction(lattice, lam.values * scale)
    if scenario == "paper-gm5":
        lam = mixture_to_network_intensity(gm5_mixture(seed), lattice)
        return scale_to_target(lam, target_points)
    raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")


def simulate_pattern(lattice: Lattice, scenario: str, seed: int, target_points: float, field_res: int):
    """(truth, pattern): a scenario's intensity on ``lattice`` from seed stream ``[seed, 0]``
    and a Poisson pattern of it from ``[seed, 1]``; ``simulate`` and each study replicate draw here."""
    truth = simulate_intensity(lattice, scenario, [seed, 0], target_points, field_res)
    return truth, sample_poisson_on_network(truth, [seed, 1])


def estimate_adaptive_direct(
    pattern: PointPattern,
    lattice: Lattice,
    bw: BandwidthSet,
    cfg: HeatConfig = DEFAULT_CONFIG,
) -> LatticeFunction:
    """One diffusion solve per point at its own bandwidth, summed.

    The paper's direct baseline, which the study times against the partition:
    its cost grows with the number of points.  ``estimate_heat_batch(pattern,
    lattice, bw.bandwidths)`` gives the same exact adaptive estimate, to
    rounding, in one pass; the CLI runs that.  Contributions are summed in
    canonical point order, so the result is independent of input ordering.
    """
    _require_same_network(pattern, lattice)
    steps = int(np.ceil(bw.bandwidths**2 / step_size(lattice, cfg)).sum())
    _check_node_steps(lattice, steps, "the direct estimate sums one solve per point: "
                      "use --delta, lower --bw-global")
    total = np.zeros(lattice.n_nodes)
    for i in pattern.order:
        f = heat_solve(
            deposit_initial_mass(pattern.subset([i]), lattice),
            float(bw.bandwidths[i]) ** 2,
            cfg,
        )
        total += f.values
    return LatticeFunction(lattice, total)


def partition_per_bin(pattern, lattice, plan) -> LatticeFunction:
    """The paper's partition protocol: one fixed-bandwidth solve per nonempty bin.

    Reference for the study's timings; ``adaptive.estimate_adaptive_partition``
    gives the same estimate in one batched pass.
    """
    total = np.zeros(lattice.n_nodes)
    for d in range(plan.n_bins):
        idx = plan.bin_indices(d)
        if len(idx):
            total += estimate_heat(pattern.subset(idx), lattice, float(plan.midpoints[d])).values
    return LatticeFunction(lattice, total)


def study_deltas(deltas, replicates: int) -> list[float]:
    """A study's quantile steps as floats, checked with its replicate count:
    BadDelta for a step :func:`~lineheat.adaptive.bin_count` rejects,
    ValueError for no step or no replicate."""
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("need at least one quantile step")
    for d in deltas:
        bin_count(d)
    if replicates < 1:
        raise ValueError("need at least one replicate")
    return deltas


def run_partition_study(
    net: LinearNetwork,
    scenario: str,
    deltas,
    replicates: int,
    seed: int,
    target_points: float = 520.0,
    field_res: int = 64,
    eps_star: float | None = None,
    gamma_exponent: float = -0.5,
    dx: float | None = None,
    timing: bool = True,
) -> list[dict]:
    """Run the partition-vs-direct comparison.

    Returns one record per (replicate, delta) with the ISE of the partition
    estimate against the direct estimate and, when ``timing`` is on, the
    wall-clock seconds of both and of the exact estimate in one batched pass.
    Replicate r uses seed + r.  Every argument is checked before the first
    replicate runs.
    """
    deltas = study_deltas(deltas, replicates)
    check_simulation(target_points, field_res)
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    # the truth lattice is spaced as `simulate` spaces it: replicate r draws `simulate --seed seed+r`'s data
    truth_lattice = Lattice(net, resolve_dx(dx, float(net.edge_lengths.min())))
    rows = []
    for rep in range(replicates):
        pattern = simulate_pattern(truth_lattice, scenario, seed + rep, target_points, field_res)[1]
        if pattern.n == 0:
            rows += [dict(zip(STUDY_COLUMNS, (scenario, rep, d, 0, float("nan")) + (None,) * 4)) for d in deltas]
            continue
        star = heuristic_global_bandwidth(net.total_length, pattern.n) if eps_star is None else eps_star
        bw, bw_dx = adaptive_bandwidths(pattern, star, dx, gamma_exponent)
        lattice = Lattice(net, bw_dx)  # resolves the smallest bandwidth
        if timing:  # one discarded solve, so allocator and cache effects do not bias the first timing
            estimate_heat(pattern.subset([0]), lattice, float(bw.bandwidths.min()))
        t0 = time.perf_counter()
        direct = estimate_adaptive_direct(pattern, lattice, bw)
        t_direct = time.perf_counter() - t0
        if timing:
            t0 = time.perf_counter()
            estimate_heat_batch(pattern, lattice, bw.bandwidths)
            t_onepass = time.perf_counter() - t0
        for d in deltas:
            plan = make_partition(bw, d)
            t0 = time.perf_counter()
            part = partition_per_bin(pattern, lattice, plan)
            t_part = time.perf_counter() - t0
            times = (t_direct, t_onepass, t_part, t_part / t_direct) if timing else (None,) * 4
            rows.append(dict(zip(STUDY_COLUMNS, (scenario, rep, d, pattern.n, ise(part, direct), *times))))
    return rows

