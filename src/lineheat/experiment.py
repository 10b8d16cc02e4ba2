"""ISE metric and the partition-vs-direct study harness.

A study replicate simulates an intensity on a network, draws a Poisson
pattern, computes per-point bandwidths from a pilot estimate, then compares
the direct adaptive estimate (one solve per point, computed once) against the
partition approximation for each requested quantile step, recording the
integrated squared error and wall-clock ratio.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adaptive import (
    abramson_bandwidths,
    estimate_adaptive_direct,
    heuristic_global_bandwidth,
    make_partition,
)
from .errors import LatticeMismatch
from .heat import DEFAULT_CONFIG, HeatConfig, default_dx, estimate_heat, resolve_dx
from .lattice import LatticeFunction, discretize
from .network import LinearNetwork
from .sim import (
    ExpCovSpec,
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

STUDY_COLUMNS = (
    "scenario",
    "replicate",
    "delta",
    "n_points",
    "ise",
    "time_direct_s",
    "time_partition_s",
    "time_ratio",
)


def ise(estimate: LatticeFunction, reference: LatticeFunction) -> float:
    """Integrated squared error between two functions on the same lattice."""
    if not estimate.lattice.compatible(reference.lattice):
        raise LatticeMismatch("functions live on different lattices")
    diff = estimate.values - reference.values
    return float(estimate.lattice.node_weight @ (diff * diff))


def simulate_intensity(net, lattice, scenario: str, seed, target_points: float, field_res: int):
    """True intensity for a named scenario, scaled/offset to the target count."""
    transform = unit_square_map(net)
    if scenario in LOGGAUSSIAN_SCENARIOS:
        spec = LOGGAUSSIAN_SCENARIOS[scenario]
        grid = sample_gaussian_field(field_res, spec, seed)
        scaled_length = net.total_length * transform.scale
        # lognormal mean identity with each node's actual (interpolated)
        # marginal variance, so E[count] hits the target at any grid res
        node_var = interpolated_variance(spec, lattice, field_res, transform)
        mu = math.log(target_points / scaled_length) - node_var / 2.0
        lam = field_to_network_intensity(grid, lattice, mu, transform)
        # node values are per unit length in unit-square coordinates; convert
        # back to network units so integrals count points on the real network
        return LatticeFunction(lattice, lam.values * transform.scale)
    if scenario == "paper-gm5":
        spec = gm5_mixture(seed)
        lam = mixture_to_network_intensity(spec, lattice, transform)
        return scale_to_target(lam, target_points)
    raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")


@dataclass
class StudyRow:
    scenario: str
    replicate: int
    delta: float
    n_points: int
    ise: float
    time_direct_s: float | None
    time_partition_s: float | None

    @property
    def time_ratio(self) -> float | None:
        if self.time_direct_s is None or self.time_partition_s is None:
            return None
        return self.time_partition_s / self.time_direct_s

    def as_record(self) -> dict:
        return {
            "scenario": self.scenario,
            "replicate": self.replicate,
            "delta": self.delta,
            "n_points": self.n_points,
            "ise": self.ise,
            "time_direct_s": self.time_direct_s,
            "time_partition_s": self.time_partition_s,
            "time_ratio": self.time_ratio,
        }


def _one_replicate(args) -> list[StudyRow]:
    (
        net,
        scenario,
        rep,
        seed,
        deltas,
        target_points,
        field_res,
        eps_star,
        gamma_exponent,
        dx_override,
        timing,
        bandwidth_override,
        cfg,
    ) = args
    rep_seed = seed + rep
    if dx_override is not None:
        truth_dx = dx_override
    elif eps_star:
        truth_dx = default_dx(net, eps_star)
    else:
        truth_dx = float(net.edge_lengths.min()) / 3.0  # scale-free default

    # stage 1: simulate truth and the pattern on a pilot lattice
    lat1 = discretize(net, truth_dx)
    truth = simulate_intensity(net, lat1, scenario, [rep_seed, 0], target_points, field_res)
    pattern = sample_poisson_on_network(truth, [rep_seed, 1])
    if pattern.n == 0:
        return [
            StudyRow(scenario, rep, float(d), 0, float("nan"), None, None) for d in deltas
        ]

    star = eps_star or heuristic_global_bandwidth(net.total_length, pattern.n)
    lat1 = discretize(net, resolve_dx(dx_override, net, star))
    pilot = estimate_heat(pattern, lat1, star, cfg)
    bw = abramson_bandwidths(pattern, pilot, star, gamma_exponent)
    if bandwidth_override is not None:
        # diagnostic: identical bandwidths make the single-bin partition and
        # the direct estimate coincide
        bw.bandwidths = np.full(pattern.n, float(bandwidth_override))

    # stage 2: estimation lattice resolves the smallest bandwidth
    lat2 = discretize(net, resolve_dx(dx_override, net, float(bw.bandwidths.min())))

    if timing:
        _warmup(lat2, pattern, bw, cfg)
    t0 = time.perf_counter()
    direct = estimate_adaptive_direct(pattern, lat2, bw, cfg)
    t_direct = time.perf_counter() - t0

    rows = []
    for d in deltas:
        plan = make_partition(bw, d)
        t0 = time.perf_counter()
        part = partition_per_bin(pattern, lat2, plan, cfg)
        t_part = time.perf_counter() - t0
        rows.append(
            StudyRow(
                scenario,
                rep,
                float(d),
                pattern.n,
                ise(part, direct),
                t_direct if timing else None,
                t_part if timing else None,
            )
        )
    return rows


def partition_per_bin(pattern, lattice, plan, cfg: HeatConfig = DEFAULT_CONFIG) -> LatticeFunction:
    """The paper's partition protocol: one fixed-bandwidth solve per nonempty bin.

    Reference for the study's timings; ``adaptive.estimate_adaptive_partition``
    gives the same estimate in one batched pass.
    """
    total = np.zeros(lattice.n_nodes)
    for d in range(plan.n_bins):
        idx = plan.bin_indices(d)
        if len(idx):
            total += estimate_heat(pattern.subset(idx), lattice, float(plan.midpoints[d]), cfg).values
    return LatticeFunction(lattice, total)


def _warmup(lattice, pattern, bw, cfg):
    # one discarded solve so allocator/cache effects do not bias the first timing
    estimate_heat(pattern.subset([0]), lattice, float(bw.bandwidths.min()), cfg)


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
    jobs: int = 1,
    bandwidth_override: float | None = None,
    cfg: HeatConfig = DEFAULT_CONFIG,
) -> list[dict]:
    """Run the partition-vs-direct comparison.

    Returns one record per (replicate, delta) with the ISE of the partition
    estimate against the direct estimate and, when ``timing`` is on, the
    wall-clock seconds of both (timing forces jobs=1 to avoid contention
    skew).  Replicate r uses seed + r.  ``bandwidth_override`` replaces every
    per-point bandwidth with a constant (diagnostics only).
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    deltas = [float(d) for d in deltas]
    arglist = [
        (
            net,
            scenario,
            rep,
            seed,
            deltas,
            target_points,
            field_res,
            eps_star,
            gamma_exponent,
            dx,
            timing,
            bandwidth_override,
            cfg,
        )
        for rep in range(replicates)
    ]
    if timing and jobs != 1:
        jobs = 1
    if jobs == 1:
        results = [_one_replicate(a) for a in arglist]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_one_replicate, arglist))
    rows: list[dict] = []
    for reprows in results:
        rows.extend(r.as_record() for r in reprows)
    return rows


def median_by_delta(rows: list[dict], key: str) -> dict[float, float]:
    """Median of a study column per delta (NaN-aware), for trend checks."""
    out: dict[float, float] = {}
    for d in sorted({r["delta"] for r in rows}, reverse=True):
        vals = [r[key] for r in rows if r["delta"] == d and r[key] is not None]
        vals = [v for v in vals if not np.isnan(v)]
        out[d] = float(np.median(vals)) if vals else float("nan")
    return out
