"""Adaptive (per-point) bandwidths and the quantile-partition estimator.

The per-point bandwidth follows the square-root rule: points in crowded
regions get narrow kernels, isolated points wide ones.  With a pilot density
p_i = pilot(u_i) / n, the bandwidth is

    h_i = global_bandwidth * p_i^(-1/2) / gamma,

where gamma is the geometric mean of the p_i^(-1/2) factors; this makes the
bandwidths invariant to rescaling the pilot (gamma_exponent=-0.5, the
default).  gamma_exponent=-2.0 selects the alternative normalizer
exp(mean(log pilot^-2)), which is not scale-free and is kept for comparison.

The direct adaptive estimate diffuses every point at its own bandwidth.
``heat.estimate_heat_batch`` computes it exactly in one pass; the study
harness keeps the paper's baseline of one solve per point,
``experiment.estimate_adaptive_direct``.  The partition estimator
approximates it by splitting the points into D = 1/delta quantile bins of
the bandwidths and diffusing every point at its bin's midpoint (one
fixed-bandwidth estimate per bin), run as a single
``heat.estimate_heat_batch`` pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadDelta, EmptyPattern, NonpositivePilotWarning
from .heat import DEFAULT_CONFIG, HeatConfig, estimate_heat_batch
from .lattice import Lattice, LatticeFunction, _require_same_network
from .network import PointPattern

#: Pilot values at or below this share of the mean intensity n / |L| are clamped to it.
PILOT_FLOOR = 1e-12


@dataclass
class BandwidthSet:
    """Per-point bandwidths with the ingredients used to compute them."""

    global_bandwidth: float
    pilot: LatticeFunction
    pilot_at_points: np.ndarray
    bandwidths: np.ndarray
    gamma: float
    gamma_exponent: float
    n_clamped: int


def _gamma(pilot_vals, n, gamma_exponent):
    v = np.sort(pilot_vals)  # fixed reduction order: invariant to point order
    if gamma_exponent == -0.5:
        return float(np.exp(np.mean(np.log(np.sqrt(n / v)))))
    if gamma_exponent == -2.0:
        return float(np.exp(np.mean(-2.0 * np.log(v))))
    raise ValueError("gamma_exponent must be -0.5 or -2.0")


def abramson_bandwidths(
    pattern: PointPattern,
    pilot: LatticeFunction,
    global_bandwidth: float,
    gamma_exponent: float = -0.5,
) -> BandwidthSet:
    """Square-root-rule bandwidths from a pilot intensity estimate.

    The pilot is read at each data point by linear interpolation along its
    edge chain; values at or below ``PILOT_FLOOR * n / |L|`` are clamped to it
    (with a warning) so isolated points keep a finite bandwidth.
    """
    _require_same_network(pattern, pilot.lattice)
    if not 0 < global_bandwidth < math.inf:
        raise ValueError("global bandwidth must be positive and finite")
    n = pattern.n
    if n == 0:
        raise EmptyPattern("adaptive bandwidths need at least one data point")
    floor = PILOT_FLOOR * n / pattern.network.total_length
    vals = pilot.values_at(pattern.edge, pattern.offset)
    clamp = vals <= floor
    n_clamped = int(clamp.sum())
    if n_clamped:
        warnings.warn(
            f"pilot intensity at {n_clamped} data point(s) was <= {floor:.6g} ({PILOT_FLOOR} n/|L|); clamped",
            NonpositivePilotWarning,
            stacklevel=2,
        )
        vals = np.where(clamp, floor, vals)
    gamma = _gamma(vals, n, gamma_exponent)
    h = global_bandwidth * np.sqrt(n / vals) / gamma
    return BandwidthSet(
        global_bandwidth=float(global_bandwidth),
        pilot=pilot,
        pilot_at_points=vals,
        bandwidths=h,
        gamma=gamma,
        gamma_exponent=gamma_exponent,
        n_clamped=n_clamped,
    )


def heuristic_global_bandwidth(total_length: float, n: int) -> float:
    """Convenience default |L| / (2 sqrt(n)); a heuristic, not a selector."""
    if n < 1:
        raise EmptyPattern("the heuristic global bandwidth needs at least one data point")
    return total_length / (2.0 * math.sqrt(n))


@dataclass
class PartitionPlan:
    """Quantile binning of per-point bandwidths.

    Bin edges are the empirical quantiles at 0, delta, 2 delta, ..., 1
    (linear-interpolation convention).  The lowest bin is closed on the left,
    the others are left-open; every point lands in exactly one bin.
    """

    delta: float
    n_bins: int
    edges: np.ndarray
    midpoints: np.ndarray
    assignment: np.ndarray

    def bin_indices(self, d: int) -> np.ndarray:
        return np.nonzero(self.assignment == d)[0]


def bin_count(delta: float) -> int:
    """Number of quantile bins for a step ``delta``; raises BadDelta otherwise."""
    if not 0 < delta <= 1:
        raise BadDelta("delta must be in (0, 1]")
    d_real = 1.0 / delta
    n_bins = round(d_real)
    if abs(d_real - n_bins) > 1e-9:
        raise BadDelta(f"1/delta must be an integer (got 1/{delta} = {d_real})")
    return int(n_bins)


def make_partition(bw: BandwidthSet, delta: float) -> PartitionPlan:
    """Split points into D = 1/delta quantile bins of their bandwidths."""
    h = bw.bandwidths
    n = len(h)
    if n == 0:
        raise EmptyPattern("no bandwidths to partition")
    n_bins = bin_count(delta)
    edges = _quantile(h, np.linspace(0.0, 1.0, n_bins + 1))
    mids = 0.5 * (edges[:-1] + edges[1:])
    assignment = np.searchsorted(edges[1:-1], h, side="left")
    return PartitionPlan(float(delta), int(n_bins), edges, mids, assignment.astype(np.int64))


def _quantile(h, q):
    """``np.quantile(h, q)`` of a finite 1-d ``h`` by its default (linear)
    method, bit for bit, without the ``numpy.ma`` import that ``np.quantile`` triggers."""
    s, v = np.sort(h), (len(h) - 1) * q
    i = np.floor(v).astype(np.int64)
    a, b, g = s[i], s[np.minimum(i + 1, len(s) - 1)], v - i
    return np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)


def estimate_adaptive_partition(
    pattern: PointPattern,
    lattice: Lattice,
    bw: BandwidthSet,
    delta: float,
    cfg: HeatConfig = DEFAULT_CONFIG,
) -> LatticeFunction:
    """Partition approximation: every point diffused at its bin's midpoint.

    This is the sum of one fixed-bandwidth estimate per quantile bin, run as
    a single batched solve whose full steps are governed by the largest
    midpoint.
    """
    _require_same_network(pattern, lattice)
    plan = make_partition(bw, delta)
    return estimate_heat_batch(pattern, lattice, plan.midpoints[plan.assignment], cfg)
