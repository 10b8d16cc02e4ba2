"""Explicit heat-equation solver on the lattice and the diffusion estimator.

The scheme is the finite-volume form of the network heat equation: every node
exchanges flux (f_j - f_i)/h with each neighbor and scales by beta * dt over
its quadrature weight.  On uniform chains this is the classical three-point
stencil; at a vertex of degree m with equal spacings it reduces to the
(2/m) * sum(f_j - f_v) update, and terminal vertices get the factor-2
reflecting update.  Flux antisymmetry makes discrete mass exact to rounding,
and dt = alpha h_min^2 / (2 beta) keeps every update a convex combination
(nonnegativity) with mixed spacings too: neighbors get weight beta dt 2/h^2 <= alpha
at an interior node of spacing h, and beta dt sum(1/h_l) / (sum(h_l)/2) =
alpha sum(h_min^2/h_l) / sum(h_l) <= alpha at a vertex of incident spacings h_l.

The solver steps ``Lattice._solver``, whose clusters merge the ends of links
shorter than dx_target / 2.  A cluster weighs at least half the summed length
of its kept links, so the bound holds with h_min the shortest kept link; every
node reads its cluster's value, and deposits join a cluster as mass.

Diffusivity is fixed at 1/2 so the solution at time t carries variance t:
solving to t = sigma^2 yields the estimator whose kernel is the network heat
kernel with bandwidth sigma.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import StepBudgetExceeded
from .lattice import Lattice, LatticeFunction, SolverGraph, _require_same_network
from .network import LinearNetwork, PointPattern

#: Thermal diffusivity: time equals kernel variance (t = sigma^2).
BETA = 0.5

#: Most full explicit steps one solve may take; more is a hang, not a result.
MAX_STEPS = 10**7

#: Most node-steps (full explicit steps times lattice nodes) one solve, or the
#: per-point solves of ``experiment.estimate_adaptive_direct`` together, may take.
MAX_NODE_STEPS = 3 * 10**9

#: Largest bandwidth whose square, the diffusion time, is a finite float.
MAX_BANDWIDTH = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class HeatConfig:
    """Solver controls.

    alpha scales the time step below the stability bound
    dt = alpha * h^2 / (2 beta), h the shortest link the solver graph keeps.
    """

    alpha: float = 0.9

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")


DEFAULT_CONFIG = HeatConfig()


def default_dx(net: LinearNetwork, sigma_min: float) -> float:
    """Lattice spacing for a smallest bandwidth ``sigma_min``: shorter edges are one piece."""
    return sigma_min / 3.0


def resolve_dx(dx: float | None, net: LinearNetwork, sigma_min: float) -> float:
    """``dx`` when one is given (not None), else :func:`default_dx`."""
    return default_dx(net, sigma_min) if dx is None else dx


def step_size(lattice: Lattice, cfg: HeatConfig = DEFAULT_CONFIG) -> float:
    """Stable explicit time step, set by the shortest link of the lattice's solver
    graph; inf when it keeps no link, as a step of any length is then the identity."""
    return cfg.alpha * lattice._solver.min_link ** 2 / (2.0 * BETA)


def deposit_initial_mass(pattern: PointPattern, lattice: Lattice) -> LatticeFunction:
    """Discrete density with unit mass per point.

    Each point splits its mass linearly between the two bracketing chain nodes
    and is divided by the node weights, so the discrete integral equals the
    number of points.  Points are added in ``pattern.order``.
    """
    nodes, share = _shares(pattern, lattice, pattern.order)
    mass = np.bincount(nodes, share, lattice.n_nodes)
    return LatticeFunction(lattice, mass / lattice.node_weight)


def _shares(pattern: PointPattern, lattice: Lattice, points):
    """(node, share) rows of ``points``' unit masses, split between their bracketing chain nodes."""
    _require_same_network(pattern, lattice)
    left, right, theta = lattice.bracket(pattern.edge[points], pattern.offset[points])
    return np.column_stack((left, right)).ravel(), np.column_stack((1.0 - theta, theta)).ravel()


def _lengthen_step(lattice: Lattice) -> str:
    """How to lengthen the step; a solver link below the merge threshold was kept by the extent bound."""
    g = lattice._solver
    h = g.min_link
    if h >= g.tau:
        return "raise --dx"
    return (f"drop or merge edges {h:.6g} long or shorter: the solver keeps one where a run of "
            "them spans half the lattice spacing")


def _check_node_steps(lattice: Lattice, steps: int, advice: str) -> None:
    """Raise StepBudgetExceeded if ``steps`` full steps on ``lattice`` pass ``MAX_NODE_STEPS``.

    ``advice`` names the options that lower ``steps``; :func:`_lengthen_step` follows.
    """
    if steps * lattice.n_nodes > MAX_NODE_STEPS:
        raise StepBudgetExceeded(
            f"{steps} explicit steps on {lattice.n_nodes} lattice nodes exceed the budget of "
            f"{MAX_NODE_STEPS:.0e} node-steps; {advice} or {_lengthen_step(lattice)}")


def _step_values(values: np.ndarray, graph: SolverGraph, dt: float) -> np.ndarray:
    # values + (beta dt) acc / weight, in place: with more lattice-size temporaries
    # per step, glibc may return them to the OS and every step faults them back in
    flux = values[graph.link_j]
    flux -= values[graph.link_i]
    flux /= graph.link_h
    acc = np.bincount(graph.link_i, flux, len(values)).astype(float, copy=False)  # int with no links
    acc -= np.bincount(graph.link_j, flux, len(values))
    acc *= BETA * dt
    acc /= graph.node_weight
    acc += values
    return acc


def heat_step(f: LatticeFunction, cfg: HeatConfig = DEFAULT_CONFIG) -> LatticeFunction:
    """One explicit step of size :func:`step_size` on the solver graph: ``f``
    is averaged over each cluster by weight, stepped, and read back."""
    g, dt = f.lattice._solver, step_size(f.lattice, cfg)
    values = np.bincount(g.cluster, f.values * f.lattice.node_weight) / g.node_weight
    return LatticeFunction(f.lattice, (_step_values(values, g, dt) if dt < math.inf else values)[g.cluster])


def _inject(lattice: Lattice, times, key, mass, cfg: HeatConfig) -> np.ndarray:
    """Sum of heat solves, one per group, run as a single time-stepping loop.

    Group k holds ``mass`` at the nodes ``key - k * n_nodes`` of the sorted
    ``key`` in ``[k * n_nodes, (k + 1) * n_nodes)``, summed per solver cluster
    in node order and divided by its weight, and diffuses for ``times[k] =
    (m + theta) * dt``.  An explicit step is affine in its length, S(theta dt)
    = (1 - theta) I + theta S(dt), so the group joins the running solve by
    scatter-adds twice: its values times 1 - theta when m full steps are
    left, and times theta when m + 1 are left (not at all when theta is 0).
    At each step count the (1 - theta) joins come first, each kind in group
    order.  By linearity the sum costs the largest group's m + (theta > 0)
    full steps, and a single group is the standalone solve.
    """
    g = lattice._solver
    n, nc = lattice.n_nodes, len(g.node_weight)
    key, at = np.unique(key // n * nc + g.cluster[key % n], return_inverse=True)
    value = np.bincount(at, mass, len(key)) / g.node_weight[key % nc]
    dt = step_size(lattice, cfg)
    q = np.asarray(times, dtype=float) / dt
    m = np.floor(q)
    theta = q - m
    if (steps := int(np.ceil(q).max(initial=0.0))) > MAX_STEPS:
        raise StepBudgetExceeded(
            f"{steps} explicit steps exceed the budget of {MAX_STEPS}: the shortest solver link "
            f"is {g.min_link:.6g} long; {_lengthen_step(lattice)} or lower the bandwidth")
    _check_node_steps(lattice, steps, "lower the bandwidth (--bw or --bw-global)")
    k = key // nc
    late = theta[k] > 0
    join = np.concatenate((m[k], m[k[late]] + 1)).astype(np.int64)
    node = np.concatenate((key, key[late])) % nc
    value = np.concatenate(((1.0 - theta[k]) * value, theta[k[late]] * value[late]))
    order = np.argsort(join, kind="stable")
    join, node, value = join[order], node[order], value[order]
    values = np.zeros(nc)
    end = len(join)
    for left in range(steps, -1, -1):
        if end and join[end - 1] == left:
            start = int(np.searchsorted(join, left))
            np.add.at(values, node[start:end], value[start:end])
            end = start
        if left:
            values = _step_values(values, g, dt)
    return values[g.cluster]


def heat_solve(f0: LatticeFunction, t: float, cfg: HeatConfig = DEFAULT_CONFIG) -> LatticeFunction:
    """Evolve ``f0`` to time ``t = (m + theta) * dt`` with the stable step ``dt``.

    Every step is a full one: the masses of ``f0``'s nonzeros join the solve
    times 1 - theta with m steps left and times theta with m + 1 left, as
    one group of :func:`estimate_heat_batch` does, so batched and standalone
    solves agree.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    key = np.flatnonzero(f0.values)
    mass = f0.values[key] * f0.lattice.node_weight[key]
    return LatticeFunction(f0.lattice, _inject(f0.lattice, [t], key, mass, cfg))


def estimate_heat(
    pattern, lattice: Lattice, sigma: float, cfg: HeatConfig = DEFAULT_CONFIG
) -> LatticeFunction:
    """Diffusion intensity estimate at bandwidth ``sigma``.

    Deposits unit mass per point and solves the heat equation to time
    sigma^2; the result integrates to the point count exactly (mass
    conservation of the scheme).  The one-group :func:`estimate_heat_batch`.
    """
    if not 0 < sigma <= MAX_BANDWIDTH:
        raise ValueError(f"sigma must be positive with a finite square, got {sigma}")
    return estimate_heat_batch(pattern, lattice, np.full(pattern.n, float(sigma)), cfg)


def estimate_heat_batch(
    pattern: PointPattern, lattice: Lattice, bandwidths, cfg: HeatConfig = DEFAULT_CONFIG
) -> LatticeFunction:
    """Sum of per-point diffusion estimates, each at its own bandwidth.

    ``bandwidths`` holds one positive bandwidth per point of ``pattern``.
    Points with equal bandwidths are deposited together and every group is
    injected into one running solve, so the full steps are governed by the
    largest bandwidth rather than the sum.  Equals the per-point solves up
    to rounding.
    """
    h = np.asarray(bandwidths, dtype=float)
    if h.shape != (pattern.n,):
        raise ValueError(f"need one bandwidth per point ({pattern.n}), got shape {h.shape}")
    if not np.all((h > 0) & (h <= MAX_BANDWIDTH)):
        raise ValueError("all bandwidths must be positive with finite squares")
    sigmas, group = np.unique(h, return_inverse=True)
    # each group's unit masses, summed per node in pattern.order as deposit_initial_mass sums them
    points = pattern.order[np.argsort(group[pattern.order], kind="stable")]
    nodes, share = _shares(pattern, lattice, points)
    key, at = np.unique(np.repeat(group[points] * lattice.n_nodes, 2) + nodes, return_inverse=True)
    return LatticeFunction(lattice, _inject(lattice, sigmas * sigmas, key, np.bincount(at, share, len(key)), cfg))
