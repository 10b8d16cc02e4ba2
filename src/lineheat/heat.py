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

Diffusivity is fixed at 1/2 so the solution at time t carries variance t:
solving to t = sigma^2 yields the estimator whose kernel is the network heat
kernel with bandwidth sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LocationOffNetwork, StabilityViolation, StepBudgetExceeded
from .lattice import Lattice, LatticeFunction
from .network import LinearNetwork, PointPattern

#: Thermal diffusivity: time equals kernel variance (t = sigma^2).
BETA = 0.5

#: Most full explicit steps one solve may take; more is a hang, not a result.
MAX_STEPS = 10**7

#: Most node-steps (full explicit steps times lattice nodes) one solve, or the
#: per-point solves of ``adaptive.estimate_adaptive_direct`` together, may take.
MAX_NODE_STEPS = 3 * 10**9


@dataclass(frozen=True)
class HeatConfig:
    """Solver controls.

    alpha scales the time step below the stability bound
    dt = alpha * min_spacing^2 / (2 beta).
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
    """Stable explicit time step for this lattice."""
    return cfg.alpha * lattice.min_spacing**2 / (2.0 * BETA)


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
    if pattern.network is not lattice.network:
        raise LocationOffNetwork("pattern bound to a different network")
    left, right, theta = lattice.bracket(pattern.edge[points], pattern.offset[points])
    return np.column_stack((left, right)).ravel(), np.column_stack((1.0 - theta, theta)).ravel()


def _check_dt(lattice: Lattice, dt: float) -> None:
    bound = lattice.min_spacing**2 / (2.0 * BETA)
    if dt > bound * (1.0 + 1e-12):
        raise StabilityViolation(
            f"dt={dt:.3e} exceeds the stability bound {bound:.3e}"
        )


def _check_node_steps(lattice: Lattice, steps: int, advice: str) -> None:
    """Raise StepBudgetExceeded if ``steps`` full steps on ``lattice`` pass ``MAX_NODE_STEPS``."""
    if steps * lattice.n_nodes > MAX_NODE_STEPS:
        raise StepBudgetExceeded(
            f"{steps} explicit steps on {lattice.n_nodes} lattice nodes exceed the budget of "
            f"{MAX_NODE_STEPS:.0e} node-steps; {advice}")


def _step_values(values: np.ndarray, lattice: Lattice, dt: float) -> np.ndarray:
    return _step(values, lattice.link_i, lattice.link_j, lattice.link_h, lattice.node_weight, dt)


def _step(values, li, lj, h, weight, dt):
    # values + (beta dt) acc / weight, in place: with more lattice-size temporaries
    # per step, glibc may return them to the OS and every step faults them back in
    flux = values[lj]
    flux -= values[li]
    flux /= h
    acc = np.bincount(li, flux, len(values))
    acc -= np.bincount(lj, flux, len(values))
    acc *= BETA * dt
    acc /= weight
    acc += values
    return acc


def heat_step(f: LatticeFunction, cfg: HeatConfig = DEFAULT_CONFIG, dt: float | None = None) -> LatticeFunction:
    """One explicit step of size ``dt`` (default: the stable step for cfg.alpha)."""
    if dt is None:
        dt = step_size(f.lattice, cfg)
    elif dt < 0:
        raise ValueError("dt must be nonnegative")
    _check_dt(f.lattice, dt)
    return LatticeFunction(f.lattice, _step_values(f.values, f.lattice, dt))


def _inject(lattice: Lattice, times, key, value, cfg: HeatConfig) -> np.ndarray:
    """Sum of heat solves, one per group, run as a single time-stepping loop.

    Group k holds ``value`` at the nodes ``key - k * n_nodes`` of the sorted
    ``key`` in ``[k * n_nodes, (k + 1) * n_nodes)``, 0 elsewhere, and diffuses
    for ``times[k]``.  Each group takes its fractional remainder step on its
    own links (it commutes with the full steps), then joins the running solve
    by a scatter-add when exactly its number of full steps is left; groups
    with equal step counts join in group order.  By linearity the sum costs
    the largest group's full steps, and a single group is the standalone solve.
    """
    dt = step_size(lattice, cfg)
    _check_dt(lattice, dt)
    t = np.asarray(times, dtype=float)
    full = np.floor(t / dt)
    r = np.maximum(t - full * dt, 0.0)  # guard the floor/multiply rounding
    full[r >= dt] += 1
    r[r >= dt] = 0.0
    if (steps := int(full.max(initial=0.0))) > MAX_STEPS:
        raise StepBudgetExceeded(
            f"{steps} explicit steps exceed the budget of {MAX_STEPS}: the shortest lattice piece "
            f"is {lattice.min_spacing:.6g} long; drop edges that short or lower the bandwidth")
    _check_node_steps(lattice, steps, "lower the bandwidth (--bw or --bw-global) or raise --dx")
    if len(key):
        key, value = _remainder_step(lattice, key, value, r)
    join = full.astype(np.int64)[key // lattice.n_nodes]
    order = np.argsort(join, kind="stable")
    join, node, value = join[order], key[order] % lattice.n_nodes, value[order]
    values = np.zeros(lattice.n_nodes)
    end = len(join)
    for left in range(steps, -1, -1):
        if end and join[end - 1] == left:
            start = int(np.searchsorted(join, left))
            np.add.at(values, node[start:end], value[start:end])
            end = start
        if left:
            values = _step_values(values, lattice, dt)
    return values


def _remainder_step(lattice: Lattice, key, value, r):
    """The groups of :func:`_inject` after one step of ``r[k]`` each, as (key, value).

    Only the links that touch a group's nodes carry flux; every other flux
    is exactly +0.0.  So the step on the sub-lattice of those links, whose
    nodes add their fluxes in link order, equals :func:`_step_values` on the
    group's dense values bit for bit; a zero ``r[k]`` leaves them as they are.
    """
    n, nl = lattice.n_nodes, len(lattice.link_h)
    first, links = lattice._node_links
    node = key % n
    count = first[node + 1] - first[node]
    at = np.repeat(first[node] + count - np.cumsum(count), count) + np.arange(count.sum())
    # each group's links, once each, in link order, and the nodes they join
    gl = np.sort(np.repeat(key // n * nl, count) + links[at])
    g, link = np.divmod(gl[np.diff(gl, prepend=-1) > 0], nl)
    ends, at = np.unique(np.concatenate((key, g * n + lattice.link_i[link], g * n + lattice.link_j[link])),
                         return_inverse=True)
    local = np.zeros(len(ends))
    local[at[:len(key)]] = value
    li, lj = np.split(at[len(key):], 2)
    return ends, _step(local, li, lj, lattice.link_h[link], lattice.node_weight[ends % n], r[ends // n])


def heat_solve(f0: LatticeFunction, t: float, cfg: HeatConfig = DEFAULT_CONFIG) -> LatticeFunction:
    """Evolve ``f0`` to time ``t`` with the uniform stable step.

    The fractional remainder of t is taken as a single shortened step up
    front, on the nonzeros of ``f0`` and their neighbours, so batched and
    standalone solves agree.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    key = np.flatnonzero(f0.values)
    return LatticeFunction(f0.lattice, _inject(f0.lattice, [t], key, f0.values[key], cfg))


def estimate_heat(
    pattern, lattice: Lattice, sigma: float, cfg: HeatConfig = DEFAULT_CONFIG
) -> LatticeFunction:
    """Diffusion intensity estimate at bandwidth ``sigma``.

    Deposits unit mass per point and solves the heat equation to time
    sigma^2; the result integrates to the point count exactly (mass
    conservation of the scheme).
    """
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return heat_solve(deposit_initial_mass(pattern, lattice), sigma * sigma, cfg)


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
    if not np.all((h > 0) & (h < np.inf)):
        raise ValueError("all bandwidths must be positive and finite")
    sigmas, group = np.unique(h, return_inverse=True)
    # each group's deposit, summed per node in pattern.order as deposit_initial_mass sums it
    points = pattern.order[np.argsort(group[pattern.order], kind="stable")]
    nodes, share = _shares(pattern, lattice, points)
    key, at = np.unique(np.repeat(group[points] * lattice.n_nodes, 2) + nodes, return_inverse=True)
    mass = np.bincount(at, share) / lattice.node_weight[key % lattice.n_nodes]
    return LatticeFunction(lattice, _inject(lattice, sigmas * sigmas, key, mass, cfg))
