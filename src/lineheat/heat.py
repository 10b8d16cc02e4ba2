"""Explicit heat-equation solver on the lattice and the diffusion estimator.

The scheme is the finite-volume form of the network heat equation: every node
exchanges flux (f_j - f_i)/h with each neighbor and scales by beta * dt over
its quadrature weight.  On uniform chains this is the classical three-point
stencil; at a vertex of degree m with equal spacings it reduces to the
(2/m) * sum(f_j - f_v) update, and terminal vertices get the factor-2
reflecting update.  Flux antisymmetry makes discrete mass exact to rounding,
and dt <= min_spacing^2 / (2 beta) keeps every update a convex combination
(nonnegativity).

Diffusivity is fixed at 1/2 so the solution at time t carries variance t:
solving to t = sigma^2 yields the estimator whose kernel is the network heat
kernel with bandwidth sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LocationOffNetwork, StabilityViolation
from .lattice import Lattice, LatticeFunction
from .network import LinearNetwork, PointPattern

#: Thermal diffusivity: time equals kernel variance (t = sigma^2).
BETA = 0.5


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
    """Lattice spacing rule for a solve whose smallest bandwidth is ``sigma_min``."""
    return min(sigma_min / 3.0, float(net.edge_lengths.min()))


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
    if pattern.network is not lattice.network:
        raise LocationOffNetwork("pattern bound to a different network")
    left, right, theta = lattice.bracket(pattern.edge[pattern.order], pattern.offset[pattern.order])
    nodes = np.column_stack((left, right)).ravel()
    share = np.column_stack((1.0 - theta, theta)).ravel()
    mass = np.bincount(nodes, share, lattice.n_nodes)
    return LatticeFunction(lattice, mass / lattice.node_weight)


def _check_dt(lattice: Lattice, dt: float) -> None:
    bound = lattice.min_spacing**2 / (2.0 * BETA)
    if dt > bound * (1.0 + 1e-12):
        raise StabilityViolation(
            f"dt={dt:.3e} exceeds the stability bound {bound:.3e}"
        )


def _step_values(values: np.ndarray, lattice: Lattice, dt: float) -> np.ndarray:
    li, lj, lh = lattice.link_i, lattice.link_j, lattice.link_h
    flux = (values[lj] - values[li]) / lh
    acc = np.bincount(li, weights=flux, minlength=lattice.n_nodes)
    acc -= np.bincount(lj, weights=flux, minlength=lattice.n_nodes)
    return values + (BETA * dt) * acc / lattice.node_weight


def heat_step(f: LatticeFunction, cfg: HeatConfig = DEFAULT_CONFIG, dt: float | None = None) -> LatticeFunction:
    """One explicit step of size ``dt`` (default: the stable step for cfg.alpha)."""
    if dt is None:
        dt = step_size(f.lattice, cfg)
    elif dt < 0:
        raise ValueError("dt must be nonnegative")
    _check_dt(f.lattice, dt)
    return LatticeFunction(f.lattice, _step_values(f.values, f.lattice, dt))


def _inject(lattice: Lattice, times, initial, cfg: HeatConfig) -> np.ndarray:
    """Sum of heat solves, one per group, run as a single time-stepping loop.

    Group k starts from ``initial(k)``, called when it joins, and diffuses
    for ``times[k]``.  Each group is first advanced by its fractional
    remainder step (it commutes with the full steps), then joins the running
    solve when exactly its number of full steps is left; groups with equal
    step counts join in the order given.  By linearity the sum costs the
    largest group's steps plus one short step per group, and a single group
    is the standalone solve.
    """
    dt = step_size(lattice, cfg)
    _check_dt(lattice, dt)
    joins: dict[int, list[tuple[int, float]]] = {}
    for k, t in enumerate(times):
        n = int(math.floor(t / dt))
        r = t - n * dt
        if r < 0.0:  # guard the floor/multiply rounding
            r = 0.0
        if r >= dt:
            n, r = n + 1, 0.0
        joins.setdefault(n, []).append((k, r))
    values = np.zeros(lattice.n_nodes)
    for left in range(max(joins, default=0), -1, -1):
        for k, r in joins.get(left, ()):
            group = initial(k)
            if r > 0.0:
                group = _step_values(group, lattice, r)
            values = values + group
            del group  # held through the steps, it makes each step page-fault
        if left:
            values = _step_values(values, lattice, dt)
    return values


def heat_solve(f0: LatticeFunction, t: float, cfg: HeatConfig = DEFAULT_CONFIG) -> LatticeFunction:
    """Evolve ``f0`` to time ``t`` with the uniform stable step.

    The fractional remainder of t is taken as a single shortened step up
    front, so batched and standalone solves agree.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    return LatticeFunction(f0.lattice, _inject(f0.lattice, [t], lambda k: f0.values, cfg))


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
    order = np.argsort(group, kind="stable")
    members = np.split(order, np.cumsum(np.bincount(group))[:-1])

    def group_mass(k):
        return deposit_initial_mass(pattern.subset(members[k]), lattice).values

    return LatticeFunction(lattice, _inject(lattice, sigmas * sigmas, group_mass, cfg))
