"""Synthetic intensities and point patterns.

Planar scalar fields are simulated on the unit square (log-Gaussian fields
with exponential covariance, or Gaussian mixtures), restricted to the network
by evaluating them at the lattice nodes, and point patterns are drawn from the
resulting intensity with an exact inhomogeneous-Poisson sampler on the node
cells.  Everything is seeded and reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CholeskyFailure
from .lattice import Lattice, LatticeFunction
from .network import LinearNetwork, PointPattern

#: Finest field grid: the dense covariance has res**4 entries, and a
#: ``simulate`` run peaks at about 0.67 GB at this res (0.44 GB at 64).
MAX_FIELD_RES = 72


@dataclass(frozen=True)
class ExpCovSpec:
    """Stationary exponential covariance: variance * exp(-distance / scale)."""

    variance: float
    scale: float

    def __post_init__(self):
        if self.variance <= 0 or self.scale <= 0:
            raise ValueError("variance and scale must be positive")


@dataclass(frozen=True)
class MixtureSpec:
    """Weighted planar Gaussian mixture evaluated as an intensity surface."""

    weights: tuple
    means: tuple
    covariances: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if not (len(self.weights) == len(self.means) == len(self.covariances)):
            raise ValueError("weights, means, covariances must have equal length")
        for c in self.covariances:
            np.linalg.cholesky(np.asarray(c, dtype=float))  # PD check


#: The five manually assigned covariance matrices of the 5-component preset.
GM5_COVARIANCES = (
    ((0.01, -0.01), (-0.01, 0.02)),
    ((0.016, 0.02), (0.02, 0.05)),
    ((0.01, 0.01), (0.01, 0.03)),
    ((0.02, -0.01), (-0.01, 0.05)),
    ((0.01, 0.001), (0.001, 0.005)),
)


def gm5_mixture(seed) -> MixtureSpec:
    """Five-component preset: fixed covariances, uniform weights, seeded means."""
    rng = np.random.default_rng(seed)
    means = tuple(tuple(m) for m in rng.uniform(0.0, 1.0, size=(5, 2)))
    return MixtureSpec(weights=(0.2,) * 5, means=means, covariances=GM5_COVARIANCES)


@functools.lru_cache(maxsize=2)
def _field_cholesky(res: int, variance: float, scale: float) -> np.ndarray:
    # grid point i * res + j sits at (ax[i], ax[j]), so its squared distance
    # to point i' * res + j' is sq[i, i'] + sq[j, j']
    ax = np.linspace(0.0, 1.0, res)
    sq = np.subtract.outer(ax, ax) ** 2
    cov = (sq[:, None, :, None] + sq[None, :, None, :]).reshape(res * res, res * res)
    np.sqrt(cov, out=cov)
    np.multiply(cov, -1.0 / scale, out=cov)
    np.exp(cov, out=cov)
    np.multiply(cov, variance, out=cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        cov[np.diag_indices_from(cov)] += 1e-10
        try:
            return np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise CholeskyFailure("covariance not positive definite after jitter") from exc


def sample_gaussian_field(res: int, spec: ExpCovSpec, seed) -> np.ndarray:
    """Zero-mean stationary Gaussian field on a res x res unit-square grid.

    Grid points are linspace(0, 1, res) per axis, axis 0 = x.  Dense Cholesky
    of the full covariance, whose res**4 entries cap res at ``MAX_FIELD_RES``.
    """
    check_field_res(res)
    chol = _field_cholesky(res, spec.variance, spec.scale)
    z = np.random.default_rng(seed).standard_normal(res * res)
    return (chol @ z).reshape(res, res)


def check_field_res(res: int) -> None:
    """Reject a field resolution outside 2..``MAX_FIELD_RES``."""
    if not 2 <= res <= MAX_FIELD_RES:
        raise ValueError(f"field resolution must be from 2 to {MAX_FIELD_RES}, got {res}")


def unit_square_map(net: LinearNetwork) -> tuple[float, tuple[float, float]]:
    """(scale, origin) fitting the network bounding box inside [0,1]^2,
    preserving aspect ratio: a point xy maps to (xy - origin) * scale."""
    xmin, ymin = net.vertex_xy.min(axis=0)
    xmax, ymax = net.vertex_xy.max(axis=0)
    extent = max(xmax - xmin, ymax - ymin)
    if extent == 0:
        raise ValueError("degenerate network bounding box")
    # center the short dimension
    ox = xmin - 0.5 * (extent - (xmax - xmin))
    oy = ymin - 0.5 * (extent - (ymax - ymin))
    return 1.0 / extent, (ox, oy)


def _node_unit_coords(lattice: Lattice) -> np.ndarray:
    """Lattice nodes in the unit square of :func:`unit_square_map`; the clip
    absorbs rounding at the bounding box."""
    scale, origin = unit_square_map(lattice.network)
    return np.clip((lattice.node_xy - origin) * scale, 0.0, 1.0)


def _bilinear_anchors(lattice: Lattice, res: int):
    pos = _node_unit_coords(lattice) * (res - 1)
    i0 = np.minimum(pos.astype(np.int64), res - 2)
    frac = pos - i0
    return i0[:, 0], i0[:, 1], frac[:, 0], frac[:, 1]


def field_to_network_intensity(grid: np.ndarray, lattice: Lattice, mu) -> LatticeFunction:
    """Intensity exp(mu + Z) at the lattice nodes, Z bilinearly interpolated
    at their :func:`unit_square_map` coordinates.

    ``mu`` may be a scalar or a per-node array (e.g. the exact lognormal
    offset from :func:`interpolated_variance`).
    """
    res = grid.shape[0]
    if grid.shape != (res, res):
        raise ValueError("field grid must be square")
    ix, iy, fx, fy = _bilinear_anchors(lattice, res)
    z = (
        grid[ix, iy] * (1 - fx) * (1 - fy)
        + grid[ix + 1, iy] * fx * (1 - fy)
        + grid[ix, iy + 1] * (1 - fx) * fy
        + grid[ix + 1, iy + 1] * fx * fy
    )
    return LatticeFunction(lattice, np.exp(np.asarray(mu, dtype=float) + z))


def interpolated_variance(spec: ExpCovSpec, lattice: Lattice, res: int) -> np.ndarray:
    """Marginal variance of the bilinearly interpolated field at each node.

    Interpolation averages correlated grid values, so the node variance is
    below the field variance; the exact value follows from the covariance of
    the four anchor points.  Feeding this into the lognormal mean identity
    makes expected counts exact at any grid resolution.
    """
    _, _, fx, fy = _bilinear_anchors(lattice, res)
    h = 1.0 / (res - 1)
    r_side = math.exp(-h / spec.scale)
    r_diag = math.exp(-h * math.sqrt(2.0) / spec.scale)
    a = (1 - fx) * (1 - fy)
    b = fx * (1 - fy)
    c = (1 - fx) * fy
    d = fx * fy
    quad = (
        a * a + b * b + c * c + d * d
        + 2 * (a * b + c * d) * r_side  # x-neighbors
        + 2 * (a * c + b * d) * r_side  # y-neighbors
        + 2 * (a * d + b * c) * r_diag
    )
    return spec.variance * quad


def mixture_to_network_intensity(spec: MixtureSpec, lattice: Lattice) -> LatticeFunction:
    """Mixture density at the lattice nodes' :func:`unit_square_map` coordinates."""
    xy = _node_unit_coords(lattice)
    total = np.zeros(lattice.n_nodes)
    for w, mean, cov in zip(spec.weights, spec.means, spec.covariances):
        cov = np.asarray(cov, dtype=float)
        chol = np.linalg.cholesky(cov)
        diff = xy - np.asarray(mean, dtype=float)
        sol = np.linalg.solve(chol, diff.T)
        q = np.sum(sol * sol, axis=0)
        norm = 2.0 * math.pi * chol[0, 0] * chol[1, 1]
        total += w * np.exp(-0.5 * q) / norm
    return LatticeFunction(lattice, total)


def scale_to_target(intensity: LatticeFunction, target_points: float) -> LatticeFunction:
    """Rescale an intensity so its network integral equals ``target_points``."""
    total = intensity.integral()
    if total <= 0:
        raise ValueError("cannot rescale a zero intensity")
    return LatticeFunction(intensity.lattice, intensity.values * (target_points / total))


def sample_poisson_on_network(intensity: LatticeFunction, seed) -> PointPattern:
    """Inhomogeneous Poisson sample from a lattice intensity.

    The count is Poisson(integral); each point picks a node cell with
    probability proportional to cell length times node value, then lands
    uniformly inside the cell.
    """
    lat = intensity.lattice
    if np.any(intensity.values < 0):
        raise ValueError("intensity must be nonnegative")
    ce, cl, ch, cn = lat.node_cells
    cell_mass = (ch - cl) * intensity.values[cn]
    total = float(cell_mass.sum())
    rng = np.random.default_rng(seed)
    n = 0 if total <= 0 else int(rng.poisson(total))
    if n == 0:
        return PointPattern(lat.network, [], [])
    c = rng.choice(len(cell_mass), size=n, p=cell_mass / total)
    return PointPattern(lat.network, ce[c], cl[c] + rng.random(n) * (ch[c] - cl[c]))
