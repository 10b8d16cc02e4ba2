"""Synthetic intensities and point patterns.

Planar scalar fields are simulated on the unit square (log-Gaussian fields
with exponential covariance, or Gaussian mixtures), restricted to the network
by evaluating them at the lattice nodes, and point patterns are drawn from the
resulting intensity with an exact inhomogeneous-Poisson sampler on the node
cells.  Everything is seeded and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .lattice import Lattice, LatticeFunction
from .network import LinearNetwork, PointPattern

#: Finest field grid: a log-Gaussian ``simulate`` run peaks at about
#: 0.30 GB at this res (0.06 GB at 64); the sampler alone needs 1.06 GB at 2048.
MAX_FIELD_RES = 1024


@dataclass(frozen=True)
class ExpCovSpec:
    """Stationary exponential covariance: variance * exp(-distance / scale)."""

    variance: float
    scale: float

    def __post_init__(self):
        if not (0 < self.variance < math.inf and 0 < self.scale < math.inf):
            raise ValueError("variance and scale must be positive and finite")


@dataclass(frozen=True)
class MixtureSpec:
    """Weighted planar Gaussian mixture evaluated as an intensity surface."""

    weights: tuple
    means: tuple
    covariances: tuple

    def __post_init__(self):
        if not (len(self.weights) == len(self.means) == len(self.covariances)):
            raise ValueError("weights, means, covariances must have equal length")
        if not abs(np.sum(self.weights, dtype=float) - 1.0) <= 1e-12:  # False for nan
            raise ValueError("mixture weights must sum to 1")
        c = np.asarray(self.covariances, dtype=float)
        # a symmetric 2 x 2 matrix is positive definite iff c00 > 0 and its determinant is
        if c.shape != (len(c), 2, 2) or not (np.isfinite(c).all() and np.all(c[:, 0, 1] == c[:, 1, 0])
                                             and np.all(c[:, 0, 0] > 0) and np.all(np.linalg.det(c) > 0)):
            raise ValueError("mixture covariances must be finite, symmetric, positive definite 2 x 2 matrices")


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


def _embedding_eigenvalues(res: int, spec: ExpCovSpec) -> np.ndarray:
    """Eigenvalues of the exponential covariance of the wrapped lags on the minimal periodic
    grid of 2(res - 1) points per axis; one negative beyond rounding is refused."""
    m = 2 * (res - 1)
    lag = np.minimum(np.arange(m), m - np.arange(m)) / (res - 1)
    eig = np.fft.fft2(spec.variance * np.exp(-np.hypot.outer(lag, lag) / spec.scale)).real
    if eig.min() < -1e-12 * eig.max():
        raise NumericalError(f"the circulant embedding of scale {spec.scale:g} on the {m} x {m} periodic "
                             f"grid of field resolution {res} is not positive semidefinite (smallest "
                             f"eigenvalue {eig.min() / eig.max():.2g} of the largest)")
    return eig


def sample_gaussian_field(res: int, spec: ExpCovSpec, seed) -> np.ndarray:
    """Zero-mean stationary Gaussian field on a res x res unit-square grid.

    Grid points are linspace(0, 1, res) per axis, axis 0 = x.  Exact circulant
    embedding (Wood & Chan 1994; Dietrich & Newsam 1997): the real part of
    fft2(sqrt(eig / m**2) * z), with independent standard normal real and
    imaginary parts of z on the m x m periodic grid, has the embedded
    covariance, so its top-left res x res block has the field's.  O(res**2)
    memory; a scale the minimal embedding cannot hold raises NumericalError.
    """
    check_field_res(res)
    eig = _embedding_eigenvalues(res, spec)
    m = eig.shape[0]
    z = np.random.default_rng(seed).standard_normal((m, m, 2)).view(complex)[..., 0]
    z *= np.sqrt(np.maximum(eig, 0.0) / (m * m))
    return np.fft.fft2(z)[:res, :res].real.copy()


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
