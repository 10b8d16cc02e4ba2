import math

import numpy as np
import pytest

from lineheat.errors import NumericalError
from lineheat.experiment import LOGGAUSSIAN_SCENARIOS
from lineheat.lattice import LatticeFunction, discretize
from lineheat.network import build_network
from lineheat.sim import (
    GM5_COVARIANCES,
    ExpCovSpec,
    MixtureSpec,
    field_to_network_intensity,
    gm5_mixture,
    mixture_to_network_intensity,
    sample_gaussian_field,
    sample_poisson_on_network,
    _embedding_eigenvalues,
    unit_square_map,
)

from nets import cdist_field_covariance, grid_network, segment_network


def unit_segment_net():
    # its bounding box maps onto the unit square: the diagonal from (0, 0) to (1, 1)
    return build_network([(0.05, 0.05), (0.95, 0.95)], [(0, 1)])


class TestGaussianField:
    def test_deterministic(self):
        spec = ExpCovSpec(variance=0.9, scale=0.09)
        a = sample_gaussian_field(24, spec, seed=42)
        b = sample_gaussian_field(24, spec, seed=42)
        assert np.array_equal(a, b)
        c = sample_gaussian_field(24, spec, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("res", [16, 128])
    def test_variance_monte_carlo(self, res):
        spec = ExpCovSpec(variance=0.9, scale=0.09)
        cell = (7, 11)
        vals = np.array(
            [sample_gaussian_field(res, spec, seed=s)[cell] for s in range(200)]
        )
        s2 = vals.var(ddof=1)
        se = 0.9 * math.sqrt(2.0 / 199)
        assert abs(s2 - 0.9) <= 3 * se

    def test_correlation_at_scale_distance(self):
        # cells one scale-length apart should correlate at about exp(-1)
        spec = ExpCovSpec(variance=0.9, scale=0.09)
        res = 21  # spacing 0.05
        lag_cells = 2  # distance 0.1
        d = lag_cells * (1.0 / (res - 1))
        rho_want = math.exp(-d / spec.scale)
        a, b = [], []
        for s in range(240):
            g = sample_gaussian_field(res, spec, seed=s)
            a.append(g[6, 9])
            b.append(g[6 + lag_cells, 9])
        rho_hat = np.corrcoef(a, b)[0, 1]
        z_hat, z_want = np.arctanh(rho_hat), np.arctanh(rho_want)
        assert abs(z_hat - z_want) <= 3.0 / math.sqrt(240 - 3)

    @pytest.mark.parametrize("res", [2, 8, 21, 64])
    @pytest.mark.parametrize("name", list(LOGGAUSSIAN_SCENARIOS))
    def test_embedding_covariance_matches_cdist_oracle(self, name, res):
        # the embedded covariance between grid points (i, j) and (i', j') is the
        # inverse transform of the clipped eigenvalues at the wrapped lag
        spec = LOGGAUSSIAN_SCENARIOS[name]
        eig = _embedding_eigenvalues(res, spec)
        m = 2 * (res - 1)
        assert eig.shape == (m, m)
        cov = np.fft.ifft2(np.maximum(eig, 0.0)).real
        i = np.arange(res)
        lag = np.subtract.outer(i, i) % m
        got = cov[lag[:, None, :, None], lag[None, :, None, :]].reshape(res * res, res * res)
        want = cdist_field_covariance(res, spec.variance, spec.scale)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_embedding_refused_when_not_positive_semidefinite(self):
        with pytest.raises(NumericalError, match=r"scale 1 on the 30 x 30 periodic grid of field resolution 16"):
            sample_gaussian_field(16, ExpCovSpec(0.9, 1.0), seed=0)

    def test_spec_validation(self):
        nan, inf = float("nan"), float("inf")
        for variance, scale in [(-1.0, 0.1), (nan, 0.1), (0.9, nan), (inf, 0.1), (0.9, inf), (0.0, 0.1)]:
            with pytest.raises(ValueError, match="variance and scale must be positive and finite"):
                ExpCovSpec(variance=variance, scale=scale)
        with pytest.raises(ValueError):
            sample_gaussian_field(1, ExpCovSpec(1.0, 1.0), seed=0)
        with pytest.raises(ValueError, match="field resolution must be from 2 to 1024, got 1025"):
            sample_gaussian_field(1025, ExpCovSpec(1.0, 0.03), seed=0)
        one = dict(weights=(1.0,), means=((0.5, 0.5),), covariances=(((0.01, 0.0), (0.0, 0.01)),))
        MixtureSpec(**one)
        for key, bad in [
            ("weights", (nan,)),
            ("covariances", (((nan, 0.0), (0.0, 0.01)),)),
            ("covariances", (((0.01, 0.0), (0.0, inf)),)),
            ("covariances", (((0.01, 0.02), (0.02, 0.01)),)),  # indefinite
            ("covariances", (((0.01, 0.0), (0.001, 0.01)),)),  # not symmetric
            ("covariances", (((0.01, 0.0), (0.0, 0.0)),)),  # singular
        ]:
            with pytest.raises(ValueError, match="mixture"):
                MixtureSpec(**{**one, key: bad})


class TestFieldToIntensity:
    def test_zero_field_unit_intensity(self):
        net = unit_segment_net()
        lat = discretize(net, 0.05)
        lam = field_to_network_intensity(np.zeros((8, 8)), lat, mu=0.0)
        assert np.allclose(lam.values, 1.0, rtol=0, atol=0)

    def test_constant_shift_scales(self):
        net = unit_segment_net()
        lat = discretize(net, 0.05)
        rng = np.random.default_rng(0)
        z = rng.normal(size=(8, 8))
        a = field_to_network_intensity(z, lat, mu=0.0)
        b = field_to_network_intensity(z + 1.5, lat, mu=0.0)
        assert np.allclose(b.values, a.values * math.exp(1.5), rtol=1e-12)

    def test_unit_square_map_rescales(self):
        # far outside the unit square, and wider than high: the nodes map into it,
        # the short side centred, and read the field where the map puts them
        net = build_network([(10, 20), (50, 20), (50, 30)], [(0, 1), (1, 2)])
        scale, origin = unit_square_map(net)
        assert scale == 1 / 40 and origin == (10, 5)
        lat = discretize(net, 2.0)
        lam = field_to_network_intensity(np.zeros((6, 6)), lat, mu=0.0)
        assert np.allclose(lam.values, 1.0)
        ax = np.linspace(0.0, 1.0, 6)
        grid = np.add.outer(ax, 2 * ax)  # linear, so bilinear interpolation is exact
        u = (lat.node_xy - origin) * scale
        assert u.min() >= 0 and u.max() <= 1
        lam = field_to_network_intensity(grid, lat, mu=0.0)
        assert np.allclose(np.log(lam.values), u[:, 0] + 2 * u[:, 1], rtol=0, atol=1e-12)


class TestMixture:
    def test_paper_covariances_positive_definite(self):
        for c in GM5_COVARIANCES:
            np.linalg.cholesky(np.array(c))

    def test_density_at_component_mean(self):
        spec = MixtureSpec(
            weights=(1.0,),
            means=((0.5, 0.5),),
            covariances=(((0.01, 0.0), (0.0, 0.01)),),
        )
        net = unit_segment_net()
        lat = discretize(net, 0.01)
        lam = mixture_to_network_intensity(spec, lat)
        got = lam.values_at(0, float(net.edge_lengths[0]) / 2)
        assert got == pytest.approx(1.0 / (2 * math.pi * 0.01), rel=1e-4)

    def test_symmetric_nodes_equal(self):
        spec = MixtureSpec(
            weights=(1.0,),
            means=((0.5, 0.5),),
            covariances=(((0.02, 0.0), (0.0, 0.02)),),
        )
        net = unit_segment_net()
        lat = discretize(net, 0.05)
        lam = mixture_to_network_intensity(spec, lat)
        mid = float(net.edge_lengths[0]) / 2
        a, b = lam.values_at(np.zeros(2, dtype=np.int64), np.array([mid - 0.3, mid + 0.3]))
        assert a == pytest.approx(b, rel=1e-12)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureSpec(
                weights=(0.5, 0.6),
                means=((0, 0), (1, 1)),
                covariances=(((0.01, 0), (0, 0.01)),) * 2,
            )

    def test_gm5_seeded_means(self):
        a = gm5_mixture(7)
        b = gm5_mixture(7)
        assert a.means == b.means
        assert a.weights == (0.2,) * 5


class TestPoissonSampler:
    def test_zero_intensity_empty(self):
        lat = discretize(segment_network(1.0), 0.25)
        pat = sample_poisson_on_network(LatticeFunction(lat, np.zeros(lat.n_nodes)), 1)
        assert pat.n == 0

    def test_mean_count(self):
        net = segment_network(10.0)
        lat = discretize(net, 0.1)
        lam = LatticeFunction(lat, np.full(lat.n_nodes, 20.0))
        counts = [sample_poisson_on_network(lam, seed).n for seed in range(500)]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(500)
        assert abs(mean - 200.0) <= 3 * se

    def test_support_restricted_to_one_edge(self):
        net = build_network([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)])
        lat = discretize(net, 0.1)
        vals = np.zeros(lat.n_nodes)
        chain = lat.edge_chains[1]
        vals[chain[1:-1]] = 50.0  # interior of edge 1 only
        pat = sample_poisson_on_network(LatticeFunction(lat, vals), 3)
        assert pat.n > 0
        assert (pat.edge == 1).all()

    def test_deterministic(self):
        net = segment_network(4.0)
        lat = discretize(net, 0.1)
        lam = LatticeFunction(lat, np.full(lat.n_nodes, 5.0))
        a = sample_poisson_on_network(lam, 99)
        b = sample_poisson_on_network(lam, 99)
        assert a.n == b.n
        assert np.array_equal(a.edge, b.edge) and np.array_equal(a.offset, b.offset)

    def test_columns_match_per_point_draws(self):
        # the same draws as a list of one NetworkLocation per sampled cell
        net = grid_network(3, 2, rng=np.random.default_rng(7))
        lat = discretize(net, 0.2)
        lam = LatticeFunction(lat, np.random.default_rng(8).uniform(5.0, 30.0, lat.n_nodes))
        ce, cl, ch, cn = lat.node_cells
        mass = (ch - cl) * lam.values[cn]
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = int(rng.poisson(float(mass.sum())))
            cells = rng.choice(len(mass), size=n, p=mass / float(mass.sum()))
            u = rng.random(n)
            want = [(int(ce[c]), float(cl[c] + u[k] * (ch[c] - cl[c]))) for k, c in enumerate(cells)]
            got = sample_poisson_on_network(lam, seed)
            assert list(zip(got.edge.tolist(), got.offset.tolist())) == want

    def test_campbell_formula(self):
        # E[sum of 1_B(x_i)] = integral of intensity over B, per edge subset B
        rng = np.random.default_rng(6)
        net = grid_network(3, 2, rng=rng)
        lat = discretize(net, 0.2)
        lam = LatticeFunction(lat, rng.uniform(5.0, 30.0, lat.n_nodes))
        b_edges = {0, 2, 3}
        ce, cl, ch, cn = lat.node_cells
        in_b = np.isin(ce, list(b_edges))
        want = float(((ch - cl) * lam.values[cn])[in_b].sum())
        counts = [
            int(np.isin(sample_poisson_on_network(lam, s).edge, list(b_edges)).sum())
            for s in range(400)
        ]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(400)
        assert abs(mean - want) <= 3 * se

    def test_thinning_consistency(self):
        net = segment_network(6.0)
        lat = discretize(net, 0.1)
        lam2 = LatticeFunction(lat, np.full(lat.n_nodes, 40.0))
        lam1 = LatticeFunction(lat, np.full(lat.n_nodes, 20.0))
        rng = np.random.default_rng(123)
        thin = []
        base = []
        for s in range(300):
            n2 = sample_poisson_on_network(lam2, s).n
            thin.append(rng.binomial(n2, 0.5))
            base.append(sample_poisson_on_network(lam1, 10_000 + s).n)
        diff = np.mean(thin) - np.mean(base)
        se = math.sqrt(np.var(thin, ddof=1) / 300 + np.var(base, ddof=1) / 300)
        assert abs(diff) <= 3 * se
