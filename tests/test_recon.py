"""Channel assembly, NMSE accounting, and the LS/LMMSE baselines."""

import math

import numpy as np
import pytest

from fddrecon import recon
from fddrecon.enomp import DetectedPath
from fddrecon.sysmodel import (SystemConfig, downlink_channel, generate_scenario,
                               mean_linear_attenuation, steering_vector, uplink_channel)


def small_cfg(**kw):
    base = dict(M_v=2, M_h=4, N=8)
    base.update(kw)
    return SystemConfig(**base)


def full_matrix(cov, n_subcarriers):
    """Dense space-frequency covariance scale * (spatial kron I_N)."""
    return cov.scale * np.kron(cov.spatial, np.eye(n_subcarriers))


class TestReconstruct:
    def test_true_parameters_reproduce_downlink(self):
        cfg = small_cfg()
        sc = generate_scenario(1, 4, cfg, seed=40)
        paths = sc.users[0]
        gains = [p.g_dl for p in paths]
        np.testing.assert_allclose(
            recon.reconstruct(paths, gains, cfg), downlink_channel(paths, cfg),
            rtol=1e-12, atol=1e-14)

    def test_zero_gains_zero_channel(self):
        cfg = small_cfg()
        sc = generate_scenario(1, 3, cfg, seed=41)
        h = recon.reconstruct(sc.users[0], np.zeros(3), cfg)
        np.testing.assert_array_equal(h, 0.0)

    def test_linear_in_gains(self):
        cfg = small_cfg()
        sc = generate_scenario(1, 3, cfg, seed=42)
        gains = np.array([p.g_dl for p in sc.users[0]])
        np.testing.assert_allclose(
            recon.reconstruct(sc.users[0], (1.0 - 2.0j) * gains, cfg),
            (1.0 - 2.0j) * recon.reconstruct(sc.users[0], gains, cfg),
            rtol=1e-12)

    def test_path_order_does_not_matter(self):
        cfg = small_cfg()
        sc = generate_scenario(1, 4, cfg, seed=43)
        paths = list(sc.users[0])
        gains = [p.g_dl for p in paths]
        fwd = recon.reconstruct(paths, gains, cfg)
        rev = recon.reconstruct(paths[::-1], gains[::-1], cfg)
        np.testing.assert_allclose(fwd, rev, rtol=1e-12, atol=1e-14)

    def test_gain_count_mismatch(self):
        cfg = small_cfg()
        sc = generate_scenario(1, 3, cfg, seed=44)
        with pytest.raises(ValueError):
            recon.reconstruct(sc.users[0], [1.0, 2.0], cfg)

    def test_uplink_estimate_matches_model(self):
        cfg = small_cfg()
        sc = generate_scenario(1, 3, cfg, seed=45)
        detected = [DetectedPath(gain=p.g_ul, theta=p.theta, phi=p.phi, tau=p.tau)
                    for p in sc.users[0]]
        np.testing.assert_allclose(
            recon.uplink_channel_estimate(detected, cfg),
            uplink_channel(sc.users[0], cfg), rtol=1e-12)


class TestChannelMatrix:
    def test_indexing_convention(self):
        cfg = small_cfg()
        h = np.arange(cfg.M * cfg.N, dtype=complex)
        mat = recon.channel_matrix(h, cfg)
        assert mat.shape == (cfg.N, cfg.M)
        for m in (0, 3, cfg.M - 1):
            for n in (0, 5, cfg.N - 1):
                assert mat[n, m] == h[m * cfg.N + n]

    def test_row_equals_per_subcarrier_sum(self):
        cfg = small_cfg()
        sc = generate_scenario(1, 3, cfg, seed=46)
        paths = sc.users[0]
        mat = recon.channel_matrix(downlink_channel(paths, cfg), cfg)
        for n in (0, 3, cfg.N - 1):
            row = np.zeros(cfg.M, dtype=complex)
            for p in paths:
                row += (p.g_dl * np.exp(2j * np.pi * cfg.carrier_shift * p.tau)
                        * np.exp(2j * np.pi * n * cfg.delta_f * p.tau)
                        * steering_vector(p.theta, p.phi, cfg))
            np.testing.assert_allclose(mat[n], row, rtol=1e-12)


class TestChannelNmse:
    def test_basic_values(self):
        truth = np.array([1.0 + 1j, 2.0, -1j])
        assert recon.channel_nmse(truth, truth) == 0.0
        assert recon.channel_nmse(2.0 * truth, truth) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            recon.channel_nmse(truth, np.zeros(3))


class TestLsBaseline:
    def test_noiseless_exact(self):
        cfg, p_tx = small_cfg(), 3.0
        sc = generate_scenario(1, 3, cfg, seed=47)
        h = uplink_channel(sc.users[0], cfg)
        y = math.sqrt(p_tx) * h
        np.testing.assert_allclose(recon.ls_baseline(y, p_tx), h, atol=1e-10)

    def test_error_scales_inversely_with_power(self):
        cfg = small_cfg()
        sc = generate_scenario(1, 3, cfg, seed=48)
        h = uplink_channel(sc.users[0], cfg)
        rng = np.random.default_rng(49)
        z = (rng.standard_normal(cfg.M * cfg.N)
             + 1j * rng.standard_normal(cfg.M * cfg.N)) / math.sqrt(2)
        nmse = {}
        for p_tx in (1.0, 100.0):
            y = math.sqrt(p_tx) * h + z
            est = recon.ls_baseline(y, p_tx)
            nmse[p_tx] = recon.channel_nmse(est, h)
        assert nmse[1.0] / nmse[100.0] == pytest.approx(100.0, rel=1e-9)

    @pytest.mark.parametrize("p_tx", [0.0, -1.0, math.nan, math.inf, True])
    def test_rejects_power_that_is_not_finite_positive(self, p_tx):
        cfg = small_cfg()
        y = np.ones(cfg.M * cfg.N, dtype=complex)
        cov = recon.SpaceFrequencyCovariance(spatial=np.eye(cfg.M), scale=1.0)
        with pytest.raises(ValueError, match="p_tx"):
            recon.ls_baseline(y, p_tx)
        with pytest.raises(ValueError, match="p_tx"):
            recon.lmmse_baseline(y, cov, cfg, p_tx)


class TestCovariance:
    def test_validation(self):
        with pytest.raises(ValueError):
            recon.SpaceFrequencyCovariance(spatial=np.ones((2, 3)), scale=1.0)
        herm = np.array([[1.0, 0.5j], [0.5j, 1.0]])  # not Hermitian
        with pytest.raises(ValueError):
            recon.SpaceFrequencyCovariance(spatial=herm, scale=1.0)
        with pytest.raises(ValueError):
            recon.SpaceFrequencyCovariance(spatial=np.eye(2), scale=-0.5)
        indef = np.diag([1.0, -0.3])
        with pytest.raises(ValueError):
            recon.SpaceFrequencyCovariance(spatial=indef, scale=1.0)

    def test_full_matrix_structure(self):
        spatial = np.array([[2.0, 0.5], [0.5, 1.0]])
        cov = recon.SpaceFrequencyCovariance(spatial=spatial, scale=0.25)
        np.testing.assert_allclose(
            full_matrix(cov, 3), 0.25 * np.kron(spatial, np.eye(3)))

    def test_steering_covariance_properties(self):
        for m_v, m_h, d in ((2, 4, 0.5), (8, 16, 0.5), (4, 32, 0.7), (1, 8, 0.5)):
            r = recon.steering_covariance(SystemConfig(M_v=m_v, M_h=m_h, d_over_lambda=d))
            assert r.dtype == np.float64 and r.shape == (m_v * m_h, m_v * m_h)
            np.testing.assert_array_equal(r, r.T)
            np.testing.assert_allclose(np.diag(r), 1.0, rtol=0, atol=1e-14)
            assert np.min(np.linalg.eigvalsh(r)) > -1e-12

    def test_steering_covariance_closed_form_lags(self):
        # Delta h = 0: the mean of exp(j kappa dm sin(theta)) is J0(kappa dm);
        # Delta m = 0: the mean of J0(kappa dh cos(theta)) is J0(kappa dh / 2)^2.
        # J0(x) is the mean of cos(x sin t) over a period, which a periodic
        # trapezoid rule on 512 points gives to rounding for x < 150.
        def j0(x):
            t = 2.0 * np.pi * np.arange(512) / 512
            return np.mean(np.cos(np.multiply.outer(x, np.sin(t))), axis=-1)

        cfg = SystemConfig(M_v=8, M_h=16, d_over_lambda=0.7)
        kappa = 2.0 * np.pi * cfg.d_over_lambda
        lag = recon.steering_covariance(cfg).reshape(cfg.M_v, cfg.M_h, cfg.M_v, cfg.M_h)[:, :, 0, 0]
        np.testing.assert_allclose(lag[:, 0], j0(kappa * np.arange(cfg.M_v)), rtol=0, atol=1e-13)
        np.testing.assert_allclose(lag[0], j0(kappa * np.arange(cfg.M_h) / 2.0) ** 2,
                                   rtol=0, atol=1e-13)

    def test_steering_covariance_matches_full_double_mean(self):
        # every entry of the mean of a a^H at the same nodes, with no lag
        # symmetry assumed, checks the layout (vertical-major) of the table
        cfg = SystemConfig(M_v=3, M_h=4, d_over_lambda=0.6)
        x, w = np.polynomial.legendre.leggauss(64)
        a = steering_vector(np.pi / 2 * x[:, None], np.pi / 2 * x, cfg)
        full = np.einsum("i,j,ijm,ijn->mn", w / 2, w / 2, a, a.conj())
        np.testing.assert_allclose(recon.steering_covariance(cfg), full, rtol=0, atol=1e-13)

    def test_steering_covariance_agrees_with_monte_carlo(self):
        cfg = small_cfg()
        rng = np.random.default_rng(3)
        n = 200_000
        a = steering_vector(rng.uniform(-np.pi / 2, np.pi / 2, n),
                            rng.uniform(-np.pi / 2, np.pi / 2, n), cfg)
        mc = a.T @ a.conj() / n
        # each entry is a mean of unit-modulus draws: standard error <= 1/sqrt(n)
        np.testing.assert_allclose(recon.steering_covariance(cfg), mc, rtol=0,
                                   atol=6.0 / math.sqrt(n))

    # a single-row array needs the most nodes beyond its aperture
    @pytest.mark.parametrize("shape", [(8, 16, 0.5), (4, 32, 0.7), (1, 8, 0.5)])
    def test_steering_covariance_converged(self, shape, monkeypatch):
        m_v, m_h, d = shape
        cfg = SystemConfig(M_v=m_v, M_h=m_h, d_over_lambda=d)
        r = recon.steering_covariance(cfg)
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: leggauss(2 * n))
        np.testing.assert_allclose(recon.steering_covariance(cfg), r, rtol=0, atol=1e-12)

    def test_channel_covariance_scale(self):
        cfg = small_cfg()
        cov = recon.channel_covariance(cfg, att_range_db=(-10.0, 0.0))
        assert cov.scale == pytest.approx(mean_linear_attenuation((-10.0, 0.0)))
        assert recon.channel_covariance(cfg, att_range_db=(0.0, 0.0)).scale == pytest.approx(1.0)


class TestLmmseBaseline:
    def test_matches_dense_filter(self):
        cfg, p_tx = small_cfg(M_v=2, M_h=2, N=3), 2.0
        spatial = recon.steering_covariance(cfg)
        cov = recon.SpaceFrequencyCovariance(spatial=spatial, scale=0.7)
        rng = np.random.default_rng(50)
        y = rng.standard_normal(cfg.M * cfg.N) + 1j * rng.standard_normal(cfg.M * cfg.N)
        got = recon.lmmse_baseline(y, cov, cfg, p_tx)
        h_ls = recon.ls_baseline(y, p_tx)
        r_full = full_matrix(cov, cfg.N)
        dense = r_full @ np.linalg.solve(
            r_full + np.eye(cfg.M * cfg.N) / p_tx, h_ls)
        np.testing.assert_allclose(got, dense, rtol=1e-9, atol=1e-12)

    def test_limiting_behavior(self):
        cfg = small_cfg()
        rng = np.random.default_rng(51)
        y = rng.standard_normal(cfg.M * cfg.N) + 1j * rng.standard_normal(cfg.M * cfg.N)
        huge = recon.SpaceFrequencyCovariance(spatial=np.eye(cfg.M), scale=1e12)
        np.testing.assert_allclose(
            recon.lmmse_baseline(y, huge, cfg, 1.0),
            recon.ls_baseline(y, 1.0), rtol=1e-9)
        null = recon.SpaceFrequencyCovariance(spatial=np.eye(cfg.M), scale=0.0)
        np.testing.assert_array_equal(recon.lmmse_baseline(y, null, cfg, 1.0), 0.0)

    def test_beats_ls_at_low_snr(self):
        cfg, p_tx = small_cfg(), 1.0
        cov = recon.channel_covariance(cfg)
        rng = np.random.default_rng(52)
        ls_total, lm_total = 0.0, 0.0
        for seed in range(10):
            sc = generate_scenario(1, 3, cfg, seed=200 + seed)
            h = uplink_channel(sc.users[0], cfg)
            z = (rng.standard_normal(cfg.M * cfg.N)
                 + 1j * rng.standard_normal(cfg.M * cfg.N)) / math.sqrt(2)
            y = math.sqrt(p_tx) * h + z
            ls_total += recon.channel_nmse(recon.ls_baseline(y, p_tx), h)
            lm_total += recon.channel_nmse(recon.lmmse_baseline(y, cov, cfg, p_tx), h)
        assert lm_total < ls_total

