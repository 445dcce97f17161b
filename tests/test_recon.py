"""Channel assembly, NMSE accounting, and the LS/LMMSE baselines."""

import math

import numpy as np
import pytest

from fddrecon import recon
from fddrecon.enomp import DetectedPath
from fddrecon.sysmodel import (SystemConfig, downlink_channel, generate_scenario,
                               mean_linear_attenuation, steering_factors,
                               uplink_channel)


def small_cfg(**kw):
    base = dict(M_v=2, M_h=4, N=8)
    base.update(kw)
    return SystemConfig(**base)


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
        from fddrecon.sysmodel import steering_vector
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
        cfg = small_cfg(P=3.0)
        sc = generate_scenario(1, 3, cfg, seed=47)
        h = uplink_channel(sc.users[0], cfg)
        y = math.sqrt(cfg.P) * h
        np.testing.assert_allclose(recon.ls_baseline(y, cfg), h, atol=1e-10)

    def test_error_scales_inversely_with_power(self):
        cfg1 = small_cfg(P=1.0)
        cfg2 = small_cfg(P=100.0)
        sc = generate_scenario(1, 3, cfg1, seed=48)
        h = uplink_channel(sc.users[0], cfg1)
        rng = np.random.default_rng(49)
        z = (rng.standard_normal(cfg1.M * cfg1.N)
             + 1j * rng.standard_normal(cfg1.M * cfg1.N)) / math.sqrt(2)
        nmse = {}
        for cfg in (cfg1, cfg2):
            y = math.sqrt(cfg.P) * h + z
            est = recon.ls_baseline(y, cfg)
            nmse[cfg.P] = recon.channel_nmse(est, h)
        assert nmse[1.0] / nmse[100.0] == pytest.approx(100.0, rel=1e-9)


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
            cov.full_matrix(3), 0.25 * np.kron(spatial, np.eye(3)))

    def test_steering_covariance_properties(self):
        cfg = small_cfg()
        r = recon.steering_covariance(cfg, n_draws=2000, seed=3)
        np.testing.assert_allclose(r, r.conj().T, atol=1e-14)
        np.testing.assert_allclose(np.diag(r).real, 1.0, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(r)) > -1e-10
        r2 = recon.steering_covariance(cfg, n_draws=2000, seed=3)
        np.testing.assert_array_equal(r, r2)

    def test_steering_covariance_matches_per_draw_loop(self):
        # Reference: one steering_factors + np.kron per draw, in the same
        # 512-draw blocks; 1300 draws leave a partial tail block.
        cfg = SystemConfig()
        n_draws, seed = 1300, 11
        rng = np.random.default_rng(seed)
        acc = np.zeros((cfg.M, cfg.M), dtype=np.complex128)
        for start in range(0, n_draws, 512):
            count = min(512, n_draws - start)
            thetas = rng.uniform(-np.pi / 2, np.pi / 2, count)
            phis = rng.uniform(-np.pi / 2, np.pi / 2, count)
            a = np.array([np.kron(*steering_factors(t, p, cfg))
                          for t, p in zip(thetas, phis)])
            acc += a.T @ a.conj()
        ref = acc / n_draws
        ref = (ref + ref.conj().T) / 2.0
        np.testing.assert_array_equal(
            recon.steering_covariance(cfg, n_draws=n_draws, seed=seed), ref)

    def test_channel_covariance_scale(self):
        cfg = small_cfg()
        cov = recon.channel_covariance(cfg, att_range_db=(-10.0, 0.0),
                                       n_draws=500, seed=4)
        assert cov.scale == pytest.approx(mean_linear_attenuation((-10.0, 0.0)))
        assert recon.channel_covariance(cfg, att_range_db=(0.0, 0.0),
                                        n_draws=10, seed=4).scale == pytest.approx(1.0)


class TestLmmseBaseline:
    def test_matches_dense_filter(self):
        cfg = small_cfg(M_v=2, M_h=2, N=3, P=2.0)
        spatial = recon.steering_covariance(cfg, n_draws=300, seed=5)
        cov = recon.SpaceFrequencyCovariance(spatial=spatial, scale=0.7)
        rng = np.random.default_rng(50)
        y = rng.standard_normal(cfg.M * cfg.N) + 1j * rng.standard_normal(cfg.M * cfg.N)
        got = recon.lmmse_baseline(y, cov, cfg)
        h_ls = recon.ls_baseline(y, cfg)
        r_full = cov.full_matrix(cfg.N)
        dense = r_full @ np.linalg.solve(
            r_full + np.eye(cfg.M * cfg.N) / cfg.P, h_ls)
        np.testing.assert_allclose(got, dense, rtol=1e-9, atol=1e-12)

    def test_limiting_behavior(self):
        cfg = small_cfg()
        rng = np.random.default_rng(51)
        y = rng.standard_normal(cfg.M * cfg.N) + 1j * rng.standard_normal(cfg.M * cfg.N)
        huge = recon.SpaceFrequencyCovariance(spatial=np.eye(cfg.M), scale=1e12)
        np.testing.assert_allclose(
            recon.lmmse_baseline(y, huge, cfg),
            recon.ls_baseline(y, cfg), rtol=1e-9)
        null = recon.SpaceFrequencyCovariance(spatial=np.eye(cfg.M), scale=0.0)
        np.testing.assert_array_equal(recon.lmmse_baseline(y, null, cfg), 0.0)

    def test_beats_ls_at_low_snr(self):
        cfg = small_cfg(P=1.0)
        cov = recon.channel_covariance(cfg, n_draws=4000, seed=8)
        rng = np.random.default_rng(52)
        ls_total, lm_total = 0.0, 0.0
        for seed in range(10):
            sc = generate_scenario(1, 3, cfg, seed=200 + seed)
            h = uplink_channel(sc.users[0], cfg)
            z = (rng.standard_normal(cfg.M * cfg.N)
                 + 1j * rng.standard_normal(cfg.M * cfg.N)) / math.sqrt(2)
            y = math.sqrt(cfg.P) * h + z
            ls_total += recon.channel_nmse(recon.ls_baseline(y, cfg), h)
            lm_total += recon.channel_nmse(recon.lmmse_baseline(y, cov, cfg), h)
        assert lm_total < ls_total

