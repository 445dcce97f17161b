"""Channel assembly, NMSE accounting, and the LS/LMMSE baselines."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddrecon import recon
from fddrecon.enomp import DetectedPath
from fddrecon.sysmodel import (TWO_PI, SystemConfig, downlink_channel, generate_scenario,
                               mean_linear_attenuation, steering_factors, steering_vector,
                               uplink_channel)


def small_cfg(**kw):
    base = dict(M_v=2, M_h=4, N=8)
    base.update(kw)
    return SystemConfig(**base)


def steering_covariance_whole(cfg):
    """`recon.steering_covariance` with the azimuth mean taken over the
    whole (n, n, M_h) tensor of every node pair at once."""
    span = TWO_PI * cfg.d_over_lambda * math.hypot(cfg.M_v - 1, cfg.M_h - 1)
    x, w = np.polynomial.legendre.leggauss(math.ceil(span) + recon._NODE_MARGIN)
    nodes, w = (math.pi / 2) * x, w / 2.0
    a_v, a_h = steering_factors(nodes[:, None], nodes, cfg)
    lag = ((w * a_v[:, 0].T) @ (w @ a_h)).real
    d_v, d_h = (np.abs(np.subtract.outer(np.arange(m), np.arange(m))) for m in (cfg.M_v, cfg.M_h))
    return lag[d_v[:, None, :, None], d_h[None, :, None, :]].reshape(cfg.M, cfg.M)


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

    @pytest.mark.parametrize("estimate", [np.array([1e150, 0.0]), np.array([math.nan, 0.0])])
    def test_non_finite_ratio_is_a_floating_point_error(self, estimate):
        # 1e300 / 1e-300 overflows: a failed trial, not an inf in the CSV
        with pytest.raises(FloatingPointError, match="non-finite channel NMSE"):
            recon.channel_nmse(estimate, np.array([1e-150, 0.0]))

    @pytest.mark.parametrize("estimate, truth", [
        (np.zeros(4), np.ones((4, 1))),  # broadcast to (4, 4): 4.0 where the NMSE is 1.0
        (np.ones((4, 1)), np.ones(4)),
        (np.ones(1), np.ones(4)),
    ])
    def test_rejects_mismatched_shapes(self, estimate, truth):
        with pytest.raises(ValueError, match="shape"):
            recon.channel_nmse(estimate, truth)


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
        cov = (np.ones(cfg.M), np.eye(cfg.M))
        with pytest.raises(ValueError, match="p_tx"):
            recon.ls_baseline(y, p_tx)
        with pytest.raises(ValueError, match="p_tx"):
            recon.lmmse_baseline(y, cov, cfg, p_tx)


class TestCovariance:
    def test_full_matrix_structure(self):
        spatial = np.array([[2.0, 0.5], [0.5, 1.0]])
        # the pair (lam, v) stands for the dense (v diag(lam) v^T) kron I_N
        w, v = np.linalg.eigh(spatial)
        lam = 0.25 * w
        np.testing.assert_allclose(
            np.kron((v * lam) @ v.T, np.eye(3)), 0.25 * np.kron(spatial, np.eye(3)))

    @pytest.mark.parametrize("shape", [(2, 4, 0.5), (8, 16, 0.5), (4, 32, 0.7), (1, 8, 0.5),
                                       (8, 16, 4.0)])
    def test_steering_covariance_properties(self, shape):
        # the spatial factor is a real correlation matrix, and the pair the
        # LMMSE filter reads holds its scaled eigenvalues lam >= 0 and real
        # orthonormal eigenvectors v, which recompose the scaled factor
        m_v, m_h, d = shape
        cfg, att = SystemConfig(M_v=m_v, M_h=m_h, d_over_lambda=d), (-10.0, 0.0)
        r = recon.steering_covariance(cfg)
        assert r.dtype == np.float64 and r.shape == (cfg.M, cfg.M)
        np.testing.assert_array_equal(r, r.T)
        np.testing.assert_allclose(np.diag(r), 1.0, rtol=0, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(r)) > -1e-12
        lam, v = recon.channel_covariance(cfg, att)
        assert lam.shape == (cfg.M,) and np.all(lam >= 0.0)
        assert v.dtype == np.float64 and v.shape == (cfg.M, cfg.M)
        np.testing.assert_allclose(v.T @ v, np.eye(cfg.M), rtol=0, atol=1e-12)
        np.testing.assert_allclose(v @ np.diag(lam) @ v.T, mean_linear_attenuation(att) * r,
                                   rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("shape", [(8, 16), (1, 8), (4, 4), (16, 8), (1, 1)])
    @pytest.mark.parametrize("d", [0.5, 1.3, 2.0])
    @pytest.mark.parametrize("block_bytes", [recon._BLOCK_BYTES, 2 ** 16, 1])
    def test_steering_covariance_equals_the_whole_tensor_mean(self, shape, d, block_bytes,
                                                              monkeypatch):
        # blocks of any size, down to one node, the last one short, give the
        # whole tensor's bytes
        monkeypatch.setattr(recon, "_BLOCK_BYTES", block_bytes)
        cfg = SystemConfig(M_v=shape[0], M_h=shape[1], d_over_lambda=d)
        assert (recon.steering_covariance(cfg).tobytes()
                == steering_covariance_whole(cfg).tobytes())

    def test_steering_covariance_memory_is_bounded(self):
        # 441 nodes at 8x16, d/lambda 4: the whole (n, n, M_h) tensor peaks
        # near 100 MB, blocks of 18 downtilt nodes near 4 MB
        cfg = SystemConfig(M_v=8, M_h=16, d_over_lambda=4.0)
        tracemalloc.start()
        try:
            recon.steering_covariance(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_channel_covariance_scale(self):
        # the attenuation range scales the eigenvalues and leaves the
        # eigenvectors; at 0 dB the eigenvalues are the spatial factor's
        cfg = small_cfg()
        lam, v = recon.channel_covariance(cfg, att_range_db=(-10.0, 0.0))
        lam0, v0 = recon.channel_covariance(cfg, att_range_db=(0.0, 0.0))
        np.testing.assert_array_equal(v, v0)
        np.testing.assert_allclose(lam, mean_linear_attenuation((-10.0, 0.0)) * lam0,
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(lam0, np.linalg.eigvalsh(recon.steering_covariance(cfg)),
                                   rtol=0, atol=1e-14)


@functools.lru_cache(maxsize=None)
def covariance_of(shape):
    cfg = SystemConfig(M_v=shape[0], M_h=shape[1], N=shape[2])
    return cfg, recon.channel_covariance(cfg, (-10.0, 0.0))


class TestLmmseBaseline:
    @settings(max_examples=40)
    @given(st.sampled_from([(2, 2, 3), (2, 4, 16), (1, 8, 32), (8, 16, 256)]),
           st.integers(0, 2**32 - 1), st.floats(-10.0, 30.0))
    def test_equals_the_complex_filter_bit_for_bit(self, shape, seed, snr_db):
        # the real eigenvectors on the float view give the complex products'
        # numbers: v (shrink * v^H h_ls)
        cfg, cov = covariance_of(shape)
        p_tx = 10.0 ** (snr_db / 10.0)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(cfg.M * cfg.N) + 1j * rng.standard_normal(cfg.M * cfg.N)
        h_ls = recon.ls_baseline(y, p_tx).reshape(cfg.M, cfg.N)
        lam, v = cov
        shrink = lam / (lam + 1.0 / p_tx)
        want = (v @ (shrink[:, None] * (v.conj().T @ h_ls))).ravel()
        np.testing.assert_array_equal(recon.lmmse_baseline(y, cov, cfg, p_tx), want)

    def test_matches_dense_filter(self):
        cfg, p_tx, att = small_cfg(M_v=2, M_h=2, N=3), 2.0, (-3.0, 0.0)
        cov = recon.channel_covariance(cfg, att)
        rng = np.random.default_rng(50)
        y = rng.standard_normal(cfg.M * cfg.N) + 1j * rng.standard_normal(cfg.M * cfg.N)
        got = recon.lmmse_baseline(y, cov, cfg, p_tx)
        h_ls = recon.ls_baseline(y, p_tx)
        r_full = mean_linear_attenuation(att) * np.kron(recon.steering_covariance(cfg),
                                                         np.eye(cfg.N))
        dense = r_full @ np.linalg.solve(
            r_full + np.eye(cfg.M * cfg.N) / p_tx, h_ls)
        np.testing.assert_allclose(got, dense, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64])
    def test_other_dtypes_filter_as_complex128(self, dtype):
        # the filter runs on the float view of a complex128 estimate, so a
        # real or single-precision observation is widened first and gives
        # the complex filter's numbers
        cfg, cov = covariance_of((2, 4, 16))
        rng = np.random.default_rng(53)
        y = rng.standard_normal(cfg.M * cfg.N) + 1j * rng.standard_normal(cfg.M * cfg.N)
        y = y.astype(dtype) if dtype is np.complex64 else y.real.copy()
        h_ls = recon.ls_baseline(y, 2.0).reshape(cfg.M, cfg.N)
        lam, v = cov
        shrink = lam / (lam + 0.5)
        want = (v @ (shrink[:, None] * (v.conj().T @ h_ls))).ravel()
        got = recon.lmmse_baseline(y, cov, cfg, 2.0)
        assert got.dtype == np.complex128
        np.testing.assert_array_equal(got, want)

    def test_limiting_behavior(self):
        cfg = small_cfg()
        rng = np.random.default_rng(51)
        y = rng.standard_normal(cfg.M * cfg.N) + 1j * rng.standard_normal(cfg.M * cfg.N)
        huge = (1e12 * np.ones(cfg.M), np.eye(cfg.M))
        np.testing.assert_allclose(
            recon.lmmse_baseline(y, huge, cfg, 1.0),
            recon.ls_baseline(y, 1.0), rtol=1e-9)
        null = (np.zeros(cfg.M), np.eye(cfg.M))
        np.testing.assert_array_equal(recon.lmmse_baseline(y, null, cfg, 1.0), 0.0)

    def test_beats_ls_at_low_snr(self):
        cfg, p_tx = small_cfg(), 1.0
        cov = recon.channel_covariance(cfg, (-10.0, 0.0))
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

