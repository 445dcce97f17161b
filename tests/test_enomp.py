"""Path extraction: detection grids, derivatives, refinement, stopping."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from fddrecon import _kernels, enomp, sysmodel
from fddrecon.sysmodel import (PathComponent, SystemConfig, atom_basis, atom_factors, atom_gram,
                               atom_sum, complex_noise, db_to_linear, delay_vector, fit_gains,
                               generate_scenario, path_factors, sounding_observation,
                               steering_factors, uplink_channel)


def small_cfg(**kw):
    base = dict(M_v=4, M_h=4, N=32)
    base.update(kw)
    return SystemConfig(**base)


def codebook_size(cb):
    """Number of codewords: one per (theta, phi, tau) grid point."""
    return len(cb.thetas) * len(cb.phis) * len(cb.taus)


def cell_sizes(cfg):
    """Grid step per axis: (theta, phi, tau)."""
    return (math.pi / (cfg.beta_theta * cfg.M_v),
            math.pi / (cfg.beta_phi * cfg.M_h),
            1.0 / (cfg.beta_tau * cfg.N * cfg.delta_f))


def fast_detect(y, cb, cfg):
    """`omp_detect` as `extract` calls it: on the delay transform of y and
    its bin energies."""
    z = enomp.delay_transform(y, cfg)
    return enomp.omp_detect(cb, z, enomp._bin_energy(z))


def fast_statistic(y, cfg):
    """The stopping statistic of y, from its delay transform."""
    return enomp.stopping_statistic(enomp.delay_transform(y, cfg), cfg)


def no_others(cfg):
    """The empty (L = 0) atom sum: a visit against it reads y alone."""
    return (np.zeros(0, dtype=complex),
            *(np.zeros((m, 0), dtype=complex) for m in (cfg.M_v, cfg.M_h, cfg.N)))


def row_of(y, factors, cfg):
    """`enomp._delay_row` of y at the delay factor of `factors`."""
    return enomp._delay_row(np.reshape(y, (cfg.M_v, cfg.M_h, cfg.N)), factors[2])


def refine_alone(y, theta, phi, tau, cfg):
    """One `newton_refine` visit on y with no other tracks, from the factors
    built at the point and their delay row."""
    factors = atom_factors(theta, phi, tau, cfg)
    return enomp.newton_refine(y, theta, phi, tau, cfg, no_others(cfg), factors,
                               row_of(y, factors, cfg))


class TestCodebook:
    def test_size_at_default_config(self):
        cb = enomp.build_codebook(SystemConfig())
        assert codebook_size(cb) == 16 * 32 * 256 == 131072

    def test_grid_origins_and_steps(self):
        cfg = small_cfg()
        cb = enomp.build_codebook(cfg)
        assert cb.thetas[0] == -math.pi / 2
        assert cb.phis[0] == -math.pi / 2
        assert cb.taus[0] == 0.0
        np.testing.assert_allclose(np.diff(cb.thetas), math.pi / 8)
        np.testing.assert_allclose(np.diff(cb.taus), 1.0 / (32 * cfg.delta_f))

    def test_minimal_codebook(self):
        cfg = SystemConfig(M_v=2, M_h=2, N=2,
                           beta_theta=1, beta_phi=1, beta_tau=1)
        assert codebook_size(enomp.build_codebook(cfg)) == 8

    @pytest.mark.parametrize("cfg", [small_cfg(), SystemConfig()])
    def test_transforms_equal_scalar_steering_exactly(self, cfg):
        cb = enomp.build_codebook(cfg)
        for i, th in enumerate(cb.thetas):
            for j, ph in enumerate(cb.phis):
                a_v, a_h = steering_factors(float(th), float(ph), cfg)
                np.testing.assert_array_equal(cb.E_v[i], a_v.conj())
                np.testing.assert_array_equal(cb.E_h[i, j], a_h.conj())

    def test_atom_unit_modulus(self):
        cfg = small_cfg()
        atom = enomp.synth_atom(0.3, -0.7, 2e-6, cfg)
        assert atom.shape == (cfg.M * cfg.N,)
        np.testing.assert_allclose(np.abs(atom), 1.0, atol=1e-13)


class TestDetection:
    def test_on_grid_atom_found_exactly(self):
        cfg = small_cfg()
        cb = enomp.build_codebook(cfg)
        g = 0.8 - 0.3j
        th, ph, ta = cb.thetas[3], cb.phis[5], cb.taus[17]
        y = g * enomp.synth_atom(th, ph, ta, cfg)
        th_hat, ph_hat, ta_hat, power = fast_detect(y, cb, cfg)
        assert (th_hat, ph_hat, ta_hat) == (th, ph, ta)
        assert power == pytest.approx(abs(g) ** 2 * cfg.M * cfg.N, rel=1e-12)
        assert enomp.coarse_gain(y, th, ph, ta, cfg) == pytest.approx(g, abs=1e-12)

    def test_matches_exhaustive_scan(self):
        cfg = SystemConfig(M_v=2, M_h=2, N=4)
        cb = enomp.build_codebook(cfg)
        mn = cfg.M * cfg.N
        rng = np.random.default_rng(6)
        for trial in range(4):
            y = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
            best = (-1.0, None)
            for th in cb.thetas:
                for ph in cb.phis:
                    for ta in cb.taus:
                        c = enomp.synth_atom(float(th), float(ph), float(ta), cfg)
                        p = abs(np.vdot(c, y)) ** 2 / mn
                        if p > best[0] + 1e-15:
                            best = (p, (float(th), float(ph), float(ta)))
            *at, power, _ = reference.detect(y, cb)
            assert abs(power - best[0]) <= 1e-9 * best[0]
            assert tuple(at) == best[1]

    def test_threshold_value(self):
        # ln(32768) - ln(-ln(0.99)) restated from the definition
        expect = math.log(32768) - math.log(-math.log(0.99))
        assert enomp.detection_threshold(32768, 1e-2) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(14.9974, abs=5e-4)

    def test_threshold_scales_with_noise_variance(self, monkeypatch):
        t1 = enomp.detection_threshold(1024, 1e-2)
        monkeypatch.setattr(sysmodel, "NOISE_POWER", 2.5)
        t2 = enomp.detection_threshold(1024, 1e-2)
        assert t2 == pytest.approx(2.5 * t1, rel=1e-12)
        with pytest.raises(ValueError):
            enomp.detection_threshold(1024, 0.0)

    @pytest.mark.parametrize("p_fa", ["0.1", True, np.bool_(True), None, np.array(0.1)])
    def test_threshold_refuses_a_rate_that_is_no_real(self, p_fa):
        with pytest.raises(ValueError, match="p_fa"):
            enomp.detection_threshold(16, p_fa)

    def test_stopping_statistic_examples(self):
        cfg = small_cfg()
        assert fast_statistic(np.zeros(cfg.M * cfg.N), cfg) == 0.0
        # a critically sampled DFT atom concentrates all energy in one bin,
        # so the statistic equals the squared norm of the input
        rng = np.random.default_rng(7)
        m = np.arange(cfg.M_v)[:, None, None]
        h = np.arange(cfg.M_h)[None, :, None]
        n = np.arange(cfg.N)[None, None, :]
        atom = np.exp(-2j * np.pi * (m * 2 / cfg.M_v + h * 1 / cfg.M_h + n * 5 / cfg.N))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        r = alpha * atom.ravel()
        stat = fast_statistic(r, cfg)
        assert stat == pytest.approx(np.linalg.norm(r) ** 2, rel=1e-12)

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_stopping_statistic_equals_squared_spectrum_maximum(self, seed):
        # the peak magnitude is squared alone; rounding is monotone, so this
        # is bit for bit the largest entry of the squared spectrum
        cfg = small_cfg()
        y = complex_noise(np.random.default_rng(seed), cfg.M * cfg.N)
        assert fast_statistic(y, cfg) == reference.statistic(y, cfg)

    def test_false_alarm_rate_on_pure_noise(self):
        cfg = small_cfg()  # MN = 512
        threshold = enomp.detection_threshold(cfg.M * cfg.N, cfg.P_fa)
        rng = np.random.default_rng(8)
        hits = sum(reference.statistic(complex_noise(rng, cfg.M * cfg.N), cfg) >= threshold
                   for _ in range(10000))
        # design rate is 1e-2; binomial 3 sigma is about 3e-3
        assert 0.002 < hits / 10000 < 0.02


class TestObjective:
    def test_value_on_exact_atom(self):
        cfg = small_cfg()
        g = 1.3 + 0.4j
        th, ph, ta = 0.21, -0.53, 3.1e-6
        y = g * enomp.synth_atom(th, ph, ta, cfg)
        mn = cfg.M * cfg.N
        assert enomp.objective_S(y, g, th, ph, ta, cfg) == pytest.approx(
            abs(g) ** 2 * mn, rel=1e-12)
        # surrogate equals ||y||^2 - ||y - g c||^2 for any parameters
        g2, th2, ph2, ta2 = 0.5 - 0.2j, 0.4, 0.1, 1.0e-6
        c2 = enomp.synth_atom(th2, ph2, ta2, cfg)
        direct = np.linalg.norm(y) ** 2 - np.linalg.norm(y - g2 * c2) ** 2
        assert enomp.objective_S(y, g2, th2, ph2, ta2, cfg) == pytest.approx(
            direct, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        cfg = small_cfg()
        rng = np.random.default_rng(9)
        mn = cfg.M * cfg.N
        d_tau = 1e-6 / (cfg.N * cfg.delta_f)
        for trial in range(10):
            y = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
            g = complex(rng.standard_normal(), rng.standard_normal())
            th = rng.uniform(-1.4, 1.4)
            ph = rng.uniform(-1.4, 1.4)
            ta = rng.uniform(0.2, 0.8) * cfg.tau_max
            _, grad, _ = enomp.objective_derivatives(y, g, th, ph, ta, cfg)
            steps = (1e-6, 1e-6, d_tau)
            for axis in range(3):
                d = np.zeros(3)
                d[axis] = steps[axis]
                up = enomp.objective_S(y, g, th + d[0], ph + d[1], ta + d[2], cfg)
                dn = enomp.objective_S(y, g, th - d[0], ph - d[1], ta - d[2], cfg)
                fd = (up - dn) / (2 * steps[axis])
                assert abs(grad[axis] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_hessian_matches_finite_differences_of_gradient(self):
        cfg = small_cfg()
        rng = np.random.default_rng(10)
        mn = cfg.M * cfg.N
        d_tau = 1e-6 / (cfg.N * cfg.delta_f)
        for trial in range(5):
            y = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
            g = complex(rng.standard_normal(), rng.standard_normal())
            th = rng.uniform(-1.4, 1.4)
            ph = rng.uniform(-1.4, 1.4)
            ta = rng.uniform(0.2, 0.8) * cfg.tau_max
            _, _, hess = enomp.objective_derivatives(y, g, th, ph, ta, cfg)
            steps = (1e-6, 1e-6, d_tau)
            for axis in range(3):
                d = np.zeros(3)
                d[axis] = steps[axis]
                _, gu, _ = enomp.objective_derivatives(
                    y, g, th + d[0], ph + d[1], ta + d[2], cfg)
                _, gd, _ = enomp.objective_derivatives(
                    y, g, th - d[0], ph - d[1], ta - d[2], cfg)
                fd_col = (gu - gd) / (2 * steps[axis])
                scale = max(1.0, float(np.max(np.abs(fd_col))))
                assert np.max(np.abs(hess[:, axis] - fd_col)) <= 1e-5 * scale

    def test_gradient_vanishes_at_matched_atom(self):
        cfg = small_cfg()
        g = 0.9 - 0.1j
        th, ph, ta = 0.37, -0.22, 4.2e-6
        y = g * enomp.synth_atom(th, ph, ta, cfg)
        mn = cfg.M * cfg.N
        _, grad, _ = enomp.objective_derivatives(y, g, th, ph, ta, cfg)
        # normalize the delay axis to radians-per-index scale before comparing
        norm = np.array([1.0, 1.0, 1.0 / (2 * np.pi * cfg.delta_f * cfg.N)])
        assert np.max(np.abs(grad * norm)) <= 1e-8 * mn * abs(g) ** 2


class TestNewtonRefine:
    def test_quarter_cell_offset_recovers(self):
        cfg = small_cfg()
        cell = cell_sizes(cfg)
        g = 1.0 + 0.5j
        th, ph, ta = 0.3, -0.4, 5.0e-6
        y = g * enomp.synth_atom(th, ph, ta, cfg)
        th0 = th + 0.25 * cell[0]
        ph0 = ph - 0.25 * cell[1]
        ta0 = ta + 0.25 * cell[2]
        g0 = enomp.coarse_gain(y, th0, ph0, ta0, cfg)
        s_before = enomp.objective_S(y, g0, th0, ph0, ta0, cfg)
        th1, ph1, ta1, accepted, corr, factors, _ = refine_alone(y, th0, ph0, ta0, cfg)
        assert accepted
        assert corr == pytest.approx(correlation(y, th1, ph1, ta1, cfg), rel=1e-12)
        assert_factors_at(factors, th1, ph1, ta1, cfg)
        g1 = enomp.coarse_gain(y, th1, ph1, ta1, cfg)
        s_after = enomp.objective_S(y, g1, th1, ph1, ta1, cfg)
        assert s_after > s_before
        assert abs(th1 - th) < abs(th0 - th)
        assert abs(ph1 - ph) < abs(ph0 - ph)
        assert abs(ta1 - ta) < abs(ta0 - ta)

    def test_rejected_when_log_hessian_not_negative_definite(self):
        # unit-variance noise: the log-power Hessian is indefinite here, and
        # the undamped step would raise the power, so only the curvature
        # check refuses it
        cfg = small_cfg()
        mn = cfg.M * cfg.N
        th, ph, ta = 0.3, -0.4, 5.0e-6
        rng = np.random.default_rng(3)
        y = (rng.standard_normal(mn) + 1j * rng.standard_normal(mn)) / math.sqrt(2)
        assert reference.visit(y, th, ph, ta, cfg, (), np.zeros(0))[6] >= 0.0
        result = refine_alone(y, th, ph, ta, cfg)
        assert result[:4] == (th, ph, ta, False)
        assert result[4] == pytest.approx(correlation(y, th, ph, ta, cfg), rel=1e-12)
        assert_factors_at(result[5], th, ph, ta, cfg)

    def test_rejected_when_no_step_raises_the_power(self):
        # at the exact matched point the Hessian is negative definite but the
        # power is already at its maximum, so no damped step strictly raises it
        cfg = small_cfg()
        th, ph, ta = 0.3, -0.4, 5.0e-6
        y = (0.7 + 0.2j) * enomp.synth_atom(th, ph, ta, cfg)
        assert reference.visit(y, th, ph, ta, cfg, (), np.zeros(0))[6] < 0.0
        result = refine_alone(y, th, ph, ta, cfg)
        assert result[:4] == (th, ph, ta, False)
        assert result[4] == pytest.approx(correlation(y, th, ph, ta, cfg), rel=1e-12)
        assert_factors_at(result[5], th, ph, ta, cfg)


    def test_overflowing_power_is_a_floating_point_error(self):
        # |c|^2 past the float range fails the visit with the typed error a
        # trial failure needs, not with OverflowError
        cfg = small_cfg()
        y = 1e152 * enomp.synth_atom(0.3, -0.4, 5.0e-6, cfg)
        with pytest.raises(FloatingPointError):
            refine_alone(y, 0.3, -0.4, 5.0e-6, cfg)


def centres_of(cfg):
    return ((cfg.M_v - 1) / 2.0, (cfg.M_h - 1) / 2.0, (cfg.N - 1) / 2.0)


def weights_of(factors, cfg):
    """`_kernels.index_weighted` of each factor at its index centre, as a
    visit builds them for its two moment cubes."""
    return tuple(map(_kernels.index_weighted, factors, centres_of(cfg)))


def assert_same_point(got, want, cfg, atol):
    """Two paths within `atol`, per coordinate, in u = sin(theta), w =
    cos(theta) sin(phi) and tau, each on its circle (at endfire the arcsine
    makes far more of a rounding of u), u or w 0 on a one-antenna axis."""
    def coords(p):
        return np.array([math.sin(p.theta) * (cfg.M_v > 1),
                         math.cos(p.theta) * math.sin(p.phi) * (cfg.M_h > 1), p.tau])
    period = np.array([2.0, 2.0, cfg.tau_max])
    gap = (coords(got) - coords(want) + period / 2) % period - period / 2
    assert np.all(np.abs(gap) <= atol), gap / atol


def assert_factors_at(factors, theta, phi, tau, cfg):
    """The factors `newton_refine` returns are the scalar builds at its point."""
    a_v, a_h, p_n = factors
    want_v, want_h = steering_factors(theta, phi, cfg)
    np.testing.assert_array_equal(a_v, want_v)
    np.testing.assert_array_equal(a_h, want_h)
    np.testing.assert_array_equal(p_n, delay_vector(tau, cfg))


def correlation(y, theta, phi, tau, cfg):
    """y^H a of the atom at (theta, phi, tau), on the materialized atom."""
    return complex(np.vdot(y, enomp.synth_atom(theta, phi, tau, cfg)))


class TestExtract:
    @staticmethod
    def _detectable_gain(rng):
        return complex((0.7 + 1.3 * rng.random()) * np.exp(2j * np.pi * rng.random()))

    def _separated_paths(self, rng, count, cfg):
        """Rejection-sample paths pairwise >= 2 grid cells apart per axis."""
        cell = cell_sizes(cfg)
        paths = []
        while len(paths) < count:
            cand = PathComponent(
                g_ul=self._detectable_gain(rng), g_dl=0.0,
                theta=float(rng.uniform(-1.45, 1.45)),
                phi=float(rng.uniform(-1.45, 1.45)),
                tau=float(rng.uniform(0.05, 0.95) * cfg.tau_max),
            )
            if all(abs(cand.theta - p.theta) >= 2 * cell[0]
                   and abs(cand.phi - p.phi) >= 2 * cell[1]
                   and abs(cand.tau - p.tau) >= 2 * cell[2] for p in paths):
                paths.append(cand)
        return tuple(paths)

    @pytest.mark.parametrize("p_tx", [1.0, 10.0])
    def test_noiseless_off_grid_round_trip(self, p_tx):
        # the gains come back on the channel scale at any sounding power
        cfg = SystemConfig(M_v=4, M_h=8, N=64)
        cell = cell_sizes(cfg)
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            paths = self._separated_paths(rng, 3, cfg)
            y = math.sqrt(p_tx) * uplink_channel(paths, cfg)
            res = enomp.extract(y, cfg, p_tx)
            assert res.stop_reason == "below_threshold"
            assert len(res.paths) == 3
            got = sorted(res.paths, key=lambda p: p.tau)
            want = sorted(paths, key=lambda p: p.tau)
            for gp, wp in zip(got, want):
                assert abs(gp.theta - wp.theta) < 1e-4 * cell[0]
                assert abs(gp.phi - wp.phi) < 1e-4 * cell[1]
                assert abs(gp.tau - wp.tau) < 1e-4 * cell[2]
                assert abs(gp.gain - wp.g_ul) < 1e-4 * abs(wp.g_ul)

    def test_single_atom_round_trip_sweep(self):
        cfg = SystemConfig(M_v=4, M_h=8, N=64)
        cell = cell_sizes(cfg)
        cb = enomp.build_codebook(cfg)
        rng = np.random.default_rng(14)
        for trial in range(12):
            th = float(rng.uniform(-np.pi / 2, np.pi / 2 * 0.999))
            ph = float(rng.uniform(-np.pi / 2, np.pi / 2 * 0.999))
            ta = float(rng.uniform(0.0, 0.95) * cfg.tau_max)
            g = self._detectable_gain(rng)
            y = g * enomp.synth_atom(th, ph, ta, cfg)
            res = enomp.extract(y, cfg, 1.0, codebook=cb)
            assert len(res.paths) == 1
            p = res.paths[0]
            assert abs(p.theta - th) < 1e-4 * cell[0]
            assert abs(p.phi - ph) < 1e-4 * cell[1]
            assert abs(p.tau - ta) < 1e-4 * cell[2]

    def test_endfire_azimuth_recovered(self):
        # the main lobe straddles the spatial-frequency wrap at sin(phi) ~ 1
        cfg = SystemConfig(M_v=4, M_h=8, N=64)
        cell = cell_sizes(cfg)
        th, ph, ta = -0.2391, 1.5054, 3.7e-6
        y = (1.1 - 0.4j) * enomp.synth_atom(th, ph, ta, cfg)
        res = enomp.extract(y, cfg, 1.0)
        assert len(res.paths) == 1
        assert abs(res.paths[0].phi - ph) < 1e-4 * cell[1]

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (1, 4), (4, 1)])
    def test_one_antenna_axis_still_refines(self, shape):
        # that axis's moments vanish, so only the other two axes' Newton
        # block can step; refusing every step left the paths on codebook
        # points and filled the cap. On M_v = 1 a path near w = 0 can be
        # detected at theta = -pi/2, where cos(theta) = 0 pins w; a step
        # there moves to theta = 0, or extra paths are found.
        cfg = SystemConfig(M_v=shape[0], M_h=shape[1], N=56)
        for seed in range(4):
            paths = generate_scenario(1, 4, cfg, seed=seed, att_range_db=(0, 0)).users[0]
            res = enomp.extract(sounding_observation(paths, cfg, 100.0, seed + 100), cfg, 100.0)
            assert res.stop_reason != "cap"
            assert len(res.paths) == 4

    def test_residual_consistency_and_monotone_norms(self):
        cfg = small_cfg()
        rng = np.random.default_rng(12)
        paths = tuple(PathComponent(
            g_ul=complex(rng.standard_normal(), rng.standard_normal()),
            g_dl=0.0,
            theta=float(rng.uniform(-1.4, 1.4)),
            phi=float(rng.uniform(-1.4, 1.4)),
            tau=float(rng.uniform(0.0, 0.9) * cfg.tau_max),
        ) for _ in range(4))
        y = sounding_observation(paths, cfg, 1.0, 13)
        res = enomp.extract(y, cfg, 1.0)
        rebuilt = sum(p.gain * enomp.synth_atom(p.theta, p.phi, p.tau, cfg)
                      for p in res.paths)
        np.testing.assert_allclose(res.residual, y - rebuilt, atol=1e-10)
        norms = np.array(res.residual_norms)
        assert res.iterations == len(norms)
        assert np.all(np.diff(norms) <= 1e-9 * norms[:-1])

    def test_coincident_redetection_stops_degenerate(self, monkeypatch, counted_lstsq):
        # the second detection lands 1e-13 rad from the first, so the two
        # atoms are rank deficient for lstsq: the newest one is dropped and
        # extraction stops, keeping the first path with its lstsq gain
        cfg = SystemConfig()
        cb = enomp.build_codebook(cfg)
        y = ((1.2 - 0.4j) * enomp.synth_atom(cb.thetas[5], cb.phis[9], cb.taus[40], cfg)
             + (0.8 + 0.1j) * enomp.synth_atom(cb.thetas[11], cb.phis[20], cb.taus[90], cfg))
        original, found = enomp.omp_detect, []

        def redetect(codebook, transform, energy):
            if not found:
                found.append(original(codebook, transform, energy))
                return found[0]
            theta, phi, tau, power = found[0]
            return theta + 1e-13, phi, tau, power

        monkeypatch.setattr(enomp, "omp_detect", redetect)

        def stay(y, theta, phi, tau, cfg, others, factors, row):
            # no step; the correlation of y minus the other atoms, materialized
            y_local = np.ravel(y) - atom_sum(*others)
            return (theta, phi, tau, False, correlation(y_local, theta, phi, tau, cfg),
                    atom_factors(theta, phi, tau, cfg), row)

        monkeypatch.setattr(enomp, "newton_refine", stay)
        res = enomp.extract(y, cfg, 1.0, cb)
        assert counted_lstsq.calls == 1
        assert res.stop_reason == "degenerate"
        assert res.iterations == len(res.residual_norms) == 2
        assert len(res.paths) == 1
        path = res.paths[0]
        assert (path.theta, path.phi, path.tau) == found[0][:3]
        atom = enomp.synth_atom(path.theta, path.phi, path.tau, cfg)
        want = counted_lstsq(atom[:, None], y, rcond=None)[0][0]
        assert path.gain == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(res.residual, y - want * atom, rtol=0, atol=1e-10)

    def test_visits_start_from_stored_factors(self, monkeypatch):
        # every visit, a track's first included, reads the factors stored at
        # detection or by an earlier visit, and they are the scalar builds at
        # the track's parameters
        cfg = small_cfg()
        y = (1.2 * enomp.synth_atom(0.3, 0.2, 2e-6, cfg)
             + (0.4 - 0.9j) * enomp.synth_atom(-0.8, -0.5, 8e-6, cfg))
        refine, visits = enomp.newton_refine, []

        def checked(y, theta, phi, tau, cfg, others, factors, row):
            assert_factors_at(factors, theta, phi, tau, cfg)
            visits.append((theta, phi, tau))
            return refine(y, theta, phi, tau, cfg, others, factors, row)

        monkeypatch.setattr(enomp, "newton_refine", checked)
        res = enomp.extract(y, cfg, 1.0)
        assert len(res.paths) >= 2
        assert len(visits) >= (1 + enomp._REFINE_ROUNDS) * len(res.paths)

    def test_iteration_cap(self, monkeypatch):
        cfg = small_cfg()
        y = (enomp.synth_atom(0.3, 0.2, 2e-6, cfg)
             + enomp.synth_atom(-0.8, -0.5, 8e-6, cfg))
        monkeypatch.setattr(enomp, "_MAX_PATHS", 1)
        res = enomp.extract(y, cfg, 1.0)
        assert res.stop_reason == "cap"
        assert res.iterations == 1
        assert len(res.paths) == 1

    def test_pure_noise_usually_empty(self):
        cfg = small_cfg()
        empty = 0
        for seed in range(20):
            y = sounding_observation((), cfg, 1.0, seed)
            res = enomp.extract(y, cfg, 1.0)
            empty += not res.paths
        assert empty >= 18  # false-alarm rate is one percent per snapshot

    def test_rejects_wrong_length(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            enomp.extract(np.zeros(7), cfg, 1.0)

    @pytest.mark.parametrize("k", [-40, -7, 9, 500])
    def test_power_of_two_scaling_is_exact(self, k, monkeypatch):
        # 2^k y against 4^k the threshold, sounded at 4^k p_tx, gives the same
        # paths and channel gains bit for bit, and the residual and its norms
        # 2^k times as large. At k = 500 the projected powers would overflow
        # without the scaling that extract applies itself.
        cfg = small_cfg()
        paths = generate_scenario(1, 3, cfg, seed=61).users[0]
        y = sounding_observation(paths, cfg, 10.0, 62)
        base = enomp.extract(y, cfg, 10.0)
        threshold = enomp.detection_threshold
        monkeypatch.setattr(enomp, "detection_threshold",
                            lambda mn, p_fa: threshold(mn, p_fa) * 4.0 ** k)
        scaled = enomp.extract(y * 2.0 ** k, cfg, 10.0 * 4.0 ** k)
        assert len(base.paths) == 3 and scaled.paths == base.paths
        assert (scaled.iterations, scaled.stop_reason) == (base.iterations, base.stop_reason)
        np.testing.assert_array_equal(scaled.residual, base.residual * 2.0 ** k)
        assert scaled.residual_norms == tuple(r * 2.0 ** k for r in base.residual_norms)

    @pytest.mark.parametrize("p_tx", [0.0, -1.0, math.nan, math.inf, True])
    def test_rejects_power_that_is_not_finite_positive(self, p_tx):
        # an observation with a path as well as one without: the gain scaling
        # would fail on the first and be skipped on the second
        cfg = small_cfg()
        atom = uplink_channel((PathComponent(1.0, 0.0, 0.2, -0.3, 0.0),), cfg)
        for y in (atom, np.zeros(cfg.M * cfg.N)):
            with pytest.raises(ValueError, match="p_tx"):
                enomp.extract(y, cfg, p_tx)


@st.composite
def atom_sets(draw, max_atoms=5):
    """A small system, L random path geometries and a random observation."""
    cfg = SystemConfig(M_v=draw(st.integers(1, 4)), M_h=draw(st.integers(1, 5)),
                       N=draw(st.integers(2, 16)))
    count = draw(st.integers(1, max_atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    paths = [enomp.DetectedPath(gain=0j, theta=float(rng.uniform(-1.5, 1.5)),
                                phi=float(rng.uniform(-1.5, 1.5)),
                                tau=float(rng.uniform(0.0, 0.99) * cfg.tau_max))
             for _ in range(count)]
    mn = cfg.M * cfg.N
    y = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
    return cfg, paths, y


class TestFitGains:
    @settings(max_examples=80)
    @given(atom_sets())
    def test_hadamard_gram_equals_basis_gram(self, case):
        cfg, paths, _ = case
        basis = reference.basis(paths, cfg)
        gram = atom_gram(*path_factors(paths, cfg))
        # off-diagonal entries can be near zero: atol relative to the diagonal MN
        np.testing.assert_allclose(gram, basis.conj().T @ basis,
                                   rtol=1e-12, atol=1e-12 * cfg.M * cfg.N)

    @settings(max_examples=80)
    @given(atom_sets())
    def test_atom_basis_columns_equal_kron3_exactly(self, case):
        cfg, paths, _ = case
        factors = path_factors(paths, cfg)
        basis = atom_basis(*factors)
        assert basis.shape == (cfg.M * cfg.N, len(paths))
        for l in range(len(paths)):
            np.testing.assert_array_equal(basis[:, l], _kernels.kron3(*(f[:, l] for f in factors)))

    @settings(max_examples=80)
    @given(atom_sets())
    def test_gains_and_residual_match_materialized_lstsq(self, case):
        cfg, paths, y = case
        basis = reference.basis(paths, cfg)
        assume(len(paths) <= cfg.M * cfg.N and np.linalg.cond(basis) < 1e2)
        factors = path_factors(paths, cfg)
        gains, rank = fit_gains(y, *factors)
        want, want_rank, _ = reference.fit(y, paths, cfg)
        assert rank == want_rank == len(paths)
        np.testing.assert_allclose(gains, want, rtol=1e-9)
        np.testing.assert_allclose(y - atom_sum(gains, *factors),
                                   y - basis @ gains, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("sep, rank", [(1e-10, 2), (1e-13, 1)])
    def test_near_coincident_atoms_take_lstsq_route(self, counted_lstsq, sep, rank):
        # cond(A) is about 3.5 / sep at this size: past the Gram route's 1e4
        # at 1e-10 rad yet inside lstsq's full-rank region, rank deficient
        # for lstsq at 1e-13 rad
        cfg = SystemConfig()
        paths = [enomp.DetectedPath(0j, 0.3, -0.4, 5e-6),
                 enomp.DetectedPath(0j, 0.3 + sep, -0.4, 5e-6)]
        basis = atom_basis(*path_factors(paths, cfg))
        y = basis @ np.array([1.0 + 0.5j, -0.3j])
        gains, got_rank = fit_gains(y, *path_factors(paths, cfg))
        assert counted_lstsq.calls == 1
        want, _, want_rank, _ = counted_lstsq(basis, y, rcond=None)
        assert got_rank == want_rank == rank
        np.testing.assert_array_equal(gains, want)

    @settings(max_examples=40)
    @given(atom_sets())
    def test_path_factors_equal_scalar_builds_exactly(self, case):
        cfg, paths, _ = case
        a_v, a_h, p_n = path_factors(paths, cfg)
        assert (a_v.shape, a_h.shape, p_n.shape) == (
            (cfg.M_v, len(paths)), (cfg.M_h, len(paths)), (cfg.N, len(paths)))
        for l, p in enumerate(paths):
            want_v, want_h = steering_factors(p.theta, p.phi, cfg)
            np.testing.assert_array_equal(a_v[:, l], want_v)
            np.testing.assert_array_equal(a_h[:, l], want_h)
            np.testing.assert_array_equal(p_n[:, l], delay_vector(p.tau, cfg))
            # and the scalar twin `atom_factors` builds those same columns
            for got, column in zip(atom_factors(p.theta, p.phi, p.tau, cfg),
                                   (a_v[:, l], a_h[:, l], p_n[:, l])):
                np.testing.assert_array_equal(got, column)

    @settings(max_examples=60)
    @given(atom_sets(max_atoms=1))
    def test_atom_correlation_matches_conjugated_observation_form(self, case):
        cfg, paths, y = case
        y3 = y.reshape(cfg.M_v, cfg.M_h, cfg.N)
        a_v, a_h, p_n = (f[:, 0] for f in path_factors(paths, cfg))
        old = (y3.conj().reshape(-1, cfg.N) @ p_n).reshape(cfg.M_v, cfg.M_h)
        want = complex((old @ a_h) @ a_v)
        np.testing.assert_allclose(enomp._atom_correlation(y3, a_v, a_h, p_n), want, rtol=1e-13)


# angles anywhere in [-pi/2, pi/2), with the endfire edges drawn often
ANGLES = st.one_of(st.floats(-math.pi / 2, enomp._THETA_MAX),
                   st.floats(-math.pi / 2, -math.pi / 2 + 1e-3),
                   st.floats(math.pi / 2 - 1e-3, enomp._THETA_MAX))


@st.composite
def visit_cases(draw, sizes=None):
    """A small system, a noisy observation of 1-5 paths, the visited track
    up to a grid cell off the first path, the others at their paths (the
    first at gain 0), and a trial point. A 1 Hz subcarrier spacing is drawn
    too: there the delay curvature is of the angles' order, where at 75 kHz
    it is about 1e11 times theirs. Any axis can have one entry, which makes
    it flat. `sizes`, when given, lists the (M_v, M_h, N) to draw the system
    from."""
    if sizes is None:
        shape = (draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 16)))
    else:
        shape = draw(st.sampled_from(sizes))
    cfg = SystemConfig(M_v=shape[0], M_h=shape[1], N=shape[2],
                       delta_f=draw(st.sampled_from([1.0, 75e3])))
    count = draw(st.integers(1, 5))
    noise = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    points = [(draw(ANGLES), draw(ANGLES), draw(st.floats(0.0, 0.999)) * cfg.tau_max)
              for _ in range(count + 1)]
    paths = [enomp.DetectedPath(0j, *p) for p in points[:count]]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    mn = cfg.M * cfg.N
    y = atom_sum(gains, *path_factors(paths, cfg)) + noise * (rng.standard_normal(mn)
                                                              + 1j * rng.standard_normal(mn))
    off = rng.uniform(-1.0, 1.0, 3) * np.array(cell_sizes(cfg))
    visited = (float(np.clip(paths[0].theta + off[0], -math.pi / 2, enomp._THETA_MAX)),
               float(np.clip(paths[0].phi + off[1], -math.pi / 2, enomp._THETA_MAX)),
               float(np.clip(paths[0].tau + off[2], 0.0, 0.999 * cfg.tau_max)))
    gains[0] = 0.0
    return cfg, y, visited, points[count], paths, gains


class TestCrossTerms:
    """A visit takes the other tracks' terms off y by their separable forms;
    each equals its form on the materialized sum A g of those tracks, to
    rounding of the sum of the terms' magnitudes."""

    @settings(max_examples=80)
    @given(visit_cases())
    def test_cube_equals_moment_cube_of_materialized_observation(self, case):
        cfg, _, visited, _, paths, gains = case
        factors = atom_factors(*visited, cfg)
        got = enomp._atom_sum_cube((gains, *path_factors(paths, cfg)), weights_of(factors, cfg))
        others3 = (reference.basis(paths, cfg) @ gains).reshape(cfg.M_v, cfg.M_h, cfg.N)
        want = reference.moment_cube(others3, *factors, *centres_of(cfg))
        # entry (a, b, c) sums terms of magnitude |g_l| |m - c_v|^a |h - c_h|^b |n - c_n|^c
        sums = ((np.abs(np.arange(n) - c) ** np.arange(3)[:, None]).sum(axis=1)
                for n, c in zip((cfg.M_v, cfg.M_h, cfg.N), centres_of(cfg)))
        bound = np.abs(gains).sum() * np.einsum("a,b,c->abc", *sums)
        assert np.all(np.abs(got - want) <= 1e-12 * bound)

    @settings(max_examples=80)
    @given(visit_cases())
    def test_trial_correlation_equals_materialized_correlation(self, case):
        # the correlation at a trial point, as a backtracking step forms it
        cfg, _, _, trial, paths, gains = case
        got = enomp._atom_sum_correlation((gains, *path_factors(paths, cfg)),
                                          *atom_factors(*trial, cfg))
        want = np.vdot(reference.basis(paths, cfg) @ gains,
                       reference.basis([enomp.DetectedPath(0j, *trial)], cfg)[:, 0])
        assert abs(got - want) <= 1e-12 * np.abs(gains).sum() * cfg.M * cfg.N


class TestVisitMatchesReference:
    """A visit's cube, its scalar 3x3 algebra and its stored starting
    factors against `reference.visit`, which forms y - sum_{l != k} g_l a_l."""

    @settings(max_examples=150)
    @given(visit_cases())
    def test_cube_agrees(self, case):
        cfg, y, visited, _, paths, gains = case
        factors = atom_factors(*visited, cfg)
        weights = weights_of(factors, cfg)
        y_cube = _kernels.moment_cube(y.reshape(cfg.M_v, cfg.M_h, cfg.N), *weights,
                                      row_of(y, factors, cfg))
        got = y_cube - enomp._atom_sum_cube((gains, *path_factors(paths, cfg)), weights)
        want = reference.visit(y, *visited, cfg, paths, gains)[5]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(y_cube)))

    @settings(max_examples=300)
    @given(visit_cases())
    def test_step_agrees(self, case):
        cfg, y, visited, _, paths, gains = case
        *want, accepted, _, _, top, rise = reference.visit(y, *visited, cfg, paths, gains)
        factors = atom_factors(*visited, cfg)
        got = enomp.newton_refine(y, *visited, cfg, (gains, *path_factors(paths, cfg)), factors,
                                  row_of(y, factors, cfg))
        assert_factors_at(got[5], *got[:3], cfg)
        if min(abs(top), rise) <= 1e-9:
            # a sign or strict-rise test of the reference this close to a
            # tie is decided by its rounding, so either outcome is right
            return
        assert got[3] == accepted
        assert_same_point(*(enomp.DetectedPath(0j, *p) for p in (got[:3], want)), cfg,
                          1e-9 * np.array([1.0, 1.0, 1.0 / (cfg.N * cfg.delta_f)]))

    @settings(max_examples=20)
    @given(visit_cases(sizes=[(1, 1, 1)]))
    def test_all_flat_visit_is_refused(self, case):
        # one antenna and one subcarrier: every axis is flat, so there is no
        # step, and the visit returns its start, its factors and its correlation
        cfg, y, visited, _, paths, gains = case
        factors = atom_factors(*visited, cfg)
        others = (gains, *path_factors(paths, cfg))
        weights = weights_of(factors, cfg)
        row = row_of(y, factors, cfg)
        cube = _kernels.moment_cube(y.reshape(1, 1, 1), *weights, row) - enomp._atom_sum_cube(
            others, weights)
        c0, dc, d2c = enomp._derivative_scalars(cube, cfg)
        if abs(c0) > 0.0:
            assert enomp._log_power_step(c0, dc, d2c, abs(c0) ** 2) is None
        got = enomp.newton_refine(y, *visited, cfg, others, factors, row)
        assert got[:4] == (*visited, False)
        assert got[5] is factors and got[6] is row
        assert reference.visit(y, *visited, cfg, paths, gains)[:4] == (*visited, False)


def assert_same_visit(got, want):
    """Two `newton_refine` results equal bit for bit, delay rows included."""
    assert got[:5] == want[:5]
    for g, w in zip((*got[5], got[6]), (*want[5], want[6])):
        np.testing.assert_array_equal(g, w)


class TestEmptyAtomSum:
    """A visit with no other tracks takes the L = 0 atom sum off y."""

    @settings(max_examples=30)
    @given(visit_cases())
    def test_terms_are_exact_zeros(self, case):
        cfg, _, visited, *_ = case
        factors = atom_factors(*visited, cfg)
        cube = enomp._atom_sum_cube(no_others(cfg), weights_of(factors, cfg))
        assert cube.shape == (3, 3, 3) and cube.dtype == complex
        np.testing.assert_array_equal(cube, np.zeros((3, 3, 3)))
        corr = enomp._atom_sum_correlation(no_others(cfg), *factors)
        assert type(corr) is complex and corr == 0

    @settings(max_examples=150)
    @given(visit_cases())
    def test_visit_equals_one_track_of_gain_zero(self, case):
        # extract's first visit of its first track passes that one track
        # at gain 0
        cfg, y, visited, _, paths, _ = case
        one = (np.zeros(1, dtype=complex), *path_factors(paths[:1], cfg))
        factors = atom_factors(*visited, cfg)
        assert_same_visit(refine_alone(y, *visited, cfg),
                          enomp.newton_refine(y, *visited, cfg, one, factors,
                                              row_of(y, factors, cfg)))


class TestKeptWork:
    """Every delay row of an extraction is formed once: a track's at its
    detection, then each backtracking try's. A visit returns the delay row
    of y at the factors it returns, the accepted try's or the one it was
    given, and the track's next visit hands it to its moment cube."""

    @settings(max_examples=60)
    @given(visit_cases(sizes=[(8, 16, 256), (2, 4, 16), (1, 8, 32)]))
    def test_visit_returns_the_delay_row_at_its_factors(self, case):
        cfg, y, visited, _, paths, gains = case
        others = (gains, *path_factors(paths, cfg))
        start = atom_factors(*visited, cfg)
        given_row = row_of(y, start, cfg)
        first = enomp.newton_refine(y, *visited, cfg, others, start, given_row)
        np.testing.assert_array_equal(first[6], row_of(y, first[5], cfg))
        if not first[3]:
            assert first[6] is given_row
        # the track's next visit: the same y and factors, the others refitted
        refit = (others[0] * (0.9 + 0.2j), *others[1:])
        second = enomp.newton_refine(y, *first[:3], cfg, refit, *first[5:])
        np.testing.assert_array_equal(second[6], row_of(y, second[5], cfg))

    def test_extraction_forms_each_delay_row_once(self, monkeypatch):
        # one row per detection and one per backtracking try (the only
        # `_row_correlation` calls of an extraction), and none for a cube:
        # each is given its visit's row, bit equal to the one formed anew
        cfg = SystemConfig()
        paths = generate_scenario(1, 6, cfg, seed=41, att_range_db=(0.0, 0.0)).users[0]
        y = sounding_observation(paths, cfg, 1.0, 42)
        refine, cube_of = enomp.newton_refine, _kernels.moment_cube
        delay_row, row_correlation = enomp._delay_row, enomp._row_correlation
        rows, tries, visits, accepted = [0], [0], [], []

        def counted_row(*args):
            rows[0] += 1
            return delay_row(*args)

        def counted_correlation(*args):
            tries[0] += 1
            return row_correlation(*args)

        def checked_cube(y3, w_v, w_h, w_n, row):
            np.testing.assert_array_equal(row, delay_row(y3, visits[-1][2]))
            return cube_of(y3, w_v, w_h, w_n, row)

        def recorded(*args):
            visits.append(args[6])
            got = refine(*args)
            accepted.append(got[3])
            return got

        monkeypatch.setattr(enomp, "_delay_row", counted_row)
        monkeypatch.setattr(enomp, "_row_correlation", counted_correlation)
        monkeypatch.setattr(_kernels, "moment_cube", checked_cube)
        monkeypatch.setattr(enomp, "newton_refine", recorded)
        res = enomp.extract(y, cfg, 1.0)
        assert len(res.paths) >= 4
        assert True in accepted and False in accepted
        assert tries[0] >= sum(accepted)
        assert rows[0] == res.iterations + tries[0]


class TestKeptRowDetection:
    """Detection forms the downtilt stage on the rows it scans only; those
    rows are the full product's bit for bit."""

    ROW_SETS = [[0], [15], [7], [0, 1], [2, 9], [0, 15], [3, 4, 5], [1, 6, 11, 14]]

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_kept_rows_equal_the_full_product(self, seed):
        cfg = SystemConfig()
        cb = enomp.build_codebook(cfg)
        z = enomp.delay_transform(complex_noise(np.random.default_rng(seed), cfg.M * cfg.N), cfg)
        full = (cb.E_v @ z.reshape(cfg.M_v, -1)).reshape(len(cb.thetas), cfg.M_h, -1)
        for rows in self.ROW_SETS:
            np.testing.assert_array_equal(enomp._downtilt_stage(z, cb, rows)[:len(rows)],
                                          full[rows])

    @pytest.mark.parametrize("rows", ROW_SETS)
    def test_detection_on_kept_rows_equals_the_full_scan(self, rows, monkeypatch):
        # an atom on the last kept row, the scan pinned to the set
        cfg = SystemConfig()
        cb = enomp.build_codebook(cfg)
        y = ((0.6 - 0.8j) * enomp.synth_atom(cb.thetas[rows[-1]], cb.phis[7], cb.taus[33], cfg)
             + 0.1 * complex_noise(np.random.default_rng(len(rows)), cfg.M * cfg.N))
        monkeypatch.setattr(enomp, "_rows_to_scan", lambda z, codebook, energy: rows)
        assert fast_detect(y, cb, cfg) == reference.detect(y, cb)[:4]

    def test_single_row_codebook_takes_the_full_product(self):
        cfg = SystemConfig(M_v=1, M_h=8, N=32, beta_theta=1)
        cb = enomp.build_codebook(cfg)
        assert len(cb.thetas) == 1
        paths = generate_scenario(1, 3, cfg, seed=5).users[0]
        y = sounding_observation(paths, cfg, 10.0, 6)
        assert fast_detect(y, cb, cfg) == reference.detect(y, cb)[:4]


@st.composite
def extraction_cases(draw):
    """A small system, a sounding of 1-4 paths at -20 to 20 dB with angles
    near endfire often and paths sometimes 1e-7 to 1e-1 rad from the first,
    and a scale 2^k, k in {0, 500, -500}, for the observation."""
    cfg = SystemConfig(M_v=draw(st.integers(1, 4)), M_h=draw(st.integers(1, 4)),
                       N=draw(st.integers(16, 64)), beta_tau=draw(st.sampled_from([1, 2])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    paths = []
    for _ in range(draw(st.integers(1, 4))):
        theta, phi, tau = draw(ANGLES), draw(ANGLES), draw(st.floats(0.0, 0.999)) * cfg.tau_max
        if paths and draw(st.booleans()):
            theta = min(paths[0].theta + 10.0 ** draw(st.floats(-7.0, -1.0)), enomp._THETA_MAX)
            phi, tau = paths[0].phi, paths[0].tau
        paths.append(PathComponent(complex(complex_noise(rng, 1)[0]), 0.0, theta, phi, tau))
    p_tx = db_to_linear("snr_db", draw(st.sampled_from([-20.0, -10.0, 0.0, 10.0, 20.0])))
    y = sounding_observation(paths, cfg, p_tx, rng)
    return cfg, y, p_tx, draw(st.sampled_from([0, 500, -500]))


class TestExtractMatchesReference:
    def test_small_systems(self):
        """`extract` on 2^k y, its threshold and p_tx scaled to match, against
        `reference.extract` on y: the same path count, iterations and stop
        reason, each path within 1e-6 of a grid cell in each coordinate of
        `assert_same_point` and its gain within 1e-6 relative. A draw whose reference decisions
        come within 1e-9 of a tie is skipped; fewer than 10% may be."""
        drawn = []

        @settings(max_examples=200)
        @given(extraction_cases())
        def check(case):
            cfg, y, p_tx, k = case
            cb = enomp.build_codebook(cfg)
            want, iterations, stop, margin = reference.extract(y, cfg, p_tx, cb)
            drawn.append((margin, len(want)))
            if margin <= 1e-9:
                return
            threshold = enomp.detection_threshold
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(enomp, "detection_threshold",
                           lambda mn, p_fa: threshold(mn, p_fa) * 4.0 ** k)
                res = enomp.extract(y * 2.0 ** k, cfg, p_tx * 4.0 ** k, cb)
            assert (res.iterations, res.stop_reason) == (iterations, stop)
            assert len(res.paths) == len(want)
            for got, path in zip(res.paths, want):
                assert_same_point(got, path, cfg, 1e-6 * np.array(cell_sizes(cfg)))
                assert abs(got.gain - path.gain) <= 1e-6 * abs(path.gain)

        check()
        assert sum(margin <= 1e-9 for margin, _ in drawn) < 0.1 * len(drawn)
        assert max(count for _, count in drawn) >= 2


class TestExtractMatchesResidualLoop:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_default_size(self, seed):
        """At the default size, as `TestExtractMatchesReference` compares them."""
        cfg = SystemConfig()
        cb = enomp.build_codebook(cfg)
        scenario = generate_scenario(1, 6, cfg, seed=seed, att_range_db=(0.0, 0.0))
        y = sounding_observation(scenario.users[0], cfg, 1.0, seed + 1)
        want, iterations, stop, margin = reference.extract(y, cfg, 1.0, cb)
        assert margin > 1e-9 and len(want) >= 4
        res = enomp.extract(y, cfg, 1.0, cb)
        assert (len(res.paths), res.iterations, res.stop_reason) == (len(want), iterations, stop)
        for got, path in zip(res.paths, want):
            assert_same_point(got, path, cfg, 1e-6 * np.array(cell_sizes(cfg)))
            assert abs(got.gain - path.gain) <= 1e-6 * abs(path.gain)


class TestRowBlockedDetection:
    def test_equals_whole_cube_argmax_at_default_size(self):
        cfg = SystemConfig()
        cb = enomp.build_codebook(cfg)
        rng = np.random.default_rng(40)
        scenario = generate_scenario(1, 6, cfg, seed=41)
        for trial in range(4):
            y = (sounding_observation(scenario.users[0], cfg, 1.0, rng) if trial % 2
                 else complex_noise(rng, cfg.M * cfg.N))
            assert fast_detect(y, cb, cfg) == reference.detect(y, cb)[:4]

    @staticmethod
    def tied_detection(source, copy, axis):
        """Detection of an atom on downtilt row (axis 0) or azimuth column
        (axis 1) `source` of a codebook whose row or column `copy` is made a
        bitwise duplicate of it, and the atom's true codeword indices."""
        cfg = small_cfg()
        cb = enomp.build_codebook(cfg)
        e_v, e_h = cb.E_v.copy(), cb.E_h.copy()
        if axis == 0:
            e_v[copy], e_h[copy] = e_v[source], e_h[source]
            at = (source, 5)
        else:
            e_h[:, copy] = e_h[:, source]
            at = (4, source)
        tied = dataclasses.replace(cb, E_v=e_v, E_h=e_h)
        y = (0.6 - 0.8j) * enomp.synth_atom(cb.thetas[at[0]], cb.phis[at[1]], cb.taus[17], cfg)
        got = fast_detect(y, tied, cfg)
        assert got == reference.detect(y, tied)[:4]
        return got[:3], cb, at

    @pytest.mark.parametrize("source, copy", [(2, 6), (6, 2)])
    def test_exact_tie_across_rows_goes_to_lower_row(self, source, copy):
        got, cb, (_, col) = self.tied_detection(source, copy, 0)
        assert got == (cb.thetas[min(source, copy)], cb.phis[col], cb.taus[17])

    @pytest.mark.parametrize("source, copy", [(1, 6), (6, 1)])
    def test_exact_tie_inside_a_row_goes_to_lower_index(self, source, copy):
        got, cb, (row, _) = self.tied_detection(source, copy, 1)
        assert got == (cb.thetas[row], cb.phis[min(source, copy)], cb.taus[17])


def test_delay_wrap_stays_below_the_period():
    cfg = SystemConfig()
    # a float modulo of a tiny negative number gives the period itself
    assert (-1e-30) % cfg.tau_max == cfg.tau_max
    assert enomp._wrap(-1e-30, cfg.tau_max) == 0.0
    delay_vector(enomp._wrap(-1e-30, cfg.tau_max), cfg)
    assert enomp._wrap(-0.25 * cfg.tau_max, cfg.tau_max) == pytest.approx(0.75 * cfg.tau_max)
    # the spatial frequencies wrap with period 2 through the same helper
    assert (-1e-17) % 2.0 == 2.0
    assert enomp._wrap(-1e-17, 2.0) == 0.0


@st.composite
def detection_cases(draw):
    """A codebook and an observation for detection: sounding residuals (the
    observation minus some of its paths), pure noise, atoms on exactly
    duplicated downtilt rows or azimuth columns (ties), atoms on the endfire
    row theta = -pi/2, at a critically sampled and a 2x oversampled delay
    grid and at full size."""
    cfg = draw(st.sampled_from([SystemConfig(M_v=4, M_h=4, N=64),
                                SystemConfig(M_v=4, M_h=4, N=32, beta_tau=2),
                                SystemConfig(M_v=1, M_h=8, N=32, beta_theta=1),
                                SystemConfig()]))
    cb = enomp.build_codebook(cfg)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["residual", "noise", "column_tie", "endfire"]
                                + ["row_tie"] * (len(cb.thetas) > 1)))
    noise = draw(st.sampled_from([0.0, 0.1, 1.0])) * complex_noise(rng, cfg.M * cfg.N)
    gain = complex(np.exp(2j * np.pi * rng.random()))
    if kind == "residual":
        paths = generate_scenario(1, 4, cfg, seed=rng, att_range_db=(0.0, 0.0)).users[0]
        p_tx = 10.0 ** (draw(st.sampled_from([0.0, 10.0, 20.0])) / 10.0)
        taken = draw(st.integers(0, len(paths)))
        y = (sounding_observation(paths, cfg, p_tx, rng)
             - math.sqrt(p_tx) * uplink_channel(paths[:taken], cfg))
    elif kind == "noise":
        y = complex_noise(rng, cfg.M * cfg.N)
    elif kind == "endfire":
        y = gain * enomp.synth_atom(-math.pi / 2, float(rng.uniform(-1.5, 1.5)),
                                    float(rng.uniform(0.0, 0.99) * cfg.tau_max), cfg) + noise
    else:
        axis = 0 if kind == "row_tie" else 1
        size = len(cb.thetas) if axis == 0 else len(cb.phis)
        source, copy = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2,
                                     unique=True))
        e_v, e_h = cb.E_v.copy(), cb.E_h.copy()
        if axis == 0:
            e_v[copy], e_h[copy] = e_v[source], e_h[source]
            at = (source, int(rng.integers(len(cb.phis))))
        else:
            e_h[:, copy] = e_h[:, source]
            at = (int(rng.integers(len(cb.thetas))), source)
        y = gain * enomp.synth_atom(cb.thetas[at[0]], cb.phis[at[1]],
                                    cb.taus[int(rng.integers(len(cb.taus)))], cfg) + noise
        cb = dataclasses.replace(cb, E_v=e_v, E_h=e_h)
    return cfg, cb, y


@st.composite
def stop_cases(draw, beta_tau=1):
    """A small system with delay oversampling `beta_tau` and a residual:
    noise, a critically sampled DFT atom (all its energy in one delay bin),
    off-grid atoms with noise, or zeros."""
    cfg = SystemConfig(M_v=draw(st.integers(1, 8)), M_h=draw(st.integers(1, 16)),
                       N=draw(st.integers(2, 64)), beta_tau=beta_tau)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mn = cfg.M * cfg.N
    kind = draw(st.sampled_from(["noise", "dft_atom", "atoms", "zeros"]))
    if kind == "noise":
        y = complex_noise(rng, mn)
    elif kind == "dft_atom":
        k = [int(rng.integers(n)) for n in (cfg.M_v, cfg.M_h, cfg.N)]
        grids = np.meshgrid(*(np.arange(n) * k_i / n for n, k_i in zip(
            (cfg.M_v, cfg.M_h, cfg.N), k)), indexing="ij")
        y = (rng.standard_normal() * np.exp(2j * np.pi * sum(grids))).ravel()
    elif kind == "atoms":
        paths = generate_scenario(1, 3, cfg, seed=rng).users[0]
        y = sounding_observation(paths, cfg, 10.0 ** rng.uniform(0.0, 3.0), rng)
    else:
        y = np.zeros(mn, dtype=complex)
    return cfg, y


class TestSharedTransform:
    """Detection and the stop test read one delay transform per iteration
    and skip the delay bins a Cauchy-Schwarz bound rules out; both must
    give what the whole computation gives, bit for bit."""

    @settings(max_examples=40)
    @given(detection_cases())
    def test_detection_equals_the_full_scan(self, case):
        cfg, cb, y = case
        assert fast_detect(y, cb, cfg) == reference.detect(y, cb)[:4]

    @settings(max_examples=60)
    @given(stop_cases())
    def test_stop_decision_equals_the_statistic_test(self, case):
        cfg, y = case
        z = enomp.delay_transform(y, cfg)
        stat = enomp.stopping_statistic(z, cfg)
        for t in (np.nextafter(stat, -np.inf), stat, np.nextafter(stat, np.inf)):
            assert enomp._below_threshold(z, enomp._bin_energy(z), float(t), cfg) == (stat < t)

    @settings(max_examples=60)
    @given(stop_cases(), st.integers(0, 2**16))
    def test_statistic_from_the_shared_transform_equals_fftn(self, case, bin_seed):
        cfg, y = case
        y3 = y.reshape(cfg.M_v, cfg.M_h, cfg.N)
        z = enomp.delay_transform(y, cfg)
        spectrum = np.fft.fftn(y3)
        assert enomp.stopping_statistic(z, cfg) == reference.statistic(y, cfg)
        # one bin's two angle FFTs are fftn's entries there, as the stop test needs
        d = bin_seed % cfg.N
        np.testing.assert_array_equal(np.fft.fft(np.fft.fft(z[:, :, d], axis=1), axis=0),
                                      spectrum[:, :, d])

    @settings(max_examples=60)
    @given(stop_cases(beta_tau=2))
    def test_statistic_from_the_oversampled_transform(self, case):
        # every second bin of the 2N-point transform is the N-point DFT's bin
        cfg, y = case
        z = enomp.delay_transform(y, cfg)
        assert z.shape[2] == 2 * cfg.N
        crit, energy = z[:, :, ::2], enomp._bin_energy(z)[::2]
        stat = enomp.stopping_statistic(crit, cfg)
        want = reference.statistic(y, cfg)
        assert abs(stat - want) <= 1e-12 * want
        for t in (np.nextafter(stat, -np.inf), stat, np.nextafter(stat, np.inf)):
            assert enomp._below_threshold(crit, energy, float(t), cfg) == (stat < t)

    def test_one_delay_transform_per_iteration(self, monkeypatch):
        # at beta_tau = 2 detection reads the iteration's padded transform:
        # one delay FFT and one energy sum per pass of the loop
        cfg = SystemConfig(M_v=4, M_h=4, N=32, beta_tau=2)
        paths = generate_scenario(1, 3, cfg, seed=17, att_range_db=(0.0, 0.0)).users[0]
        y = sounding_observation(paths, cfg, 100.0, 18)
        fft, energy, counts = np.fft.fft, enomp._bin_energy, {"fft": 0, "energy": 0}

        def counted_fft(a, *args, **kwargs):
            counts["fft"] += np.ndim(a) == 3 and kwargs.get("axis", -1) in (2, -1)
            return fft(a, *args, **kwargs)

        def counted_energy(z):
            counts["energy"] += 1
            return energy(z)

        monkeypatch.setattr(np.fft, "fft", counted_fft)
        monkeypatch.setattr(enomp, "_bin_energy", counted_energy)
        res = enomp.extract(y, cfg, 100.0)
        assert res.stop_reason == "below_threshold" and res.iterations >= 2
        passes = res.iterations + 1  # the last pass stops
        assert counts == {"fft": passes, "energy": passes}

    def test_detection_scans_few_rows_of_a_sounding(self):
        # the bound leaves a handful of the 256 bins, and they leave one row
        cfg = SystemConfig()
        cb = enomp.build_codebook(cfg)
        paths = generate_scenario(1, 6, cfg, seed=41, att_range_db=(0.0, 0.0)).users[0]
        y = sounding_observation(paths, cfg, 10.0, 42)
        z = enomp.delay_transform(y, cfg)
        energy = enomp._bin_energy(z)
        rows = enomp._rows_to_scan(z, cb, energy)
        assert 1 <= len(rows) < len(cb.thetas)
        assert enomp.omp_detect(cb, z, energy) == reference.detect(y, cb)[:4]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("index", [0, 37])
    @pytest.mark.parametrize("warnings_as_errors", [False, True])
    def test_non_finite_entry_fails_the_trial(self, bad, index, warnings_as_errors):
        # a non-finite residual takes the full computations, so it fails as
        # a trial failure, FloatingPointError, when numpy's warnings are off;
        # with them as errors, an inf raises numpy's invalid-value warning
        # first, from the delay FFT or the downtilt product
        cfg = SystemConfig(M_v=2, M_h=4, N=16)
        paths = generate_scenario(1, 2, cfg, seed=3).users[0]
        y = sounding_observation(paths, cfg, 10.0, 4)
        y[index] = bad
        expect = ((RuntimeWarning, "invalid value encountered")
                  if warnings_as_errors and math.isinf(bad)
                  else (FloatingPointError, "non-finite derivatives"))
        with warnings.catch_warnings():
            warnings.simplefilter("error" if warnings_as_errors else "ignore", RuntimeWarning)
            with pytest.raises(expect[0], match=expect[1]):
                enomp.extract(y, cfg, 10.0)
