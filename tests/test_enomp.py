"""Path extraction: detection grids, derivatives, refinement, stopping."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fddrecon import _kernels, enomp
from fddrecon.sysmodel import (PathComponent, SystemConfig, delay_vector,
                               sounding_observation, steering_factors, uplink_channel)


def small_cfg(**kw):
    base = dict(M_v=4, M_h=4, N=32)
    base.update(kw)
    return SystemConfig(**base)


def cell_sizes(cfg):
    """Grid step per axis: (theta, phi, tau)."""
    return (math.pi / (cfg.beta_theta * cfg.M_v),
            math.pi / (cfg.beta_phi * cfg.M_h),
            1.0 / (cfg.beta_tau * cfg.N * cfg.delta_f))


class TestCodebook:
    def test_size_at_default_config(self):
        cb = enomp.build_codebook(SystemConfig())
        assert cb.size == 16 * 32 * 256 == 131072

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
        assert enomp.build_codebook(cfg).size == 8

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
        th_hat, ph_hat, ta_hat, power = enomp.omp_detect(y, cb)
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
            th_hat, ph_hat, ta_hat, power = enomp.omp_detect(y, cb)
            assert abs(power - best[0]) <= 1e-9 * best[0]
            assert (th_hat, ph_hat, ta_hat) == best[1]

    def test_threshold_value(self):
        # ln(32768) - ln(-ln(0.99)) restated from the definition
        expect = math.log(32768) - math.log(-math.log(0.99))
        assert enomp.detection_threshold(32768, 1e-2) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(14.9974, abs=5e-4)

    def test_threshold_scales_with_noise_variance(self, monkeypatch):
        t1 = enomp.detection_threshold(1024, 1e-2)
        monkeypatch.setattr(enomp, "_NOISE_VARIANCE", 2.5)
        t2 = enomp.detection_threshold(1024, 1e-2)
        assert t2 == pytest.approx(2.5 * t1, rel=1e-12)
        with pytest.raises(ValueError):
            enomp.detection_threshold(1024, 0.0)

    def test_stopping_statistic_examples(self):
        cfg = small_cfg()
        assert enomp.stopping_statistic(np.zeros(cfg.M * cfg.N), cfg) == 0.0
        # a critically sampled DFT atom concentrates all energy in one bin,
        # so the statistic equals the squared norm of the input
        rng = np.random.default_rng(7)
        m = np.arange(cfg.M_v)[:, None, None]
        h = np.arange(cfg.M_h)[None, :, None]
        n = np.arange(cfg.N)[None, None, :]
        atom = np.exp(-2j * np.pi * (m * 2 / cfg.M_v + h * 1 / cfg.M_h + n * 5 / cfg.N))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        r = alpha * atom.ravel()
        stat = enomp.stopping_statistic(r, cfg)
        assert stat == pytest.approx(np.linalg.norm(r) ** 2, rel=1e-12)

    def test_false_alarm_rate_on_pure_noise(self):
        cfg = small_cfg()  # MN = 512
        mn = cfg.M * cfg.N
        threshold = enomp.detection_threshold(mn, cfg.P_fa)
        rng = np.random.default_rng(8)
        trials, hits = 10000, 0
        chunk = 500
        for _ in range(trials // chunk):
            z = (rng.standard_normal((chunk, cfg.M_v, cfg.M_h, cfg.N))
                 + 1j * rng.standard_normal((chunk, cfg.M_v, cfg.M_h, cfg.N))) / math.sqrt(2)
            spectrum = np.fft.fftn(z, axes=(1, 2, 3))
            stats = np.max(np.abs(spectrum) ** 2, axis=(1, 2, 3)) / mn
            hits += int(np.sum(stats >= threshold))
        rate = hits / trials
        # design rate is 1e-2; binomial 3 sigma is about 3e-3
        assert 0.002 < rate < 0.02


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
        th1, ph1, ta1, accepted = enomp.newton_refine(y, th0, ph0, ta0, cfg)
        assert accepted
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
        assert np.max(np.linalg.eigvalsh(log_power_hessian(y, th, ph, ta, cfg))) >= 0.0
        assert enomp.newton_refine(y, th, ph, ta, cfg) == (th, ph, ta, False)

    def test_rejected_when_no_step_raises_the_power(self):
        # at the exact matched point the Hessian is negative definite but the
        # power is already at its maximum, so no damped step strictly raises it
        cfg = small_cfg()
        th, ph, ta = 0.3, -0.4, 5.0e-6
        y = (0.7 + 0.2j) * enomp.synth_atom(th, ph, ta, cfg)
        assert np.max(np.linalg.eigvalsh(log_power_hessian(y, th, ph, ta, cfg))) < 0.0
        assert enomp.newton_refine(y, th, ph, ta, cfg) == (th, ph, ta, False)


def log_power_hessian(y, theta, phi, tau, cfg):
    """Hessian of log|c|^2 in (u, w, tau) at one atom, by the quotient rule."""
    a_v, a_h = steering_factors(theta, phi, cfg)
    p_n = delay_vector(tau, cfg)
    centres = ((cfg.M_v - 1) / 2.0, (cfg.M_h - 1) / 2.0, (cfg.N - 1) / 2.0)
    cube = _kernels.moment_cube(y.reshape(cfg.M_v, cfg.M_h, cfg.N), a_v, a_h, p_n, *centres)
    c, dc, d2c = enomp._correlation_derivatives(cube, cfg)
    grad = 2.0 * (np.conj(c) * dc).real / abs(c) ** 2
    return (2.0 * ((np.conj(c) * d2c).real + np.outer(dc, np.conj(dc)).real) / abs(c) ** 2
            - np.outer(grad, grad))


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

    def test_noiseless_off_grid_round_trip(self):
        cfg = SystemConfig(M_v=4, M_h=8, N=64)
        cell = cell_sizes(cfg)
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            paths = self._separated_paths(rng, 3, cfg)
            y = uplink_channel(paths, cfg)
            res = enomp.extract(y, cfg)
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
            res = enomp.extract(y, cfg, codebook=cb)
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
        res = enomp.extract(y, cfg)
        assert len(res.paths) == 1
        assert abs(res.paths[0].phi - ph) < 1e-4 * cell[1]

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
        y = sounding_observation(paths, cfg, 13)
        res = enomp.extract(y, cfg)
        rebuilt = sum(p.gain * enomp.synth_atom(p.theta, p.phi, p.tau, cfg)
                      for p in res.paths)
        np.testing.assert_allclose(res.residual, y - rebuilt, atol=1e-10)
        norms = np.array(res.residual_norms)
        assert res.iterations == len(norms)
        assert np.all(np.diff(norms) <= 1e-9 * norms[:-1])

    def test_coincident_redetection_stops_degenerate(self, monkeypatch):
        # the second detection lands 1e-13 rad from the first, so the two
        # atoms are rank deficient for lstsq: the newest one is dropped and
        # extraction stops, keeping the first path with its lstsq gain
        cfg = SystemConfig()
        cb = enomp.build_codebook(cfg)
        y = ((1.2 - 0.4j) * enomp.synth_atom(cb.thetas[5], cb.phis[9], cb.taus[40], cfg)
             + (0.8 + 0.1j) * enomp.synth_atom(cb.thetas[11], cb.phis[20], cb.taus[90], cfg))
        detect, found = enomp.omp_detect, []

        def redetect(residual, codebook):
            if not found:
                found.append(detect(residual, codebook))
                return found[0]
            theta, phi, tau, power = found[0]
            return theta + 1e-13, phi, tau, power

        monkeypatch.setattr(enomp, "omp_detect", redetect)
        lstsq = counted_lstsq(monkeypatch)
        monkeypatch.setattr(enomp, "newton_refine",
                            lambda y, theta, phi, tau, cfg: (theta, phi, tau, False))
        res = enomp.extract(y, cfg, cb)
        assert lstsq.calls == 1
        assert res.stop_reason == "degenerate"
        assert res.iterations == len(res.residual_norms) == 2
        assert len(res.paths) == 1
        path = res.paths[0]
        assert (path.theta, path.phi, path.tau) == found[0][:3]
        atom = enomp.synth_atom(path.theta, path.phi, path.tau, cfg)
        want = lstsq(atom[:, None], y, rcond=None)[0][0]
        assert path.gain == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(res.residual, y - want * atom, rtol=0, atol=1e-10)

    def test_iteration_cap(self, monkeypatch):
        cfg = small_cfg()
        y = (enomp.synth_atom(0.3, 0.2, 2e-6, cfg)
             + enomp.synth_atom(-0.8, -0.5, 8e-6, cfg))
        monkeypatch.setattr(enomp, "_MAX_PATHS", 1)
        res = enomp.extract(y, cfg)
        assert res.stop_reason == "cap"
        assert res.iterations == 1
        assert len(res.paths) == 1

    def test_pure_noise_usually_empty(self):
        cfg = small_cfg()
        empty = 0
        for seed in range(20):
            y = sounding_observation((), cfg, seed)
            res = enomp.extract(y, cfg)
            empty += not res.paths
        assert empty >= 18  # false-alarm rate is one percent per snapshot

    def test_rejects_wrong_length(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            enomp.extract(np.zeros(7), cfg)


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


def counted_lstsq(monkeypatch):
    """Patch np.linalg.lstsq with a wrapper that counts its calls."""
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        counted.calls += 1
        return lstsq(*args, **kwargs)

    counted.calls = 0
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return counted


def materialized_basis(paths, cfg):
    return np.stack([enomp.synth_atom(p.theta, p.phi, p.tau, cfg) for p in paths], axis=1)


class TestFitGains:
    @settings(max_examples=80, deadline=None)
    @given(atom_sets())
    def test_hadamard_gram_equals_basis_gram(self, case):
        cfg, paths, _ = case
        basis = materialized_basis(paths, cfg)
        gram = enomp._atom_gram(*enomp.path_factors(paths, cfg))
        # off-diagonal entries can be near zero: atol relative to the diagonal MN
        np.testing.assert_allclose(gram, basis.conj().T @ basis,
                                   rtol=1e-12, atol=1e-12 * cfg.M * cfg.N)

    @settings(max_examples=80, deadline=None)
    @given(atom_sets())
    def test_gains_and_residual_match_materialized_lstsq(self, case):
        cfg, paths, y = case
        basis = materialized_basis(paths, cfg)
        assume(len(paths) <= cfg.M * cfg.N and np.linalg.cond(basis) < 1e2)
        factors = enomp.path_factors(paths, cfg)
        gains, rank = enomp.fit_gains(y, *factors)
        want, _, want_rank, _ = np.linalg.lstsq(basis, y, rcond=None)
        assert rank == want_rank == len(paths)
        np.testing.assert_allclose(gains, want, rtol=1e-9)
        np.testing.assert_allclose(y - enomp.atom_sum(gains, *factors),
                                   y - basis @ gains, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("sep, rank", [(1e-10, 2), (1e-13, 1)])
    def test_near_coincident_atoms_take_lstsq_route(self, monkeypatch, sep, rank):
        # cond(A) is about 3.5 / sep at this size: past the Gram route's 1e4
        # at 1e-10 rad yet inside lstsq's full-rank region, rank deficient
        # for lstsq at 1e-13 rad
        cfg = SystemConfig()
        paths = [enomp.DetectedPath(0j, 0.3, -0.4, 5e-6),
                 enomp.DetectedPath(0j, 0.3 + sep, -0.4, 5e-6)]
        basis = materialized_basis(paths, cfg)
        y = basis @ np.array([1.0 + 0.5j, -0.3j])
        lstsq = counted_lstsq(monkeypatch)
        gains, got_rank = enomp.fit_gains(y, *enomp.path_factors(paths, cfg))
        assert lstsq.calls == 1
        want, _, want_rank, _ = lstsq(basis, y, rcond=None)
        assert got_rank == want_rank == rank
        np.testing.assert_array_equal(gains, want)

    @settings(max_examples=40, deadline=None)
    @given(atom_sets())
    def test_path_factors_equal_scalar_builds_exactly(self, case):
        cfg, paths, _ = case
        a_v, a_h, p_n = enomp.path_factors(paths, cfg)
        assert (a_v.shape, a_h.shape, p_n.shape) == (
            (cfg.M_v, len(paths)), (cfg.M_h, len(paths)), (cfg.N, len(paths)))
        for l, p in enumerate(paths):
            want_v, want_h = steering_factors(p.theta, p.phi, cfg)
            np.testing.assert_array_equal(a_v[:, l], want_v)
            np.testing.assert_array_equal(a_h[:, l], want_h)
            np.testing.assert_array_equal(p_n[:, l], delay_vector(p.tau, cfg))

    @settings(max_examples=60, deadline=None)
    @given(atom_sets(max_atoms=1))
    def test_atom_correlation_matches_conjugated_observation_form(self, case):
        cfg, paths, y = case
        y3 = y.reshape(cfg.M_v, cfg.M_h, cfg.N)
        a_v, a_h, p_n = (f[:, 0] for f in enomp.path_factors(paths, cfg))
        old = (y3.conj().reshape(-1, cfg.N) @ p_n).reshape(cfg.M_v, cfg.M_h)
        want = complex((old @ a_h) @ a_v)
        np.testing.assert_allclose(enomp._atom_correlation(y3, a_v, a_h, p_n), want, rtol=1e-13)
