"""Beam grid, accuracy predictor, and pilot scheduler tests."""

import math

import numpy as np
import pytest

from fddrecon import dltrain
from fddrecon.enomp import DetectedPath
from fddrecon.sysmodel import SystemConfig, steering_vector


def small_cfg(**kw):
    base = dict(M_v=4, M_h=8, N=64, P=10.0)
    base.update(kw)
    return SystemConfig(**base)


def random_detected_paths(rng, count, cfg, gain_scale=1.0):
    return tuple(DetectedPath(
        gain=gain_scale * complex(rng.standard_normal(), rng.standard_normal()),
        theta=float(rng.uniform(-1.4, 1.4)),
        phi=float(rng.uniform(-1.4, 1.4)),
        tau=float(rng.uniform(0.0, 0.9) * cfg.tau_max),
    ) for _ in range(count))


def manual_plan(indices, grid, cfg):
    """TrainingPlan for an explicit list of 1-based grid points."""
    beams = grid[:, [j - 1 for j in indices]].conj() / math.sqrt(cfg.M)
    return dltrain.TrainingPlan(
        grid_indices=tuple(indices), beams=beams,
        pilot_subcarriers=dltrain.pilot_subcarriers(cfg),
        weights=tuple(1 for _ in indices), feasible=True)


class TestGrid:
    def test_corner_points(self):
        cfg = SystemConfig()
        th, ph = dltrain.grid_point(1, cfg)
        assert th == pytest.approx(math.pi / cfg.M_v * (1 - cfg.M_v / 2 - 1))
        assert ph == pytest.approx(math.pi / cfg.M_h * (1 - cfg.M_h / 2 - 1))
        th2, ph2 = dltrain.grid_point(cfg.M_h + 1, cfg)
        assert th2 == pytest.approx(math.pi / cfg.M_v * (2 - cfg.M_v / 2 - 1))
        assert ph2 == pytest.approx(ph)
        th3, ph3 = dltrain.grid_point(cfg.M, cfg)
        assert th3 == pytest.approx(math.pi / cfg.M_v * (cfg.M_v / 2 - 1))
        assert ph3 == pytest.approx(math.pi / cfg.M_h * (cfg.M_h / 2 - 1))

    def test_index_bounds(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            dltrain.grid_point(0, cfg)
        with pytest.raises(ValueError):
            dltrain.grid_point(cfg.M + 1, cfg)

    @pytest.mark.parametrize("cfg", [small_cfg(), SystemConfig()])
    def test_steering_table_matches_points_exactly(self, cfg):
        grid = dltrain.build_angle_grid(cfg)
        assert grid.shape == (cfg.M, cfg.M)
        # optimal_grid_point's BLAS summation order, which settles the equal
        # endfire columns, depends on this layout
        assert grid.flags.c_contiguous
        for j in range(1, cfg.M + 1):
            th, ph = dltrain.grid_point(j, cfg)
            np.testing.assert_array_equal(grid[:, j - 1], steering_vector(float(th), float(ph), cfg))

    def test_grid_point_vectorized_matches_scalar(self):
        cfg = small_cfg()
        index = np.arange(1, cfg.M + 1).reshape(4, -1)
        thetas, phis = dltrain.grid_point(index, cfg)
        assert thetas.shape == phis.shape == index.shape
        for j in index.ravel():
            th, ph = dltrain.grid_point(int(j), cfg)
            assert (thetas.flat[j - 1], phis.flat[j - 1]) == (th, ph)
        with pytest.raises(ValueError):
            dltrain.grid_point(np.array([1, 2, cfg.M + 1]), cfg)


class TestProjectedPower:
    def test_on_grid_equals_m(self):
        cfg = small_cfg()
        th, ph = dltrain.grid_point(11, cfg)
        assert dltrain.projected_power(th, ph, th, ph, cfg) == pytest.approx(cfg.M)

    def test_dirichlet_zero(self):
        # at theta = 0 the azimuth response is a DFT vector in sin(phi);
        # offsetting sin(phi) by 2/M_h lands exactly on a Dirichlet null
        cfg = small_cfg()
        phi_hat = math.asin(2.0 / cfg.M_h)
        assert dltrain.projected_power(0.0, phi_hat, 0.0, 0.0, cfg) < 1e-10

    def test_matches_direct_formula(self):
        cfg = small_cfg()
        rng = np.random.default_rng(20)
        for _ in range(10):
            th, ph, tb, pb = rng.uniform(-1.5, 1.5, 4)
            a = steering_vector(th, ph, cfg)
            b = steering_vector(tb, pb, cfg)
            direct = abs(np.sum(a * np.conj(b))) ** 2 / cfg.M
            got = dltrain.projected_power(th, ph, tb, pb, cfg)
            assert got == pytest.approx(direct, rel=1e-12)
            assert got >= 0.0


class TestOptimalGridPoint:
    def test_own_point(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        for j in (1, 13, cfg.M):
            th, ph = dltrain.grid_point(j, cfg)
            assert dltrain.optimal_grid_point(th, ph, grid, cfg) == j

    def test_exhaustive_oracle(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(21)
        for _ in range(10):
            th = float(rng.uniform(-1.5, 1.5))
            ph = float(rng.uniform(-1.5, 1.5))
            powers = np.array([dltrain.projected_power(
                th, ph, *dltrain.grid_point(j, cfg), cfg) for j in range(1, cfg.M + 1)])
            j_star = dltrain.optimal_grid_point(th, ph, grid, cfg)
            # ties can flip on rounding noise; the chosen point must capture
            # the exhaustive-scan maximum power either way
            assert powers[j_star - 1] >= np.max(powers) * (1.0 - 1e-9)

    def test_midway_tie(self):
        # halfway in sin(theta) between two adjacent grid downtilts, at zero
        # azimuth (so the cos(theta)-dependent azimuth frequency is zero for
        # both rows), the two candidates capture equal power
        cfg = small_cfg(M_v=4, M_h=4)
        grid = dltrain.build_angle_grid(cfg)
        i_v_a, i_v_b, i_h = 2, 3, cfg.M_h // 2 + 1
        th_a, ph = dltrain.grid_point((i_v_a - 1) * cfg.M_h + i_h, cfg)
        assert ph == pytest.approx(0.0)
        th_b, _ = dltrain.grid_point((i_v_b - 1) * cfg.M_h + i_h, cfg)
        th_mid = math.asin((math.sin(th_a) + math.sin(th_b)) / 2.0)
        idx_a = (i_v_a - 1) * cfg.M_h + i_h
        idx_b = (i_v_b - 1) * cfg.M_h + i_h
        p_a = dltrain.projected_power(th_mid, ph, th_a, ph, cfg)
        p_b = dltrain.projected_power(th_mid, ph, th_b, ph, cfg)
        assert p_a == pytest.approx(p_b, rel=1e-9)
        assert dltrain.optimal_grid_point(th_mid, ph, grid, cfg) in (idx_a, idx_b)


class TestCoefficientMatrix:
    def test_pilot_comb(self):
        cfg = SystemConfig()
        pilots = dltrain.pilot_subcarriers(cfg)
        assert len(pilots) == 64
        assert pilots[0] == 0 and pilots[1] == 4 and pilots[-1] == 252
        assert len(dltrain.pilot_subcarriers(small_cfg(N=10))) == 3

    def test_single_aligned_beam(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        j = 14
        th, ph = dltrain.grid_point(j, cfg)
        path = DetectedPath(gain=1.5 - 0.5j, theta=th, phi=ph, tau=2.0e-6)
        plan = manual_plan([j], grid, cfg)
        coef = dltrain.coefficient_matrix([path], plan, cfg)
        n_p = len(plan.pilot_subcarriers)
        assert coef.shape == (n_p, 1)
        np.testing.assert_allclose(np.abs(coef), math.sqrt(cfg.M), rtol=1e-12)
        predicted = dltrain.predict_nmse(coef, np.array([path.gain]), cfg)
        expect = 1.0 / (cfg.P * abs(path.gain) ** 2 * n_p * cfg.M)
        assert predicted == pytest.approx(expect, rel=1e-12)

    def test_orthogonal_beam_zero_column(self):
        cfg = small_cfg(M_v=4, M_h=4)
        grid = dltrain.build_angle_grid(cfg)
        # grid point at theta = 0 (so cos(theta) = 1) and phi = 0
        j_zero = (cfg.M_v // 2) * cfg.M_h + cfg.M_h // 2 + 1
        th_bar, ph_bar = dltrain.grid_point(j_zero, cfg)
        assert th_bar == pytest.approx(0.0)
        assert ph_bar == pytest.approx(0.0)
        path = DetectedPath(gain=1.0, theta=th_bar,
                            phi=math.asin(2.0 / cfg.M_h), tau=1.0e-6)
        plan = manual_plan([j_zero], grid, cfg)
        coef = dltrain.coefficient_matrix([path], plan, cfg)
        assert np.max(np.abs(coef)) < 1e-10

    def test_zero_delay_no_carrier_shift_is_real(self):
        cfg = small_cfg(f_dl=2.0e9, f_ul=2.0e9)
        grid = dltrain.build_angle_grid(cfg)
        j = 9
        th, ph = dltrain.grid_point(j, cfg)
        path = DetectedPath(gain=1.0, theta=th, phi=ph, tau=0.0)
        coef = dltrain.coefficient_matrix([path], manual_plan([j], grid, cfg), cfg)
        np.testing.assert_allclose(coef.imag, 0.0, atol=1e-10)
        np.testing.assert_allclose(coef.real, math.sqrt(cfg.M), rtol=1e-12)

    def test_entrywise_oracle(self):
        cfg = small_cfg(N=16)
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(22)
        paths = random_detected_paths(rng, 3, cfg)
        indices = [2, 17, 30]
        plan = manual_plan(indices, grid, cfg)
        coef = dltrain.coefficient_matrix(paths, plan, cfg)
        pilots = plan.pilot_subcarriers
        for t in range(len(indices)):
            for i, n in enumerate(pilots):
                for l, p in enumerate(paths):
                    a = steering_vector(p.theta, p.phi, cfg)
                    entry = (np.exp(2j * np.pi * cfg.carrier_shift * p.tau)
                             * np.dot(a, plan.beams[:, t])
                             * np.exp(2j * np.pi * n * cfg.delta_f * p.tau))
                    got = coef[t * len(pilots) + i, l]
                    assert abs(got - entry) < 1e-10 * max(1.0, abs(entry))

    def test_requires_paths_and_beams(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        plan = manual_plan([1], grid, cfg)
        with pytest.raises(ValueError):
            dltrain.coefficient_matrix([], plan, cfg)


class TestPredictor:
    def test_rank_deficient_is_inf(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        path = DetectedPath(gain=1.0, theta=0.3, phi=-0.2, tau=2e-6)
        plan = manual_plan([5, 6], grid, cfg)
        coef = dltrain.coefficient_matrix([path, path], plan, cfg)  # duplicate
        assert dltrain.predict_nmse(coef, np.array([1.0, 1.0]), cfg) == math.inf

    @pytest.mark.parametrize("cond, finite", [(1e5, True), (1e8, False)])
    def test_rank_rule_on_condition_number(self, cond, finite):
        # A = U diag(s) V^H with singular values spread from 1 to 1/cond
        rng = np.random.default_rng(24)
        n_rows, n_paths = 64, 4
        u, _ = np.linalg.qr(rng.standard_normal((n_rows, n_paths))
                            + 1j * rng.standard_normal((n_rows, n_paths)))
        v, _ = np.linalg.qr(rng.standard_normal((n_paths, n_paths))
                            + 1j * rng.standard_normal((n_paths, n_paths)))
        s = np.geomspace(1.0, 1.0 / cond, n_paths)
        coef = (u * s) @ v.conj().T
        nmse = dltrain.predict_nmse(coef, np.ones(n_paths), small_cfg())
        if finite:
            assert nmse == pytest.approx(np.sum(1.0 / s**2) / (10.0 * n_paths), rel=1e-4)
        else:
            assert nmse == math.inf

    def test_fewer_rows_than_paths_is_inf(self):
        coef = np.array([[1.0 + 0j, 2.0 + 0j]])
        assert dltrain.predict_nmse(coef, np.array([1.0, 1.0]), small_cfg()) == math.inf

    def test_zero_gain_rejected(self):
        cfg = small_cfg()
        coef = np.array([[2.0 + 0j]])
        with pytest.raises(ValueError):
            dltrain.predict_nmse(coef, np.array([0.0]), cfg)

    def test_scalar_value(self):
        cfg = small_cfg(P=1.0)
        coef = np.array([[2.0 + 0j]])
        # predicted NMSE = (1/4) / (1 * 1) = 0.25
        assert dltrain.predict_nmse(coef, np.array([1.0 + 0j]), cfg) == 0.25
        assert dltrain.predict_nmse(coef, np.array([math.sqrt(2.0)]), cfg) == pytest.approx(0.125)

    def test_monte_carlo_agreement(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(23)
        paths = random_detected_paths(rng, 3, cfg)
        plan = manual_plan([3, 11, 20, 28], grid, cfg)
        coef = dltrain.coefficient_matrix(paths, plan, cfg)
        g = np.array([p.gain for p in paths])
        predicted = dltrain.predict_nmse(coef, g, cfg)
        draws = 2000
        total = 0.0
        gnorm2 = np.sum(np.abs(g) ** 2)
        for _ in range(draws):
            y = dltrain.simulate_downlink_training(
                [_as_true_path(p) for p in paths], plan, cfg, noise_seed=rng)
            g_hat = dltrain.estimate_downlink_gains(y, coef, cfg)
            total += np.sum(np.abs(g_hat - g) ** 2) / gnorm2
        assert total / draws == pytest.approx(predicted, rel=0.10)

    def test_rotated_basis_component_variances(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(24)
        paths = random_detected_paths(rng, 2, cfg)
        plan = manual_plan([4, 19, 27], grid, cfg)
        coef = dltrain.coefficient_matrix(paths, plan, cfg)
        g = np.array([p.gain for p in paths])
        _, sv, vh = np.linalg.svd(coef, full_matrices=False)
        draws = 4000
        comp = np.zeros(len(g))
        for _ in range(draws):
            y = dltrain.simulate_downlink_training(
                [_as_true_path(p) for p in paths], plan, cfg, noise_seed=rng)
            err = dltrain.estimate_downlink_gains(y, coef, cfg) - g
            comp += np.abs(vh @ err) ** 2
        comp /= draws
        expect = 1.0 / (cfg.P * sv**2)
        np.testing.assert_allclose(comp, expect, rtol=0.15)


class _TruePath:
    """Adapter giving a DetectedPath the g_dl attribute the simulator reads."""

    __slots__ = ("g_dl", "theta", "phi", "tau")

    def __init__(self, gain, theta, phi, tau):
        self.g_dl = gain
        self.theta = theta
        self.phi = phi
        self.tau = tau


def _as_true_path(p):
    return _TruePath(p.gain, p.theta, p.phi, p.tau)


class TestGainEstimation:
    def test_noiseless_recovery(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(25)
        paths = random_detected_paths(rng, 3, cfg)
        plan = manual_plan([1, 9, 22, 31], grid, cfg)
        coef = dltrain.coefficient_matrix(paths, plan, cfg)
        y = dltrain.simulate_downlink_training(
            [_as_true_path(p) for p in paths], plan, cfg)
        g_hat = dltrain.estimate_downlink_gains(y, coef, cfg)
        g = np.array([p.gain for p in paths])
        np.testing.assert_allclose(g_hat, g, rtol=1e-10)

    def test_seeded_noise_reproducible(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(26)
        paths = [_as_true_path(p) for p in random_detected_paths(rng, 2, cfg)]
        plan = manual_plan([7, 15], grid, cfg)
        y1 = dltrain.simulate_downlink_training(paths, plan, cfg, noise_seed=99)
        y2 = dltrain.simulate_downlink_training(paths, plan, cfg, noise_seed=99)
        np.testing.assert_array_equal(y1, y2)

    def test_rank_deficiency_raises(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        path = DetectedPath(gain=1.0, theta=0.4, phi=0.1, tau=3e-6)
        plan = manual_plan([8, 16], grid, cfg)
        coef = dltrain.coefficient_matrix([path, path], plan, cfg)
        with pytest.raises(np.linalg.LinAlgError):
            dltrain.estimate_downlink_gains(np.zeros(coef.shape[0]), coef, cfg)


class TestScheduler:
    def _users(self, rng, cfg, n_users=3, n_paths=3):
        return [random_detected_paths(rng, n_paths, cfg) for _ in range(n_users)]

    def test_single_user_single_point(self):
        cfg = small_cfg(delta=0.5)
        grid = dltrain.build_angle_grid(cfg)
        th, ph = dltrain.grid_point(12, cfg)
        user = (DetectedPath(gain=2.0 + 0j, theta=th, phi=ph, tau=1e-6),)
        plan = dltrain.schedule_beams([user], grid, cfg)
        assert plan.feasible
        assert plan.T_p == 1
        assert plan.grid_indices == (12,)
        assert plan.weights == (1,)

    def test_weights_count_distinct_users(self):
        cfg = small_cfg(delta=1e-9)  # infeasible so every mark is kept
        grid = dltrain.build_angle_grid(cfg)
        # stay off the theta = -pi/2 row, where every azimuth column ties
        th_a, ph_a = dltrain.grid_point(11, cfg)
        th_b, ph_b = dltrain.grid_point(21, cfg)
        shared = DetectedPath(gain=1.0, theta=th_a, phi=ph_a, tau=1e-6)
        shared2 = DetectedPath(gain=1.0, theta=th_a, phi=ph_a, tau=4e-6)
        other = DetectedPath(gain=1.0, theta=th_b, phi=ph_b, tau=2e-6)
        plan = dltrain.schedule_beams(
            [(shared, shared2), (shared, other)], grid, cfg)
        assert not plan.feasible
        weight = dict(zip(plan.grid_indices, plan.weights))
        # two paths of user 1 on point 11 still count that user once
        assert weight[11] == 2
        assert weight[21] == 1
        # scan order is ascending (weight, index)
        assert plan.grid_indices == (21, 11)

    def test_beams_unit_norm(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(27)
        plan = dltrain.schedule_beams(self._users(rng, cfg), grid, cfg)
        np.testing.assert_allclose(
            np.linalg.norm(plan.beams, axis=0), 1.0, rtol=1e-12)

    def test_all_users_meet_target(self):
        cfg = small_cfg(delta=1e-2)
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(28)
        users = self._users(rng, cfg, n_users=4, n_paths=3)
        plan = dltrain.schedule_beams(users, grid, cfg)
        assert plan.feasible
        for paths in users:
            coef = dltrain.coefficient_matrix(paths, plan, cfg)
            g = np.array([p.gain for p in paths])
            assert dltrain.predict_nmse(coef, g, cfg) < cfg.delta

    def test_monotone_in_delta(self):
        grid = None
        rng = np.random.default_rng(29)
        users_base = None
        t_ps = []
        for delta in (1e-1, 1e-2, 1e-3):
            cfg = small_cfg(delta=delta)
            if grid is None:
                grid = dltrain.build_angle_grid(cfg)
                users_base = self._users(
                    np.random.default_rng(30), cfg, n_users=4, n_paths=3)
            plan = dltrain.schedule_beams(users_base, grid, cfg)
            assert plan.feasible
            t_ps.append(plan.T_p)
        assert t_ps[0] <= t_ps[1] <= t_ps[2]

    def test_first_retained_point_indispensable(self):
        cfg = small_cfg(delta=1e-2)
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(31)
        users = self._users(rng, cfg, n_users=4, n_paths=3)
        plan = dltrain.schedule_beams(users, grid, cfg)
        assert plan.feasible
        if plan.T_p < cfg.M:
            reduced = manual_plan(plan.grid_indices[1:], grid, cfg)
            ok = True
            for paths in users:
                if len(reduced.grid_indices) == 0:
                    ok = False
                    break
                coef = dltrain.coefficient_matrix(paths, reduced, cfg)
                g = np.array([p.gain for p in paths])
                if not dltrain.predict_nmse(coef, g, cfg) < cfg.delta:
                    ok = False
                    break
            assert not ok

    def test_infeasible_keeps_everything(self):
        cfg = small_cfg(delta=1e-12)
        grid = dltrain.build_angle_grid(cfg)
        users = self._users(np.random.default_rng(33), cfg)
        plan = dltrain.schedule_beams(users, grid, cfg)
        assert not plan.feasible
        marked = set()
        for paths in users:
            for p in paths:
                marked.add(dltrain.optimal_grid_point(p.theta, p.phi, grid, cfg))
        assert set(plan.grid_indices) == marked

    def test_internal_probe_matches_public_predictor(self):
        cfg = small_cfg(delta=1e-2)
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(34)
        paths = random_detected_paths(rng, 3, cfg)
        order = sorted({dltrain.optimal_grid_point(p.theta, p.phi, grid, cfg)
                        for p in paths} | {2, 14, 25, 30})
        state = dltrain._UserState(paths, order, grid, cfg)
        g = np.array([p.gain for p in paths])
        for subset in ([0, 1, 2], [1, 3], [0, 2, 4, 5], list(range(len(order)))):
            cols = np.array(subset, dtype=np.intp)
            plan = manual_plan([order[s] for s in subset], grid, cfg)
            coef = dltrain.coefficient_matrix(paths, plan, cfg)
            direct = dltrain.predict_nmse(coef, g, cfg)
            fast = state.subset_nmse(cols, cfg)
            assert fast == pytest.approx(direct, rel=1e-9)
