"""Beam grid, accuracy predictor, and pilot scheduler tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fddrecon import _kernels, dltrain
from fddrecon.enomp import DetectedPath
from fddrecon.sysmodel import SystemConfig, steering_vector


P_TX = 10.0  # transmit power of every test but test_scalar_value


def small_cfg(**kw):
    base = dict(M_v=4, M_h=8, N=64)
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
        weights=tuple(1 for _ in indices), feasible=True)


def projected_power(theta, phi, theta_bar, phi_bar, cfg):
    """Normalized power a path at (theta, phi) leaks into a beam aimed at
    (theta_bar, phi_bar): |a(theta, phi)^T a*(theta_bar, phi_bar)|^2 / M.

    Equals M when the angles coincide and decays with beam-space distance.
    """
    a = steering_vector(theta, phi, cfg)
    b = steering_vector(theta_bar, phi_bar, cfg)
    return float(np.abs(np.dot(a, b.conj())) ** 2) / cfg.M


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
        assert projected_power(th, ph, th, ph, cfg) == pytest.approx(cfg.M)

    def test_dirichlet_zero(self):
        # at theta = 0 the azimuth response is a DFT vector in sin(phi);
        # offsetting sin(phi) by 2/M_h lands exactly on a Dirichlet null
        cfg = small_cfg()
        phi_hat = math.asin(2.0 / cfg.M_h)
        assert projected_power(0.0, phi_hat, 0.0, 0.0, cfg) < 1e-10

    def test_matches_direct_formula(self):
        cfg = small_cfg()
        rng = np.random.default_rng(20)
        for _ in range(10):
            th, ph, tb, pb = rng.uniform(-1.5, 1.5, 4)
            a = steering_vector(th, ph, cfg)
            b = steering_vector(tb, pb, cfg)
            direct = abs(np.sum(a * np.conj(b))) ** 2 / cfg.M
            got = projected_power(th, ph, tb, pb, cfg)
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
            powers = np.array([projected_power(
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
        p_a = projected_power(th_mid, ph, th_a, ph, cfg)
        p_b = projected_power(th_mid, ph, th_b, ph, cfg)
        assert p_a == pytest.approx(p_b, rel=1e-9)
        assert dltrain.optimal_grid_point(th_mid, ph, grid, cfg) in (idx_a, idx_b)


class TestEndfireBeams:
    """At theta = -pi/2 all M_h columns of the grid are one beam, equal up to
    rounding; its first column stands for all of them."""

    PHIS = (-1.0, -0.5, 0.5, 1.0)

    @staticmethod
    def _users(cfg, nudge):
        # per user one path close to endfire, whose best beams are the tied
        # copies of the endfire row, and three elsewhere
        rng = np.random.default_rng(35)
        return [random_detected_paths(rng, 3, cfg) + (DetectedPath(
            gain=complex(1.0, 0.5 * u), theta=-math.pi / 2 + 0.05 + nudge, phi=phi,
            tau=float(rng.uniform(0.0, 0.9) * cfg.tau_max)),)
            for u, phi in enumerate(TestEndfireBeams.PHIS)]

    def test_tied_beams_resolve_to_the_first_column(self):
        cfg = SystemConfig()
        grid = dltrain.build_angle_grid(cfg)
        layouts = (grid, np.asfortranarray(grid))
        for theta in (-math.pi / 2, -math.pi / 2 + 0.05, -math.pi / 2 + 0.1):
            for phi in np.linspace(-1.5, 1.5, 7):
                got = {dltrain.optimal_grid_point(theta + nudge, phi, layout, cfg)
                       for nudge in (0.0, 1e-9, 2e-9) for layout in layouts}
                assert len(got) == 1
                assert got.pop() in {1} | set(range(cfg.M_h + 1, cfg.M + 1))
        for phi in self.PHIS:
            assert dltrain.optimal_grid_point(-math.pi / 2 + 0.05, phi, grid, cfg) == 1

    @pytest.mark.parametrize("delta", [1e-3, 1e-2, 1e-1])
    def test_nudge_and_grid_layout_leave_the_schedule_unchanged(self, delta):
        cfg = SystemConfig()
        grid = dltrain.build_angle_grid(cfg)
        plan = dltrain.schedule_beams(self._users(cfg, 0.0), grid, cfg, delta, P_TX)
        for users, layout in ((self._users(cfg, 1e-9), grid),
                              (self._users(cfg, 0.0), np.asfortranarray(grid))):
            other = dltrain.schedule_beams(users, layout, cfg, delta, P_TX)
            assert (other.grid_indices, other.weights, other.feasible) == (
                plan.grid_indices, plan.weights, plan.feasible)


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
        n_p = len(dltrain.pilot_subcarriers(cfg))
        assert coef.shape == (n_p, 1)
        np.testing.assert_allclose(np.abs(coef), math.sqrt(cfg.M), rtol=1e-12)
        predicted = dltrain.predict_nmse(coef, np.array([path.gain]), P_TX)
        expect = 1.0 / (P_TX * abs(path.gain) ** 2 * n_p * cfg.M)
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
        pilots = dltrain.pilot_subcarriers(cfg)
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
        assert dltrain.predict_nmse(coef, np.array([1.0, 1.0]), P_TX) == math.inf

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
        nmse = dltrain.predict_nmse(coef, np.ones(n_paths), P_TX)
        if finite:
            assert nmse == pytest.approx(np.sum(1.0 / s**2) / (10.0 * n_paths), rel=1e-4)
        else:
            assert nmse == math.inf

    def test_fewer_rows_than_paths_is_inf(self):
        coef = np.array([[1.0 + 0j, 2.0 + 0j]])
        assert dltrain.predict_nmse(coef, np.array([1.0, 1.0]), P_TX) == math.inf

    def test_zero_gain_rejected(self):
        coef = np.array([[2.0 + 0j]])
        with pytest.raises(ValueError):
            dltrain.predict_nmse(coef, np.array([0.0]), P_TX)

    def test_scalar_value(self):
        p_tx = 1.0
        coef = np.array([[2.0 + 0j]])
        # predicted NMSE = (1/4) / (1 * 1) = 0.25
        assert dltrain.predict_nmse(coef, np.array([1.0 + 0j]), p_tx) == 0.25
        assert dltrain.predict_nmse(coef, np.array([math.sqrt(2.0)]), p_tx) == pytest.approx(0.125)

    def test_monte_carlo_agreement(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(23)
        paths = random_detected_paths(rng, 3, cfg)
        plan = manual_plan([3, 11, 20, 28], grid, cfg)
        coef = dltrain.coefficient_matrix(paths, plan, cfg)
        g = np.array([p.gain for p in paths])
        predicted = dltrain.predict_nmse(coef, g, P_TX)
        draws = 2000
        total = 0.0
        gnorm2 = np.sum(np.abs(g) ** 2)
        for _ in range(draws):
            y = dltrain.simulate_downlink_training(
                [_as_true_path(p) for p in paths], plan, cfg, P_TX, noise_seed=rng)
            g_hat = dltrain.estimate_downlink_gains(y, paths, plan, cfg, P_TX)
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
                [_as_true_path(p) for p in paths], plan, cfg, P_TX, noise_seed=rng)
            err = dltrain.estimate_downlink_gains(y, paths, plan, cfg, P_TX) - g
            comp += np.abs(vh @ err) ** 2
        comp /= draws
        expect = 1.0 / (P_TX * sv**2)
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
            [_as_true_path(p) for p in paths], plan, cfg, P_TX)
        g_hat = dltrain.estimate_downlink_gains(y, paths, plan, cfg, P_TX)
        g = np.array([p.gain for p in paths])
        np.testing.assert_allclose(g_hat, g, rtol=1e-10)

    def test_seeded_noise_reproducible(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(26)
        paths = [_as_true_path(p) for p in random_detected_paths(rng, 2, cfg)]
        plan = manual_plan([7, 15], grid, cfg)
        y1 = dltrain.simulate_downlink_training(paths, plan, cfg, P_TX, noise_seed=99)
        y2 = dltrain.simulate_downlink_training(paths, plan, cfg, P_TX, noise_seed=99)
        np.testing.assert_array_equal(y1, y2)

    def test_rank_deficiency_raises(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        path = DetectedPath(gain=1.0, theta=0.4, phi=0.1, tau=3e-6)
        plan = manual_plan([8, 16], grid, cfg)
        coef = dltrain.coefficient_matrix([path, path], plan, cfg)
        with pytest.raises(np.linalg.LinAlgError):
            dltrain.estimate_downlink_gains(np.zeros(coef.shape[0]), [path, path], plan, cfg, P_TX)

    def test_no_paths_or_no_beams_raise_value_error(self):
        # an empty pilot model is a caller error (the harness fails a trial
        # whose user has no paths before it gets here), and it must not get
        # as far as an eigendecomposition of a 0 x 0 Gram
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(36)
        paths = [_as_true_path(p) for p in random_detected_paths(rng, 2, cfg)]
        plan = manual_plan([3, 12], grid, cfg)
        no_beams = manual_plan([], grid, cfg)
        y = dltrain.simulate_downlink_training(paths, plan, cfg, P_TX)
        for case_paths, case_plan in (([], plan), (paths, no_beams)):
            with pytest.raises(ValueError):
                dltrain.simulate_downlink_training(case_paths, case_plan, cfg, P_TX)
            with pytest.raises(ValueError):
                dltrain.estimate_downlink_gains(y, case_paths, case_plan, cfg, P_TX)
            with pytest.raises(ValueError):
                dltrain.coefficient_matrix(case_paths, case_plan, cfg)


@pytest.mark.parametrize("p_tx", [0.0, -1.0, math.nan, math.inf, True])
def test_power_entry_points_reject_power_that_is_not_finite_positive(p_tx):
    cfg = small_cfg()
    grid = dltrain.build_angle_grid(cfg)
    paths = random_detected_paths(np.random.default_rng(38), 2, cfg)
    true_paths = [_as_true_path(p) for p in paths]
    plan = manual_plan([3, 12], grid, cfg)
    coef = dltrain.coefficient_matrix(paths, plan, cfg)
    y = dltrain.simulate_downlink_training(true_paths, plan, cfg, P_TX)
    calls = (lambda: dltrain.schedule_beams([paths], grid, cfg, 0.1, p_tx),
             lambda: dltrain.predict_nmse(coef, [p.gain for p in paths], p_tx),
             lambda: dltrain.simulate_downlink_training(true_paths, plan, cfg, p_tx),
             lambda: dltrain.estimate_downlink_gains(y, paths, plan, cfg, p_tx))
    for call in calls:
        with pytest.raises(ValueError, match="p_tx"):
            call()


@st.composite
def pilot_cases(draw):
    """A small system, one to five random paths (downlink gains included)
    and a plan of distinct grid points."""
    cfg = SystemConfig(M_v=draw(st.integers(1, 4)), M_h=draw(st.integers(1, 4)),
                       N=draw(st.integers(4, 32)), pilot_spacing=draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    paths = [_as_true_path(p)
             for p in random_detected_paths(rng, draw(st.integers(1, 5)), cfg)]
    indices = draw(st.lists(st.integers(1, cfg.M), min_size=1, max_size=cfg.M, unique=True))
    return cfg, paths, manual_plan(indices, dltrain.build_angle_grid(cfg), cfg)


def counted_lstsq(monkeypatch):
    """Patch np.linalg.lstsq with a wrapper that counts its calls."""
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        counted.calls += 1
        return lstsq(*args, **kwargs)

    counted.calls = 0
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return counted


class TestFactoredPilots:
    """Pilot synthesis and the pilot gain LS read the pilot factors; the
    materialized coefficient matrix is their reference."""

    @settings(max_examples=80, deadline=None)
    @given(pilot_cases())
    def test_factors_build_the_coefficient_matrix(self, case):
        cfg, paths, plan = case
        factors = dltrain.pilot_factors(paths, plan.beams, cfg)
        n_pilots = len(dltrain.pilot_subcarriers(cfg))
        assert [f.shape for f in factors] == [
            (plan.T_p, len(paths)), (1, len(paths)), (n_pilots, len(paths))]
        coef = dltrain.coefficient_matrix(paths, plan, cfg)
        for l in range(len(paths)):
            np.testing.assert_array_equal(
                coef[:, l], _kernels.kron3(*(f[:, l] for f in factors)))

    @settings(max_examples=80, deadline=None)
    @given(pilot_cases())
    def test_noiseless_pilots_equal_the_coefficient_matrix_product(self, case):
        cfg, paths, plan = case
        coef = dltrain.coefficient_matrix(paths, plan, cfg)
        g = np.array([p.g_dl for p in paths])
        want = math.sqrt(P_TX) * coef @ g
        got = dltrain.simulate_downlink_training(paths, plan, cfg, P_TX)
        assert got.shape == want.shape
        bound = 1e-13 * math.sqrt(P_TX) * np.linalg.norm(coef) * np.linalg.norm(g)
        assert np.linalg.norm(got - want) <= bound

    @settings(max_examples=80, deadline=None)
    @given(pilot_cases(), st.integers(0, 2**32 - 1))
    def test_gains_match_lstsq_on_the_coefficient_matrix(self, case, seed):
        cfg, paths, plan = case
        coef = dltrain.coefficient_matrix(paths, plan, cfg)
        assume(len(paths) <= coef.shape[0] and np.linalg.cond(coef) < 1e2)
        y = dltrain.simulate_downlink_training(paths, plan, cfg, P_TX, noise_seed=seed)
        want = np.linalg.lstsq(coef, y, rcond=None)[0] / math.sqrt(P_TX)
        got = dltrain.estimate_downlink_gains(y, paths, plan, cfg, P_TX)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_near_coincident_paths_take_the_lstsq_route(self, monkeypatch):
        # two paths 1e-7 rad apart: full rank for lstsq, but past the Gram
        # route's cond(A) < 1e4, so fit_gains solves on the materialized
        # basis, which is the coefficient matrix itself
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        paths = [_TruePath(1.0 + 0.5j, 0.3, -0.4, 5e-6), _TruePath(-0.3j, 0.3 + 1e-7, -0.4, 5e-6)]
        plan = manual_plan([dltrain.optimal_grid_point(0.3, -0.4, grid, cfg), 5, 20], grid, cfg)
        coef = dltrain.coefficient_matrix(paths, plan, cfg)
        assert 1e4 <= np.linalg.cond(coef) < 1e10
        y = dltrain.simulate_downlink_training(paths, plan, cfg, P_TX, noise_seed=37)
        lstsq = counted_lstsq(monkeypatch)
        got = dltrain.estimate_downlink_gains(y, paths, plan, cfg, P_TX)
        assert lstsq.calls == 1
        want, _, rank, _ = lstsq(coef, y, rcond=None)
        assert rank == 2
        np.testing.assert_array_equal(got, want / math.sqrt(P_TX))


class TestScheduler:
    def _users(self, rng, cfg, n_users=3, n_paths=3):
        return [random_detected_paths(rng, n_paths, cfg) for _ in range(n_users)]

    def test_single_user_single_point(self):
        cfg, delta = small_cfg(), 0.5
        grid = dltrain.build_angle_grid(cfg)
        th, ph = dltrain.grid_point(12, cfg)
        user = (DetectedPath(gain=2.0 + 0j, theta=th, phi=ph, tau=1e-6),)
        plan = dltrain.schedule_beams([user], grid, cfg, delta, P_TX)
        assert plan.feasible
        assert plan.T_p == 1
        assert plan.grid_indices == (12,)
        assert plan.weights == (1,)

    def test_weights_count_distinct_users(self):
        cfg, delta = small_cfg(), 1e-9  # infeasible so every mark is kept
        grid = dltrain.build_angle_grid(cfg)
        # stay off the theta = -pi/2 row, where every azimuth column ties
        th_a, ph_a = dltrain.grid_point(11, cfg)
        th_b, ph_b = dltrain.grid_point(21, cfg)
        shared = DetectedPath(gain=1.0, theta=th_a, phi=ph_a, tau=1e-6)
        shared2 = DetectedPath(gain=1.0, theta=th_a, phi=ph_a, tau=4e-6)
        other = DetectedPath(gain=1.0, theta=th_b, phi=ph_b, tau=2e-6)
        plan = dltrain.schedule_beams(
            [(shared, shared2), (shared, other)], grid, cfg, delta, P_TX)
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
        plan = dltrain.schedule_beams(self._users(rng, cfg), grid, cfg, 1e-2, P_TX)
        np.testing.assert_allclose(
            np.linalg.norm(plan.beams, axis=0), 1.0, rtol=1e-12)

    def test_all_users_meet_target(self):
        cfg, delta = small_cfg(), 1e-2
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(28)
        users = self._users(rng, cfg, n_users=4, n_paths=3)
        plan = dltrain.schedule_beams(users, grid, cfg, delta, P_TX)
        assert plan.feasible
        for paths in users:
            coef = dltrain.coefficient_matrix(paths, plan, cfg)
            g = np.array([p.gain for p in paths])
            assert dltrain.predict_nmse(coef, g, P_TX) < delta

    def test_monotone_in_delta(self):
        grid = None
        rng = np.random.default_rng(29)
        users_base = None
        t_ps = []
        for delta in (1e-1, 1e-2, 1e-3):
            cfg = small_cfg()
            if grid is None:
                grid = dltrain.build_angle_grid(cfg)
                users_base = self._users(
                    np.random.default_rng(30), cfg, n_users=4, n_paths=3)
            plan = dltrain.schedule_beams(users_base, grid, cfg, delta, P_TX)
            assert plan.feasible
            t_ps.append(plan.T_p)
        assert t_ps[0] <= t_ps[1] <= t_ps[2]

    def test_first_retained_point_indispensable(self):
        cfg, delta = small_cfg(), 1e-2
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(31)
        users = self._users(rng, cfg, n_users=4, n_paths=3)
        plan = dltrain.schedule_beams(users, grid, cfg, delta, P_TX)
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
                if not dltrain.predict_nmse(coef, g, P_TX) < delta:
                    ok = False
                    break
            assert not ok

    def test_infeasible_keeps_everything(self):
        cfg, delta = small_cfg(), 1e-12
        grid = dltrain.build_angle_grid(cfg)
        users = self._users(np.random.default_rng(33), cfg)
        plan = dltrain.schedule_beams(users, grid, cfg, delta, P_TX)
        assert not plan.feasible
        marked = set()
        for paths in users:
            for p in paths:
                marked.add(dltrain.optimal_grid_point(p.theta, p.phi, grid, cfg))
        assert set(plan.grid_indices) == marked

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.sampled_from([1e-3, 1e-2, 1e-1]),
           st.integers(0, 2**32 - 1))
    def test_feasible_plans_are_estimable(self, n_users, n_paths, delta, seed):
        # a plan the scheduler marks feasible passes the estimator's rank
        # check for every user, and noiseless pilots give back the gains
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        users = self._users(np.random.default_rng(seed), cfg, n_users, n_paths)
        plan = dltrain.schedule_beams(users, grid, cfg, delta, P_TX)
        assume(plan.feasible)
        for paths in users:
            y = dltrain.simulate_downlink_training([_as_true_path(p) for p in paths], plan, cfg, P_TX)
            g = np.array([p.gain for p in paths])
            got = dltrain.estimate_downlink_gains(y, paths, plan, cfg, P_TX)
            assert np.linalg.norm(got - g) <= 1e-10 * np.linalg.norm(g)

    def test_internal_probe_matches_public_predictor(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        rng = np.random.default_rng(34)
        paths = random_detected_paths(rng, 3, cfg)
        order = sorted({dltrain.optimal_grid_point(p.theta, p.phi, grid, cfg)
                        for p in paths} | {2, 14, 25, 30})
        beams = grid[:, [j - 1 for j in order]].conj() / math.sqrt(cfg.M)
        state = dltrain._UserState(paths, beams, cfg)
        g = np.array([p.gain for p in paths])
        for subset in ([0, 1, 2], [1, 3], [0, 2, 4, 5], list(range(len(order)))):
            cols = np.array(subset, dtype=np.intp)
            plan = manual_plan([order[s] for s in subset], grid, cfg)
            coef = dltrain.coefficient_matrix(paths, plan, cfg)
            direct = dltrain.predict_nmse(coef, g, P_TX)
            fast = state.subset_nmse(cols, P_TX)
            assert fast == pytest.approx(direct, rel=1e-9)
