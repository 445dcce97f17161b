"""Channel synthesis checks against brute-force oracles and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddrecon import sysmodel
from fddrecon.sysmodel import PathComponent, SystemConfig


def small_cfg(**kw):
    base = dict(M_v=2, M_h=3, N=4)
    base.update(kw)
    return SystemConfig(**base)


def random_paths(rng, count, cfg):
    out = []
    for _ in range(count):
        g = complex(rng.standard_normal(), rng.standard_normal())
        gd = complex(rng.standard_normal(), rng.standard_normal())
        out.append(PathComponent(
            g_ul=g, g_dl=gd,
            theta=float(rng.uniform(-np.pi / 2, np.pi / 2 - 1e-9)),
            phi=float(rng.uniform(-np.pi / 2, np.pi / 2 - 1e-9)),
            tau=float(rng.uniform(0.0, cfg.tau_max * 0.999)),
        ))
    return tuple(out)


def brute_force_uplink(paths, cfg):
    """Entrywise triple-loop evaluation of the multipath sum."""
    h = np.zeros(cfg.M * cfg.N, dtype=complex)
    kappa = 2 * np.pi * cfg.d_over_lambda
    for mv in range(cfg.M_v):
        for mh in range(cfg.M_h):
            for n in range(cfg.N):
                idx = (mv * cfg.M_h + mh) * cfg.N + n
                for p in paths:
                    a = np.exp(1j * kappa * (mv * np.sin(p.theta)
                                             + mh * np.cos(p.theta) * np.sin(p.phi)))
                    d = np.exp(2j * np.pi * n * cfg.delta_f * p.tau)
                    h[idx] += p.g_ul * a * d
    return h


def kron_reference(paths, cfg, downlink):
    """The channel sum as nested np.kron of the full steering vector and the
    delay vector, one path at a time."""
    h = np.zeros(cfg.M * cfg.N, dtype=np.complex128)
    for p in paths:
        atom = np.kron(sysmodel.steering_vector(p.theta, p.phi, cfg),
                       sysmodel.delay_vector(p.tau, cfg))
        if downlink:
            shift = np.exp(1j * sysmodel.TWO_PI * cfg.carrier_shift * p.tau)
            h += p.g_dl * shift * atom
        else:
            h += p.g_ul * atom
    return h


_angles = st.floats(-math.pi / 2, math.pi / 2, exclude_max=True)
_gains = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def scenarios(draw):
    cfg = SystemConfig(M_v=draw(st.integers(1, 4)), M_h=draw(st.integers(1, 6)),
                       N=draw(st.integers(1, 16)))
    taus = st.floats(0.0, cfg.tau_max, exclude_max=True)
    paths = draw(st.lists(st.builds(PathComponent, g_ul=_gains, g_dl=_gains, theta=_angles,
                                    phi=_angles, tau=taus), max_size=5))
    return cfg, tuple(paths)


class TestSystemConfig:
    def test_full_scale_defaults(self):
        cfg = SystemConfig()
        assert cfg.M == 128
        assert cfg.N == 256
        assert cfg.carrier_shift == pytest.approx(3.0e8)
        assert cfg.tau_max == pytest.approx(1.0 / 75e3)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SystemConfig(M_v=0)
        with pytest.raises(ValueError):
            SystemConfig(N=0)
        with pytest.raises(ValueError):
            SystemConfig(P_fa=1.5)
        with pytest.raises(ValueError):
            SystemConfig(beta_theta=0)

    @pytest.mark.parametrize("field, value", [
        ("M_v", "x"), ("M_h", 2.0), ("N", True), ("T_c", 2.5), ("pilot_spacing", 1.5),
        ("beta_tau", True), ("delta_f", float("nan")), ("f_ul", float("inf")),
        ("f_dl", "2.3e9"), ("d_over_lambda", True), ("P_fa", float("nan")),
    ])
    def test_rejects_wrong_types_and_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{field: value})

    def test_integer_valued_floats_accepted(self):
        cfg = SystemConfig(f_ul=2_000_000_000, d_over_lambda=1)
        assert cfg.carrier_shift == pytest.approx(3.0e8)

    def test_path_component_range_checks(self):
        with pytest.raises(ValueError):
            PathComponent(g_ul=1.0, g_dl=1.0, theta=2.0, phi=0.0, tau=0.0)
        with pytest.raises(ValueError):
            PathComponent(g_ul=1.0, g_dl=1.0, theta=0.0, phi=0.0, tau=-1.0)


class TestSteeringAndDelay:
    def test_vertical_factor_known_angle(self):
        # half-wavelength spacing, sin(pi/6) = 1/2 -> phase step pi/2
        cfg = small_cfg(M_v=2, M_h=1)
        a_v, a_h = sysmodel.steering_factors(np.pi / 6, 0.0, cfg)
        np.testing.assert_allclose(a_v, [1.0, np.exp(1j * np.pi / 2)], atol=1e-15)
        np.testing.assert_allclose(a_h, [1.0], atol=1e-15)

    def test_unit_modulus(self):
        cfg = small_cfg(M_v=4, M_h=5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            th = rng.uniform(-np.pi / 2, np.pi / 2 - 1e-9)
            ph = rng.uniform(-np.pi / 2, np.pi / 2 - 1e-9)
            a = sysmodel.steering_vector(th, ph, cfg)
            np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-13)

    def test_delay_vector_quarter_period(self):
        cfg = small_cfg(N=4)
        p = sysmodel.delay_vector(1.0 / (4 * cfg.delta_f), cfg)
        np.testing.assert_allclose(p, [1.0, 1.0j, -1.0, -1.0j], atol=1e-14)

    def test_delay_out_of_range(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            sysmodel.delay_vector(cfg.tau_max, cfg)
        with pytest.raises(ValueError):
            sysmodel.delay_vector(-1e-9, cfg)


angles = st.floats(-np.pi / 2, np.pi / 2, exclude_max=True)
delays = st.floats(0.0, 1.0, exclude_max=True)  # fraction of tau_max


class TestBroadcasting:
    """Array calls of the response builders equal per-element scalar calls
    bit for bit, so a table built from them matches the scalar model."""

    cfg = small_cfg(M_v=3, M_h=4, N=8)

    def check_factors(self, thetas, phis):
        a_v, a_h = sysmodel.steering_factors(thetas, phis, self.cfg)
        a = sysmodel.steering_vector(thetas, phis, self.cfg)
        shape = np.broadcast(thetas, phis).shape
        assert a_v.shape == np.shape(thetas) + (self.cfg.M_v,)
        assert a_h.shape == shape + (self.cfg.M_h,)
        assert a.shape == shape + (self.cfg.M,)
        for idx in np.ndindex(shape):
            th = float(np.broadcast_to(thetas, shape)[idx])
            ph = float(np.broadcast_to(phis, shape)[idx])
            want_v, want_h = sysmodel.steering_factors(th, ph, self.cfg)
            np.testing.assert_array_equal(np.broadcast_to(a_v, shape + a_v.shape[-1:])[idx], want_v)
            np.testing.assert_array_equal(a_h[idx], want_h)
            np.testing.assert_array_equal(a[idx], sysmodel.steering_vector(th, ph, self.cfg))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(angles, angles), min_size=1, max_size=6))
    def test_steering_1d_matches_scalar(self, pairs):
        thetas, phis = (np.array(v) for v in zip(*pairs))
        self.check_factors(thetas, phis)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(angles, min_size=1, max_size=4), st.lists(angles, min_size=1, max_size=5))
    def test_steering_outer_grid_matches_scalar(self, thetas, phis):
        self.check_factors(np.array(thetas)[:, None], np.array(phis)[None, :])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(delays, min_size=1, max_size=6))
    def test_delay_and_carrier_phase_match_scalar(self, fractions):
        taus = np.array(fractions) * self.cfg.tau_max
        taus = taus[taus < self.cfg.tau_max]
        p = sysmodel.delay_vector(taus, self.cfg)
        shift = sysmodel.carrier_phase(taus, self.cfg)
        assert p.shape == (len(taus), self.cfg.N)
        for i, tau in enumerate(taus):
            np.testing.assert_array_equal(p[i], sysmodel.delay_vector(float(tau), self.cfg))
            assert shift[i] == sysmodel.carrier_phase(float(tau), self.cfg)

    @pytest.mark.parametrize("bad", [np.pi / 2, -np.pi / 2 - 1e-12, np.nan])
    def test_one_bad_angle_anywhere_raises(self, bad):
        good = np.linspace(-1.0, 1.0, 6)
        for pos in (0, 3, 5):
            values = good.copy()
            values[pos] = bad
            with pytest.raises(ValueError, match="theta"):
                sysmodel.steering_factors(values.reshape(2, 3), 0.1, self.cfg)
            with pytest.raises(ValueError, match="phi"):
                sysmodel.steering_vector(0.1, values, self.cfg)

    @pytest.mark.parametrize("bad", [1.0, -1e-3, np.nan])
    def test_one_bad_delay_anywhere_raises(self, bad):
        fractions = np.linspace(0.0, 0.9, 6)
        for pos in (0, 3, 5):
            values = fractions.copy()
            values[pos] = bad
            with pytest.raises(ValueError, match="tau"):
                sysmodel.delay_vector(values * self.cfg.tau_max, self.cfg)
            with pytest.raises(ValueError, match="tau"):
                sysmodel.carrier_phase(values * self.cfg.tau_max, self.cfg)


class TestChannels:
    def test_single_boresight_path_all_ones(self):
        cfg = small_cfg()
        p = PathComponent(g_ul=1.0, g_dl=1.0, theta=0.0, phi=0.0, tau=0.0)
        h = sysmodel.uplink_channel((p,), cfg)
        np.testing.assert_allclose(h, np.ones(cfg.M * cfg.N), atol=1e-14)

    def test_opposite_gains_cancel(self):
        cfg = small_cfg()
        p1 = PathComponent(g_ul=0.7 - 0.2j, g_dl=1.0, theta=0.3, phi=-0.5, tau=1e-6)
        p2 = PathComponent(g_ul=-(0.7 - 0.2j), g_dl=1.0, theta=0.3, phi=-0.5, tau=1e-6)
        h = sysmodel.uplink_channel((p1, p2), cfg)
        np.testing.assert_allclose(h, 0.0, atol=1e-14)

    def test_uplink_matches_brute_force(self):
        cfg = small_cfg(M_v=3, M_h=2, N=5)
        rng = np.random.default_rng(1)
        paths = random_paths(rng, 3, cfg)
        np.testing.assert_allclose(
            sysmodel.uplink_channel(paths, cfg), brute_force_uplink(paths, cfg),
            rtol=1e-12, atol=1e-12,
        )

    def test_uplink_linear_in_gains(self):
        cfg = small_cfg()
        rng = np.random.default_rng(2)
        paths = random_paths(rng, 2, cfg)
        scaled = tuple(
            PathComponent(g_ul=(2.0 - 1.0j) * p.g_ul, g_dl=p.g_dl,
                          theta=p.theta, phi=p.phi, tau=p.tau)
            for p in paths
        )
        np.testing.assert_allclose(
            sysmodel.uplink_channel(scaled, cfg),
            (2.0 - 1.0j) * sysmodel.uplink_channel(paths, cfg),
            rtol=1e-12,
        )

    def test_downlink_equals_uplink_without_carrier_offset(self):
        cfg = small_cfg(f_dl=2.0e9, f_ul=2.0e9)
        rng = np.random.default_rng(3)
        paths = random_paths(rng, 3, cfg)
        same_gains = tuple(
            PathComponent(g_ul=p.g_ul, g_dl=p.g_ul, theta=p.theta, phi=p.phi, tau=p.tau)
            for p in paths
        )
        np.testing.assert_allclose(
            sysmodel.downlink_channel(same_gains, cfg),
            sysmodel.uplink_channel(same_gains, cfg),
            rtol=1e-12,
        )

    def test_downlink_zero_delay_ignores_carrier_offset(self):
        cfg = small_cfg()
        p = PathComponent(g_ul=1.0, g_dl=0.5 + 0.5j, theta=0.2, phi=0.1, tau=0.0)
        h = sysmodel.downlink_channel((p,), cfg)
        a = sysmodel.steering_vector(p.theta, p.phi, cfg)
        expect = p.g_dl * np.kron(a, np.ones(cfg.N))
        np.testing.assert_allclose(h, expect, rtol=1e-12)

    def test_downlink_matches_brute_force(self):
        cfg = small_cfg(M_v=2, M_h=3, N=4)
        rng = np.random.default_rng(4)
        paths = random_paths(rng, 3, cfg)
        h = sysmodel.downlink_channel(paths, cfg)
        expect = np.zeros_like(h)
        kappa = 2 * np.pi * cfg.d_over_lambda
        for mv in range(cfg.M_v):
            for mh in range(cfg.M_h):
                for n in range(cfg.N):
                    idx = (mv * cfg.M_h + mh) * cfg.N + n
                    for p in paths:
                        a = np.exp(1j * kappa * (mv * np.sin(p.theta)
                                                 + mh * np.cos(p.theta) * np.sin(p.phi)))
                        d = np.exp(2j * np.pi * n * cfg.delta_f * p.tau)
                        shift = np.exp(2j * np.pi * cfg.carrier_shift * p.tau)
                        expect[idx] += p.g_dl * shift * a * d
        np.testing.assert_allclose(h, expect, rtol=1e-12, atol=1e-12)


    @settings(max_examples=80, deadline=None)
    @given(scenarios())
    def test_channels_equal_kron_reference_exactly(self, scenario):
        cfg, paths = scenario
        np.testing.assert_array_equal(sysmodel.uplink_channel(paths, cfg),
                                      kron_reference(paths, cfg, downlink=False))
        np.testing.assert_array_equal(sysmodel.downlink_channel(paths, cfg),
                                      kron_reference(paths, cfg, downlink=True))


class TestSounding:
    def test_same_seed_reproduces(self):
        cfg = small_cfg()
        rng = np.random.default_rng(5)
        paths = random_paths(rng, 2, cfg)
        y1 = sysmodel.sounding_observation(paths, cfg, 42)
        y2 = sysmodel.sounding_observation(paths, cfg, 42)
        np.testing.assert_array_equal(y1, y2)

    def test_no_paths_gives_unit_variance_noise(self):
        cfg = SystemConfig(M_v=8, M_h=16, N=100)  # 12800 entries
        chunks = [sysmodel.sounding_observation((), cfg, seed) for seed in range(8)]
        z = np.concatenate(chunks)  # > 1e5 entries
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.05

    def test_noise_power_concentration(self):
        cfg = small_cfg(M_v=8, M_h=8, N=64)
        mn = cfg.M * cfg.N
        p = PathComponent(g_ul=1.0, g_dl=1.0, theta=0.0, phi=0.0, tau=0.0)
        y = sysmodel.sounding_observation((p,), cfg, 7)
        z = y - math.sqrt(cfg.P) * sysmodel.uplink_channel((p,), cfg)
        # |z|^2 has unit mean and unit variance per entry
        assert abs(np.sum(np.abs(z) ** 2) / mn - 1.0) < 3.0 / math.sqrt(mn)

    def test_transmit_power_scaling(self):
        cfg = small_cfg(P=4.0)
        p = PathComponent(g_ul=1.0, g_dl=1.0, theta=0.0, phi=0.0, tau=0.0)
        y = sysmodel.sounding_observation((p,), cfg, 11)
        z = y - 2.0 * sysmodel.uplink_channel((p,), cfg)
        assert np.mean(np.abs(z) ** 2) < 2.0  # residual is the unit noise, not the signal


class TestScenario:
    def test_counts_and_reproducibility(self):
        cfg = SystemConfig()
        s1 = sysmodel.generate_scenario(10, 6, cfg, seed=9)
        s2 = sysmodel.generate_scenario(10, 6, cfg, seed=9)
        assert s1.K == 10
        assert sum(len(u) for u in s1.users) == 60
        assert s1 == s2
        s3 = sysmodel.generate_scenario(10, 6, cfg, seed=10)
        assert s1 != s3

    def test_user_power_tracks_attenuation(self):
        cfg = small_cfg()
        ratios = []
        for seed in range(40):
            sc = sysmodel.generate_scenario(5, 6, cfg, seed=seed)
            for user, att in zip(sc.users, sc.attenuation_db):
                power = sum(abs(p.g_ul) ** 2 for p in user)
                ratios.append(power / 10.0 ** (att / 10.0))
        # each ratio is a mean of 6 unit-mean exponentials; check the grand mean
        assert abs(np.mean(ratios) - 1.0) < 4.0 / math.sqrt(len(ratios) * 6)

    def test_attenuation_range_respected(self):
        cfg = small_cfg()
        sc = sysmodel.generate_scenario(20, 2, cfg, seed=1, att_range_db=(-10.0, 0.0))
        assert all(-10.0 <= a <= 0.0 for a in sc.attenuation_db)

    def test_mean_linear_attenuation_closed_form(self):
        # numeric-integration oracle
        grid = np.linspace(-10.0, 0.0, 200001)
        oracle = np.trapezoid(10.0 ** (grid / 10.0), grid) / 10.0
        assert abs(sysmodel.mean_linear_attenuation((-10.0, 0.0)) - oracle) < 1e-8
        assert sysmodel.mean_linear_attenuation((0.0, 0.0)) == pytest.approx(1.0)
