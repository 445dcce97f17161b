"""Channel synthesis checks against the slow references and closed forms."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from fddrecon import dltrain, enomp, harness, mueval, recon, sysmodel
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

    def test_operating_point_is_not_a_field(self):
        # transmit power and accuracy target are call arguments, set per experiment
        assert not {f.name for f in dataclasses.fields(SystemConfig)} & {"P", "delta"}

    def test_integer_valued_floats_accepted(self):
        cfg = SystemConfig(f_ul=2_000_000_000, d_over_lambda=1)
        assert cfg.carrier_shift == pytest.approx(3.0e8)

    def test_path_component_range_checks(self):
        with pytest.raises(ValueError):
            PathComponent(g_ul=1.0, g_dl=1.0, theta=2.0, phi=0.0, tau=0.0)
        with pytest.raises(ValueError):
            PathComponent(g_ul=1.0, g_dl=1.0, theta=0.0, phi=0.0, tau=-1.0)

    @pytest.mark.parametrize("build", [
        sysmodel.uplink_channel,
        sysmodel.downlink_channel,
        sysmodel.path_factors,
        lambda paths, cfg: recon.reconstruct(paths, [1.0], cfg),
        lambda paths, cfg: dltrain.pilot_factors(paths, np.eye(cfg.M), cfg),
    ], ids=["uplink_channel", "downlink_channel", "path_factors", "reconstruct",
            "pilot_factors"])
    def test_every_builder_rejects_the_delay_period(self, build):
        # a component holds no config, so tau = tau_max passes it; each
        # builder of a channel or factors from it rejects it, naming tau
        cfg = small_cfg()
        path = PathComponent(g_ul=1.0, g_dl=1.0, theta=0.0, phi=0.0, tau=cfg.tau_max)
        with pytest.raises(ValueError, match="tau"):
            build((path,), cfg)


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

    @settings(max_examples=40)
    @given(st.lists(st.tuples(angles, angles), min_size=1, max_size=6))
    def test_steering_1d_matches_scalar(self, pairs):
        thetas, phis = (np.array(v) for v in zip(*pairs))
        self.check_factors(thetas, phis)

    @settings(max_examples=40)
    @given(st.lists(angles, min_size=1, max_size=4), st.lists(angles, min_size=1, max_size=5))
    def test_steering_outer_grid_matches_scalar(self, thetas, phis):
        self.check_factors(np.array(thetas)[:, None], np.array(phis)[None, :])

    @settings(max_examples=40)
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
        paths = random_paths(np.random.default_rng(1), 3, cfg)
        np.testing.assert_allclose(sysmodel.uplink_channel(paths, cfg),
                                   reference.channel(paths, cfg), rtol=1e-12, atol=1e-12)

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
        paths = random_paths(np.random.default_rng(4), 3, cfg)
        np.testing.assert_allclose(sysmodel.downlink_channel(paths, cfg),
                                   reference.channel(paths, cfg, downlink=True),
                                   rtol=1e-12, atol=1e-12)

    @settings(max_examples=80)
    @given(scenarios())
    # a subnormal gain: the relative bound underflows to 0, the error is 5e-324
    @example((SystemConfig(M_v=1, M_h=1, N=4), (PathComponent(
        g_ul=0j, g_dl=2.2250738585e-313 + 0j, theta=0.4108850619643629,
        phi=-0.6906398587083891, tau=5.463136524825959e-07),)))
    def test_channels_match_kron_reference(self, scenario):
        # the sum is one matmul over the factor matrices, so it rounds apart
        # from the per-path reference; a wrong conjugate, factor or carrier
        # phase would be off by O(|g|), far above this bound. Below 1e-308 a
        # rounding is off by up to half a subnormal step, absolutely: the
        # floor of 32 steps covers the few roundings per path of both sums
        # (at most 9 steps in 12000 draws of five subnormal-gain paths)
        cfg, paths = scenario
        floor = 32 * np.finfo(float).smallest_subnormal
        for downlink, build, gains in ((False, sysmodel.uplink_channel, [p.g_ul for p in paths]),
                                       (True, sysmodel.downlink_channel, [p.g_dl for p in paths])):
            err = np.max(np.abs(build(paths, cfg) - reference.channel(paths, cfg, downlink)))
            assert err <= 1e-13 * sum(abs(g) for g in gains) + floor, downlink

    def test_no_paths_give_the_zero_channel(self):
        cfg = small_cfg()
        zero = np.zeros(cfg.M * cfg.N)
        np.testing.assert_array_equal(sysmodel.uplink_channel((), cfg), zero)
        np.testing.assert_array_equal(sysmodel.downlink_channel((), cfg), zero)
        np.testing.assert_array_equal(recon.reconstruct((), [], cfg), zero)


class TestSounding:
    def test_same_seed_reproduces(self):
        cfg = small_cfg()
        rng = np.random.default_rng(5)
        paths = random_paths(rng, 2, cfg)
        y1 = sysmodel.sounding_observation(paths, cfg, 1.0, 42)
        y2 = sysmodel.sounding_observation(paths, cfg, 1.0, 42)
        np.testing.assert_array_equal(y1, y2)

    def test_no_paths_gives_unit_variance_noise(self):
        cfg = SystemConfig(M_v=8, M_h=16, N=100)  # 12800 entries
        chunks = [sysmodel.sounding_observation((), cfg, 1.0, seed) for seed in range(8)]
        z = np.concatenate(chunks)  # > 1e5 entries
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.05

    def test_noise_power_concentration(self):
        cfg = small_cfg(M_v=8, M_h=8, N=64)
        mn = cfg.M * cfg.N
        p = PathComponent(g_ul=1.0, g_dl=1.0, theta=0.0, phi=0.0, tau=0.0)
        y = sysmodel.sounding_observation((p,), cfg, 1.0, 7)
        z = y - sysmodel.uplink_channel((p,), cfg)
        # |z|^2 has unit mean and unit variance per entry
        assert abs(np.sum(np.abs(z) ** 2) / mn - 1.0) < 3.0 / math.sqrt(mn)

    def test_transmit_power_scaling(self):
        cfg = small_cfg()
        p = PathComponent(g_ul=1.0, g_dl=1.0, theta=0.0, phi=0.0, tau=0.0)
        y = sysmodel.sounding_observation((p,), cfg, 4.0, 11)
        z = y - 2.0 * sysmodel.uplink_channel((p,), cfg)
        assert np.mean(np.abs(z) ** 2) < 2.0  # residual is the unit noise, not the signal

    @pytest.mark.parametrize("p_tx", [0.0, -1.0, math.nan, math.inf, True])
    def test_rejects_power_that_is_not_finite_positive(self, p_tx):
        cfg = small_cfg()
        p = PathComponent(g_ul=1.0, g_dl=1.0, theta=0.0, phi=0.0, tau=0.0)
        with pytest.raises(ValueError, match="p_tx"):
            sysmodel.sounding_observation((p,), cfg, p_tx, 11)

    @pytest.mark.parametrize("channel, noise", [
        (np.ones(4), np.ones((3, 1))),  # broadcast to (3, 4)
        (np.ones(4), np.ones(3)),
        (np.ones((4, 1)), np.ones(4)),
        (np.ones(4), np.ones(1)),
    ])
    def test_rejects_noise_that_is_not_scalar_or_the_channel_shape(self, channel, noise):
        with pytest.raises(ValueError, match="noise shape"):
            sysmodel.observation(channel, 1.0, noise)


class TestScenario:
    def test_counts_and_reproducibility(self):
        cfg = SystemConfig()
        s1 = sysmodel.generate_scenario(10, 6, cfg, seed=9)
        s2 = sysmodel.generate_scenario(10, 6, cfg, seed=9)
        assert len(s1.users) == 10
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

    def test_reversed_attenuation_range_raises(self):
        # one range rule: a reversed or unpaired range fails in every caller,
        # each naming its own key
        calls = [("attenuation_db", lambda pair: harness.config_from_dict(
                     {"experiment": "fig6", "attenuation_db": pair})),
                 ("att_range_db", lambda pair: sysmodel.generate_scenario(
                     2, 2, small_cfg(), seed=1, att_range_db=pair)),
                 ("att_range_db", sysmodel.mean_linear_attenuation)]
        for key, call in calls:
            for pair in ([0, -10], [0], [0, 1, 2]):
                with pytest.raises(ValueError, match=rf"^{key} must be a \[lo, hi\] pair"):
                    call(pair)

    @pytest.mark.parametrize("K, L", [(True, 2), (2, True), (1.5, 2), ("2", 2), (2, 0),
                                      (2, np.bool_(True))])
    def test_counts_must_be_integers_of_at_least_one(self, K, L):
        with pytest.raises(ValueError, match="K must|L must"):
            sysmodel.generate_scenario(K, L, small_cfg(), seed=1)

    def test_numpy_counts_and_levels_draw_the_plain_scenario(self):
        plain = sysmodel.generate_scenario(3, 2, small_cfg(), seed=4, att_range_db=(-10.0, 0.0))
        assert plain == sysmodel.generate_scenario(np.int64(3), np.int64(2), small_cfg(), seed=4,
                                                   att_range_db=(np.int64(-10), np.float32(0)))

    def test_mean_linear_attenuation_closed_form(self):
        # numeric-integration oracle
        grid = np.linspace(-10.0, 0.0, 200001)
        oracle = np.trapezoid(10.0 ** (grid / 10.0), grid) / 10.0
        assert abs(sysmodel.mean_linear_attenuation((-10.0, 0.0)) - oracle) < 1e-8
        assert sysmodel.mean_linear_attenuation((0.0, 0.0)) == pytest.approx(1.0)
        # narrow ranges: the mean of powers within the range, where a
        # difference of the two end powers would cancel to 0.0 and 0.09998
        assert sysmodel.mean_linear_attenuation((0.0, 1e-300)) == 1.0
        assert sysmodel.mean_linear_attenuation((-10.0, -9.999999999999)) == pytest.approx(
            0.1, rel=1e-12)
        # a range wider than 308 dB, where e^x of the width leaves the float range
        wide = sysmodel.mean_linear_attenuation((-2999.0, 2999.0))
        assert wide == pytest.approx(10.0 ** 299.9 / (math.log(10.0) / 10.0 * 5998.0), rel=1e-12)

    @pytest.mark.parametrize("att_range_db", [
        (-3000.0, 0.0), (0.0, 3000.0), (-5000.0, -4000.0), (math.nan, 0.0), (0.0, math.inf),
        (True, True), ("a", 0)])
    def test_attenuation_outside_db_range_raises(self, att_range_db):
        # past (-3000, 3000) dB 10^(A/10) is zero or inf, so no gain is drawn;
        # a bool or a string is no level at all
        match = r"att_range_db must lie in \(-3000, 3000\) dB"
        with pytest.raises(ValueError, match=match):
            sysmodel.generate_scenario(2, 2, small_cfg(), seed=1, att_range_db=att_range_db)
        with pytest.raises(ValueError, match=match):
            sysmodel.mean_linear_attenuation(att_range_db)


class TestGramEigvals:
    EPS = np.finfo(np.float64).eps

    def test_boundary_is_rejected_just_above_accepted(self):
        # diagonal Grams have exact eigenvalues; tol = 1 * max(2, 4) * eps
        tol = 4 * self.EPS
        lam, full = sysmodel.gram_eigvals(np.diag([tol, 1.0]), n_rows=4)
        np.testing.assert_array_equal(lam, [tol, 1.0])
        assert not full
        assert sysmodel.gram_eigvals(np.diag([np.nextafter(tol, 1.0), 1.0]), n_rows=4)[1]

    def test_fewer_rows_than_columns_is_rank_deficient(self):
        assert not sysmodel.gram_eigvals(np.eye(3), n_rows=2)[1]
        assert sysmodel.gram_eigvals(np.eye(3), n_rows=3)[1]

    def test_stack_matches_per_gram_calls(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3, 6, 4)) + 1j * rng.standard_normal((2, 3, 6, 4))
        a[1, 2, :, 3] = a[1, 2, :, 0]  # one rank-deficient A
        grams = a.conj().swapaxes(-1, -2) @ a
        lam, full = sysmodel.gram_eigvals(grams, n_rows=6)
        assert lam.shape == (2, 3, 4) and full.shape == (2, 3)
        np.testing.assert_array_equal(full, [[True] * 3, [True, True, False]])
        for i in range(2):
            for j in range(3):
                one_lam, one_full = sysmodel.gram_eigvals(grams[i, j], n_rows=6)
                np.testing.assert_array_equal(lam[i, j], one_lam)
                assert full[i, j] == one_full


def test_fit_gains_of_no_atoms_is_empty():
    cfg = small_cfg()
    factors = sysmodel.path_factors([], cfg)
    gains, rank = sysmodel.fit_gains(np.ones(cfg.M * cfg.N, dtype=complex), *factors)
    assert gains.shape == (0,) and rank == 0


class TestScalarBoundary:
    """`check_real`, `check_integer` and `check_positive` are the one scalar
    rule: numpy reals pass and come back as Python floats and ints, so they
    give the bits a float gives; bools and non-numbers fail."""

    @pytest.mark.parametrize("value", [3, 2.5, np.float32(2.5), np.float64(2.5), np.int64(3),
                                       np.uint8(3), 2 ** 60])
    def test_check_real_returns_the_float(self, value):
        x = sysmodel.check_real("v", value)
        assert type(x) is float and x == float(value)

    @pytest.mark.parametrize("value", [True, np.bool_(True), "2", np.array(2.0), np.array([2.0]),
                                       None, 1j, math.nan, -math.inf, np.float32(np.inf),
                                       10 ** 400])
    def test_check_real_refuses_what_is_no_finite_real(self, value):
        with pytest.raises(ValueError, match="^v must be a finite real number$"):
            sysmodel.check_real("v", value)

    def test_check_integer_returns_the_int(self):
        for value in (3, np.int64(3), np.uint16(3), 10 ** 30):
            n = sysmodel.check_integer("n", value, 1)
            assert type(n) is int and n == value
        for value in (True, np.bool_(True), 3.0, np.float32(3), "3", np.array(3), 0, np.int8(0)):
            with pytest.raises(ValueError, match="^n must be an integer >= 1$"):
                sysmodel.check_integer("n", value, 1)

    def test_check_positive(self):
        assert sysmodel.check_positive("w", np.int64(2)) == 2.0
        for value in (0, -0.0, np.float32(-1), True, "1"):
            with pytest.raises(ValueError, match="^w must be"):
                sysmodel.check_positive("w", value)

    def test_config_stores_plain_numbers(self):
        cfg = SystemConfig(M_v=np.int64(2), M_h=2, N=16, delta_f=np.float32(75e3), f_ul=2 * 10 ** 9)
        assert type(cfg.M_v) is int and type(cfg.delta_f) is float and type(cfg.f_ul) is float
        assert type(sysmodel.TWO_PI * cfg.delta_f) is float
        assert cfg == SystemConfig(M_v=2, M_h=2, N=16, delta_f=75e3, f_ul=2.0e9)

    @staticmethod
    def _power_calls():
        """Each entry point that takes p_tx, as a call of p_tx alone."""
        cfg = SystemConfig(M_v=2, M_h=4, N=8)
        paths = (PathComponent(0.8 - 0.3j, 0.2 + 0.9j, 0.3, -0.4, 0.1 * cfg.tau_max),
                 PathComponent(-0.5 + 0.4j, 1.1 - 0.2j, -0.5, 0.6, 0.55 * cfg.tau_max))
        detected = tuple(enomp.DetectedPath(p.g_ul, p.theta, p.phi, p.tau) for p in paths)
        y = sysmodel.sounding_observation(paths, cfg, 4.0, 3)
        noise = sysmodel.complex_noise(np.random.default_rng(21), cfg.M * cfg.N)
        cov = recon.channel_covariance(cfg, (-10.0, 0.0))
        grid = dltrain.build_angle_grid(cfg)
        plan = dltrain.schedule_beams([detected], grid, cfg, 0.5, 4.0)
        pilots = dltrain.simulate_downlink_training(paths, plan, cfg, 4.0, 5)
        coef = dltrain.coefficient_matrix(detected, plan, cfg)
        h = np.random.default_rng(22).standard_normal((2, 4, 6)) + 0j
        return {
            "observation": lambda p: sysmodel.observation(y, p, noise),
            "sounding_observation": lambda p: sysmodel.sounding_observation(paths, cfg, p, 3),
            "ls_baseline": lambda p: recon.ls_baseline(y, p),
            "lmmse_baseline": lambda p: recon.lmmse_baseline(y, cov, cfg, p),
            "extract": lambda p: enomp.extract(y, cfg, p),
            "sinr": lambda p: mueval.sinr(h[0], mueval.zf_precoder(h[0]), p),
            "zf_sinr": lambda p: mueval.zf_sinr(h, h[::-1], p),
            "analytic_sinr": lambda p: mueval.analytic_sinr(h[0], [0.0, 0.01], p),
            "monte_carlo_sinr": lambda p: mueval.monte_carlo_sinr(h[0], [0.01], p, 40, 0),
            "predict_nmse": lambda p: dltrain.predict_nmse(coef, [d.gain for d in detected], p),
            "schedule_beams": lambda p: dltrain.schedule_beams([detected], grid, cfg, 0.5, p),
            "simulate_downlink_training": lambda p: dltrain.simulate_downlink_training(
                paths, plan, cfg, p, 5),
            "estimate_downlink_gains": lambda p: dltrain.estimate_downlink_gains(
                pilots, detected, plan, cfg, p),
        }

    def test_numpy_powers_give_the_float_bits(self):
        for name, call in self._power_calls().items():
            want = pickle.dumps(call(4.0))
            for p_tx in (np.float32(4.0), np.int64(4), np.float64(4.0), 4):
                assert pickle.dumps(call(p_tx)) == want, (name, type(p_tx))

    def test_non_numbers_are_refused_as_powers(self):
        for name, call in self._power_calls().items():
            for p_tx in (np.bool_(True), np.array(4.0), "4", None):
                with pytest.raises(ValueError, match="p_tx"):
                    call(p_tx)

    def test_scheduler_target_takes_numpy_reals(self):
        cfg = small_cfg()
        grid = dltrain.build_angle_grid(cfg)
        paths = [enomp.DetectedPath(1.0, 0.2, -0.3, 0.0)]
        want = dltrain.schedule_beams([paths], grid, cfg, 0.25, 4.0)
        got = dltrain.schedule_beams([paths], grid, cfg, np.float32(0.25), np.int64(4))
        assert pickle.dumps(got) == pickle.dumps(want)
        for delta in (np.bool_(True), np.array(0.25), "0.25"):
            with pytest.raises(ValueError, match="delta"):
                dltrain.schedule_beams([paths], grid, cfg, delta, 4.0)
