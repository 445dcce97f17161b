"""ZF precoding, rate accounting, and the proportional-error SINR model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddrecon import mueval


def random_channel(n_users, n_ant, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_users, n_ant)) + 1j * rng.standard_normal((n_users, n_ant))


def channel_with_singular_values(s, n_ant, rng):
    """K x M channel U diag(s) V^H with random orthonormal U and V."""
    k = len(s)
    u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n_ant, k)) + 1j * rng.standard_normal((n_ant, k)))
    return (u * s) @ v.conj().T


@st.composite
def stack_shapes(draw, min_users=1):
    """(S, K, M, seed) with K <= M."""
    n_users = draw(st.integers(min_users, 6))
    return (draw(st.integers(1, 5)), n_users, draw(st.integers(n_users, 24)),
            draw(st.integers(0, 2**32 - 1)))


def well_conditioned_stack(n_stack, n_users, n_ant, rng):
    """Stack of channels with singular values in [1, 4] (cond <= 4)."""
    return np.stack([
        channel_with_singular_values(rng.uniform(1.0, 4.0, n_users), n_ant, rng)
        for _ in range(n_stack)])


def reference_sinr(h_true, h_hat, p_tx):
    """Per-matrix ZF SINR from np.linalg.pinv with unit-power columns."""
    n_users = h_hat.shape[0]
    pinv = np.linalg.pinv(h_hat)
    w = pinv / (np.sqrt(n_users) * np.linalg.norm(pinv, axis=0))
    powers = p_tx * np.abs(h_true @ w) ** 2
    signal = np.diag(powers)
    return signal / (powers.sum(axis=1) - signal + 1.0)


class TestZfPrecoder:
    def test_single_user_is_matched_filter(self):
        h = random_channel(1, 8, seed=0)
        state = mueval.zf_precoder(h)
        expected = h.conj().T / np.linalg.norm(h)
        np.testing.assert_allclose(state.precoder, expected, rtol=1e-12)
        s = mueval.sinr(h, state, p_tx=4.0)
        assert s[0] == pytest.approx(4.0 * np.linalg.norm(h) ** 2, rel=1e-12)

    def test_unit_modulus_single_user_sinr(self):
        rng = np.random.default_rng(1)
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(1, 16)))
        s = mueval.sinr(h, mueval.zf_precoder(h), p_tx=2.0)
        assert s[0] == pytest.approx(2.0 * 16, rel=1e-12)

    def test_perfect_csi_zero_interference(self):
        h = random_channel(4, 12, seed=2)
        gains = h @ mueval.zf_precoder(h).precoder
        off = gains - np.diag(np.diag(gains))
        assert np.max(np.abs(off)) <= 1e-9 * np.min(np.abs(np.diag(gains)))

    def test_unit_total_power_split_evenly(self):
        h = random_channel(5, 20, seed=3)
        w = mueval.zf_precoder(h).precoder
        col_powers = np.sum(np.abs(w) ** 2, axis=0)
        np.testing.assert_allclose(col_powers, 1.0 / 5.0, rtol=1e-12)
        assert np.sum(col_powers) == pytest.approx(1.0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mueval.zf_precoder(random_channel(5, 4, seed=4))  # K > M
        with pytest.raises(ValueError):
            mueval.zf_precoder(np.ones(8))  # not a matrix
        h = random_channel(3, 8, seed=5)
        h[2] = h[0]  # duplicate user
        with pytest.raises(np.linalg.LinAlgError):
            mueval.zf_precoder(h)


class TestStackedZf:
    @settings(max_examples=60, deadline=None)
    @given(stack_shapes())
    def test_pinv_matches_per_slice_numpy_pinv(self, shape):
        n_stack, n_users, n_ant, seed = shape
        h = well_conditioned_stack(n_stack, n_users, n_ant, np.random.default_rng(seed))
        state = mueval.zf_precoder(h)
        ref = np.stack([np.linalg.pinv(x) for x in h])
        assert state.pinv.shape == (n_stack, n_ant, n_users)
        np.testing.assert_allclose(state.pinv, ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max())
        col_powers = np.sum(np.abs(state.precoder) ** 2, axis=-2)
        np.testing.assert_allclose(col_powers, 1.0 / n_users, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(stack_shapes())
    def test_stacked_sinr_matches_per_slice_loop(self, shape):
        n_stack, n_users, n_ant, seed = shape
        rng = np.random.default_rng(seed)
        h_true = well_conditioned_stack(n_stack, n_users, n_ant, rng)
        h_hat = h_true + 0.1 * well_conditioned_stack(n_stack, n_users, n_ant, rng)
        got = mueval.sinr(h_true, mueval.zf_precoder(h_hat), 10.0)
        loop = np.stack([reference_sinr(t, e, 10.0) for t, e in zip(h_true, h_hat)])
        assert got.shape == (n_stack, n_users)
        np.testing.assert_allclose(got, loop, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(stack_shapes(min_users=2), st.data())
    def test_duplicated_user_in_one_slice_raises(self, shape, data):
        n_stack, n_users, n_ant, seed = shape
        h = well_conditioned_stack(n_stack, n_users, n_ant, np.random.default_rng(seed))
        bad = data.draw(st.integers(0, n_stack - 1))
        src, dst = data.draw(st.permutations(range(n_users)))[:2]
        h[bad, dst] = h[bad, src]
        with pytest.raises(np.linalg.LinAlgError):
            mueval.zf_precoder(h)

    @pytest.mark.parametrize("cond, rejected", [(1e5, False), (1e8, True)])
    def test_rank_rule_on_condition_number(self, cond, rejected):
        # Rejected when lam_min(G) <= lam_max(G) max(K, M) eps, i.e. about
        # cond(H) > 6e6 at M = 128.
        rng = np.random.default_rng(18)
        h = well_conditioned_stack(3, 10, 128, rng)
        h[1] = channel_with_singular_values(np.geomspace(1.0, 1.0 / cond, 10), 128, rng)
        if rejected:
            with pytest.raises(np.linalg.LinAlgError):
                mueval.zf_precoder(h)
        else:
            assert np.all(np.isfinite(mueval.zf_precoder(h).pinv))


class TestMonteCarloSinr:
    def test_chunk_size_does_not_change_result(self, monkeypatch):
        h = random_channel(4, 16, seed=19)
        results = []
        for chunk in (1, 7, 32):
            monkeypatch.setattr(mueval, "_MC_CHUNK", chunk)
            results.append(mueval.monte_carlo_sinr(h, 1e-2, 10.0, n_draws=75, seed=20))
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_matches_per_draw_reference(self):
        h = random_channel(4, 16, seed=21)
        rng = np.random.default_rng(22)
        acc = np.zeros(4)
        for _ in range(75):
            acc += reference_sinr(h, h + mueval.draw_channel_error(h, 1e-2, rng), 10.0)
        got = mueval.monte_carlo_sinr(h, 1e-2, 10.0, n_draws=75, seed=22)
        np.testing.assert_allclose(got, acc / 75, rtol=1e-12)


class TestSumRate:
    def test_zero_sinr_zero_rate(self):
        assert mueval.sum_rate(np.zeros((4, 3)), t_pilot=10, t_coherence=200) == 0.0

    def test_single_entry(self):
        assert mueval.sum_rate(np.array([[1.0]]), 0, 200) == pytest.approx(1.0)

    def test_prelog_discount(self):
        s = np.abs(random_channel(6, 2, seed=6)) ** 2
        full = mueval.sum_rate(s, 0, 200)
        assert mueval.sum_rate(s, 50, 200) == pytest.approx(0.75 * full)

    def test_subcarrier_average_user_sum(self):
        s = np.array([[3.0, 1.0], [7.0, 0.0]])
        expected = 0.5 * (np.log2(4.0) + np.log2(2.0) + np.log2(8.0))
        assert mueval.sum_rate(s, 0, 100) == pytest.approx(expected)

    def test_pilot_budget_validation(self):
        with pytest.raises(ValueError):
            mueval.sum_rate(np.ones((1, 1)), 200, 200)
        with pytest.raises(ValueError):
            mueval.sum_rate(np.ones((1, 1)), -1, 200)


class TestAnalyticSinr:
    def test_exact_at_zero_error(self):
        h = random_channel(4, 16, seed=7)
        state = mueval.zf_precoder(h)
        expected = 10.0 / (4 * np.sum(np.abs(state.pinv) ** 2, axis=0))
        got = mueval.analytic_sinr(h, 0.0, 10.0)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        np.testing.assert_allclose(got, mueval.sinr(h, state, 10.0), rtol=1e-9)

    def test_nonincreasing_in_error_power(self):
        for seed in range(10):
            h = random_channel(4, 16, seed=100 + seed)
            vals = [mueval.analytic_sinr(h, d, 10.0)
                    for d in (0.0, 1e-3, 1e-2, 1e-1)]
            for lo_d, hi_d in zip(vals, vals[1:]):
                assert np.all(hi_d <= lo_d + 1e-12)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            mueval.analytic_sinr(random_channel(2, 4, seed=8), -1e-3, 1.0)

    def test_matches_monte_carlo(self):
        h = random_channel(4, 16, seed=9)
        analytic = mueval.analytic_sinr(h, 1e-2, 10.0)
        mc = mueval.monte_carlo_sinr(h, 1e-2, 10.0, n_draws=2000, seed=10)
        np.testing.assert_allclose(analytic, mc, rtol=0.10)


class TestErrorModel:
    def test_draw_statistics(self):
        h = random_channel(2, 6, seed=11)
        rng = np.random.default_rng(12)
        delta = 0.04
        acc = np.zeros_like(h, dtype=np.float64)
        n = 4000
        for _ in range(n):
            acc += np.abs(mueval.draw_channel_error(h, delta, rng)) ** 2
        np.testing.assert_allclose(acc / n, delta * np.abs(h) ** 2, rtol=0.15)

    def test_zero_delta_zero_error(self):
        h = random_channel(2, 6, seed=13)
        rng = np.random.default_rng(14)
        np.testing.assert_array_equal(mueval.draw_channel_error(h, 0.0, rng), 0.0)

