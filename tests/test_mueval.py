"""ZF precoding, rate accounting, and the proportional-error SINR model."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from fddrecon import dltrain, mueval, sysmodel


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


def draw_channel_error(h_true, delta, rng):
    """One channel-error draw: independent CN(0, delta |H_{k,i}|^2) entries,
    the real parts from the first (K, M) block of normals, the imaginary
    parts from the second, as monte_carlo_sinr draws them."""
    z = rng.standard_normal((2,) + h_true.shape)
    return np.sqrt(delta) * np.abs(h_true) * (z[0] + 1j * z[1]) / np.sqrt(2.0)


class TestZfPrecoder:
    def test_single_user_is_matched_filter(self):
        h = random_channel(1, 8, seed=0)
        state = mueval.zf_precoder(h)
        expected = h.conj().T / np.linalg.norm(h)
        np.testing.assert_allclose(state.pinv * state.alphas, expected, rtol=1e-12)
        s = mueval.sinr(h, state, p_tx=4.0)
        assert s[0] == pytest.approx(4.0 * np.linalg.norm(h) ** 2, rel=1e-12)

    def test_unit_modulus_single_user_sinr(self):
        rng = np.random.default_rng(1)
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(1, 16)))
        s = mueval.sinr(h, mueval.zf_precoder(h), p_tx=2.0)
        assert s[0] == pytest.approx(2.0 * 16, rel=1e-12)

    def test_perfect_csi_zero_interference(self):
        h = random_channel(4, 12, seed=2)
        state = mueval.zf_precoder(h)
        gains = h @ (state.pinv * state.alphas)
        off = gains - np.diag(np.diag(gains))
        assert np.max(np.abs(off)) <= 1e-9 * np.min(np.abs(np.diag(gains)))

    def test_unit_total_power_split_evenly(self):
        h = random_channel(5, 20, seed=3)
        state = mueval.zf_precoder(h)
        col_powers = np.sum(np.abs(state.pinv * state.alphas) ** 2, axis=0)
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
    @settings(max_examples=60)
    @given(stack_shapes())
    def test_pinv_matches_per_slice_numpy_pinv(self, shape):
        n_stack, n_users, n_ant, seed = shape
        h = well_conditioned_stack(n_stack, n_users, n_ant, np.random.default_rng(seed))
        state = mueval.zf_precoder(h)
        ref = np.stack([np.linalg.pinv(x) for x in h])
        assert state.pinv.shape == (n_stack, n_ant, n_users)
        np.testing.assert_allclose(state.pinv, ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max())
        col_powers = np.sum(np.abs(state.pinv * state.alphas[:, None]) ** 2, axis=-2)
        np.testing.assert_allclose(col_powers, 1.0 / n_users, rtol=1e-12)

    @settings(max_examples=60)
    @given(stack_shapes())
    def test_stacked_sinr_matches_per_slice_loop(self, shape):
        n_stack, n_users, n_ant, seed = shape
        rng = np.random.default_rng(seed)
        h_true = well_conditioned_stack(n_stack, n_users, n_ant, rng)
        h_hat = h_true + 0.1 * well_conditioned_stack(n_stack, n_users, n_ant, rng)
        got = mueval.sinr(h_true, mueval.zf_precoder(h_hat), 10.0)
        loop = np.stack([reference.zf_sinr(t, e, 10.0) for t, e in zip(h_true, h_hat)])
        assert got.shape == (n_stack, n_users)
        np.testing.assert_allclose(got, loop, rtol=1e-12)

    @settings(max_examples=60)
    @given(stack_shapes(min_users=2), st.data())
    def test_duplicated_user_in_one_slice_raises(self, shape, data):
        n_stack, n_users, n_ant, seed = shape
        h = well_conditioned_stack(n_stack, n_users, n_ant, np.random.default_rng(seed))
        bad = data.draw(st.integers(0, n_stack - 1))
        src, dst = data.draw(st.permutations(range(n_users)))[:2]
        h[bad, dst] = h[bad, src]
        with pytest.raises(np.linalg.LinAlgError):
            mueval.zf_precoder(h)

    @settings(max_examples=40)
    @given(stack_shapes(), st.data())
    def test_sliced_zf_sinr_is_the_whole_stack_call(self, shape, data):
        # more than one slice, the last one short
        n_sub = data.draw(st.integers(mueval._ZF_CHUNK + 1, 3 * mueval._ZF_CHUNK).filter(
            lambda n: n % mueval._ZF_CHUNK))
        _, n_users, n_ant, seed = shape
        rng = np.random.default_rng(seed)
        h_true = well_conditioned_stack(n_sub, n_users, n_ant, rng)
        h_hat = h_true + 0.1 * well_conditioned_stack(n_sub, n_users, n_ant, rng)
        got = mueval.zf_sinr(h_true, h_hat, 10.0)
        assert got.shape == (n_sub, n_users)
        np.testing.assert_array_equal(got, mueval.sinr(h_true, mueval.zf_precoder(h_hat), 10.0))
        # one user silent on one subcarrier, in any slice
        h_hat[data.draw(st.integers(0, n_sub - 1)), data.draw(st.integers(0, n_users - 1))] = 0
        for call in (lambda: mueval.zf_sinr(h_true, h_hat, 10.0),
                     lambda: mueval.sinr(h_true, mueval.zf_precoder(h_hat), 10.0)):
            with pytest.raises(np.linalg.LinAlgError):
                call()

    @pytest.mark.parametrize("shapes", [((2, 3, 4), (2, 3, 4, 1)), ((3, 4), (3, 4)),
                                        ((2, 3, 4), (3, 3, 4))])
    def test_zf_sinr_needs_two_stacks_of_one_shape(self, shapes):
        h_true, h_hat = (np.ones(s, dtype=complex) for s in shapes)
        with pytest.raises(ValueError):
            mueval.zf_sinr(h_true, h_hat, 10.0)

    @pytest.mark.parametrize("shape", [(1, 8), (2, 8), (4, 8), (8,), (2, 2, 8), (3, 4)])
    def test_sinr_needs_the_precoders_users_and_antennas(self, shape):
        # unchecked, a 1 x 8 or 2 x 8 true channel under a 3 x 8 precoder
        # broadcasts to a (1,) or (2,) SINR row
        state = mueval.zf_precoder(random_channel(3, 8, seed=6))
        with pytest.raises(ValueError, match="precoder's"):
            mueval.sinr(np.ones(shape, dtype=complex), state, 10.0)
        assert mueval.sinr(np.ones((2, 3, 8), dtype=complex), state, 10.0).shape == (2, 3)

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


class TestSmallGramRule:
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_predictor_is_inf_exactly_where_zf_raises(self, rank_deficient):
        # predict_nmse on A = H^H reads the same K x K Gram H H^H as ZF
        rng = np.random.default_rng(23)
        h = channel_with_singular_values(np.geomspace(1.0, 1e-2, 4), 64, rng)
        if rank_deficient:
            h[3] = h[1]
        nmse = dltrain.predict_nmse(h.conj().T, np.ones(4), 1.0)
        if rank_deficient:
            assert nmse == math.inf
            with pytest.raises(np.linalg.LinAlgError):
                mueval.zf_precoder(h)
        else:
            assert math.isfinite(nmse)
            assert np.all(np.isfinite(mueval.zf_precoder(h).pinv))


def eigvalsh_first_gram_inverse(gram, n_ant):
    """(G^-1, alphas) with the rank rule run on every Gram before the inverse:
    the reference that the certificate may only shortcut."""
    if not np.all(sysmodel.gram_eigvals(gram, n_ant)[1]):
        raise np.linalg.LinAlgError("channel estimate is rank deficient")
    gram_inv = np.linalg.inv(gram)
    col_norms2 = np.diagonal(gram_inv, axis1=-2, axis2=-1).real
    return gram_inv, 1.0 / (math.sqrt(gram.shape[-1]) * np.sqrt(col_norms2))


@st.composite
def gram_stacks(draw):
    """(grams, n_rows): a stack of 1-4 Grams of K x M channels, K <= M <= 16,
    each with planted eigenvalues 10^e, e in [-20, 0], times a common scale,
    either as U diag(lam) U^H or as H H^H of a channel with singular values
    sqrt(lam); some members get a zero user row and column, or a NaN or inf
    entry (mirrored). n_rows is M, or sometimes K - 1."""
    n_users = draw(st.integers(1, 8))
    n_ant = draw(st.integers(n_users, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-150, 1e150]))
    grams = []
    for _ in range(draw(st.integers(1, 4))):
        lam = scale * 10.0 ** np.array(draw(st.lists(
            st.floats(-20.0, 0.0), min_size=n_users, max_size=n_users)))
        if draw(st.booleans()):
            h = channel_with_singular_values(np.sqrt(lam), n_ant, rng)
            gram = h @ h.conj().T
        else:
            u, _ = np.linalg.qr(rng.standard_normal((n_users, n_users))
                                + 1j * rng.standard_normal((n_users, n_users)))
            gram = (u * lam) @ u.conj().T
        plant = draw(st.sampled_from(["none", "none", "none", "zero", "nan", "inf"]))
        i, j = draw(st.integers(0, n_users - 1)), draw(st.integers(0, n_users - 1))
        if plant == "zero":
            gram[i, :] = 0.0
            gram[:, i] = 0.0
        elif plant != "none":
            gram[i, j] = gram[j, i] = math.nan if plant == "nan" else math.inf
        grams.append(gram)
    rows = draw(st.sampled_from([n_ant, n_ant, n_users - 1])) if n_users > 1 else n_ant
    return np.stack(grams), rows


class TestGramInverseCertificate:
    @settings(max_examples=300)
    @given(gram_stacks())
    def test_same_outcome_as_the_rank_rule_first(self, case):
        """_gram_inverse raises exactly where the eigvalsh-first reference
        raises and otherwise returns its bits; a certified Gram is one that
        `gram_eigvals` passes."""
        grams, n_rows = case
        try:
            want = eigvalsh_first_gram_inverse(grams, n_rows)
        except np.linalg.LinAlgError:
            want = None
        try:
            got = mueval._gram_inverse(grams, n_rows)
        except np.linalg.LinAlgError:
            got = None
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        try:
            gram_inv = np.linalg.inv(grams)
        except np.linalg.LinAlgError:
            return
        certified = sysmodel.certify_full_rank(grams, gram_inv, n_rows)
        if certified.any():
            assert sysmodel.gram_eigvals(grams[certified], n_rows)[1].all()

    def test_rank_rule_runs_only_where_the_certificate_cannot_decide(self, monkeypatch):
        calls = []

        def counting_gram_eigvals(gram, n_rows):
            calls.append(gram.shape)
            return sysmodel.gram_eigvals(gram, n_rows)

        monkeypatch.setattr(mueval, "gram_eigvals", counting_gram_eigvals)
        h = random_channel(10, 128, seed=31)
        assert mueval.monte_carlo_sinr(h, [1e-3, 1e-2, 1e-1], 10.0, n_draws=64, seed=32)[1].all()
        assert calls == []
        # cond(H) = 1e6: a Gram of cond 1e12 is past the certificate's reach
        # (about 1e10) but inside the rule's (about 3.5e13 at 128 rows)
        rng = np.random.default_rng(33)
        mueval.zf_precoder(channel_with_singular_values([1.0, 1e-6], 128, rng))
        assert calls == [(1, 2, 2)]
        # cond(H) = 1e8 is past the rule too
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            mueval.zf_precoder(channel_with_singular_values([1.0, 1e-8], 128, rng))
        assert len(calls) == 2


class TestSinrWithoutPrecoder:
    @settings(max_examples=60)
    @given(st.lists(st.integers(1, 3), max_size=2), stack_shapes())
    def test_matches_materialized_precoder(self, lead, shape):
        _, n_users, n_ant, seed = shape
        rng = np.random.default_rng(seed)
        count = math.prod(lead)
        h_true = well_conditioned_stack(count, n_users, n_ant, rng).reshape(
            tuple(lead) + (n_users, n_ant))
        h_hat = h_true + 0.1 * well_conditioned_stack(count, n_users, n_ant, rng).reshape(
            h_true.shape)
        got = mueval.sinr(h_true, mueval.zf_precoder(h_hat), 10.0)
        assert got.shape == tuple(lead) + (n_users,)
        np.testing.assert_allclose(got, reference.zf_sinr(h_true, h_hat, 10.0), rtol=1e-12)


def per_delta_reference(h_true, delta, p_tx, n_draws, seed):
    """Monte Carlo mean SINR for one delta with its own error stream, chunk
    by chunk and on the K x K products as monte_carlo_sinr forms them: the
    reference that the shared stream must reproduce bit for bit. None if a
    draw is rank deficient."""
    rng = np.random.default_rng(seed)
    h_herm = h_true.conj().T
    hh = h_true @ h_herm
    r = math.sqrt(delta / 2.0)
    acc = np.zeros(h_true.shape[0])
    for start in range(0, n_draws, mueval._MC_CHUNK):
        z = rng.standard_normal((min(mueval._MC_CHUNK, n_draws - start), 2) + h_true.shape)
        e = np.abs(h_true) * (z[:, 0] + 1j * z[:, 1])
        eh = e @ h_herm
        he = eh.conj().swapaxes(-1, -2)
        gram = hh + r * (he + eh) + r * r * (e @ e.conj().swapaxes(-1, -2))
        try:
            gram_inv, alphas = mueval._gram_inverse(gram, h_true.shape[1])
        except np.linalg.LinAlgError:
            return None
        for row in mueval._sinr_from_cross(hh + r * he, gram_inv, alphas, p_tx):
            acc += row
    return acc / n_draws


@st.composite
def mc_cases(draw):
    """(h, deltas, n_draws, seed, plant): K <= M, deltas with 0.0 among the
    candidates, draw counts around _MC_CHUNK = 32, and optionally a
    (delta index, draw index) whose error draw gets a zero user row."""
    n_users = draw(st.integers(1, 4))
    h = random_channel(n_users, draw(st.integers(n_users, 8)), seed=draw(st.integers(0, 2**32 - 1)))
    deltas = draw(st.lists(st.sampled_from([0.0, 1e-3, 1e-2, 0.1, 0.5]), min_size=1, max_size=4))
    n_draws = draw(st.sampled_from([1, 31, 32, 33, 75]))
    plant = draw(st.none() | st.tuples(st.integers(0, len(deltas) - 1), st.integers(0, n_draws - 1)))
    return h, deltas, n_draws, draw(st.integers(0, 2**32 - 1)), plant


class TestMonteCarloSinr:
    def test_chunk_size_does_not_change_result(self, monkeypatch):
        h = random_channel(4, 16, seed=19)
        results = []
        for chunk in (1, 7, 32):
            monkeypatch.setattr(mueval, "_MC_CHUNK", chunk)
            results.append(mueval.monte_carlo_sinr(h, [1e-2], 10.0, n_draws=75, seed=20)[0])
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_matches_per_draw_reference(self):
        h = random_channel(4, 16, seed=21)
        rng = np.random.default_rng(22)
        acc = np.zeros(4)
        for _ in range(75):
            acc += reference.zf_sinr(h, h + draw_channel_error(h, 1e-2, rng), 10.0)
        got, ok = mueval.monte_carlo_sinr(h, [1e-2], 10.0, n_draws=75, seed=22)
        assert ok.all()
        np.testing.assert_allclose(got[0], acc / 75, rtol=1e-12)

    @settings(max_examples=40)
    @given(mc_cases())
    def test_shared_stream_equals_per_delta_calls(self, case):
        """Every delta's row equals its own-stream reference bit for bit; a
        Gram of a planted rank-deficient draw clears only its delta's mask
        entry."""
        h, deltas, n_draws, seed, plant = case
        want = [per_delta_reference(h, d, 10.0, n_draws, seed) for d in deltas]
        calls = []
        gram_inverse = mueval._gram_inverse

        def planted_gram_inverse(gram, n_ant):
            # calls run chunk by chunk, one per delta, none skipped before the plant
            chunk, at = divmod(plant[1], mueval._MC_CHUNK)
            if len(calls) == chunk * len(deltas) + plant[0]:
                gram = gram.copy()
                gram[at, -1, :] = 0.0  # the Gram of an estimate whose last user row is zero
                gram[at, :, -1] = 0.0
            calls.append(None)
            return gram_inverse(gram, n_ant)

        with pytest.MonkeyPatch.context() as mp:
            if plant is not None:
                mp.setattr(mueval, "_gram_inverse", planted_gram_inverse)
            means, ok = mueval.monte_carlo_sinr(h, deltas, 10.0, n_draws=n_draws, seed=seed)
        assert means.shape == (len(deltas), h.shape[0]) and ok.shape == (len(deltas),)
        for i, d in enumerate(deltas):
            if want[i] is None or plant is not None and i == plant[0]:
                assert not ok[i] and np.isnan(means[i]).all()
                continue
            assert ok[i]
            np.testing.assert_array_equal(means[i], want[i])
            np.testing.assert_array_equal(means[i], mueval.monte_carlo_sinr(
                h, [d], 10.0, n_draws=n_draws, seed=seed)[0][0])
        np.testing.assert_array_equal(
            mueval.analytic_sinr(h, deltas, 10.0),
            [mueval.analytic_sinr(h, [d], 10.0)[0] for d in deltas])

    @settings(max_examples=30)
    @given(mc_cases())
    def test_matches_materialized_zf_per_draw(self, case):
        """The shared K x K products give each delta's row within 1e-12 cond^2
        relative of a per-draw pinv ZF, cond the largest condition number of
        the delta's estimates: the Gram H H^H of the fast path squares it."""
        h, deltas, n_draws, seed, _ = case
        deltas = [0.0, 0.5] + [d for d in deltas if d not in (0.0, 0.5)]
        means, ok = mueval.monte_carlo_sinr(h, deltas, 10.0, n_draws=n_draws, seed=seed)
        want, cond = reference.monte_carlo_sinr(h, deltas, 10.0, n_draws, seed)
        assert ok.all()
        for got_row, want_row, c in zip(means, want, cond):
            assert np.linalg.norm(got_row - want_row) <= 1e-12 * c * c * np.linalg.norm(want_row)


class _Planted(Exception):
    pass


def _raise_on_call(fn, n):
    """fn, wrapped to raise _Planted at its call n (from 0) instead."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        if len(calls) == n + 1:
            raise _Planted(f"call {n}")
        return fn(*args)
    return wrapped


def _bounded_call(fn, *args, timeout=10.0):
    """The exception fn(*args) raises (None if it returns), from a thread of
    its own: a call that has not returned within `timeout` s fails the test
    instead of hanging it."""
    raised = []

    def target():
        try:
            fn(*args)
            raised.append(None)
        except Exception as exc:
            raised.append(exc)

    caller = threading.Thread(target=target, daemon=True)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive(), f"the call had not returned after {timeout} s"
    return raised[0]


class TestMonteCarloWorker:
    """The errors after the first chunk are drawn on a worker thread while
    the calling thread runs the ZF of the chunk before: no thread outlives a
    call, a call of one chunk starts none, and what the worker raises
    reaches the caller as it would on one thread."""

    deltas = [1e-3, 1e-2, 1e-1]

    @pytest.mark.parametrize("n_draws, starts", [(1, 0), (32, 0), (33, 1)])
    def test_only_a_second_chunk_starts_the_worker(self, monkeypatch, n_draws, starts):
        started, start = [], threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        mueval.monte_carlo_sinr(random_channel(4, 16, seed=31), self.deltas, 10.0, n_draws, 32)
        assert len(started) == starts

    def test_draws_run_one_at_a_time(self, monkeypatch):
        # a second worker would draw chunk j + 2 beside chunk j + 1, out of
        # chunk order and into the one buffer of normals
        draw_errors, running, overlaps = mueval._draw_errors, [], []

        def slow_draw(*args):
            running.append(None)
            overlaps.append(len(running))
            time.sleep(0.01)
            draw_errors(*args)
            running.pop()

        monkeypatch.setattr(mueval, "_draw_errors", slow_draw)
        mueval.monte_carlo_sinr(random_channel(4, 16, seed=33), self.deltas, 10.0, 160, 34)
        assert overlaps == [1] * 5

    def test_no_thread_outlives_a_call(self, monkeypatch):
        h = random_channel(4, 16, seed=23)
        before = threading.active_count()
        mueval.monte_carlo_sinr(h, self.deltas, 10.0, n_draws=75, seed=24)
        assert threading.active_count() == before
        # a raise at chunk 2 of 10 finds the worker in a slow fill of chunk 4,
        # the last one the freed slots allow: it must be woken and joined
        draw_errors, fills = mueval._draw_errors, []

        def slow_fifth_fill(*args):
            fills.append(None)
            if len(fills) == 5:
                time.sleep(0.05)
            draw_errors(*args)

        monkeypatch.setattr(mueval, "_draw_errors", slow_fifth_fill)
        monkeypatch.setattr(mueval, "_sinr_from_cross",
                            _raise_on_call(mueval._sinr_from_cross, 2 * len(self.deltas)))
        raised = _bounded_call(mueval.monte_carlo_sinr, h, self.deltas, 10.0, 320, 24)
        assert isinstance(raised, _Planted)
        assert threading.active_count() == before

    def test_worker_exception_reaches_the_caller_at_its_chunk(self, monkeypatch):
        hooked, inverses = [], []
        gram_inverse = mueval._gram_inverse

        def counted_gram_inverse(gram, n_ant):
            inverses.append(None)
            return gram_inverse(gram, n_ant)

        monkeypatch.setattr(threading, "excepthook", hooked.append)
        monkeypatch.setattr(mueval, "_gram_inverse", counted_gram_inverse)
        monkeypatch.setattr(mueval, "_draw_errors", _raise_on_call(mueval._draw_errors, 2))
        before = threading.active_count()
        raised = _bounded_call(mueval.monte_carlo_sinr, random_channel(4, 16, seed=25),
                               self.deltas, 10.0, 100, 26)
        assert isinstance(raised, _Planted) and str(raised) == "call 2"
        assert threading.active_count() == before
        assert hooked == []
        # chunks 0 and 1 ran their ZF for every delta, as on one thread
        assert len(inverses) == 2 * len(self.deltas)

    def test_bits_hold_under_contention(self):
        # four callers at once, eight threads on the host's cores, switching
        # every microsecond: a slot read before it is filled, or refilled
        # before it is read, changes the bits
        h = random_channel(4, 16, seed=29)
        want = mueval.monte_carlo_sinr(h, self.deltas, 10.0, n_draws=320, seed=30)[0]
        got = [None] * 4

        def call(k):
            got[k] = mueval.monte_carlo_sinr(h, self.deltas, 10.0, n_draws=320, seed=30)[0]

        callers = [threading.Thread(target=call, args=(k,), daemon=True) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for means in got:
            np.testing.assert_array_equal(means, want)

    def test_caller_errstate_holds_in_the_worker(self, monkeypatch):
        draw_errors, draws = mueval._draw_errors, []

        def overflowing(rng, z, e, h_abs):
            draw_errors(rng, z, e, h_abs)
            draws.append(None)
            if len(draws) > 1:  # the first chunk is drawn on the calling thread
                np.multiply(e, 1e308, out=e)  # overflows on any |E| above about 1.8

        monkeypatch.setattr(mueval, "_draw_errors", overflowing)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
            mueval.monte_carlo_sinr(random_channel(4, 16, seed=27), self.deltas, 10.0,
                                    n_draws=75, seed=28)


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

    @pytest.mark.parametrize("t_pilot, t_coherence", [
        (2.5, 10), (True, 10), (2, 10.0), (2, True), ("2", 10), (np.bool_(False), 10), (0, 0)])
    def test_pilot_budget_counts_are_integers(self, t_pilot, t_coherence):
        with pytest.raises(ValueError, match="t_pilot must|t_coherence must"):
            mueval.sum_rate(np.ones((2, 2)), t_pilot, t_coherence)

    def test_numpy_pilot_budget_gives_the_int_rate(self):
        s = np.ones((2, 2))
        assert mueval.sum_rate(s, np.int64(2), np.int64(10)) == mueval.sum_rate(s, 2, 10) == 1.6


class TestAnalyticSinr:
    def test_exact_at_zero_error(self):
        h = random_channel(4, 16, seed=7)
        state = mueval.zf_precoder(h)
        expected = 10.0 / (4 * np.sum(np.abs(state.pinv) ** 2, axis=0))
        got = mueval.analytic_sinr(h, [0.0], 10.0)[0]
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        np.testing.assert_allclose(got, mueval.sinr(h, state, 10.0), rtol=1e-9)

    def test_nonincreasing_in_error_power(self):
        for seed in range(10):
            h = random_channel(4, 16, seed=100 + seed)
            vals = mueval.analytic_sinr(h, [0.0, 1e-3, 1e-2, 1e-1], 10.0)
            for lo_d, hi_d in zip(vals, vals[1:]):
                assert np.all(hi_d <= lo_d + 1e-12)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            mueval.analytic_sinr(random_channel(2, 4, seed=8), [-1e-3], 1.0)

    def test_matches_monte_carlo(self):
        h = random_channel(4, 16, seed=9)
        analytic = mueval.analytic_sinr(h, [1e-2], 10.0)
        mc, ok = mueval.monte_carlo_sinr(h, [1e-2], 10.0, n_draws=2000, seed=10)
        assert ok.all()
        np.testing.assert_allclose(analytic, mc, rtol=0.10)


@pytest.mark.parametrize("p_tx", [0.0, -1.0, math.nan, math.inf, True])
def test_sinr_entry_points_reject_power_that_is_not_finite_positive(p_tx):
    h = random_channel(2, 4, seed=13)
    calls = (lambda: mueval.sinr(h, mueval.zf_precoder(h), p_tx),
             lambda: mueval.analytic_sinr(h, [0.01], p_tx),
             lambda: mueval.monte_carlo_sinr(h, [0.01], p_tx, n_draws=4, seed=0),
             lambda: mueval.zf_sinr(h[None], h[None], p_tx))
    for call in calls:
        with pytest.raises(ValueError, match="p_tx"):
            call()


@pytest.mark.parametrize("delta", [-0.1, math.nan, math.inf])
@pytest.mark.parametrize("model", ["analytic_sinr", "monte_carlo_sinr"])
def test_sinr_models_reject_error_power_that_is_not_finite_nonnegative(model, delta):
    h = random_channel(3, 8, seed=13)
    draws = {"analytic_sinr": (), "monte_carlo_sinr": (4, 0)}[model]
    with pytest.raises(ValueError, match=r"deltas\[1\]"):
        getattr(mueval, model)(h, [0.01, delta], 10.0, *draws)


@pytest.mark.parametrize("model", ["analytic_sinr", "monte_carlo_sinr"])
def test_sinr_models_reject_no_error_powers(model):
    draws = {"analytic_sinr": (), "monte_carlo_sinr": (4, 0)}[model]
    with pytest.raises(ValueError, match="^deltas must be a nonempty sequence$"):
        getattr(mueval, model)(random_channel(3, 8, seed=13), [], 10.0, *draws)


@pytest.mark.parametrize("model", ["analytic_sinr", "monte_carlo_sinr"])
def test_sinr_models_take_numpy_error_powers(model):
    # a delta array of any real dtype gives the rows of the same Python floats
    h = random_channel(3, 8, seed=14)
    draws = {"analytic_sinr": (), "monte_carlo_sinr": (40, 0)}[model]
    want = getattr(mueval, model)(h, [0.0, 1.0], 10.0, *draws)
    for deltas in (np.array([0, 1]), np.array([0, 1], dtype=np.float32), [np.int64(0), 1]):
        np.testing.assert_equal(getattr(mueval, model)(h, deltas, np.float32(10.0), *draws), want)


@pytest.mark.parametrize("shape", [(5, 4), (3, 0), (8,), (0, 4), (2, 3, 8)])
@pytest.mark.parametrize("model", ["analytic_sinr", "monte_carlo_sinr"])
def test_sinr_models_take_one_channel_matrix_of_at_most_m_users(model, shape):
    # ValueError before any draw: the Generator passed as seed is not advanced
    rng = np.random.default_rng(0)
    draws = {"analytic_sinr": (), "monte_carlo_sinr": (4, rng)}[model]
    with pytest.raises(ValueError, match=r"K, M\)|1 <= K <= M"):
        getattr(mueval, model)(np.ones(shape, dtype=complex), [0.01], 10.0, *draws)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("n_draws", [0, -1, True, 2.0])
def test_monte_carlo_rejects_draw_count_below_one(n_draws):
    with pytest.raises(ValueError, match="n_draws"):
        mueval.monte_carlo_sinr(random_channel(2, 4, seed=13), [0.01], 1.0, n_draws, 0)


class TestErrorModel:
    def test_draw_statistics(self):
        h = random_channel(2, 6, seed=11)
        rng = np.random.default_rng(12)
        delta = 0.04
        acc = np.zeros_like(h, dtype=np.float64)
        n = 4000
        for _ in range(n):
            acc += np.abs(draw_channel_error(h, delta, rng)) ** 2
        np.testing.assert_allclose(acc / n, delta * np.abs(h) ** 2, rtol=0.15)

    def test_zero_delta_zero_error(self):
        h = random_channel(2, 6, seed=13)
        rng = np.random.default_rng(14)
        np.testing.assert_array_equal(draw_channel_error(h, 0.0, rng), 0.0)

