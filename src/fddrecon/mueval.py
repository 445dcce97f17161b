"""Multiuser downlink evaluation: ZF precoding, SINR, and sum-rate.

The precoder inverts the (reconstructed) per-subcarrier channel matrix and
splits the unit transmit power evenly across users.  Rates are discounted by
the fraction of the coherence block spent on training, which is what makes
short training schedules pay off end to end.  A closed-form approximation of
the expected SINR under a proportional channel-error model supports studying
the accuracy/overhead trade without Monte Carlo.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .sysmodel import NOISE_POWER, certify_full_rank, check_integer, check_power, gram_eigvals


# Draws per chunk in monte_carlo_sinr: one shared draw of normals and three
# shared K x K products per chunk, then one small Gram inverse per delta, while
# the executor's worker draws the chunks after it (a call of one chunk starts
# no worker). At K=10, M=128 and three deltas, 1000 draws take a median
# 43-46 ms with chunks of 32, 47-49 ms with 16 and 42-44 ms with 64 (three
# rounds of 9 calls, 2-vCPU Xeon, 1 BLAS thread). 64 raises theorem1's peak
# resident set by 3.3 MB (41.1 -> 44.4 MB at seed 20240) for at most 2%, so
# 32 is kept. No output bit depends on it.
_MC_CHUNK = 32

# Subcarriers per slice in zf_sinr, so the conjugate copy and the K x K
# products stay slice-sized. At fig6 size (256, 10, 128) slices of 16 to 128
# timed within 5% of the whole stack (6.3-6.8 ms against 6.4-6.7 ms) and
# slices of 8 about 13% slower (2-vCPU Xeon, 1 BLAS thread; measured when
# zf_sinr was added, see CHANGES.md), so 32 is kept for its size.
_ZF_CHUNK = 32


@dataclass(frozen=True)
class PrecodingState:
    """ZF precoder pieces for a stack of subcarriers (or a single one).

    ``h_herm`` (..., M, K) is the conjugate transpose of the (..., K, M)
    channel estimate, ``gram_inv`` (..., K, K) the inverse of its Gram
    H H^H, and ``alphas[..., k] = 1 / (sqrt(K) ||pinv[..., :, k]||)``
    normalizes each user's beam to power 1/K, so the precoder
    ``pinv * alphas[..., None, :]`` spends unit power.
    """

    h_herm: np.ndarray
    gram_inv: np.ndarray
    alphas: np.ndarray

    @property
    def pinv(self) -> np.ndarray:
        """The (..., M, K) right pseudo-inverse H^H G^-1, formed on demand."""
        return self.h_herm @ self.gram_inv


def _require_full_rank(gram: np.ndarray, n_ant: int) -> None:
    if not np.all(gram_eigvals(gram, n_ant)[1]):
        raise np.linalg.LinAlgError("channel estimate is rank deficient")


def _gram_inverse(gram: np.ndarray, n_ant: int) -> tuple:
    """(G^-1, alphas) of a (..., K, K) stack of Grams G = H H^H of channels
    with ``n_ant`` antennas: ||pinv[:, k]||^2 = [G^-1]_kk gives the beam
    scales. A Gram that `sysmodel.gram_eigvals` finds rank deficient raises
    ``np.linalg.LinAlgError`` and fails the whole stack. That rule runs only
    on the Grams whose inverse `sysmodel.certify_full_rank` cannot vouch for
    (on every Gram when the inverse fails), so it decides as if it ran
    first, and only those Grams pay for its `eigvalsh`."""
    try:
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        _require_full_rank(gram, n_ant)
        raise
    undecided = ~certify_full_rank(gram, gram_inv, n_ant)
    if undecided.any():
        _require_full_rank(gram[undecided], n_ant)
    col_norms2 = np.diagonal(gram_inv, axis1=-2, axis2=-1).real
    return gram_inv, 1.0 / (math.sqrt(gram.shape[-1]) * np.sqrt(col_norms2))


def _sinr_from_cross(cross: np.ndarray, gram_inv: np.ndarray, alphas: np.ndarray,
                     p_tx: float) -> np.ndarray:
    """Per-user ZF SINRs from the (..., K, K) cross product H_true H_hat^H:
    h_true @ pinv = cross @ G^-1, scaled by the beam scales."""
    gains = (cross @ gram_inv) * alphas[..., None, :]
    powers = p_tx * np.abs(gains) ** 2
    signal = np.diagonal(powers, axis1=-2, axis2=-1)
    interference = powers.sum(axis=-1) - signal
    return signal / (interference + NOISE_POWER)


def zf_precoder(h_hat: np.ndarray) -> PrecodingState:
    """Zero-forcing precoders from a (..., K, M) stack of channel estimates
    (rows = users); a single K x M matrix is a stack of one.

    pinv = H^H G^-1 with the K x K Gram G = H H^H, and the beam norms come
    from diag(G^-1); no (..., M, K) pseudo-inverse is formed. A matrix that
    `sysmodel.gram_eigvals` finds rank deficient raises
    ``np.linalg.LinAlgError`` and fails the whole stack; K > M raises
    ValueError (dropping users is the caller's policy decision).
    """
    H = np.asarray(h_hat)
    if H.ndim < 2:
        raise ValueError("channel estimate must be a (..., K, M) stack of matrices")
    n_users, n_ant = H.shape[-2:]
    if n_users == 0 or n_users > n_ant:
        raise ValueError(f"need 1 <= K <= M, got K={n_users}, M={n_ant}")
    h_herm = H.conj().swapaxes(-1, -2)
    gram_inv, alphas = _gram_inverse(H @ h_herm, n_ant)
    return PrecodingState(h_herm=h_herm, gram_inv=gram_inv, alphas=alphas)


def sinr(h_true: np.ndarray, state: PrecodingState, p_tx: float) -> np.ndarray:
    """Per-user SINR for each (..., K, M) true channel under its precoder.

    Entry [..., k] is P |h_k w_k|^2 / (sum_{j != k} P |h_k w_j|^2 + noise),
    w_j = alphas_j pinv_j, from the (..., K, K) products
    (h_true @ h_herm) @ G^-1. ValueError unless p_tx is a finite real > 0.
    """
    check_power(p_tx)
    cross = np.asarray(h_true) @ state.h_herm
    return _sinr_from_cross(cross, state.gram_inv, state.alphas, p_tx)


def zf_sinr(h_true: np.ndarray, h_hat: np.ndarray, p_tx: float) -> np.ndarray:
    """(N, K) SINRs of the (N, K, M) true channels under the ZF precoders of
    the (N, K, M) estimates: ``sinr(h_true, zf_precoder(h_hat), p_tx)`` run
    on slices of subcarriers. Every op is per subcarrier, so the result is
    the whole-stack one bit for bit, and a rank-deficient estimate raises
    ``np.linalg.LinAlgError`` as it does there. ValueError unless both are
    (N, K, M) stacks of one shape and p_tx is a finite real > 0.
    """
    check_power(p_tx)
    h_true, h_hat = np.asarray(h_true), np.asarray(h_hat)
    if h_hat.ndim != 3 or h_true.shape != h_hat.shape:
        raise ValueError("h_true and h_hat must be (N, K, M) stacks of one shape")
    out = np.empty(h_hat.shape[:-1])
    for start in range(0, len(h_hat), _ZF_CHUNK):
        part = slice(start, start + _ZF_CHUNK)
        out[part] = sinr(h_true[part], zf_precoder(h_hat[part]), p_tx)
    return out


def sum_rate(sinr_values: np.ndarray, t_pilot: int, t_coherence: int) -> float:
    """Training-discounted Shannon sum-rate.

    ``sinr_values`` is (subcarriers, users); the rate is (1 - T_p / T_c)
    times the subcarrier-averaged sum of log2(1 + SINR).
    """
    if not 0 <= t_pilot < t_coherence:
        raise ValueError(f"need 0 <= T_p < T_c, got T_p={t_pilot}, T_c={t_coherence}")
    arr = np.atleast_2d(np.asarray(sinr_values, dtype=np.float64))
    prelog = 1.0 - t_pilot / t_coherence
    return prelog * float(np.mean(np.sum(np.log2(1.0 + arr), axis=1)))


def analytic_sinr(h_true: np.ndarray, deltas, p_tx: float) -> np.ndarray:
    """Closed-form expected SINR when the channel estimate carries an error
    of relative power delta in every entry, one (K,) row per delta.

    With hat H = H + E, E entries independent CN(0, delta |H_{k,i}|^2), a
    first-order expansion of the pseudo-inverse gives an expected signal
    power S_k and pairwise interference powers I_{k,j}; the SINR estimate is
    S_k / (sum_{j != k} I_{k,j} + noise).  All three reduce to the exact
    zero-interference ZF values at delta = 0.  The precoder of the true
    channel is built once and serves every delta. ValueError unless p_tx is
    a finite real > 0 and every delta >= 0.
    """
    check_power(p_tx)
    if min(deltas) < 0:
        raise ValueError("delta must be nonnegative")
    H = np.asarray(h_true)
    n_users = H.shape[0]
    pinv = zf_precoder(H).pinv
    habs2 = np.abs(H) ** 2
    pabs2 = np.abs(pinv) ** 2
    cross = habs2 @ pabs2  # cross[a, b] = sum_m |H_{a,m}|^2 |pinv_{m,b}|^2
    col_norms2 = pabs2.sum(axis=0)
    rows = []
    for delta in deltas:
        denom = n_users * (col_norms2 + delta * (col_norms2 @ cross))
        signal = p_tx * (1.0 + delta * np.diag(cross)) / denom
        pair = p_tx * delta * cross / denom[None, :]
        interference = pair.sum(axis=1) - np.diag(pair)
        rows.append(signal / (interference + NOISE_POWER))
    return np.stack(rows)


def _draw_errors(rng: np.random.Generator, z: np.ndarray, e: np.ndarray,
                 h_abs: np.ndarray) -> None:
    """One chunk of error draws, in place: z (c, 2, K, M) takes the stream's
    next normals, the same stream as c draws of (2, K, M), and e (c, K, M)
    takes E = |H| (z[:, 0] + j z[:, 1])."""
    rng.standard_normal(out=z)
    np.add(z[:, 0], np.multiply(1j, z[:, 1], out=e), out=e)
    np.multiply(h_abs, e, out=e)


def monte_carlo_sinr(h_true: np.ndarray, deltas, p_tx: float, n_draws: int, seed) -> tuple:
    """Average SINR over channel-error draws with the true channel fixed,
    one (K,) row per error power in ``deltas``.

    Draw i perturbs the estimate by r E_i, r = sqrt(delta / 2) and
    E_i = |H| * (z_i[0] + 1j z_i[1]) from standard normals z_i, and takes
    the true-channel SINR under the estimate's ZF precoder: the reference
    that :func:`analytic_sinr` approximates. Every delta shares the one
    stream of z_i, and per chunk of draws the K x K products E H^H,
    H E^H = (E H^H)^H and E E^H, so a delta needs only
    Gram = H H^H + r (H E^H + E H^H) + r^2 E E^H and
    cross = H H^H + r H E^H; no estimate or pseudo-inverse is formed. Each
    row equals, bit for bit, a call with that delta alone. Returns the (D, K)
    means and the (D,) full-rank mask: a delta with a rank-deficient draw
    (`sysmodel.gram_eigvals` rejects its Gram) gets False and a NaN row, and
    the other rows do not change. ValueError unless p_tx is a finite
    real > 0 and n_draws an integer >= 1.

    The calling thread draws the first chunk's errors (`_draw_errors`); a
    one-worker `ThreadPoolExecutor` per call draws each later one, up to
    two chunks ahead of the chunk whose ZF runs on the calling thread; the
    generator's fill and the K x K linear algebra both release the GIL. The
    draws run one at a time in chunk order, so every bit is the one-thread
    result, and a call of one chunk starts no thread. Each runs in a copy
    of the caller's context, so the caller's ``np.errstate`` holds there;
    what one raises is raised here, at the chunk whose draw failed, and the
    worker has ended when this returns or raises. A call that raises may
    have drawn up to two chunks more from a Generator passed as ``seed``.
    """
    check_power(p_tx)
    check_integer("n_draws", n_draws, 1)
    # imported here: concurrent.futures imports logging, which fig4 and fig6 never need
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(seed)
    H = np.asarray(h_true)
    n_ant = H.shape[-1]
    h_abs = np.abs(H)
    h_herm = H.conj().T
    hh = H @ h_herm
    radii = [math.sqrt(delta / 2.0) for delta in deltas]
    ok = np.ones(len(radii), dtype=bool)
    acc = np.zeros((len(radii), H.shape[0]))
    sizes = [min(_MC_CHUNK, n_draws - start) for start in range(0, n_draws, _MC_CHUNK)]
    # buffers made once per call: the normals and two slots of errors, chunk
    # j in slot j % 2
    z_buf = np.empty((sizes[0], 2) + H.shape)
    e_bufs = [np.empty(z_buf.shape[:1] + H.shape, dtype=np.complex128) for _ in range(2)]

    def draw(j):
        e = e_bufs[j % 2][:sizes[j]]
        _draw_errors(rng, z_buf[:len(e)], e, h_abs)
        return e

    pool = ThreadPoolExecutor(max_workers=1)
    ahead = [None, None]  # the future of chunk j's draw, in slot j % 2

    def read_ahead(j):
        if j < len(sizes):
            ahead[j % 2] = pool.submit(contextvars.copy_context().run, draw, j)

    try:
        e = draw(0)
        read_ahead(1)
        for j in range(len(sizes)):
            if j:
                e = ahead[j % 2].result()
            eh = e @ h_herm
            he = eh.conj().swapaxes(-1, -2)
            mixed = he + eh
            ee = e @ e.conj().swapaxes(-1, -2)
            read_ahead(j + 2)
            for i, r in enumerate(radii):
                if not ok[i]:
                    continue
                try:
                    gram_inv, alphas = _gram_inverse(hh + r * mixed + r * r * ee, n_ant)
                except np.linalg.LinAlgError:
                    ok[i] = False
                    continue
                rows = _sinr_from_cross(hh + r * he, gram_inv, alphas, p_tx)
                rows[0] += acc[i]
                # draw by draw, left to right, so the sum is the same for any chunk size
                acc[i] = np.add.accumulate(rows, out=rows)[-1]
    finally:
        pool.shutdown(cancel_futures=True)
    means = acc / n_draws
    means[~ok] = np.nan
    return means, ok
