"""Multiuser downlink evaluation: ZF precoding, SINR, and sum-rate.

The precoder inverts the (reconstructed) per-subcarrier channel matrix and
splits the unit transmit power evenly across users.  Rates are discounted by
the fraction of the coherence block spent on training, which is what makes
short training schedules pay off end to end.  A closed-form approximation of
the expected SINR under a proportional channel-error model supports studying
the accuracy/overhead trade without Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sysmodel import gram_eigvals


# Draws per chunk in monte_carlo_sinr: one shared draw of normals, then one
# stacked ZF call per delta. At K=10, M=128 and three deltas, 1000 draws take
# about equally long (median 0.29 s, 1 BLAS thread) with chunks of 8 to 128;
# chunks of 4 are about 15% slower, and one chunk of all 1000 draws is slower
# again, its buffers (20 MB of normals, two 20 MB complex stacks) no longer
# staying in cache.
_MC_CHUNK = 32

# Receiver noise power per user; transmit powers are SNRs against it.
_NOISE_POWER = 1.0


@dataclass(frozen=True)
class PrecodingState:
    """ZF precoder pieces for a stack of subcarriers (or a single one).

    ``pinv`` (..., M, K) is the right pseudo-inverse of the (..., K, M)
    channel estimate and ``alphas[..., k] = 1 / (sqrt(K) ||pinv[..., :, k]||)``
    normalizes each user's beam to power 1/K, so the precoder
    ``pinv * alphas[..., None, :]`` spends unit power.
    """

    pinv: np.ndarray
    alphas: np.ndarray


def zf_precoder(h_hat: np.ndarray) -> PrecodingState:
    """Zero-forcing precoders from a (..., K, M) stack of channel estimates
    (rows = users); a single K x M matrix is a stack of one.

    pinv = H^H G^-1 with the K x K Gram G = H H^H, and the beam norms come
    from diag(G^-1) since ||pinv[:, k]||^2 = [G^-1]_kk. A matrix that
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
    gram = H @ h_herm
    if not np.all(gram_eigvals(gram, n_ant)[1]):
        raise np.linalg.LinAlgError("channel estimate is rank deficient")
    gram_inv = np.linalg.inv(gram)
    col_norms2 = np.diagonal(gram_inv, axis1=-2, axis2=-1).real
    alphas = 1.0 / (math.sqrt(n_users) * np.sqrt(col_norms2))
    return PrecodingState(pinv=h_herm @ gram_inv, alphas=alphas)


def sinr(h_true: np.ndarray, state: PrecodingState, p_tx: float) -> np.ndarray:
    """Per-user SINR for each (..., K, M) true channel under its precoder.

    Entry [..., k] is P |h_k w_k|^2 / (sum_{j != k} P |h_k w_j|^2 + noise),
    w_j = alphas_j pinv_j, scaled on the (..., K, K) product h_true @ pinv.
    """
    gains = (np.asarray(h_true) @ state.pinv) * state.alphas[..., None, :]
    powers = p_tx * np.abs(gains) ** 2
    signal = np.diagonal(powers, axis1=-2, axis2=-1)
    interference = powers.sum(axis=-1) - signal
    return signal / (interference + _NOISE_POWER)


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
    channel is built once and serves every delta.
    """
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
        rows.append(signal / (interference + _NOISE_POWER))
    return np.stack(rows)


def monte_carlo_sinr(
    h_true: np.ndarray,
    deltas,
    p_tx: float,
    n_draws: int = 10_000,
    seed=0,
) -> tuple:
    """Average SINR over channel-error draws with the true channel fixed,
    one (K,) row per error power in ``deltas``.

    Draw i perturbs the estimate by sqrt(delta) |H| * (z_i[0] + 1j z_i[1]) /
    sqrt(2) from standard normals z_i, rebuilds the ZF precoder, and takes the
    true-channel SINR: the reference that :func:`analytic_sinr` approximates.
    Every delta shares the one stream of z_i, so each row equals, bit for
    bit, a call with that delta alone. Returns the (D, K) means and the (D,)
    full-rank mask: a delta with a rank-deficient draw (``zf_precoder``
    raises ``np.linalg.LinAlgError``) gets False and a NaN row, and the other
    rows do not change.
    """
    rng = np.random.default_rng(seed)
    H = np.asarray(h_true)
    stds = [np.sqrt(delta) * np.abs(H) for delta in deltas]
    ok = np.ones(len(stds), dtype=bool)
    acc = np.zeros((len(stds), H.shape[0]))
    # chunk buffers made once per call, so no chunk allocates them
    chunk = min(_MC_CHUNK, n_draws)
    z_buf = np.empty((chunk, 2) + H.shape)
    noise_buf, h_hat_buf = np.empty((2, chunk) + H.shape, dtype=np.complex128)
    for start in range(0, n_draws, _MC_CHUNK):
        c = min(_MC_CHUNK, n_draws - start)
        z, noise, h_hat = z_buf[:c], noise_buf[:c], h_hat_buf[:c]
        # A (c, 2, K, M) block is the same stream as c draws of (2, K, M).
        rng.standard_normal(out=z)
        np.add(z[:, 0], np.multiply(1j, z[:, 1], out=noise), out=noise)
        for i, std in enumerate(stds):
            if not ok[i]:
                continue
            # H + std * noise / sqrt(2), evaluated in that order
            np.divide(np.multiply(std, noise, out=h_hat), math.sqrt(2.0), out=h_hat)
            np.add(H, h_hat, out=h_hat)
            try:
                state = zf_precoder(h_hat)
            except np.linalg.LinAlgError:
                ok[i] = False
                continue
            for row in sinr(H, state, p_tx):
                acc[i] += row  # draw by draw, so the sum is the same for any chunk size
    means = acc / n_draws
    means[~ok] = np.nan
    return means, ok
