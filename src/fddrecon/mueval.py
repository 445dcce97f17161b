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


# Draws per stacked ZF call in monte_carlo_sinr. At K=10, M=128, chunks of
# 8 to 128 draws run about equally fast; one chunk of all 1000 draws is
# slower again, its 20 MB of normals no longer staying in cache.
_MC_CHUNK = 32

# Receiver noise power per user; transmit powers are SNRs against it.
_NOISE_POWER = 1.0


@dataclass(frozen=True)
class PrecodingState:
    """ZF precoder pieces for a stack of subcarriers (or a single one).

    ``pinv`` (..., M, K) is the right pseudo-inverse of the (..., K, M)
    channel estimate and ``alphas[..., k] = 1 / (sqrt(K) ||pinv[..., :, k]||)``
    normalizes each user's beam to power 1/K, so every precoder in the stack
    spends unit power.
    """

    pinv: np.ndarray
    alphas: np.ndarray

    @property
    def precoder(self) -> np.ndarray:
        return self.pinv * self.alphas[..., None, :]


def zf_precoder(h_hat: np.ndarray) -> PrecodingState:
    """Zero-forcing precoders from a (..., K, M) stack of channel estimates
    (rows = users); a single K x M matrix is a stack of one.

    The pseudo-inverse goes through the Hermitian K x K Gram G = H H^H:
    with G = V diag(lam) V^H, pinv = H^H V diag(1/lam) V^H, and the beam
    norms come from diag(G^-1) since ||pinv[:, k]||^2 = [G^-1]_kk.

    Rank rule: a matrix is rejected with ``np.linalg.LinAlgError`` when
    lam_min <= lam_max * max(K, M) * eps.  The Gram squares the condition
    number, so at M = 128 this rejects cond(H) above about 6e6; one rejected
    matrix fails the whole stack.  K > M also raises (ValueError); dropping
    users is the caller's policy decision.
    """
    H = np.asarray(h_hat)
    if H.ndim < 2:
        raise ValueError("channel estimate must be a (..., K, M) stack of matrices")
    n_users, n_ant = H.shape[-2:]
    if n_users == 0 or n_users > n_ant:
        raise ValueError(f"need 1 <= K <= M, got K={n_users}, M={n_ant}")
    h_herm = H.conj().swapaxes(-1, -2)
    lam, v = np.linalg.eigh(H @ h_herm)
    tol = lam[..., -1] * max(n_users, n_ant) * np.finfo(np.float64).eps
    if np.any(lam[..., 0] <= tol):
        raise np.linalg.LinAlgError("channel estimate is rank deficient")
    gram_inv = (v / lam[..., None, :]) @ v.conj().swapaxes(-1, -2)
    pinv = h_herm @ gram_inv
    col_norms2 = np.diagonal(gram_inv, axis1=-2, axis2=-1).real
    alphas = 1.0 / (math.sqrt(n_users) * np.sqrt(col_norms2))
    return PrecodingState(pinv=pinv, alphas=alphas)


def sinr(h_true: np.ndarray, state: PrecodingState, p_tx: float) -> np.ndarray:
    """Per-user SINR for each (..., K, M) true channel under its precoder.

    Entry [..., k] is P |h_k w_k|^2 / (sum_{j != k} P |h_k w_j|^2 + noise).
    """
    gains = np.asarray(h_true) @ state.precoder
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


def analytic_sinr(h_true: np.ndarray, delta: float, p_tx: float) -> np.ndarray:
    """Closed-form expected SINR when the channel estimate carries an error
    of relative power delta in every entry.

    With hat H = H + E, E entries independent CN(0, delta |H_{k,i}|^2), a
    first-order expansion of the pseudo-inverse gives an expected signal
    power S_k and pairwise interference powers I_{k,j}; the SINR estimate is
    S_k / (sum_{j != k} I_{k,j} + noise).  All three reduce to the exact
    zero-interference ZF values at delta = 0.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    H = np.asarray(h_true)
    n_users = H.shape[0]
    pinv = zf_precoder(H).pinv
    habs2 = np.abs(H) ** 2
    pabs2 = np.abs(pinv) ** 2
    cross = habs2 @ pabs2  # cross[a, b] = sum_m |H_{a,m}|^2 |pinv_{m,b}|^2
    col_norms2 = pabs2.sum(axis=0)
    denom = n_users * (col_norms2 + delta * (col_norms2 @ cross))
    signal = p_tx * (1.0 + delta * np.diag(cross)) / denom
    pair = p_tx * delta * cross / denom[None, :]
    interference = pair.sum(axis=1) - np.diag(pair)
    return signal / (interference + _NOISE_POWER)


def _channel_error(h_true: np.ndarray, delta: float, z: np.ndarray) -> np.ndarray:
    """Errors CN(0, delta |H_{k,i}|^2) from standard normals z of shape
    (..., 2, K, M): z[..., 0, :, :] is the real part, z[..., 1, :, :] the
    imaginary part."""
    std = np.sqrt(delta) * np.abs(h_true)
    noise = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    return std * noise / math.sqrt(2.0)


def draw_channel_error(h_true: np.ndarray, delta: float, rng: np.random.Generator) -> np.ndarray:
    """One channel-error draw: independent CN(0, delta |H_{k,i}|^2) entries."""
    H = np.asarray(h_true)
    return _channel_error(H, delta, rng.standard_normal((2,) + H.shape))


def monte_carlo_sinr(
    h_true: np.ndarray,
    delta: float,
    p_tx: float,
    n_draws: int = 10_000,
    seed=0,
) -> np.ndarray:
    """Average SINR over channel-error draws with the true channel fixed.

    Each draw perturbs the estimate, rebuilds the ZF precoder, and evaluates
    the true-channel SINR; this is the reference the closed form in
    :func:`analytic_sinr` approximates.
    """
    rng = np.random.default_rng(seed)
    H = np.asarray(h_true)
    acc = np.zeros(H.shape[0])
    for start in range(0, n_draws, _MC_CHUNK):
        # A (c, 2, K, M) block is the same stream as c draw_channel_error calls.
        z = rng.standard_normal((min(_MC_CHUNK, n_draws - start), 2) + H.shape)
        h_hat = H + _channel_error(H, delta, z)
        for row in sinr(H, zf_precoder(h_hat), p_tx):
            acc += row  # draw by draw, so the sum is the same for any chunk size
    return acc / n_draws
