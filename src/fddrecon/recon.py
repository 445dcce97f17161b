"""Channel reconstruction from path parameters, plus LS/LMMSE baselines.

Once the path geometry (downtilt, azimuth, delay) and the per-path gains are
known, the full space-frequency channel is a short weighted sum of steering
and delay vectors.  Feeding back those few numbers replaces feeding back the
M x N channel itself; the baselines quantify what classical full-dimension
estimators pay for the same job.
"""

from __future__ import annotations

import math

import numpy as np

# recon calls no kernel itself; the benchmark's tracer still wraps recon.kron3
from ._kernels import kron3  # noqa: F401
from .sysmodel import (TWO_PI, SystemConfig, check_positive, mean_linear_attenuation, path_sum,
                       steering_factors)


def uplink_channel_estimate(detected_paths, cfg: SystemConfig) -> np.ndarray:
    """Uplink channel implied by extracted paths: sum of gain-weighted atoms."""
    gains = [p.gain for p in detected_paths]
    return path_sum(detected_paths, gains, cfg)


def reconstruct(paths, dl_gains, cfg: SystemConfig) -> np.ndarray:
    """Downlink channel from estimated path geometry and downlink gains.

    Each path contributes gain * exp(j 2 pi (f_dl - f_ul) tau) * a(theta,
    phi) kron p(tau): the gains come from downlink training, the carrier
    shift and the geometry are reused from the uplink estimates.
    """
    if len(paths) != len(dl_gains):
        raise ValueError("one downlink gain per path required")
    return path_sum(paths, dl_gains, cfg, carrier_shift=True)


def channel_matrix(h: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Reshape a stacked space-frequency channel into per-subcarrier rows.

    Row n is the 1 x M channel on subcarrier n; the stacked vector is
    antenna-major (entry m * N + n belongs to antenna m, subcarrier n).
    """
    return np.asarray(h).reshape(cfg.M, cfg.N).T


def channel_nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Squared-error ratio ||estimate - truth||^2 / ||truth||^2; ValueError
    unless the two have one shape, FloatingPointError (a failed trial)
    unless the ratio is finite."""
    estimate, truth = np.asarray(estimate), np.asarray(truth)
    if estimate.shape != truth.shape:
        raise ValueError(f"estimate shape {estimate.shape} != truth shape {truth.shape}")
    denom = float(np.sum(np.abs(truth) ** 2))
    if denom == 0.0:
        raise ValueError("reference channel has zero norm")
    ratio = float(np.sum(np.abs(estimate - truth) ** 2)) / denom
    if not math.isfinite(ratio):
        raise FloatingPointError("non-finite channel NMSE")
    return ratio


def ls_baseline(y: np.ndarray, p_tx: float) -> np.ndarray:
    """Least squares channel estimate under full identity training.

    The observation is y = sqrt(p_tx) h + z with one pilot symbol per
    antenna, so the estimate is y / sqrt(p_tx) and the noise passes through
    unattenuated: the classical full-pilot LS benchmark. ValueError unless
    p_tx is a finite real > 0 (`check_positive`).
    """
    p_tx = check_positive("p_tx", p_tx)
    return np.asarray(y).ravel() / math.sqrt(p_tx)


# Gauss-Legendre nodes per angle beyond the aperture's phase span: 24 keeps
# every lag within 1e-13 of twice the nodes from 1x4 to 24x24 arrays at d/lambda
# up to 10, where 16 leaves 1e-11 on single-row arrays (1x8 at d/lambda 0.5).
_NODE_MARGIN = 24
# Bytes per block of downtilt nodes in the azimuth mean: the (n, n, M_h)
# tensor of every node pair grows with (d/lambda)^2, a block only with
# d/lambda. 2 MiB keeps the default 8x16 array at d/lambda 0.5 (n = 77) in
# one block. Smaller blocks there lowered glibc's dynamic mmap threshold,
# and a fig4 run then took about 24000 more page faults and 6% more time.
_BLOCK_BYTES = 2 ** 21


def steering_covariance(cfg: SystemConfig) -> np.ndarray:
    """E[a a^H] over downtilt and azimuth uniform on [-pi/2, pi/2), by
    Gauss-Legendre means of `steering_factors` at the nodes: real, symmetric
    and unit-diagonal. As a[0] = 1 and both angles are symmetric, entry
    ((m, h), (m', h')) is the real mean of a at (|m - m'|, |h - h'|). The
    azimuth mean is formed on blocks of downtilt nodes (`_BLOCK_BYTES`).
    """
    span = TWO_PI * cfg.d_over_lambda * math.hypot(cfg.M_v - 1, cfg.M_h - 1)
    x, w = np.polynomial.legendre.leggauss(math.ceil(span) + _NODE_MARGIN)
    nodes, w = (math.pi / 2) * x, w / 2.0
    a_v = steering_factors(nodes, 0.0, cfg)[0]
    block = max(1, _BLOCK_BYTES // (16 * len(nodes) * cfg.M_h))
    mean_h = np.concatenate([w @ steering_factors(nodes[i:i + block, None], nodes, cfg)[1]
                             for i in range(0, len(nodes), block)])
    lag = ((w * a_v.T) @ mean_h).real
    d_v, d_h = (np.abs(np.subtract.outer(np.arange(m), np.arange(m))) for m in (cfg.M_v, cfg.M_h))
    return lag[d_v[:, None, :, None], d_h[None, :, None, :]].reshape(cfg.M, cfg.M)


def channel_covariance(cfg: SystemConfig, att_range_db) -> tuple:
    """The LMMSE prior at the attenuation range `att_range_db` (lo, hi) in
    dB as the pair (lam, v) that `lmmse_baseline` reads. The covariance is
    scale * (spatial kron I_N): path delays uniform over a full delay period
    make distinct subcarriers uncorrelated. v holds the real orthonormal
    eigenvectors of the spatial factor, `steering_covariance`, and lam its
    eigenvalues, clipped at 0, times the mean attenuation."""
    w, v = np.linalg.eigh(steering_covariance(cfg))
    return mean_linear_attenuation(att_range_db) * np.clip(w, 0.0, None), v


def lmmse_baseline(y: np.ndarray, cov: tuple, cfg: SystemConfig, p_tx: float) -> np.ndarray:
    """LMMSE channel estimate: R (R + I/p_tx)^{-1} applied to the LS estimate,
    with R given by the eigenpair ``cov = (lam, v)`` of `channel_covariance`.

    The Kronecker covariance makes the filter act on the antenna axis only;
    subcarriers decouple. The eigenvectors are real, so both products run
    on the float view of the (M, N) estimate, real and imaginary parts side
    by side: the same numbers as the complex products, in half the work.
    ValueError unless p_tx is a finite real > 0 (`check_positive`).
    """
    p_tx = check_positive("p_tx", p_tx)
    # complex128, so that its float view holds (real, imaginary) pairs
    h_ls = ls_baseline(y, p_tx).astype(np.complex128, copy=False).reshape(cfg.M, cfg.N)
    lam, v = cov
    shrink = lam / (lam + 1.0 / p_tx)
    t = shrink[:, None] * (v.T @ h_ls.view(np.float64))
    return (v @ t).view(np.complex128).ravel()
