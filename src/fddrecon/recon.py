"""Channel reconstruction from path parameters, plus LS/LMMSE baselines.

Once the path geometry (downtilt, azimuth, delay) and the per-path gains are
known, the full space-frequency channel is a short weighted sum of steering
and delay vectors.  Feeding back those few numbers replaces feeding back the
M x N channel itself; the baselines quantify what classical full-dimension
estimators pay for the same job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# recon calls no kernel itself; the benchmark's tracer still wraps recon.kron3
from ._kernels import kron3  # noqa: F401
from .sysmodel import (TWO_PI, SystemConfig, check_power, mean_linear_attenuation, path_sum,
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
    """Squared-error ratio ||estimate - truth||^2 / ||truth||^2."""
    truth = np.asarray(truth)
    denom = float(np.sum(np.abs(truth) ** 2))
    if denom == 0.0:
        raise ValueError("reference channel has zero norm")
    return float(np.sum(np.abs(np.asarray(estimate) - truth) ** 2)) / denom


def ls_baseline(y: np.ndarray, p_tx: float) -> np.ndarray:
    """Least squares channel estimate under full identity training.

    The observation is y = sqrt(p_tx) h + z with one pilot symbol per
    antenna, so the estimate is y / sqrt(p_tx) and the noise passes through
    unattenuated: the classical full-pilot LS benchmark. ValueError unless
    p_tx is a finite real number > 0.
    """
    check_power(p_tx)
    return np.asarray(y).ravel() / math.sqrt(p_tx)


@dataclass(frozen=True)
class SpaceFrequencyCovariance:
    """Channel covariance in Kronecker form: scale * (spatial kron I_N).

    Path delays uniform over a full delay period make distinct subcarriers
    exactly uncorrelated, so only the spatial factor (expected steering
    outer product times mean attenuation) needs to be tabulated.
    """

    spatial: np.ndarray
    scale: float

    def __post_init__(self):
        s = self.spatial
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("spatial covariance must be square")
        if not np.allclose(s, s.conj().T, atol=1e-12 * max(1.0, float(np.abs(s).max()))):
            raise ValueError("spatial covariance must be Hermitian")
        if not self.scale >= 0.0:
            raise ValueError("attenuation scale must be nonnegative")
        self.eigensystem  # force PSD validation at construction

    @cached_property
    def eigensystem(self) -> tuple:
        w, v = np.linalg.eigh(self.spatial)
        if len(w) and w[0] < -1e-10 * max(float(w[-1]), 1.0):
            raise ValueError("spatial covariance is not positive semidefinite")
        return np.clip(w, 0.0, None), v


# Gauss-Legendre nodes per angle beyond the aperture's phase span: 24 keeps
# every lag within 1e-13 of twice the nodes from 1x4 to 24x24 arrays at d/lambda
# up to 10, where 16 leaves 1e-11 on single-row arrays (1x8 at d/lambda 0.5).
_NODE_MARGIN = 24


def steering_covariance(cfg: SystemConfig) -> np.ndarray:
    """E[a a^H] over downtilt and azimuth uniform on [-pi/2, pi/2), by
    Gauss-Legendre means of `steering_factors` at the nodes: real, symmetric
    and unit-diagonal. As a[0] = 1 and both angles are symmetric, entry
    ((m, h), (m', h')) is the real mean of a at (|m - m'|, |h - h'|).
    """
    span = TWO_PI * cfg.d_over_lambda * math.hypot(cfg.M_v - 1, cfg.M_h - 1)
    x, w = np.polynomial.legendre.leggauss(math.ceil(span) + _NODE_MARGIN)
    nodes, w = (math.pi / 2) * x, w / 2.0
    a_v, a_h = steering_factors(nodes[:, None], nodes, cfg)
    lag = ((w * a_v[:, 0].T) @ (w @ a_h)).real
    d_v, d_h = (np.abs(np.subtract.outer(np.arange(m), np.arange(m))) for m in (cfg.M_v, cfg.M_h))
    return lag[d_v[:, None, :, None], d_h[None, :, None, :]].reshape(cfg.M, cfg.M)


def channel_covariance(cfg: SystemConfig, att_range_db=(-10.0, 0.0)) -> SpaceFrequencyCovariance:
    """Covariance matching the scenario generator's statistics."""
    return SpaceFrequencyCovariance(spatial=steering_covariance(cfg),
                                    scale=mean_linear_attenuation(att_range_db))


def lmmse_baseline(y: np.ndarray, cov: SpaceFrequencyCovariance, cfg: SystemConfig,
                   p_tx: float) -> np.ndarray:
    """LMMSE channel estimate: R (R + I/p_tx)^{-1} applied to the LS estimate.

    The Kronecker covariance makes the filter act on the antenna axis only;
    subcarriers decouple.
    """
    h_ls = ls_baseline(y, p_tx).reshape(cfg.M, cfg.N)
    w, v = cov.eigensystem
    lam = cov.scale * w
    shrink = lam / (lam + 1.0 / p_tx)
    return (v @ (shrink[:, None] * (v.conj().T @ h_ls))).ravel()
