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
from .sysmodel import SystemConfig, mean_linear_attenuation, path_sum, steering_vector


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


def ls_baseline(y: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Least squares channel estimate under full identity training.

    The observation is y = sqrt(P) h + z with one pilot symbol per antenna,
    so the estimate is y / sqrt(P) and the noise passes through unattenuated:
    the classical full-pilot LS benchmark.
    """
    return np.asarray(y).ravel() / math.sqrt(cfg.P)


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

    def full_matrix(self, n_subcarriers: int) -> np.ndarray:
        """Dense space-frequency covariance; only sensible for small sizes."""
        return self.scale * np.kron(self.spatial, np.eye(n_subcarriers))


def steering_covariance(cfg: SystemConfig, n_draws: int = 10_000, seed=0) -> np.ndarray:
    """Monte Carlo estimate of E[a a^H] over uniform downtilt and azimuth."""
    rng = np.random.default_rng(seed)
    acc = np.zeros((cfg.M, cfg.M), dtype=np.complex128)
    block = 512
    for start in range(0, n_draws, block):
        count = min(block, n_draws - start)
        thetas = rng.uniform(-np.pi / 2, np.pi / 2, count)
        phis = rng.uniform(-np.pi / 2, np.pi / 2, count)
        a = steering_vector(thetas, phis, cfg)
        acc += a.T @ a.conj()
    sym = acc / n_draws
    return (sym + sym.conj().T) / 2.0


def channel_covariance(
    cfg: SystemConfig,
    att_range_db=(-10.0, 0.0),
    n_draws: int = 10_000,
    seed=0,
) -> SpaceFrequencyCovariance:
    """Covariance matching the scenario generator's statistics."""
    return SpaceFrequencyCovariance(
        spatial=steering_covariance(cfg, n_draws=n_draws, seed=seed),
        scale=mean_linear_attenuation(att_range_db),
    )


def lmmse_baseline(y: np.ndarray, cov: SpaceFrequencyCovariance, cfg: SystemConfig) -> np.ndarray:
    """LMMSE channel estimate: R (R + I/P)^{-1} applied to the LS estimate.

    The Kronecker covariance makes the filter act on the antenna axis only;
    subcarriers decouple.
    """
    h_ls = ls_baseline(y, cfg).reshape(cfg.M, cfg.N)
    w, v = cov.eigensystem
    lam = cov.scale * w
    shrink = lam / (lam + 1.0 / cfg.P)
    return (v @ (shrink[:, None] * (v.conj().T @ h_ls))).ravel()
