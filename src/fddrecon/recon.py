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

from ._kernels import kron3
from .sysmodel import TWO_PI, SystemConfig, delay_vector, steering_factors


def _path_sum(paths, gains, cfg: SystemConfig, carrier_shift: bool) -> np.ndarray:
    h = np.zeros(cfg.M * cfg.N, dtype=np.complex128)
    for p, g in zip(paths, gains):
        if carrier_shift:
            g = g * np.exp(2j * np.pi * cfg.carrier_shift * p.tau)
        a_v, a_h = steering_factors(p.theta, p.phi, cfg)
        h += g * kron3(a_v, a_h, delay_vector(p.tau, cfg))
    return h


def uplink_channel_estimate(detected_paths, cfg: SystemConfig) -> np.ndarray:
    """Uplink channel implied by extracted paths: sum of gain-weighted atoms."""
    gains = [p.gain for p in detected_paths]
    return _path_sum(detected_paths, gains, cfg, carrier_shift=False)


def reconstruct(paths, dl_gains, cfg: SystemConfig) -> np.ndarray:
    """Downlink channel from estimated path geometry and downlink gains.

    Each path contributes gain * exp(j 2 pi (f_dl - f_ul) tau) * a(theta,
    phi) kron p(tau): the gains come from downlink training, the carrier
    shift and the geometry are reused from the uplink estimates.
    """
    if len(paths) != len(dl_gains):
        raise ValueError("one downlink gain per path required")
    return _path_sum(paths, dl_gains, cfg, carrier_shift=True)


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


def ls_baseline(y: np.ndarray, pilot_matrix: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Least squares channel estimate under full orthogonal training.

    The observation model is Y = sqrt(P) X H + Z with X the (M x M) pilot
    matrix acting on the antenna axis and H the channel reshaped to M x N.
    With a unitary X the noise passes through unattenuated, which is the
    classical full-pilot LS benchmark.
    """
    X = np.asarray(pilot_matrix)
    if X.shape[0] != X.shape[1]:
        raise ValueError("pilot matrix must be square")
    Y = np.asarray(y).reshape(X.shape[0], -1)
    # np.linalg.lstsq's default rank rule, so the same pilots are rejected
    s = np.linalg.svd(X, compute_uv=False)
    if s[-1] <= s[0] * max(X.shape) * np.finfo(float).eps:
        raise np.linalg.LinAlgError("pilot matrix is rank deficient")
    return (np.linalg.solve(X, Y) / math.sqrt(cfg.P)).ravel()


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
    kappa = TWO_PI * cfg.d_over_lambda
    block = 512
    for start in range(0, n_draws, block):
        count = min(block, n_draws - start)
        thetas = rng.uniform(-np.pi / 2, np.pi / 2, count)
        phis = rng.uniform(-np.pi / 2, np.pi / 2, count)
        # Row i is steering_factors(thetas[i], phis[i]) combined as np.kron,
        # with the same scalar operations, so the result matches bit for bit.
        a_v = np.exp(1j * kappa * np.sin(thetas)[:, None] * np.arange(cfg.M_v))
        a_h = np.exp(1j * kappa * np.cos(thetas)[:, None] * np.sin(phis)[:, None] * np.arange(cfg.M_h))
        a = (a_v[:, :, None] * a_h[:, None, :]).reshape(count, cfg.M)
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
    from .sysmodel import mean_linear_attenuation

    return SpaceFrequencyCovariance(
        spatial=steering_covariance(cfg, n_draws=n_draws, seed=seed),
        scale=mean_linear_attenuation(att_range_db),
    )


def lmmse_baseline(
    y: np.ndarray,
    cov: SpaceFrequencyCovariance,
    pilot_matrix: np.ndarray,
    cfg: SystemConfig,
) -> np.ndarray:
    """LMMSE channel estimate: R (R + I/P)^{-1} applied to the LS estimate.

    The Kronecker covariance makes the filter act on the antenna axis only;
    subcarriers decouple.  Requires a unitary pilot matrix so the LS error
    stays white (the classical orthogonal-training setting).
    """
    X = np.asarray(pilot_matrix)
    if not np.allclose(X.conj().T @ X, np.eye(X.shape[0]), atol=1e-10):
        raise ValueError("LMMSE baseline expects a unitary pilot matrix")
    h_ls = ls_baseline(y, X, cfg).reshape(cfg.M, cfg.N)
    w, v = cov.eigensystem
    lam = cov.scale * w
    shrink = lam / (lam + 1.0 / cfg.P)
    return (v @ (shrink[:, None] * (v.conj().T @ h_ls))).ravel()


@dataclass(frozen=True)
class CostReport:
    """Training symbols and feedback volume of the two CSI acquisition routes."""

    recon_training_symbols: int
    recon_feedback_complex: int
    full_training_symbols: int
    full_feedback_complex: int


def cost_report(plan, extractions, cfg: SystemConfig) -> CostReport:
    """Compare acquisition cost of reconstruction vs full-channel feedback.

    Reconstruction trains T_p beams and feeds back one downlink gain per
    retained path; the full-dimension baseline trains all M antenna
    directions and feeds back the entire M x N channel of every user.
    """
    n_users = len(extractions)
    n_paths = sum(len(getattr(e, "paths", e)) for e in extractions)
    return CostReport(
        recon_training_symbols=plan.T_p,
        recon_feedback_complex=n_paths,
        full_training_symbols=cfg.M,
        full_feedback_complex=cfg.M * cfg.N * n_users,
    )
