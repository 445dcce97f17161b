"""Downlink training: beam grids, pilot scheduling, and gain re-estimation.

The base station cannot measure downlink gains directly, so it sounds the
extracted paths with a short burst of precoded pilot symbols.  Each pilot
symbol is one beam pointed at a grid direction; each user correlates the
received pilots against its known path geometry and solves a small least
squares problem for the downlink gains.  The scheduler trims the beam list
until every user is still predicted (in closed form) to meet the target
estimation accuracy, which keeps the training overhead proportional to the
actual scattering geometry instead of the antenna count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sysmodel import (SystemConfig, carrier_phase, complex_noise, delay_vector,
                       path_parameters, steering_vector)


def grid_point(index, cfg: SystemConfig):
    """Return the (theta, phi) pair of 1-based grid point ``index``, an int
    or an integer array (then two arrays of its shape).

    The flat index runs vertical-major: index = (i_v - 1) * M_h + i_h with
    i_v in 1..M_v and i_h in 1..M_h.
    """
    index = np.asarray(index)
    if not np.all((1 <= index) & (index <= cfg.M)):
        raise ValueError(f"grid index outside 1..{cfg.M}")
    i_v = (index - 1) // cfg.M_h + 1
    i_h = index - cfg.M_h * (i_v - 1)
    theta = math.pi / cfg.M_v * (i_v - cfg.M_v / 2 - 1)
    phi = math.pi / cfg.M_h * (i_h - cfg.M_h / 2 - 1)
    return theta, phi


def build_angle_grid(cfg: SystemConfig) -> np.ndarray:
    """Steering matrix of the uniform angle grid, one point per antenna.

    Column ``j`` is the array response of grid point ``j + 1`` (see
    :func:`grid_point`), and ``conj(grid[:, j]) / sqrt(M)`` is the
    unit-power beam aimed at that point. The (M, M) matrix is C-contiguous.
    At theta = -pi/2 (the first M_h columns) cos(theta) = 0, so that endfire
    row holds one beam M_h times; :func:`optimal_grid_point` picks its first.
    """
    thetas, phis = grid_point(np.arange(1, cfg.M + 1), cfg)
    return np.ascontiguousarray(steering_vector(thetas, phis, cfg).T)


def projected_power(
    theta: float, phi: float, theta_bar: float, phi_bar: float, cfg: SystemConfig
) -> float:
    """Normalized power a path at (theta, phi) leaks into a beam aimed at
    (theta_bar, phi_bar): |a(theta, phi)^T a*(theta_bar, phi_bar)|^2 / M.

    Equals M when the angles coincide and decays with beam-space distance.
    """
    a = steering_vector(theta, phi, cfg)
    b = steering_vector(theta_bar, phi_bar, cfg)
    return float(np.abs(np.dot(a, b.conj())) ** 2) / cfg.M


# Relative power margin within which grid points count as tied.
_GRID_TIE_RTOL = 1e-9


def optimal_grid_point(theta: float, phi: float, grid: np.ndarray, cfg: SystemConfig) -> int:
    """1-based index of the grid point (column of ``grid``, from
    :func:`build_angle_grid`) capturing the most power from (theta, phi).

    Rule: the lowest index whose power is within a relative 1e-9 of the
    maximum. The equal beams of the endfire row differ only by rounding, so
    they all tie and the row's first column represents them, whatever the
    summation order (grid layout, BLAS) or an ulp-level move of the path.
    """
    power = np.abs(grid.conj().T @ steering_vector(theta, phi, cfg)) ** 2
    return int(np.argmax(power >= (1.0 - _GRID_TIE_RTOL) * np.max(power))) + 1


def pilot_subcarriers(cfg: SystemConfig) -> np.ndarray:
    """Indices of the subcarriers that carry pilots (every ``pilot_spacing``)."""
    return np.arange(0, cfg.N, cfg.pilot_spacing)


@dataclass(frozen=True)
class TrainingPlan:
    """Output of the beam scheduler.

    grid_indices: kept grid points (1-based), in scan order (ascending
        weight, index as tie-break).
    beams: (M, T_p) matrix of unit-power beams, one column per kept point.
    pilot_subcarriers: subcarrier indices each pilot symbol occupies.
    weights: number of distinct users that marked each kept point.
    feasible: False when even the full marked set fails some user's
        accuracy prediction; the plan then keeps every marked point.
    """

    grid_indices: tuple
    beams: np.ndarray
    pilot_subcarriers: np.ndarray
    weights: tuple
    feasible: bool

    @property
    def T_p(self) -> int:
        return len(self.grid_indices)


def _path_factors(paths, beams: np.ndarray, pilots: np.ndarray, cfg: SystemConfig):
    """The three factors of a coefficient matrix: beam gains a^T b_t
    (L, T), pilot-subcarrier delay phases (L, N_p), and carrier-shift phases
    (L,)."""
    thetas, phis, taus = path_parameters(paths)
    beam_gain = steering_vector(thetas, phis, cfg) @ beams
    return beam_gain, delay_vector(taus, cfg)[:, pilots], carrier_phase(taus, cfg)


def coefficient_matrix(paths, plan: TrainingPlan, cfg: SystemConfig) -> np.ndarray:
    """Pilot observation model of one user: y = sqrt(P) * A g_dl + noise.

    ``paths`` is any sequence of objects carrying theta/phi/tau attributes.
    Rows are pilot-symbol major and columns follow ``paths``: entry
    (t*N_p + i, l), symbol t on pilot subcarrier i, is
    exp(j 2 pi (f_dl - f_ul) tau_l) * a^T(theta_l, phi_l) b_t
    * exp(j 2 pi n_i delta_f tau_l): the carrier shift, the beam gain, and
    the pilot-subcarrier delay phase of path l under symbol t.
    """
    if len(paths) == 0:
        raise ValueError("coefficient matrix needs at least one path")
    if plan.beams.shape[1] == 0:
        raise ValueError("coefficient matrix needs at least one beam")
    theta_gain, pil, shift = _path_factors(paths, plan.beams, plan.pilot_subcarriers, cfg)
    mat = theta_gain.T[:, None, :] * pil.T[None, :, :] * shift[None, None, :]
    return mat.reshape(-1, len(paths))


def _gram_nmse(gram: np.ndarray, n_rows: int, gnorm2: float, cfg: SystemConfig) -> float:
    """Predicted gain NMSE sum(1 / lambda_i) / (P ||g||^2) from the
    eigenvalues of the (L x L) Gram A^H A of an (n_rows x L) coefficient
    matrix A.

    Rank rule: inf when n_rows < L or lambda_min <= lambda_max * max(L,
    n_rows) * eps.  The Gram squares the condition number, so this rejects
    cond(A) above about 1e6 to 1e7.
    """
    if gnorm2 == 0.0:
        raise ValueError("uplink gain vector has zero norm")
    n_paths = gram.shape[0]
    if n_rows < n_paths:
        return math.inf
    eig = np.linalg.eigvalsh(gram)
    if eig[0] <= eig[-1] * max(n_paths, n_rows) * np.finfo(np.float64).eps:
        return math.inf
    return float(np.sum(1.0 / eig)) / (cfg.P * gnorm2)


def predict_nmse(coef: np.ndarray, g_ul: np.ndarray, cfg: SystemConfig) -> float:
    """Closed-form NMSE the pilot least squares will achieve, in expectation,
    at unit noise power: trace((A^H A)^-1) / (P ||g_ul||^2).

    Returns inf when the matrix is rank deficient (some gain direction is
    unobservable under the current beam set); see :func:`_gram_nmse`.
    """
    gnorm2 = float(np.sum(np.abs(np.asarray(g_ul)) ** 2))
    return _gram_nmse(coef.conj().T @ coef, coef.shape[0], gnorm2, cfg)


class _UserState:
    """Per-user precomputation for the scheduler's repeated feasibility probes.

    The Gram matrix of the coefficient matrix factors over beams, pilot
    subcarriers, and carrier shift, so probing a beam subset costs one small
    (L x L) eigendecomposition instead of rebuilding the full matrix.
    """

    __slots__ = ("theta_gain", "pilot_gram", "shift_outer", "gnorm2", "n_paths")

    def __init__(self, paths, order, grid: np.ndarray, cfg: SystemConfig):
        self.n_paths = len(paths)
        self.gnorm2 = float(sum(abs(p.gain) ** 2 for p in paths))
        if self.n_paths == 0:
            return
        beams_all = grid[:, [j - 1 for j in order]].conj() / math.sqrt(cfg.M)
        # theta_gain is (L, S) over the full scan order
        self.theta_gain, pil, shift = _path_factors(paths, beams_all, pilot_subcarriers(cfg), cfg)
        self.pilot_gram = pil.conj() @ pil.T  # (L, L)
        self.shift_outer = np.outer(shift.conj(), shift)

    def subset_nmse(self, cols: np.ndarray, cfg: SystemConfig) -> float:
        """Predicted NMSE when only the scan-order columns ``cols`` are kept."""
        if self.n_paths == 0:
            return 0.0
        tg = self.theta_gain[:, cols]
        gram = (tg.conj() @ tg.T) * self.pilot_gram * self.shift_outer
        return _gram_nmse(gram, len(cols) * _n_pilots(cfg), self.gnorm2, cfg)


def _n_pilots(cfg: SystemConfig) -> int:
    return len(pilot_subcarriers(cfg))


def schedule_beams(
    users_paths: Sequence[Sequence],
    grid: np.ndarray,
    cfg: SystemConfig,
) -> TrainingPlan:
    """Pick the beam directions to train, trimming redundant ones.

    Each user marks the grid point nearest (in beam-space power) to each of
    its estimated paths.  Marked points are scanned in ascending order of
    weight (number of distinct users marking them, index as tie-break), and
    a point is dropped when every user is still predicted to meet the
    accuracy target delta without it.  The scan stops at the first
    indispensable point.
    """
    marks: dict[int, int] = {}
    for paths in users_paths:
        mine = {optimal_grid_point(p.theta, p.phi, grid, cfg) for p in paths}
        for j in mine:
            marks[j] = marks.get(j, 0) + 1
    order = sorted(marks, key=lambda j: (marks[j], j))
    states = [_UserState(paths, order, grid, cfg) for paths in users_paths]

    all_cols = np.arange(len(order))
    feasible = all(st.subset_nmse(all_cols, cfg) < cfg.delta for st in states)

    # points go in scan order until the first indispensable one, so the kept
    # points are the scan order from index `first` on
    first = 0
    while feasible and first < len(order) and all(
            st.subset_nmse(np.arange(first + 1, len(order)), cfg) < cfg.delta for st in states):
        first += 1

    kept = order[first:]
    beams = grid[:, [j - 1 for j in kept]].conj() / math.sqrt(cfg.M)
    return TrainingPlan(
        grid_indices=tuple(kept),
        beams=beams,
        pilot_subcarriers=pilot_subcarriers(cfg),
        weights=tuple(marks[j] for j in kept),
        feasible=feasible,
    )


def simulate_downlink_training(
    true_paths,
    plan: TrainingPlan,
    cfg: SystemConfig,
    noise_seed=None,
) -> np.ndarray:
    """Received pilot samples of one user over the whole training burst.

    Returns a (T_p * N_p,) vector, pilot-symbol major, matching the row
    order of :func:`coefficient_matrix`.
    """
    coef = coefficient_matrix(true_paths, plan, cfg)
    g_dl = np.array([p.g_dl for p in true_paths])
    y = math.sqrt(cfg.P) * coef @ g_dl
    if noise_seed is not None:
        y = y + complex_noise(np.random.default_rng(noise_seed), len(y))
    return y


def estimate_downlink_gains(
    y: np.ndarray, coef: np.ndarray, cfg: SystemConfig
) -> np.ndarray:
    """Least squares downlink gains from the pilot observations:
    (1 / sqrt(P)) (A^H A)^{-1} A^H y.

    Raises when the coefficient matrix is rank deficient; the scheduler is
    responsible for never producing such a plan.
    """
    n_paths = coef.shape[1]
    g, _, rank, _ = np.linalg.lstsq(coef, np.asarray(y), rcond=None)
    if rank < n_paths:
        raise np.linalg.LinAlgError(
            f"coefficient matrix rank {rank} < {n_paths} paths; gains unidentifiable"
        )
    return g / math.sqrt(cfg.P)
