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

from .sysmodel import (SystemConfig, atom_basis, atom_gram, atom_sum, carrier_phase,
                       check_power, complex_noise, delay_vector, fit_gains, gram_eigvals,
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
    """Output of the beam scheduler. Every pilot symbol occupies the
    subcarriers :func:`pilot_subcarriers` gives.

    grid_indices: kept grid points (1-based), in scan order (ascending
        weight, index as tie-break).
    beams: (M, T_p) matrix of unit-power beams, one column per kept point.
    weights: number of distinct users that marked each kept point.
    feasible: False when even the full marked set fails some user's
        accuracy prediction; the plan then keeps every marked point.
    """

    grid_indices: tuple
    beams: np.ndarray
    weights: tuple
    feasible: bool

    @property
    def T_p(self) -> int:
        return len(self.grid_indices)


def pilot_factors(paths, beams: np.ndarray, cfg: SystemConfig) -> tuple:
    """Factor matrices of one user's pilot model: beam gains a^T b_t (T, L),
    carrier-shift phases (1, L) and pilot-subcarrier delay phases (N_p, L),
    for the paths (objects carrying theta/phi/tau) and the (M, T) beams.

    The pilots are then the atom sum of `sysmodel` over these factors,
    pilot-symbol major: `atom_sum(g, *factors)` is the noiseless burst for
    gains g, `atom_basis(*factors)` is :func:`coefficient_matrix`, and
    `fit_gains` and `atom_gram` read them likewise.
    """
    if len(paths) == 0:
        raise ValueError("pilot model needs at least one path")
    if beams.shape[1] == 0:
        raise ValueError("pilot model needs at least one beam")
    thetas, phis, taus = path_parameters(paths)
    beam_gain = (steering_vector(thetas, phis, cfg) @ beams).T
    pil = delay_vector(taus, cfg)[:, pilot_subcarriers(cfg)].T
    return beam_gain, carrier_phase(taus, cfg)[None, :], pil


def coefficient_matrix(paths, plan: TrainingPlan, cfg: SystemConfig) -> np.ndarray:
    """Pilot observation model of one user: y = sqrt(p_tx) * A g_dl + noise.

    ``paths`` is any sequence of objects carrying theta/phi/tau attributes.
    Rows are pilot-symbol major and columns follow ``paths``: entry
    (t*N_p + i, l), symbol t on pilot subcarrier i, is
    a^T(theta_l, phi_l) b_t * exp(j 2 pi (f_dl - f_ul) tau_l)
    * exp(j 2 pi n_i delta_f tau_l): the beam gain, the carrier shift, and
    the pilot-subcarrier delay phase of path l under symbol t. The pipeline
    never forms it; it is the reference for :func:`pilot_factors`.
    """
    return atom_basis(*pilot_factors(paths, plan.beams, cfg))


def _gram_nmse(gram: np.ndarray, n_rows: int, gnorm2: float, p_tx: float) -> float:
    """Predicted gain NMSE sum(1 / lambda_i) / (p_tx ||g||^2) from the
    eigenvalues of the (L x L) Gram A^H A of an (n_rows x L) coefficient
    matrix A; inf where `gram_eigvals` finds A rank deficient.
    """
    if gnorm2 == 0.0:
        raise ValueError("uplink gain vector has zero norm")
    eig, full_rank = gram_eigvals(gram, n_rows)
    if not full_rank:
        return math.inf
    return float(np.sum(1.0 / eig)) / (p_tx * gnorm2)


def predict_nmse(coef: np.ndarray, g_ul: np.ndarray, p_tx: float) -> float:
    """Closed-form NMSE the pilot least squares will achieve, in expectation,
    at unit noise power: trace((A^H A)^-1) / (p_tx ||g_ul||^2).

    Returns inf when the matrix is rank deficient (some gain direction is
    unobservable under the current beam set); see :func:`_gram_nmse`.
    ValueError unless p_tx is a finite real > 0.
    """
    check_power(p_tx)
    gnorm2 = float(np.sum(np.abs(np.asarray(g_ul)) ** 2))
    return _gram_nmse(coef.conj().T @ coef, coef.shape[0], gnorm2, p_tx)


class _UserState:
    """Per-user precomputation for the scheduler's repeated feasibility probes.

    The pilot factors are built once over the whole scan-order beam matrix;
    probing a beam subset keeps some rows of the beam gains and costs one
    small (L x L) `atom_gram` and eigendecomposition.
    """

    __slots__ = ("factors", "gnorm2", "n_paths")

    def __init__(self, paths, beams: np.ndarray, cfg: SystemConfig):
        self.n_paths = len(paths)
        self.gnorm2 = float(sum(abs(p.gain) ** 2 for p in paths))
        if self.n_paths:
            self.factors = pilot_factors(paths, beams, cfg)

    def subset_nmse(self, cols: np.ndarray, p_tx: float) -> float:
        """Predicted NMSE when only the scan-order columns ``cols`` are kept."""
        if self.n_paths == 0:
            return 0.0
        beam_gain, shift, pil = self.factors
        return _gram_nmse(atom_gram(beam_gain[cols], shift, pil), len(cols) * len(pil),
                          self.gnorm2, p_tx)


def schedule_beams(
    users_paths: Sequence[Sequence],
    grid: np.ndarray,
    cfg: SystemConfig,
    delta: float,
    p_tx: float,
) -> TrainingPlan:
    """Pick the beam directions to train, trimming redundant ones.

    Each user marks the grid point nearest (in beam-space power) to each of
    its estimated paths.  Marked points are scanned in ascending order of
    weight (number of distinct users marking them, index as tie-break), and
    a point is dropped when every user is still predicted, at transmit power
    p_tx, to meet the accuracy target delta without it.  The scan stops at
    the first indispensable point. ValueError unless p_tx is a finite
    real > 0.
    """
    check_power(p_tx)
    marks: dict[int, int] = {}
    for paths in users_paths:
        mine = {optimal_grid_point(p.theta, p.phi, grid, cfg) for p in paths}
        for j in mine:
            marks[j] = marks.get(j, 0) + 1
    order = sorted(marks, key=lambda j: (marks[j], j))
    beams = grid[:, [j - 1 for j in order]].conj() / math.sqrt(cfg.M)
    states = [_UserState(paths, beams, cfg) for paths in users_paths]

    all_cols = np.arange(len(order))
    feasible = all(st.subset_nmse(all_cols, p_tx) < delta for st in states)

    # points go in scan order until the first indispensable one, so the kept
    # points are the scan order from index `first` on
    first = 0
    while feasible and first < len(order) and all(
            st.subset_nmse(np.arange(first + 1, len(order)), p_tx) < delta for st in states):
        first += 1

    return TrainingPlan(
        grid_indices=tuple(order[first:]),
        beams=beams[:, first:],
        weights=tuple(marks[j] for j in order[first:]),
        feasible=feasible,
    )


def simulate_downlink_training(
    true_paths,
    plan: TrainingPlan,
    cfg: SystemConfig,
    p_tx: float,
    noise_seed=None,
) -> np.ndarray:
    """Received pilot samples of one user over the whole training burst:
    sqrt(p_tx) times the atom sum of the downlink gains over
    :func:`pilot_factors`, plus unit-variance noise when ``noise_seed`` is
    given.

    Returns a (T_p * N_p,) vector, pilot-symbol major, matching the row
    order of :func:`coefficient_matrix`. ValueError unless p_tx is a finite
    real > 0.
    """
    check_power(p_tx)
    g_dl = np.array([p.g_dl for p in true_paths])
    y = math.sqrt(p_tx) * atom_sum(g_dl, *pilot_factors(true_paths, plan.beams, cfg))
    if noise_seed is not None:
        y = y + complex_noise(np.random.default_rng(noise_seed), len(y))
    return y


def estimate_downlink_gains(
    y: np.ndarray, paths, plan: TrainingPlan, cfg: SystemConfig, p_tx: float
) -> np.ndarray:
    """Least squares downlink gains of ``paths`` from the pilot observations
    under ``plan``: (1 / sqrt(p_tx)) (A^H A)^{-1} A^H y, by `fit_gains` on
    :func:`pilot_factors`.

    Raises when the coefficient matrix is rank deficient; the scheduler is
    responsible for never producing such a plan. ValueError unless p_tx is a
    finite real > 0.
    """
    check_power(p_tx)
    g, rank = fit_gains(np.asarray(y), *pilot_factors(paths, plan.beams, cfg))
    if rank < len(paths):
        raise np.linalg.LinAlgError(
            f"coefficient matrix rank {rank} < {len(paths)} paths; gains unidentifiable"
        )
    return g / math.sqrt(p_tx)
