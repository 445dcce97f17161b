"""Greedy multipath extraction from one uplink sounding snapshot.

Pipeline per detected path: coarse detection on an oversampled
angle-angle-delay codebook via matched filtering, a safeguarded Newton step
on the continuous parameters, cyclic re-refinement of all paths found so
far, and a joint least-squares gain update (`fit_gains`, on the L x L
Gram of the separable atoms). Detection stops when the largest projected
power of the residual drops below a constant false-alarm threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .sysmodel import SystemConfig, delay_vector, steering_factors

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Codebook:
    """Detection grids plus the per-axis transforms of the matched filter.

    The delay grid is a uniform DFT grid, handled by a zero-padded FFT. The
    angle grids are uniform in angle, i.e. non-uniform in spatial frequency
    (and the azimuth frequency depends on the downtilt through cos(theta)),
    so those two axes use exact dense transforms at the codebook
    frequencies. No codewords are materialized.
    """

    thetas: np.ndarray   # (G_theta,)
    phis: np.ndarray     # (G_phi,)
    taus: np.ndarray     # (G_tau,)
    E_v: np.ndarray      # (G_theta, M_v), rows conj(a_v(theta_bar))
    E_h: np.ndarray      # (G_theta, G_phi, M_h), conj horizontal factors
    M_v: int
    M_h: int
    N: int

    @property
    def size(self) -> int:
        return len(self.thetas) * len(self.phis) * len(self.taus)


@dataclass(frozen=True)
class DetectedPath:
    gain: complex
    theta: float
    phi: float
    tau: float


@dataclass(frozen=True)
class ExtractionResult:
    paths: tuple            # tuple of DetectedPath
    residual: np.ndarray    # observation minus all reconstructed atoms
    iterations: int
    stop_reason: str        # "below_threshold" | "cap" | "degenerate"
    residual_norms: tuple   # ||residual|| after each completed iteration


def build_codebook(cfg: SystemConfig) -> Codebook:
    """Detection grids: angles start at -pi/2 with step pi/(beta*M_axis),
    delays start at 0 with step 1/(beta_tau*N*delta_f)."""
    g_t = cfg.beta_theta * cfg.M_v
    g_p = cfg.beta_phi * cfg.M_h
    g_d = cfg.beta_tau * cfg.N
    thetas = -math.pi / 2 + np.arange(g_t) * math.pi / g_t
    phis = -math.pi / 2 + np.arange(g_p) * math.pi / g_p
    taus = np.arange(g_d) / (g_d * cfg.delta_f)
    kappa = TWO_PI * cfg.d_over_lambda
    m_v = np.arange(cfg.M_v)
    m_h = np.arange(cfg.M_h)
    E_v = np.exp(-1j * kappa * np.sin(thetas)[:, None] * m_v[None, :])
    freq_h = np.cos(thetas)[:, None] * np.sin(phis)[None, :]
    E_h = np.exp(-1j * kappa * freq_h[:, :, None] * m_h[None, None, :])
    return Codebook(thetas=thetas, phis=phis, taus=taus, E_v=E_v, E_h=E_h,
                    M_v=cfg.M_v, M_h=cfg.M_h, N=cfg.N)


def synth_atom(theta: float, phi: float, tau: float, cfg: SystemConfig) -> np.ndarray:
    """Unit-modulus codeword a(theta, phi) (x) p(tau), length M*N."""
    a_v, a_h = steering_factors(theta, phi, cfg)
    p_n = delay_vector(tau, cfg)
    return _kernels.kron3(a_v, a_h, p_n)


def _atom_correlation(y3: np.ndarray, a_v, a_h, p_n) -> complex:
    """y^H c for the separable atom, via staged contractions of y against
    the conjugated factors (c^H y), conjugated at the end so that y itself
    is never copied."""
    z = (y3.reshape(-1, y3.shape[2]) @ p_n.conj()).reshape(y3.shape[0], y3.shape[1])
    return complex(((z @ a_h.conj()) @ a_v.conj()).conjugate())


def detection_threshold(mn: int, p_fa: float, noise_variance: float = 1.0) -> float:
    """Projected-power stop level: ln(MN) - ln(-ln(1 - P_fa)), scaled by the
    noise variance."""
    if not 0 < p_fa < 1:
        raise ValueError("p_fa must lie in (0, 1)")
    return noise_variance * (math.log(mn) - math.log(-math.log1p(-p_fa)))


def stopping_statistic(y_r: np.ndarray, cfg: SystemConfig) -> float:
    """Largest projected power of the residual onto the critically sampled
    unit-norm 3-D DFT atoms."""
    y3 = np.asarray(y_r).reshape(cfg.M_v, cfg.M_h, cfg.N)
    spectrum = np.fft.fftn(y3)
    return float(np.max(np.abs(spectrum) ** 2) / (cfg.M * cfg.N))


def omp_detect(y_r: np.ndarray, codebook: Codebook):
    """Best codebook entry for the residual.

    Returns (theta, phi, tau, projected power) where the projected power is
    |c^H y|^2 / ||c||^2; ties resolve to the lowest (theta, phi, tau) grid
    index. Identical by construction to an exhaustive codeword scan.
    """
    cb = codebook
    mn = cb.M_v * cb.M_h * cb.N
    y3 = np.asarray(y_r).reshape(cb.M_v, cb.M_h, cb.N)
    # delay axis: conj(p(tau_k))_n = exp(-2j pi n k / G_tau), a padded FFT
    z = np.fft.fft(y3, n=len(cb.taus), axis=2)
    g1 = (cb.E_v @ z.reshape(cb.M_v, -1)).reshape(len(cb.thetas), cb.M_h, -1)
    g = np.matmul(cb.E_h, g1)
    power = np.abs(g) ** 2 / mn
    flat = int(np.argmax(power))
    i_t, i_p, i_d = np.unravel_index(flat, power.shape)
    return (float(cb.thetas[i_t]), float(cb.phis[i_p]), float(cb.taus[i_d]),
            float(power[i_t, i_p, i_d]))


def coarse_gain(y_r: np.ndarray, theta: float, phi: float, tau: float,
                cfg: SystemConfig) -> complex:
    """Least-squares gain of a single atom: c^H y / ||c||^2."""
    y3 = np.asarray(y_r).reshape(cfg.M_v, cfg.M_h, cfg.N)
    a_v, a_h = steering_factors(theta, phi, cfg)
    p_n = delay_vector(tau, cfg)
    return np.conj(_atom_correlation(y3, a_v, a_h, p_n)) / (cfg.M * cfg.N)


def objective_S(y_r: np.ndarray, gain: complex, theta: float, phi: float,
                tau: float, cfg: SystemConfig) -> float:
    """Single-atom surrogate 2 Re{y^H g c} - ||g c||^2."""
    y3 = np.asarray(y_r).reshape(cfg.M_v, cfg.M_h, cfg.N)
    a_v, a_h = steering_factors(theta, phi, cfg)
    p_n = delay_vector(tau, cfg)
    corr = _atom_correlation(y3, a_v, a_h, p_n)
    mn = cfg.M * cfg.N
    return float(2.0 * (gain * corr).real - abs(gain) ** 2 * mn)


def _phase_coeffs(theta: float, phi: float, cfg: SystemConfig):
    """First and second partials of the per-entry atom phase
    psi(m, h, n) = kappa*(m sin(theta) + h cos(theta) sin(phi)) + omega*n*tau
    as coefficients of the index monomials m, h, n."""
    kappa = TWO_PI * cfg.d_over_lambda
    omega = TWO_PI * cfg.delta_f
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    first = {
        "t_m": kappa * ct, "t_h": -kappa * st * sp,
        "p_h": kappa * ct * cp,
        "d_n": omega,
    }
    second = {
        "tt_m": -kappa * st, "tt_h": -kappa * ct * sp,
        "tp_h": -kappa * st * cp,
        "pp_h": -kappa * ct * sp,
    }
    return first, second


def _grad_hess_from_cube(cube: np.ndarray, gain: complex, theta: float,
                         phi: float, cfg: SystemConfig):
    """Gradient and Hessian of the surrogate from the weighted moment cube.

    ||c||^2 = M*N for every parameter choice, so the c^H(dc/dx) correction
    terms of the exact derivative expressions cancel identically and only
    the data-dependent terms remain.
    """
    f, s = _phase_coeffs(theta, phi, cfg)
    w_t = f["t_m"] * cube[1, 0, 0] + f["t_h"] * cube[0, 1, 0]
    w_p = f["p_h"] * cube[0, 1, 0]
    w_d = f["d_n"] * cube[0, 0, 1]
    grad = -2.0 * np.imag(gain * np.array([w_t, w_p, w_d]))

    c_tt = s["tt_m"] * cube[1, 0, 0] + s["tt_h"] * cube[0, 1, 0]
    c_tp = s["tp_h"] * cube[0, 1, 0]
    c_pp = s["pp_h"] * cube[0, 1, 0]
    q_tt = (f["t_m"] ** 2 * cube[2, 0, 0]
            + 2.0 * f["t_m"] * f["t_h"] * cube[1, 1, 0]
            + f["t_h"] ** 2 * cube[0, 2, 0])
    q_tp = f["t_m"] * f["p_h"] * cube[1, 1, 0] + f["t_h"] * f["p_h"] * cube[0, 2, 0]
    q_td = f["d_n"] * (f["t_m"] * cube[1, 0, 1] + f["t_h"] * cube[0, 1, 1])
    q_pp = f["p_h"] ** 2 * cube[0, 2, 0]
    q_pd = f["p_h"] * f["d_n"] * cube[0, 1, 1]
    q_dd = f["d_n"] ** 2 * cube[0, 0, 2]

    hess = np.empty((3, 3))
    hess[0, 0] = 2.0 * (gain * (1j * c_tt - q_tt)).real
    hess[0, 1] = hess[1, 0] = 2.0 * (gain * (1j * c_tp - q_tp)).real
    hess[0, 2] = hess[2, 0] = -2.0 * (gain * q_td).real
    hess[1, 1] = 2.0 * (gain * (1j * c_pp - q_pp)).real
    hess[1, 2] = hess[2, 1] = -2.0 * (gain * q_pd).real
    hess[2, 2] = -2.0 * (gain * q_dd).real
    return grad, hess


def objective_derivatives(y_r: np.ndarray, gain: complex, theta: float,
                          phi: float, tau: float, cfg: SystemConfig):
    """Value, gradient, and 3x3 Hessian of the surrogate with respect to
    (theta, phi, tau), with the gain held fixed.

    Returns
    -------
    (S, grad, hess) : float, ndarray (3,), ndarray (3, 3)
    """
    y3 = np.ascontiguousarray(np.asarray(y_r).reshape(cfg.M_v, cfg.M_h, cfg.N))
    a_v, a_h = steering_factors(theta, phi, cfg)
    p_n = delay_vector(tau, cfg)
    cube = _kernels.moment_cube(y3, a_v, a_h, p_n)
    mn = cfg.M * cfg.N
    s_val = float(2.0 * (gain * cube[0, 0, 0]).real - abs(gain) ** 2 * mn)
    grad, hess = _grad_hess_from_cube(cube, gain, theta, phi, cfg)
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise FloatingPointError("non-finite derivatives")
    return s_val, grad, hess


_THETA_MAX = np.nextafter(math.pi / 2, 0.0)


def newton_refine(y_r: np.ndarray, gain: complex, theta: float, phi: float,
                  tau: float, cfg: SystemConfig):
    """One safeguarded Newton step on the single-atom surrogate.

    The step is computed on the log of the matched-gain surrogate (the
    projected power) in spatial-frequency coordinates u = sin(theta),
    w = cos(theta) sin(phi), tau, with the atom phase referenced at the index
    centroid. In those coordinates the surrogate is a product of translated
    Dirichlet kernels, so its log is concave across the entire main lobe of
    every axis and the Newton step stays an ascent step wherever the coarse
    detection can land; the raw angle-domain Hessian loses negative
    definiteness well inside a grid cell and would strand the refinement.
    The step is applied only when the Hessian is negative definite and the
    step strictly increases the matched-gain objective (equivalently the
    projected power); otherwise the parameters come back unchanged.

    Returns (theta', phi', tau', accepted).
    """
    y3 = np.ascontiguousarray(np.asarray(y_r).reshape(cfg.M_v, cfg.M_h, cfg.N))
    a_v, a_h = steering_factors(theta, phi, cfg)
    p_n = delay_vector(tau, cfg)
    cube = _kernels.moment_cube(
        y3, a_v, a_h, p_n,
        (cfg.M_v - 1) / 2.0, (cfg.M_h - 1) / 2.0, (cfg.N - 1) / 2.0)
    if not np.all(np.isfinite(cube)):
        raise FloatingPointError("non-finite derivatives")
    old_power = abs(cube[0, 0, 0]) ** 2
    if old_power <= 0.0:
        return theta, phi, tau, False
    kappa = TWO_PI * cfg.d_over_lambda
    omega = TWO_PI * cfg.delta_f
    scale = np.array([kappa, kappa, omega])
    c0 = cube[0, 0, 0]
    dc = 1j * scale * np.array([cube[1, 0, 0], cube[0, 1, 0], cube[0, 0, 1]])
    d2c = -np.outer(scale, scale) * np.array([
        [cube[2, 0, 0], cube[1, 1, 0], cube[1, 0, 1]],
        [cube[1, 1, 0], cube[0, 2, 0], cube[0, 1, 1]],
        [cube[1, 0, 1], cube[0, 1, 1], cube[0, 0, 2]],
    ])
    # log|c|^2: gradient 2 Re{conj(c) dc}/|c|^2, Hessian from the quotient rule
    grad_f = 2.0 * (np.conj(c0) * dc).real
    hess_f = 2.0 * ((np.conj(c0) * d2c).real + np.outer(dc, np.conj(dc)).real)
    grad = grad_f / old_power
    hess = hess_f / old_power - np.outer(grad, grad)
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise FloatingPointError("non-finite derivatives")
    if np.max(np.linalg.eigvalsh(hess)) >= 0.0:
        return theta, phi, tau, False
    step = np.linalg.solve(hess, grad)
    u = math.sin(theta)
    w = math.cos(theta) * math.sin(phi)
    # Backtrack if needed; interference from other paths can still dent the
    # surface even though the single-atom log surrogate is concave here.
    for damp in (1.0, 0.5, 0.25, 0.125):
        # the atom is periodic with period 2 in both spatial frequencies, so
        # wrap rather than clamp; the main lobe can straddle +-1 at endfire
        u_new = (u - damp * step[0] + 1.0) % 2.0 - 1.0
        w_new = (w - damp * step[1] + 1.0) % 2.0 - 1.0
        theta_new = float(min(max(math.asin(u_new), -math.pi / 2), _THETA_MAX))
        cos_t = math.cos(theta_new)
        s_phi = min(max(w_new / cos_t, -1.0), 1.0) if cos_t > 1e-12 else 0.0
        phi_new = float(min(max(math.asin(s_phi), -math.pi / 2), _THETA_MAX))
        tau_new = float((tau - damp * step[2]) % cfg.tau_max)
        a_v2, a_h2 = steering_factors(theta_new, phi_new, cfg)
        p_n2 = delay_vector(tau_new, cfg)
        new_power = abs(_atom_correlation(y3, a_v2, a_h2, p_n2)) ** 2
        if new_power > old_power:
            return theta_new, phi_new, tau_new, True
    return theta, phi, tau, False


# The Gram route is taken only while lam_min(G) > _GRAM_RCOND * lam_max(G),
# i.e. cond(A) < 1e4: forming G = A^H A squares the condition number, so at
# most 8 of the 16 digits are lost. Worse-conditioned atom sets go to lstsq
# on the materialized basis, whose rank rule (cond(A) up to about
# 1 / (MN eps)) is the one extraction's "degenerate" stop has always used.
_GRAM_RCOND = 1e-8


def _stack_factors(factors) -> tuple:
    """Per-atom (a_v, a_h, p_n) triples -> factor matrices of shapes
    (M_v, L), (M_h, L), (N, L)."""
    return tuple(np.stack(f, axis=1) for f in zip(*factors))


def path_factors(paths, cfg: SystemConfig) -> tuple:
    """Factor matrices (A_v, A_h, P) of the atoms of `paths`: the atom of
    paths[l] is A_v[:, l] (x) A_h[:, l] (x) P[:, l]."""
    return _stack_factors(
        (*steering_factors(p.theta, p.phi, cfg), delay_vector(p.tau, cfg))
        for p in paths)


def _atom_gram(a_v, a_h, p_n) -> np.ndarray:
    """A^H A of the atoms a_v[:, l] (x) a_h[:, l] (x) p_n[:, l]: the Hadamard
    product of the three factor Grams."""
    return (a_v.conj().T @ a_v) * (a_h.conj().T @ a_h) * (p_n.conj().T @ p_n)


def atom_sum(gains, a_v, a_h, p_n) -> np.ndarray:
    """A g = sum_l gains[l] a_v[:, l] (x) a_h[:, l] (x) p_n[:, l], flattened to
    length M_v*M_h*N, without forming any atom."""
    vh = (a_v * gains)[:, None, :] * a_h[None, :, :]
    return (vh.reshape(a_v.shape[0] * a_h.shape[0], len(gains)) @ p_n.T).ravel()


def fit_gains(y: np.ndarray, a_v, a_h, p_n):
    """Joint least-squares gains of the atoms a_v[:, l] (x) a_h[:, l] (x)
    p_n[:, l] (factor matrices as from `path_factors`) for the observation y.

    While the Gram G = A^H A is well conditioned (see _GRAM_RCOND), the gains
    solve G g = A^H y through the eigendecomposition of the L x L G, and
    A^H y comes from staged contractions, so no atom is formed. Otherwise the
    M_v*M_h*N x L basis is materialized and np.linalg.lstsq returns the
    minimum-norm gains and the rank.

    Returns (gains, rank).
    """
    count = a_v.shape[1]
    lam, vecs = np.linalg.eigh(_atom_gram(a_v, a_h, p_n))
    if lam[0] > _GRAM_RCOND * lam[-1]:
        m_v, m_h = a_v.shape[0], a_h.shape[0]
        z = (y.reshape(m_v * m_h, -1) @ p_n.conj()).reshape(m_v, m_h, count)
        rhs = np.einsum("vhl,hl,vl->l", z, a_h.conj(), a_v.conj())
        return vecs @ ((vecs.conj().T @ rhs) / lam), count
    basis = np.stack([_kernels.kron3(a_v[:, i], a_h[:, i], p_n[:, i])
                      for i in range(count)], axis=1)
    gains, _, rank, _ = np.linalg.lstsq(basis, y, rcond=None)
    return gains, int(rank)


class _Track:
    """Mutable per-path state while extraction runs; `factors` are the atom's
    (a_v, a_h, p_n) and `atom` their Kronecker product."""

    __slots__ = ("gain", "theta", "phi", "tau", "factors", "atom")

    def __init__(self, gain, theta, phi, tau):
        self.gain = gain
        self.theta = theta
        self.phi = phi
        self.tau = tau


def _refine_track(track: _Track, y_local: np.ndarray, cfg: SystemConfig,
                  newton_steps: int) -> None:
    """Refine one path against observation-plus-own-atom, then refit its gain."""
    th, ph, ta, g = track.theta, track.phi, track.tau, track.gain
    for _ in range(newton_steps):
        th, ph, ta, accepted = newton_refine(y_local, g, th, ph, ta, cfg)
        g = coarse_gain(y_local, th, ph, ta, cfg)
        if not accepted:
            break
    track.theta, track.phi, track.tau = th, ph, ta
    track.gain = g
    a_v, a_h = steering_factors(th, ph, cfg)
    track.factors = (a_v, a_h, delay_vector(ta, cfg))
    track.atom = _kernels.kron3(*track.factors)


def extract(y_ul: np.ndarray, cfg: SystemConfig, codebook: Codebook = None, *,
            max_paths: int = 32, refine_rounds: int = 3, newton_steps: int = 1,
            noise_variance: float = 1.0) -> ExtractionResult:
    """Detect, refine, and fit all significant paths in one snapshot.

    Parameters
    ----------
    y_ul : ndarray, shape (M*N,)
        Uplink sounding observation.
    cfg : SystemConfig
    codebook : Codebook, optional
        Prebuilt detection grids; built on demand otherwise.
    max_paths : int
        Hard iteration cap (4x the largest plausible path count by default).
    refine_rounds : int
        Cyclic refinement sweeps over all detected paths per iteration.
    newton_steps : int
        Safeguarded Newton steps per refinement visit.
    noise_variance : float
        Per-entry noise variance used by the stopping threshold.
    """
    y = np.asarray(y_ul, dtype=np.complex128)
    if y.size != cfg.M * cfg.N:
        raise ValueError("observation length does not match M*N")
    y = y.ravel()
    cb = codebook if codebook is not None else build_codebook(cfg)
    threshold = detection_threshold(cfg.M * cfg.N, cfg.P_fa, noise_variance)

    residual = y.copy()
    tracks = []
    norms = []
    iterations = 0
    stop_reason = "cap"

    for _ in range(max_paths):
        if stopping_statistic(residual, cfg) < threshold:
            stop_reason = "below_threshold"
            break
        iterations += 1
        theta, phi, tau, _ = omp_detect(residual, cb)
        gain = coarse_gain(residual, theta, phi, tau, cfg)
        new = _Track(gain, theta, phi, tau)
        _refine_track(new, residual, cfg, newton_steps)
        tracks.append(new)
        residual = residual - new.gain * new.atom

        for _ in range(refine_rounds):
            for track in tracks:
                y_local = residual + track.gain * track.atom
                _refine_track(track, y_local, cfg, newton_steps)
                residual = y_local - track.gain * track.atom

        factors = _stack_factors(t.factors for t in tracks)
        gains, rank = fit_gains(y, *factors)
        degenerate = rank < len(tracks)
        if degenerate:
            # drop the newest atom and refit the rest; a single unit-modulus
            # atom always has rank 1, so at least one track remains
            tracks.pop()
            factors = tuple(f[:, :-1] for f in factors)
            gains, _ = fit_gains(y, *factors)
        for t, g in zip(tracks, gains):
            t.gain = complex(g)
        residual = y - atom_sum(gains, *factors)
        norms.append(float(np.linalg.norm(residual)))
        if degenerate:
            stop_reason = "degenerate"
            break

    paths = tuple(DetectedPath(gain=t.gain, theta=t.theta, phi=t.phi, tau=t.tau)
                  for t in tracks)
    return ExtractionResult(paths=paths, residual=residual,
                            iterations=iterations, stop_reason=stop_reason,
                            residual_norms=tuple(norms))
