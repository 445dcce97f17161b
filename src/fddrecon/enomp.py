"""Greedy multipath extraction from one uplink sounding snapshot.

Pipeline per detected path: coarse detection on an oversampled
angle-angle-delay codebook via matched filtering, a safeguarded Newton step
on the continuous parameters, cyclic re-refinement of all paths found so
far, and a joint least-squares gain update (`sysmodel.fit_gains`, on the
L x L Gram of the separable atoms). Detection stops when the largest projected
power of the residual drops below a constant false-alarm threshold.

A refinement visit reads the fixed observation: the other paths' atoms are
taken off through their separable dot products with the visited atom, so the
residual is formed only once per detection, after the gain fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, sysmodel
from .sysmodel import TWO_PI, SystemConfig, atom_factors, atom_sum, steering_factors

# Constants of the extraction schedule. The cap is 4x the largest plausible
# path count; every detection is followed by _REFINE_ROUNDS cyclic sweeps
# over all paths found so far, each visit taking one safeguarded Newton
# step.
_MAX_PATHS = 32
_REFINE_ROUNDS = 3


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


@dataclass(frozen=True)
class DetectedPath:
    gain: complex
    theta: float
    phi: float
    tau: float


@dataclass(frozen=True)
class ExtractionResult:
    paths: tuple            # tuple of DetectedPath, gains on the channel scale
    residual: np.ndarray    # observation minus all reconstructed atoms, in observation units
    stop_reason: str        # "below_threshold" | "cap" | "degenerate"
    residual_norms: tuple   # ||residual|| after each completed iteration

    @property
    def iterations(self) -> int:
        """Completed iterations: each leaves one residual norm."""
        return len(self.residual_norms)


def build_codebook(cfg: SystemConfig) -> Codebook:
    """Detection grids: angles start at -pi/2 with step pi/(beta*M_axis),
    delays start at 0 with step 1/(beta_tau*N*delta_f)."""
    g_t = cfg.beta_theta * cfg.M_v
    g_p = cfg.beta_phi * cfg.M_h
    g_d = cfg.beta_tau * cfg.N
    thetas = -math.pi / 2 + np.arange(g_t) * math.pi / g_t
    phis = -math.pi / 2 + np.arange(g_p) * math.pi / g_p
    taus = np.arange(g_d) / (g_d * cfg.delta_f)
    a_v, a_h = steering_factors(thetas[:, None], phis[None, :], cfg)
    return Codebook(thetas=thetas, phis=phis, taus=taus, E_v=a_v[:, 0].conj(), E_h=a_h.conj(),
                    M_v=cfg.M_v, M_h=cfg.M_h, N=cfg.N)


def synth_atom(theta: float, phi: float, tau: float, cfg: SystemConfig) -> np.ndarray:
    """Unit-modulus codeword a(theta, phi) (x) p(tau), length M*N."""
    return _kernels.kron3(*atom_factors(theta, phi, tau, cfg))


def _delay_row(y3: np.ndarray, p_n) -> np.ndarray:
    """The delay sum y2 @ conj(p_n) over the (M_v*M_h, N) view y2 of y3:
    the first stage of `_atom_correlation`, and bit for bit the first delay
    sum `_kernels.moment_cube` forms for the same p_n."""
    return y3.reshape(-1, y3.shape[2]) @ p_n.conj()


def _row_correlation(row: np.ndarray, a_v, a_h) -> complex:
    """y^H c for the separable atom from its delay row (`_delay_row`): the
    two angle stages against the conjugated factors (c^H y), conjugated at
    the end so that y itself is never copied."""
    return complex(((row.reshape(len(a_v), len(a_h)) @ a_h.conj()) @ a_v.conj()).conjugate())


def _atom_correlation(y3: np.ndarray, a_v, a_h, p_n) -> complex:
    """y^H c for the separable atom, via staged contractions of y."""
    return _row_correlation(_delay_row(y3, p_n), a_v, a_h)


def detection_threshold(mn: int, p_fa: float) -> float:
    """Projected-power stop level: ln(MN) - ln(-ln(1 - P_fa)), scaled by the
    noise power `sysmodel.NOISE_POWER`, read at each call."""
    if not 0 < p_fa < 1:
        raise ValueError("p_fa must lie in (0, 1)")
    return sysmodel.NOISE_POWER * (math.log(mn) - math.log(-math.log1p(-p_fa)))


def delay_transform(y_r: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """The (M_v, M_h, N) delay FFT of y, `np.fft.fft` along the subcarrier
    axis: the first stage of both the stopping statistic and detection, so
    an extraction iteration computes it once and passes it to both."""
    return np.fft.fft(np.asarray(y_r).reshape(cfg.M_v, cfg.M_h, cfg.N), axis=2)


def _angle_peak_power(z: np.ndarray, cfg: SystemConfig) -> float:
    """Peak of |spectrum|^2 / (M N) over the two angle FFTs of z, an
    (M_v, M_h, ...) slice of a delay transform: azimuth, then downtilt, the
    stages `np.fft.fftn` runs in that order, so each entry is fftn's bit for
    bit, on a single delay bin as on all of them."""
    # the peak magnitude squared: rounding is monotone, so this is the
    # largest entry of |spectrum|^2 without squaring the whole spectrum
    peak = float(np.max(np.abs(np.fft.fft(np.fft.fft(z, axis=1), axis=0))))
    return peak * peak / (cfg.M * cfg.N)


def stopping_statistic(z: np.ndarray, cfg: SystemConfig) -> float:
    """Largest projected power of the residual onto the critically sampled
    unit-norm 3-D DFT atoms, from its delay transform z
    (`delay_transform`): `_angle_peak_power` of the whole transform."""
    return _angle_peak_power(z, cfg)


def _bin_energy(z: np.ndarray) -> np.ndarray:
    """E_d = sum over (m, h) of |z[m, h, d]|^2 for each delay bin d of an
    (M_v, M_h, G) transform, from its float view: the antenna sum of squares
    runs down the contiguous rows, then each bin's two parts are added. One
    einsum, as `parts * parts` made a 512 KB temporary whose page faults
    cost more than the sum."""
    g = z.shape[2]
    parts = np.ascontiguousarray(z).view(np.float64).reshape(-1, 2 * g)
    return np.einsum("ij,ij->j", parts, parts).reshape(g, 2).sum(axis=1)


def _below_threshold(transform: np.ndarray, energy: np.ndarray, threshold: float,
                     cfg: SystemConfig) -> bool:
    """`stopping_statistic(transform, cfg) < threshold`, where `energy` is
    `_bin_energy(transform)`.

    The statistic is at least `_angle_peak_power` of any one delay bin,
    whose spectrum entries are the full transform's bit for bit; rounding
    is monotone, so a bin whose peak reaches the threshold decides "not
    below". The bin tried is the one of largest energy. Otherwise, as on
    the last, noise-only iteration of an extraction, and whenever an energy
    is not finite, the full statistic decides."""
    d = int(np.argmax(energy))  # NaN first: argmax returns a NaN bin if any
    if math.isfinite(energy[d]) and _angle_peak_power(transform[:, :, d], cfg) >= threshold:
        return False
    return stopping_statistic(transform, cfg) < threshold


# Pruned detection (`_rows_to_scan`) compares magnitudes with a slack of
# _PRUNE_SLACK times the largest bin bound. Each match and bound is exact to
# a few hundred ulps of that bound, so the slack covers every rounding with
# a margin of 1e4 or more. Below _PRUNE_FLOOR the largest bin energy falls
# back to the full scan: squares of entries under about 1e-154 lose bits to
# underflow, which the relative slack would not cover. Past 1/8 of the bins
# pruning saves little, and the full scan runs.
_PRUNE_SLACK = 1e-9
_PRUNE_FLOOR = 2.0 ** -600
_PRUNE_SHARE = 8


def _rows_to_scan(z: np.ndarray, cb: Codebook, energy: np.ndarray):
    """The downtilt rows of `omp_detect`'s scan that can hold its winner, in
    ascending order; every row where pruning cannot decide. `energy` is
    `_bin_energy(z)`.

    Every codeword's angle factors have unit modulus, so by Cauchy-Schwarz
    its match on delay bin d is at most B_d = sqrt(M E_d) (`_bin_energy`).
    The strongest bin's best match m lower-bounds the winner's, so only
    bins with B_d >= m can hold it. The rows are ranked on those bins, and
    a row whose best there falls short of the best row's cannot win or tie.
    Both tests keep a slack (`_PRUNE_SLACK`) for rounding. The downtilt
    stage runs on the strongest bin and on the surviving bins only; those
    values come from other products than the scan's, which can differ in
    the last bits, so they only select rows, and the scan computes every
    value it returns."""
    rows = range(len(cb.thetas))
    d = int(np.argmax(energy))  # NaN first: a NaN bin fails the range test
    if not _PRUNE_FLOOR <= energy[d] < math.inf:
        return rows
    bounds = np.sqrt((cb.M_v * cb.M_h) * energy)
    slack = _PRUNE_SLACK * bounds[d]
    strongest = np.max(np.abs(np.matmul(cb.E_h, (cb.E_v @ z[:, :, d])[:, :, None])))
    bins = np.flatnonzero(bounds >= strongest - slack)
    if len(bins) * _PRUNE_SHARE > len(cb.taus):
        return rows
    g1 = (cb.E_v @ z[:, :, bins].reshape(cb.M_v, -1)).reshape(len(cb.thetas), cb.M_h, -1)
    ranked = np.max(np.abs(np.matmul(cb.E_h, g1)), axis=(1, 2))
    return np.flatnonzero(ranked >= np.max(ranked) - slack).tolist()


def _downtilt_stage(z: np.ndarray, cb: Codebook, rows) -> np.ndarray:
    """The downtilt stage E_v @ z of detection on the ascending `rows`: a
    (G, M_h, G_tau) stack whose first len(rows) entries are those rows of
    the full product (G_theta, M_h, G_tau) bit for bit.

    Where `rows` is every row, this is the full product. Otherwise it is
    one product of at least two rows of E_v, a single row taking a
    neighbour along: a block of two or more rows goes to BLAS gemm, whose
    rows equal the full product's, where a single row would go to gemv,
    which rounds differently."""
    e_v = cb.E_v
    if len(rows) < len(e_v):
        e_v = e_v[rows if len(rows) > 1 else [rows[0], rows[0] - 1 if rows[0] else 1]]
    return (e_v @ z.reshape(cb.M_v, -1)).reshape(len(e_v), cb.M_h, -1)


def omp_detect(y_r: np.ndarray, codebook: Codebook, transform: np.ndarray,
               energy: np.ndarray):
    """Best codebook entry for the residual.

    Returns (theta, phi, tau, projected power) where the projected power is
    |c^H y|^2 / ||c||^2; ties resolve to the lowest (theta, phi, tau) grid
    index. Identical by construction to an exhaustive codeword scan.

    The azimuth stage runs one downtilt row at a time, a (G_phi, G_tau)
    block with a running maximum, so the whole match cube is never held.
    A row is ranked by magnitude and only its winner is squared and scaled:
    rounding is monotone, so the winner is the one the squared row gives
    wherever distinct magnitudes keep distinct powers, as they do whenever
    M*N is a power of two and no power underflows. Only the rows that
    `_rows_to_scan` keeps are scanned; the others cannot hold the winner,
    and the downtilt stage is formed on the kept rows only
    (`_downtilt_stage`).

    `transform` is `delay_transform(y_r, cfg)` and `energy` its
    `_bin_energy`; they serve when the delay grid is critically sampled
    (G_tau = N), and a finer grid makes its own zero-padded transform of y_r.
    """
    cb = codebook
    mn = cb.M_v * cb.M_h * cb.N
    g_tau = len(cb.taus)
    # delay axis: conj(p(tau_k))_n = exp(-2j pi n k / G_tau), a padded FFT
    z = transform
    if g_tau != cb.N:
        z = np.fft.fft(np.asarray(y_r).reshape(cb.M_v, cb.M_h, cb.N), n=g_tau, axis=2)
        energy = _bin_energy(z)
    rows = _rows_to_scan(z, cb, energy)
    best, best_at = -1.0, None
    for i_t, g_row in zip(rows, _downtilt_stage(z, cb, rows)):
        magnitude = np.abs(cb.E_h[i_t] @ g_row)
        flat = int(np.argmax(magnitude))
        peak = float(magnitude.flat[flat])
        power = peak * peak / mn
        # strictly greater: a later row that only ties keeps the lower index
        if best_at is None or power > best:
            best, best_at = power, (i_t, flat)
    i_t, flat = best_at
    i_p, i_d = divmod(flat, len(cb.taus))
    return float(cb.thetas[i_t]), float(cb.phis[i_p]), float(cb.taus[i_d]), best


def coarse_gain(y_r: np.ndarray, theta: float, phi: float, tau: float,
                cfg: SystemConfig) -> complex:
    """Least-squares gain of a single atom: c^H y / ||c||^2. The pipeline never
    calls it; the bench tracer wraps it, and `test_bench_hooks` checks that."""
    y3 = np.asarray(y_r).reshape(cfg.M_v, cfg.M_h, cfg.N)
    return np.conj(_atom_correlation(y3, *atom_factors(theta, phi, tau, cfg))) / (cfg.M * cfg.N)


def objective_S(y_r: np.ndarray, gain: complex, theta: float, phi: float,
                tau: float, cfg: SystemConfig) -> float:
    """Single-atom surrogate 2 Re{y^H g c} - ||g c||^2."""
    y3 = np.asarray(y_r).reshape(cfg.M_v, cfg.M_h, cfg.N)
    corr = _atom_correlation(y3, *atom_factors(theta, phi, tau, cfg))
    mn = cfg.M * cfg.N
    return float(2.0 * (gain * corr).real - abs(gain) ** 2 * mn)


def _derivative_scalars(cube: np.ndarray, cfg: SystemConfig):
    """The correlation c = y^H a of an atom and its gradient and Hessian in
    the spatial frequencies u = sin(theta), w = cos(theta) sin(phi) and the
    delay tau, read from the atom's moment cube (`_kernels.moment_cube`).

    The atom phase kappa*(m u + h w) + omega*n*tau is linear in (u, w, tau),
    so each derivative is a moment times i*kappa or i*omega per order. A cube
    with centred index weights gives c with its phase referenced at the
    centres: |c| is unchanged.

    Returns (c, dc, d2c) as Python scalars: complex, a 3-tuple and a
    symmetric 3x3 nested tuple.
    """
    kappa = TWO_PI * cfg.d_over_lambda
    omega = TWO_PI * cfg.delta_f
    scale = (kappa, kappa, omega)
    w = cube.ravel().tolist()  # w[9 a + 3 b + c] = cube[a, b, c]
    dc = tuple(1j * s * m for s, m in zip(scale, (w[9], w[3], w[1])))
    d2c = tuple(tuple(-(s * t) * m for t, m in zip(scale, row)) for s, row in zip(scale, (
        (w[18], w[12], w[10]),
        (w[12], w[6], w[4]),
        (w[10], w[4], w[2]),
    )))
    return w[0], dc, d2c


def objective_derivatives(y_r: np.ndarray, gain: complex, theta: float,
                          phi: float, tau: float, cfg: SystemConfig):
    """Value, gradient, and 3x3 Hessian of the surrogate with respect to
    (theta, phi, tau), with the gain held fixed.

    ||c||^2 = M*N for every parameter choice, so only 2 Re{gain c} varies;
    its derivatives are those of c in (u, w, tau) carried to the angles by
    the chain rule.

    Returns
    -------
    (S, grad, hess) : float, ndarray (3,), ndarray (3, 3)
    """
    y3 = np.ascontiguousarray(np.asarray(y_r).reshape(cfg.M_v, cfg.M_h, cfg.N))
    c, dc, d2c = _derivative_scalars(
        _kernels.moment_cube(y3, *atom_factors(theta, phi, tau, cfg), 0.0, 0.0, 0.0), cfg)
    dc, d2c = np.array(dc), np.array(d2c)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    # d(u, w, tau) / d(theta, phi, tau)
    jac = np.array([[ct, 0.0, 0.0], [-st * sp, ct * cp, 0.0], [0.0, 0.0, 1.0]])
    # u and w are curved in the angles: dc times their Hessians
    curv = dc[0] * np.diag([-st, 0.0, 0.0]) + dc[1] * np.array(
        [[-ct * sp, -st * cp, 0.0], [-st * cp, -ct * sp, 0.0], [0.0, 0.0, 0.0]])
    s_val = float(2.0 * (gain * c).real - abs(gain) ** 2 * (cfg.M * cfg.N))
    grad = 2.0 * (gain * (dc @ jac)).real
    hess = 2.0 * (gain * (jac.T @ d2c @ jac + curv)).real
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise FloatingPointError("non-finite derivatives")
    return s_val, grad, hess


_THETA_MAX = np.nextafter(math.pi / 2, 0.0)


def _wrap(x: float, period: float) -> float:
    """x folded into [0, period). Python's float modulo returns `period`
    itself for a tiny negative x (`-1e-30 % p == p`); that case folds to 0."""
    r = x % period
    return r if r < period else 0.0


def _atom_sum_correlation(others, a_v, a_h, p_n) -> complex:
    """(A g)^H a for the atom sum A g = sum_l g_l o_v[:, l] (x) o_h[:, l] (x)
    o_p[:, l], `others` = (g, o_v, o_h, o_p), and the atom a_v (x) a_h (x)
    p_n: conj(g . (a_v^H o_v)(a_h^H o_h)(p_n^H o_p)), O(L (M_v + M_h + N))."""
    gains, o_v, o_h, o_p = others
    return complex(np.conj(((a_v.conj() @ o_v) * (a_h.conj() @ o_h) * (p_n.conj() @ o_p))
                           @ gains))


def _atom_sum_cube(others, weights) -> np.ndarray:
    """`_kernels.moment_cube` of the atom sum A g (see `_atom_sum_correlation`)
    against an atom, from the atom's factors' `_kernels.index_weighted`
    columns `weights` (w_v, w_h, w_n): sum_l conj(g_l) V_l (x) H_l (x) P_l,
    where V_l = o_v[:, l]^H w_v and likewise H_l and P_l, each of shape
    (3,). The gains ride on V, and the sum over l is one (9, L) @ (L, 3)
    product, exact zeros for L = 0."""
    gains, o_v, o_h, o_p = others
    v, h, p = (w.conj().T @ o for w, o in zip(weights, (o_v, o_h, o_p)))
    vh = ((v * gains)[:, None, :] * h).reshape(9, len(gains))
    return (vh @ p.T).reshape(3, 3, 3).conj()


# the (row, column) pairs of the upper triangle of a symmetric 3x3 matrix
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _log_power_step(c, dc, d2c, power):
    """Newton step H^-1 g of log|c|^2 in (u, w, tau) from the correlation,
    its derivatives (`_derivative_scalars`) and power = |c|^2 > 0, or
    None unless the Hessian H is negative definite. Python scalars
    throughout: negative definiteness from the leading minors, the step from
    the cofactors. On an axis of one antenna (M_v = 1 or M_h = 1) the
    moments vanish exactly, so H is singular and the minors refuse: a
    refused step goes to `_flat_axes_step`."""
    cc = c.conjugate()
    # log|c|^2: gradient 2 Re{conj(c) dc}/|c|^2, Hessian from the quotient rule
    g = [2.0 * (cc * d).real / power for d in dc]
    h11, h12, h13, h22, h23, h33 = (
        2.0 * ((cc * d2c[i][j]).real + (dc[i] * dc[j].conjugate()).real) / power - g[i] * g[j]
        for i, j in _UPPER)
    if not all(map(math.isfinite, (*g, h11, h12, h13, h22, h23, h33))):
        raise FloatingPointError("non-finite derivatives")
    m2 = h11 * h22 - h12 * h12
    if not (h11 < 0.0 and m2 > 0.0):
        return _flat_axes_step(g, (h11, h12, h13, h22, h23, h33))
    c11 = h22 * h33 - h23 * h23
    c12 = h13 * h23 - h12 * h33
    c13 = h12 * h23 - h13 * h22
    det = h11 * c11 + h12 * c12 + h13 * c13
    if not det < 0.0:
        return _flat_axes_step(g, (h11, h12, h13, h22, h23, h33))
    c22 = h11 * h33 - h13 * h13
    c23 = h12 * h13 - h11 * h23
    return ((c11 * g[0] + c12 * g[1] + c13 * g[2]) / det,
            (c12 * g[0] + c22 * g[1] + c23 * g[2]) / det,
            (c13 * g[0] + c23 * g[1] + m2 * g[2]) / det)


def _flat_axes_step(g, upper):
    """The step of a refused `_log_power_step` (gradient g, Hessian upper
    triangle `upper` in `_UPPER` order): None unless an axis is flat, its
    gradient entry and Hessian row exactly 0 as on an axis of one entry.
    A flat axis gets a zero step and the others the Newton step of their
    own sub-block, or None unless that sub-block is negative definite."""
    h = [[0.0] * 3 for _ in range(3)]
    for (i, j), x in zip(_UPPER, upper):
        h[i][j] = h[j][i] = x
    live = [i for i in range(3) if g[i] != 0.0 or any(h[i])]
    step = [0.0, 0.0, 0.0]
    if len(live) == 1:
        (i,) = live
        if not h[i][i] < 0.0:
            return None
        step[i] = g[i] / h[i][i]
    elif len(live) == 2:
        i, j = live
        det = h[i][i] * h[j][j] - h[i][j] * h[i][j]
        if not (h[i][i] < 0.0 and det > 0.0):
            return None
        step[i] = (h[j][j] * g[i] - h[i][j] * g[j]) / det
        step[j] = (h[i][i] * g[j] - h[i][j] * g[i]) / det
    else:
        return None
    return tuple(step)


def newton_refine(y_r: np.ndarray, theta: float, phi: float, tau: float,
                  cfg: SystemConfig, others, factors, memo):
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

    `others` = (g, o_v, o_h, o_p) is the atom sum A g of the other tracks
    (factor matrices as from `sysmodel.path_factors`; L = 0 for none) to
    take off the observation first: the step is taken on y - A g, whose
    moment cube and correlations are those of y minus the separable ones of
    A g, so y - A g is never formed.

    `factors` = (a_v, a_h, p_n) are `sysmodel.atom_factors` at (theta, phi,
    tau), as an earlier call returned them.

    `memo` is a one-entry list that passes work on to the next visit on the
    same y from the factors this one returns, as a track's visits in
    `extract` run; a fresh one is [None]. The visit starts from what it
    holds and leaves its own there:
    - None: nothing kept; the visit forms its whole moment cube of y.
    - A delay row, left by an accepted step: `_delay_row` of y at the new
      p_n, the first of the next cube's three delay sums.
    - A (3, 3, 3) moment cube of y, left by a rejected visit: neither y nor
      the factors changed, so the next visit reuses it whole.

    Returns (theta', phi', tau', accepted, corr, factors) for the atom
    a = a_v (x) a_h (x) p_n at the returned parameters: corr = (y - A g)^H a
    and factors = (a_v, a_h, p_n), `sysmodel.atom_factors` there.
    """
    y3 = np.ascontiguousarray(np.asarray(y_r).reshape(cfg.M_v, cfg.M_h, cfg.N))
    a_v, a_h, p_n = factors
    centres = ((cfg.M_v - 1) / 2.0, (cfg.M_h - 1) / 2.0, (cfg.N - 1) / 2.0)
    # the index weights of the three factors, built once for both cubes
    # (positional: the bench tracer's cost hook takes no keywords)
    weights = tuple(map(_kernels.index_weighted, factors, centres))
    y_cube = memo[0]
    if y_cube is None or y_cube.ndim == 1:
        y_cube = _kernels.moment_cube(y3, a_v, a_h, p_n, *centres, weights, y_cube)
    cube = y_cube - _atom_sum_cube(others, weights)
    if not np.all(np.isfinite(cube)):
        raise FloatingPointError("non-finite derivatives")
    memo[0] = y_cube  # kept by a rejected visit
    c0, dc, d2c = _derivative_scalars(cube, cfg)
    try:
        old_power = abs(c0) ** 2
    except OverflowError:  # a Python float power raises on overflow
        raise FloatingPointError("non-finite correlation power") from None
    step = _log_power_step(c0, dc, d2c, old_power) if old_power > 0.0 else None
    if step is None:
        return theta, phi, tau, False, c0, factors
    u = math.sin(theta)
    w = math.cos(theta) * math.sin(phi)
    # Backtrack if needed; interference from other paths can still dent the
    # surface even though the single-atom log surrogate is concave here.
    for damp in (1.0, 0.5, 0.25, 0.125):
        # the atom is periodic with period 2 in both spatial frequencies, so
        # wrap rather than clamp; the main lobe can straddle +-1 at endfire.
        # One vertical antenna (a_v = [1]) sees no u: u = 0 reaches every w
        u_new = _wrap(u - damp * step[0] + 1.0, 2.0) - 1.0 if cfg.M_v > 1 else 0.0
        w_new = _wrap(w - damp * step[1] + 1.0, 2.0) - 1.0
        theta_new = float(min(max(math.asin(u_new), -math.pi / 2), _THETA_MAX))
        cos_t = math.cos(theta_new)
        s_phi = min(max(w_new / cos_t, -1.0), 1.0) if cos_t > 1e-12 else 0.0
        phi_new = float(min(max(math.asin(s_phi), -math.pi / 2), _THETA_MAX))
        tau_new = _wrap(float(tau - damp * step[2]), cfg.tau_max)
        a_v2, a_h2, p_n2 = atom = atom_factors(theta_new, phi_new, tau_new, cfg)
        row = _delay_row(y3, p_n2)
        corr = _row_correlation(row, a_v2, a_h2) - _atom_sum_correlation(others, *atom)
        if abs(corr) ** 2 > old_power:
            memo[0] = row
            return theta_new, phi_new, tau_new, True, corr, atom
    return theta, phi, tau, False, c0, factors


def _refine_track(k: int, y3: np.ndarray, params: list, gains: np.ndarray,
                  factors: tuple, memos: list, cfg: SystemConfig) -> None:
    """One Newton step for track k against the observation minus the other
    tracks' atoms, then the track's single-atom gain and factor columns, both
    as the step built them at the resulting point. `params`, `gains` and the
    factor matrices hold every track; k's entries are overwritten in place.
    The step starts from k's stored factor columns, `sysmodel.atom_factors`
    at k's parameters of its detection or of an earlier step, and from k's memo
    (`newton_refine`), which the step overwrites."""
    others = gains.copy()
    others[k] = 0.0
    atom = tuple(f[:, k] for f in factors)
    th, ph, ta, _, corr, atom = newton_refine(y3, *params[k], cfg, (others, *factors), atom,
                                              memos[k])
    params[k] = (th, ph, ta)
    gains[k] = np.conj(corr) / (cfg.M * cfg.N)
    for f, column in zip(factors, atom):
        f[:, k] = column


def _scale_by_power_of_two(x: np.ndarray, shift: int) -> None:
    """Multiply the contiguous complex128 array x by 2^shift in place,
    exactly unless an entry leaves the normal range."""
    parts = x.view(np.float64)
    np.ldexp(parts, shift, out=parts)


def extract(y_ul: np.ndarray, cfg: SystemConfig, p_tx: float,
            codebook: Codebook = None) -> ExtractionResult:
    """Detect, refine, and fit all significant paths in one snapshot.

    Parameters
    ----------
    y_ul : ndarray, shape (M*N,)
        Uplink sounding observation (`sysmodel.sounding_observation`).
    cfg : SystemConfig
    p_tx : float
        Sounding power: the fitted gains are divided by sqrt(p_tx), so every
        `DetectedPath.gain` is a channel gain; `residual` stays unscaled.
        ValueError unless it is a finite real number > 0.
    codebook : Codebook, optional
        Prebuilt detection grids; built on demand otherwise.
    """
    sysmodel.check_power(p_tx)
    y = np.array(y_ul, dtype=np.complex128)  # a copy, scaled in place below
    if y.size != cfg.M * cfg.N:
        raise ValueError("observation length does not match M*N")
    # Extraction is exactly invariant under y -> 2^shift y with the threshold
    # times 4^shift, so a y with an entry of 1 or more runs scaled down until
    # its largest entry is in [1/2, 1), where no projected power overflows. A
    # smaller y runs unscaled: none of its powers can overflow, and scaling
    # it up could overflow the threshold.
    shift = min(0, -math.frexp(float(np.max(np.abs(y), initial=0.0)))[1])
    y = y.ravel()
    _scale_by_power_of_two(y, shift)
    y3 = y.reshape(cfg.M_v, cfg.M_h, cfg.N)
    cb = codebook if codebook is not None else build_codebook(cfg)
    threshold = math.ldexp(detection_threshold(cfg.M * cfg.N, cfg.P_fa), 2 * shift)

    # per track: (theta, phi, tau), the gain, the factor columns of its
    # atom in (M_v, cap), (M_h, cap), (N, cap) matrices, and the memo its
    # visits pass on (`newton_refine`); a track's columns are written at its
    # detection, and its gain at its first visit
    params = []
    memos = []
    gains = np.zeros(_MAX_PATHS, dtype=complex)
    factors = tuple(np.zeros((m, _MAX_PATHS), dtype=complex, order="F")
                    for m in (cfg.M_v, cfg.M_h, cfg.N))
    residual = y
    norms = []
    stop_reason = "cap"

    for _ in range(_MAX_PATHS):
        # the delay transform and its bin energies, shared by the stop test
        # and detection
        z = delay_transform(residual, cfg)
        energy = _bin_energy(z)
        if _below_threshold(z, energy, threshold, cfg):
            stop_reason = "below_threshold"
            break
        theta, phi, tau = omp_detect(residual, cb, z, energy)[:3]
        del z  # not held through refinement: fig6's peak resident set
        params.append((theta, phi, tau))
        memos.append([None])
        count = len(params)
        view = tuple(f[:, :count] for f in factors)
        for f, column in zip(view, atom_factors(theta, phi, tau, cfg)):
            f[:, count - 1] = column
        # the new track first, then _REFINE_ROUNDS cyclic rounds over all
        for k in [count - 1] + list(range(count)) * _REFINE_ROUNDS:
            _refine_track(k, y3, params, gains[:count], view, memos, cfg)

        fitted, rank = sysmodel.fit_gains(y, *view)
        degenerate = rank < count
        if degenerate:
            # drop the newest atom and refit the rest; a single unit-modulus
            # atom always has rank 1, so at least one track remains
            params.pop()
            memos.pop()
            view = tuple(f[:, :-1] for f in view)
            fitted, _ = sysmodel.fit_gains(y, *view)
        gains[:len(fitted)] = fitted
        residual = y - atom_sum(fitted, *view)
        norms.append(float(np.linalg.norm(residual)))
        if degenerate:
            stop_reason = "degenerate"
            break

    for scaled in (gains, residual):
        _scale_by_power_of_two(scaled, -shift)
    paths = tuple(DetectedPath(gain=complex(g) / math.sqrt(p_tx), theta=th, phi=ph, tau=ta)
                  for g, (th, ph, ta) in zip(gains, params))
    return ExtractionResult(paths=paths, residual=residual, stop_reason=stop_reason,
                            residual_norms=tuple(np.ldexp(norms, -shift).tolist()))
