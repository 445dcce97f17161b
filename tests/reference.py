"""Slow references for the tests, one per concept, each built from
materialized atoms and plain numpy: every fast path in `fddrecon` is checked
against code that shares none of its shortcuts. pytest does not collect this
module, and it imports no function of `enomp`, `_kernels`, `mueval` or
`dltrain` (`test_one_home` checks both). `extract` restates NOMP's schedule
(Mamandipoor, Ramasamy and Madhow, "Newtonized orthogonal matching pursuit:
frequency estimation over the continuum", IEEE TSP 2016)."""

import math

import numpy as np

from fddrecon.enomp import DetectedPath

# the extraction schedule: at most 32 paths, 3 cyclic rounds per detection
MAX_PATHS, ROUNDS = 32, 3


def _factors(theta, phi, tau, cfg):
    """(a_v, a_h, p_n) = exp(j kappa m sin(theta)), exp(j kappa h cos(theta)
    sin(phi)) and exp(j 2 pi n delta_f tau), kappa = 2 pi d / lambda, each
    with a trailing antenna or subcarrier axis after the parameters' shape."""
    kappa = 2 * math.pi * cfg.d_over_lambda
    return (np.exp(1j * kappa * np.multiply.outer(np.sin(theta), np.arange(cfg.M_v))),
            np.exp(1j * kappa * np.multiply.outer(np.cos(theta) * np.sin(phi), np.arange(cfg.M_h))),
            np.exp(2j * math.pi * cfg.delta_f * np.multiply.outer(tau, np.arange(cfg.N))))


def basis(paths, cfg, downlink=False) -> np.ndarray:
    """The (M*N, L) matrix whose column l is the atom a_v (x) a_h (x) p_n of
    paths[l], entry (m M_h + h) N + n; on the downlink times its carrier
    phase exp(j 2 pi (f_dl - f_ul) tau)."""
    theta, phi, tau = (np.array([getattr(p, k) for p in paths], float)
                       for k in ("theta", "phi", "tau"))
    a_v, a_h, p_n = _factors(theta, phi, tau, cfg)
    atoms = (a_v[:, :, None, None] * a_h[:, None, :, None] * p_n[:, None, None, :]).reshape(
        len(tau), cfg.M * cfg.N)
    shift = np.exp(2j * math.pi * (cfg.f_dl - cfg.f_ul) * tau) if downlink else np.ones(len(tau))
    return (shift[:, None] * atoms).T


def channel(paths, cfg, downlink=False) -> np.ndarray:
    """The uplink channel sum_l g_ul a_l, or the downlink one of the g_dl."""
    gains = [p.g_dl if downlink else p.g_ul for p in paths]
    return basis(paths, cfg, downlink) @ np.array(gains, dtype=complex)


def fit(y, paths, cfg, downlink=False):
    """(gains, rank, margin): lstsq on the materialized basis, and how far,
    relative to lstsq's cutoff, the singular value nearest it lies."""
    a = basis(paths, cfg, downlink)
    gains, _, rank, s = np.linalg.lstsq(a, y, rcond=None)
    cutoff = s[0] * max(a.shape) * np.finfo(float).eps if len(s) else 1.0
    return gains, int(rank), float(np.min(np.abs(s / cutoff - 1.0), initial=math.inf))


def moment_cube(y3, a_v, a_h, p_n, c_v, c_h, c_n) -> np.ndarray:
    """W[a, b, c] = sum over (m, h, n) of conj(y3[m, h, n]) a_v[m] a_h[h]
    p_n[n] (m - c_v)^a (h - c_h)^b (n - c_n)^c, for a, b, c in 0..2."""
    v, h, n = (x * (np.arange(len(x)) - c) ** np.arange(3)[:, None]
               for x, c in ((a_v, c_v), (a_h, c_h), (p_n, c_n)))
    return np.einsum("mhn,am,bh,cn->abc", y3.conj(), v, h, n)


def statistic(y, cfg) -> float:
    """The stop statistic: the peak of |fftn(y)|^2 / (M N) over the
    critically sampled 3-D DFT grid."""
    return float(np.max(np.abs(np.fft.fftn(y.reshape(cfg.M_v, cfg.M_h, cfg.N))) ** 2)
                 / (cfg.M * cfg.N))


def detect(y, cb):
    """(theta, phi, tau, power, margin) of the codeword of `cb` with the
    largest |c^H y|^2 / (M N), from the whole match cube: the delay axis by a
    zero-padded FFT, each angle axis by the codebook's conjugated steering
    vectors; a tie goes to the lowest index. margin is the relative gap to
    the best codeword of another atom. Codewords of one atom tie to
    rounding: every azimuth at theta = -pi/2, and on an axis of one antenna
    every angle of equal spatial frequency on the other axis."""
    z = np.fft.fft(y.reshape(cb.M_v, cb.M_h, cb.N), n=len(cb.taus), axis=2)
    g1 = (cb.E_v @ z.reshape(cb.M_v, -1)).reshape(len(cb.thetas), cb.M_h, -1)
    power = np.abs(np.matmul(cb.E_h, g1)) ** 2 / (cb.M_v * cb.M_h * cb.N)
    i_t, i_p, i_d = np.unravel_index(int(np.argmax(power)), power.shape)
    best = power[i_t, i_p, i_d]
    u = np.sin(cb.thetas)[:, None] * (cb.M_v > 1)
    w = np.cos(cb.thetas)[:, None] * np.sin(cb.phis) * (cb.M_h > 1)
    power[(abs(u - u[i_t]) < 1e-12) & (abs(w - w[i_t, i_p]) < 1e-12), i_d] = 0.0
    return cb.thetas[i_t], cb.phis[i_p], cb.taus[i_d], best, 1.0 - power.max() / best


def visit(y, theta, phi, tau, cfg, paths, gains):
    """One Newton step at (theta, phi, tau) on log|r^H a|^2, r = y - sum_l
    gains[l] a(paths[l]) materialized, in u = sin(theta), w = cos(theta)
    sin(phi) and tau, from the moment cube at the index centres: taken if
    the Hessian is negative definite, halved up to three times until the
    power strictly rises. A flat axis, its gradient entry and Hessian row
    exactly 0 as on an axis of one entry, takes no step; the others take
    the step of their own Hessian block, if that is negative definite.
    Returns (theta', phi', tau', accepted, corr, cube, top, rise): corr =
    r^H a at the returned point, cube the start's moment cube, and the
    distances from a tie of the definiteness test, top = the largest over
    the largest magnitude eigenvalue of the block scaled to a unit
    diagonal, and of the strict-rise tests, the least |power ratio - 1|
    (+inf for an exact or untried test: near the peak rounding decides a
    step of about sqrt(eps) lobe widths)."""
    r = y - basis(paths, cfg) @ gains
    centres = ((cfg.M_v - 1) / 2.0, (cfg.M_h - 1) / 2.0, (cfg.N - 1) / 2.0)
    cube = moment_cube(r.reshape(cfg.M_v, cfg.M_h, cfg.N), *_factors(theta, phi, tau, cfg),
                       *centres)
    scale = np.array([2 * math.pi * cfg.d_over_lambda] * 2 + [2 * math.pi * cfg.delta_f])
    order = np.eye(3, dtype=int)  # the derivative orders of u, w and tau
    c0, power, top, rise = complex(cube[0, 0, 0]), abs(cube[0, 0, 0]) ** 2, math.inf, math.inf
    dc = 1j * scale * np.array([cube[tuple(a)] for a in order])
    d2c = -np.outer(scale, scale) * np.array([[cube[tuple(a + b)] for b in order] for a in order])
    if power > 0.0:
        grad = 2.0 * (np.conj(c0) * dc).real / power
        hess = (2.0 * ((np.conj(c0) * d2c).real + np.outer(dc, np.conj(dc)).real) / power
                - np.outer(grad, grad))
        live = (grad != 0.0) | hess.any(axis=1)
        block = hess[np.ix_(live, live)]
        diag = np.abs(np.diag(block))
        if live.any() and diag.all():  # else a live axis of zero curvature: refused
            lam = np.linalg.eigvalsh(block / np.sqrt(np.outer(diag, diag)))
            top = lam[-1] / np.max(np.abs(lam))
    if top >= 0.0:
        return theta, phi, tau, False, c0, cube, top, rise
    step = np.zeros(3)
    step[live] = np.linalg.solve(block, grad[live])
    u, w = math.sin(theta), math.cos(theta) * math.sin(phi)
    largest = np.nextafter(math.pi / 2, 0.0)
    # u and w fold into [-1, 1) and tau into [0, 1 / delta_f); "% p % p" as
    # x % p is p itself for a tiny negative x
    for damp in (1.0, 0.5, 0.25, 0.125):
        u_new = (u - damp * step[0] + 1.0) % 2.0 % 2.0 - 1.0
        w_new = (w - damp * step[1] + 1.0) % 2.0 % 2.0 - 1.0
        theta_new = float(min(max(math.asin(u_new), -math.pi / 2), largest))
        cos_t = math.cos(theta_new)
        s_phi = min(max(w_new / cos_t, -1.0), 1.0) if cos_t > 1e-12 else 0.0
        phi_new = float(min(max(math.asin(s_phi), -math.pi / 2), largest))
        tau_new = float(tau - damp * step[2]) % cfg.tau_max % cfg.tau_max
        atom = basis([DetectedPath(0j, theta_new, phi_new, tau_new)], cfg)[:, 0]
        corr = complex(np.vdot(r, atom))
        rise = min(rise, abs(abs(corr) ** 2 / power - 1.0))
        if abs(corr) ** 2 > power:
            return theta_new, phi_new, tau_new, True, corr, cube, top, rise
    return theta, phi, tau, False, c0, cube, top, rise


def extract(y, cfg, p_tx, cb):
    """(paths, iterations, stop reason, margin) from `statistic`, `detect`,
    `visit` and `fit` alone. While the residual's statistic reaches the CFAR
    threshold: detect a path, visit it and then every path for ROUNDS
    rounds, each setting its gain to r^H a / (M N), and refit all gains; a
    rank-deficient fit drops the new path and stops ("degenerate"). Gains
    are divided by sqrt(p_tx); margin is the least distance from a tie of
    a stop test, a detection, a definiteness test or a rank."""
    mn = cfg.M * cfg.N
    threshold = math.log(mn) - math.log(-math.log1p(-cfg.P_fa))
    tracks, gains, residual = [], np.zeros(0, complex), y
    stop, margin, iterations = "cap", math.inf, 0
    for _ in range(MAX_PATHS):
        stat = statistic(residual, cfg)
        margin = min(margin, abs(stat - threshold) / threshold)
        if stat < threshold:
            stop = "below_threshold"
            break
        iterations += 1
        *found, _, m = detect(residual, cb)
        margin = min(margin, m)
        tracks.append(DetectedPath(0j, *map(float, found)))
        gains = np.append(gains, 0j)
        for k in [len(tracks) - 1] + list(range(len(tracks))) * ROUNDS:
            others = gains.copy()
            others[k] = 0.0
            t = tracks[k]
            th, ph, ta, _, corr, _, top, _ = visit(y, t.theta, t.phi, t.tau, cfg, tracks, others)
            tracks[k] = DetectedPath(0j, th, ph, ta)
            gains[k] = np.conj(corr) / mn
            margin = min(margin, abs(top))
        gains, rank, m = fit(y, tracks, cfg)
        margin = min(margin, m)
        if rank < len(tracks):
            tracks.pop()
            gains = fit(y, tracks, cfg)[0]
            stop = "degenerate"
            break
        residual = y - basis(tracks, cfg) @ gains
    paths = [DetectedPath(complex(g) / math.sqrt(p_tx), p.theta, p.phi, p.tau)
             for g, p in zip(gains, tracks)]
    return paths, iterations, stop, margin


def zf_sinr(h_true, h_hat, p_tx) -> np.ndarray:
    """(..., K) SINRs of the (..., K, M) true channels under the ZF
    precoders np.linalg.pinv(h_hat), each column scaled to power 1/K, with
    unit noise power."""
    pinv = np.linalg.pinv(h_hat)
    w = pinv / (math.sqrt(h_hat.shape[-2]) * np.linalg.norm(pinv, axis=-2, keepdims=True))
    powers = p_tx * np.abs(h_true @ w) ** 2
    signal = np.diagonal(powers, axis1=-2, axis2=-1)
    return signal / (powers.sum(axis=-1) - signal + 1.0)


def monte_carlo_sinr(h_true, deltas, p_tx, n_draws, seed):
    """((D, K) mean SINRs, (D,) largest condition number of the estimates)
    over n_draws estimates H + sqrt(delta) |H| (z_0 + j z_1) / sqrt(2), draw
    i taking z_i, the (2, K, M) standard normals that follow draw i - 1 in
    one stream from `seed`, each draw's ZF by `zf_sinr`."""
    z = np.random.default_rng(seed).standard_normal((n_draws, 2) + h_true.shape)
    errors = np.abs(h_true) * (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
    estimates = [h_true + math.sqrt(d) * errors for d in deltas]
    return (np.array([zf_sinr(h_true, h_hat, p_tx).mean(axis=0) for h_hat in estimates]),
            np.array([np.linalg.cond(h_hat).max() for h_hat in estimates]))
