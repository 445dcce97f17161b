"""Frequency-flat multipath model for a UPA base station with OFDM sounding.

The physical model: an M_v x M_h uniform planar array observes L propagation
paths per user. Path angles (downtilt theta, azimuth phi) and delay tau are
frequency independent, so the same geometry serves both link directions; only
the per-path complex gains differ between uplink and downlink carriers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Receiver noise power, the variance per entry that `complex_noise` draws:
# every transmit power is an SNR against it.
NOISE_POWER = 1.0


def db_to_linear(name: str, db) -> float:
    """10^(db/10), the linear value of a level ``name`` in dB: every transmit
    SNR and attenuation. ValueError unless db is a real number (`check_real`'s
    type rule) in (-3000, 3000), where the value is positive and finite."""
    x = math.nan  # out of range too, unless db is a finite real
    with contextlib.suppress(ValueError):
        x = check_real(name, db)
    if not -3000 < x < 3000:
        raise ValueError(f"{name} must lie in (-3000, 3000) dB, got {db!r}")
    return 10.0 ** (x / 10.0)


def check_integer(name: str, value, minimum: int) -> int:
    """The int value of a count called ``name``: ValueError unless it is an
    integer >= ``minimum``. Numpy integers count; a bool is not one here."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")
    return int(value)


def check_real(name: str, value) -> float:
    """The float of a finite real number called ``name``, numpy reals too;
    ValueError for a bool, a string, a 0-d array or an int past float range."""
    try:  # the plain types first: the ABC test costs several times more
        if (not isinstance(value, bool) and isinstance(value, (int, float, numbers.Real))
                and math.isfinite(x := float(value))):
            return x
    except OverflowError:  # float() of a huge int
        pass
    raise ValueError(f"{name} must be a finite real number")


def check_positive(name: str, value) -> float:
    """The one finite-real > 0 rule: `check_real`'s float of ``value``, if > 0."""
    if (x := check_real(name, value)) <= 0:
        raise ValueError(f"{name} must be > 0")
    return x


@dataclass(frozen=True)
class SystemConfig:
    """Array, OFDM grid, and algorithm constants shared across the pipeline."""

    M_v: int = 8                 # vertical array elements
    M_h: int = 16                # horizontal array elements
    N: int = 256                 # OFDM subcarriers
    delta_f: float = 75e3        # subcarrier spacing [Hz]
    f_ul: float = 2.0e9          # uplink carrier [Hz]
    f_dl: float = 2.3e9          # downlink carrier [Hz]
    d_over_lambda: float = 0.5   # element spacing in wavelengths
    T_c: int = 200               # coherence budget in OFDM symbols
    P_fa: float = 1e-2           # false-alarm rate for the detection stop rule
    beta_theta: int = 2          # downtilt codebook oversampling
    beta_phi: int = 2            # azimuth codebook oversampling
    beta_tau: int = 1            # delay codebook oversampling
    pilot_spacing: int = 4       # downlink pilot comb spacing in subcarriers

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                value = check_integer(f.name, value, 1)
            else:
                positive = f.name in ("delta_f", "d_over_lambda")
                value = (check_positive if positive else check_real)(f.name, value)
            object.__setattr__(self, f.name, value)  # the int or float its check returns
        if not 0 < self.P_fa < 1:
            raise ValueError("P_fa must lie in (0, 1)")
        # finite fields can still overflow the carrier shift, a Newton scale (a
        # finite kappa^2 needs a finite slope kappa), the delay range or the
        # carrier phase over it (`carrier_phase`)
        kappa, omega = TWO_PI * self.d_over_lambda, TWO_PI * self.delta_f
        derived = (self.carrier_shift, kappa * kappa, omega * omega, self.tau_max,
                   TWO_PI * self.carrier_shift * self.tau_max)
        if not all(map(math.isfinite, derived)):
            raise ValueError("f_dl - f_ul, 2 pi d_over_lambda, 2 pi delta_f, their squares, "
                             "1 / delta_f and 2 pi (f_dl - f_ul) / delta_f must be finite")

    @property
    def M(self) -> int:
        """Total number of antenna elements."""
        return self.M_v * self.M_h

    @property
    def carrier_shift(self) -> float:
        """Downlink minus uplink carrier frequency [Hz]."""
        return self.f_dl - self.f_ul

    @property
    def tau_max(self) -> float:
        """One full unambiguous delay range [s]."""
        return 1.0 / self.delta_f


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: complex gains per link direction plus geometry.

    A component holds no config, so it checks only tau >= 0. The upper
    bound tau < 1/delta_f is checked where a config meets the path: every
    channel, factor and pilot builder raises ValueError naming tau."""

    g_ul: complex
    g_dl: complex
    theta: float   # downtilt, [-pi/2, pi/2)
    phi: float     # azimuth, [-pi/2, pi/2)
    tau: float     # delay [s], [0, 1/delta_f)

    def __post_init__(self):
        _check_range("theta", self.theta, -math.pi / 2, math.pi / 2)
        _check_range("phi", self.phi, -math.pi / 2, math.pi / 2)
        _check_range("tau", self.tau, 0.0, math.inf)


@dataclass(frozen=True)
class Scenario:
    """A multiuser drop: per-user path lists and the drawn attenuations."""

    users: tuple  # tuple of tuples of PathComponent
    attenuation_db: tuple  # per-user attenuation in dB (<= 0)


def _check_range(name: str, x, lo: float, hi: float) -> None:
    """Raise unless every entry of ``x`` lies in [lo, hi); NaN fails."""
    ok = (lo <= x) & (x < hi)
    # a Python float gives a plain bool, which needs no numpy reduction
    if ok is not True and not np.all(ok):
        raise ValueError(f"{name} out of [{lo!r}, {hi!r})")


@functools.lru_cache(maxsize=None)
def _indices(n: int) -> np.ndarray:
    """Read-only 0, 1, ..., n - 1, shared by every response of length n."""
    out = np.arange(n)
    out.flags.writeable = False
    return out


def steering_factors(theta, phi, cfg: SystemConfig):
    """Vertical and horizontal steering vectors whose Kronecker product is
    the full UPA response.

    Entry m of the vertical factor is exp(j 2 pi m (d/lambda) sin(theta));
    entry m of the horizontal factor is
    exp(j 2 pi m (d/lambda) cos(theta) sin(phi)). Both start at 1.

    ``theta`` and ``phi`` may be floats or arrays: the vertical factor has
    the shape of ``theta`` plus a trailing M_v axis, the horizontal factor
    the broadcast shape of ``theta`` and ``phi`` plus a trailing M_h axis.
    Every entry equals the one a scalar call gives, bit for bit.
    """
    _check_range("theta", theta, -math.pi / 2, math.pi / 2)
    _check_range("phi", phi, -math.pi / 2, math.pi / 2)
    kappa = TWO_PI * cfg.d_over_lambda
    a_v = np.exp(np.multiply.outer(1j * kappa * np.sin(theta), _indices(cfg.M_v)))
    a_h = np.exp(np.multiply.outer(1j * kappa * np.cos(theta) * np.sin(phi), _indices(cfg.M_h)))
    return a_v, a_h


def steering_vector(theta, phi, cfg: SystemConfig) -> np.ndarray:
    """Full UPA steering vector of length M = M_v * M_h (vertical-major).

    ``theta`` and ``phi`` (radians, in [-pi/2, pi/2)) may be floats or
    arrays; the result has their broadcast shape plus a trailing M axis.
    Entries have unit modulus, and the first is exactly 1.
    """
    a_v, a_h = steering_factors(theta, phi, cfg)
    a = a_v[..., :, None] * a_h[..., None, :]
    return a.reshape(a.shape[:-2] + (cfg.M,))


def delay_vector(tau, cfg: SystemConfig) -> np.ndarray:
    """Frequency response of a pure delay across the N subcarriers.

    Entry n is exp(j 2 pi n delta_f tau), so the first entry is 1. An array
    ``tau`` gives one response per entry along a trailing N axis.
    """
    _check_range("tau", tau, 0.0, cfg.tau_max)
    return np.exp(np.multiply.outer(1j * TWO_PI * cfg.delta_f * tau, _indices(cfg.N)))


def carrier_phase(tau, cfg: SystemConfig):
    """Carrier-shift phase exp(j 2 pi (f_dl - f_ul) tau) of a path with delay
    ``tau`` (float or array), which moves uplink geometry to the downlink
    carrier."""
    _check_range("tau", tau, 0.0, cfg.tau_max)
    return np.exp(1j * TWO_PI * cfg.carrier_shift * tau)


def atom_factors(theta: float, phi: float, tau: float, cfg: SystemConfig) -> tuple:
    """Factors (a_v, a_h, p_n) of the one atom at (theta, phi, tau): the
    scalar twin of `path_factors`, whose atom is a_v (x) a_h (x) p_n."""
    return (*steering_factors(theta, phi, cfg), delay_vector(tau, cfg))


def path_parameters(paths) -> tuple:
    """Arrays (thetas, phis, taus) of the geometry of ``paths``, any sequence
    of objects carrying theta/phi/tau attributes."""
    return tuple(np.array([getattr(p, name) for p in paths], dtype=np.float64)
                 for name in ("theta", "phi", "tau"))


def path_factors(paths, cfg: SystemConfig) -> tuple:
    """Factor matrices (A_v, A_h, P) of the atoms of `paths`: the atom of
    paths[l] is A_v[:, l] (x) A_h[:, l] (x) P[:, l]."""
    thetas, phis, taus = path_parameters(paths)
    a_v, a_h = steering_factors(thetas, phis, cfg)
    return a_v.T, a_h.T, delay_vector(taus, cfg).T


def atom_sum(gains, a_v, a_h, p_n) -> np.ndarray:
    """A g = sum_l gains[l] a_v[:, l] (x) a_h[:, l] (x) p_n[:, l], flattened to
    length M_v*M_h*N, without forming any atom."""
    vh = (a_v * gains)[:, None, :] * a_h[None, :, :]
    return (vh.reshape(a_v.shape[0] * a_h.shape[0], len(gains)) @ p_n.T).ravel()


def atom_basis(a_v, a_h, p_n) -> np.ndarray:
    """The (M_v*M_h*N, L) matrix A whose column l is the atom a_v[:, l] (x)
    a_h[:, l] (x) p_n[:, l], each entry multiplied in `_kernels.kron3`'s
    order, so every column equals `kron3` of the factor columns bit for bit."""
    vh = a_v[:, None, :] * a_h[None, :, :]
    return (vh.reshape(-1, 1, a_v.shape[1]) * p_n[None, :, :]).reshape(-1, a_v.shape[1])


def atom_gram(a_v, a_h, p_n) -> np.ndarray:
    """A^H A of the atoms a_v[:, l] (x) a_h[:, l] (x) p_n[:, l]: the Hadamard
    product of the three factor Grams."""
    return (a_v.conj().T @ a_v) * (a_h.conj().T @ a_h) * (p_n.conj().T @ p_n)


def gram_eigvals(gram: np.ndarray, n_rows: int):
    """Ascending eigenvalues of a (..., n, n) stack of Hermitian Grams A^H A,
    each A with ``n_rows`` rows, and the per-Gram full-rank mask: n_rows >= n
    and lam_min > lam_max * max(n, n_rows) * eps, which rejects cond(A) above
    about 1 / sqrt(max(n, n_rows) eps), 6e6 at 128 rows. ZF and the gain-NMSE
    predictor both apply this one rule.
    """
    lam = np.linalg.eigvalsh(gram)
    n = gram.shape[-1]
    tol = lam[..., -1] * max(n, n_rows) * np.finfo(np.float64).eps
    return lam, (lam[..., 0] > tol) & (n_rows >= n)


# certify_full_rank passes a Gram G when ||X||_F tr(G) c m eps < 1, with X the
# computed inverse, m = max(n, n_rows) and c = _CERTIFY_MARGIN. Write t = tr(G)
# and u = eps. G is a computed Gram: within about m u t of a PSD matrix, and
# its lower triangle, the Hermitian matrix Gl that eigvalsh reads, within about
# 2 m u t of G. Higham (Accuracy and Stability of Numerical Algorithms, 2002,
# sec. 14.3) bounds the residual of an LU-based inverse by
# ||X G - I|| <= p1 u ||X|| ||G||, p1 a small multiple of n^2 times the
# pivoting growth; with ||G|| <= t that is below p1 / (c m) <= 1/4 when
# p1 <= 250 m, so sigma_min(G) >= 0.75 / ||X||_F > 0.75 c m u t. Then
# sigma_min(Gl) > (0.75 c - 2) m u t, far more than the 3 m u t by which Gl can
# fall below a PSD matrix, so Gl is positive definite and lam_max(Gl) <= t
# (Gl has G's real diagonal). eigvalsh's
# backward error moves each eigenvalue by at most p2 u t, p2 a small multiple
# of n, so the computed lam_min > (0.75 c - 2) m u t - p2 u t exceeds the
# mask's lam_max m u <= (1 + p2 u) m u t whenever p2 < 700 m. c = 1e3 leaves
# p1 up to 250 m and p2 up to 700 m, far above their sizes for the n <= 16
# users here, and at m = 128 still passes every Gram of cond(G) below
# 3.5e10 / n^1.5 (1e9 at n = 10); it passes none above 3.5e10.
_CERTIFY_MARGIN = 1e3


def certify_full_rank(gram: np.ndarray, gram_inv: np.ndarray, n_rows: int) -> np.ndarray:
    """Per-Gram mask, from the computed inverse of a stack of Grams as in
    `gram_eigvals`, that is True only where `gram_eigvals`' mask is True:
    n_rows >= n, G finite and 0 < ||G^-1||_F tr(G) c max(n, n_rows) eps < 1
    (see _CERTIFY_MARGIN). False decides nothing: the Gram may still be full
    rank, and only `gram_eigvals` can tell.
    """
    n = gram.shape[-1]
    flat = gram_inv.reshape(gram_inv.shape[:-2] + (n * n,))
    # overflow or NaN in these sums leaves the bound non-finite, so it fails
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(gram.sum(axis=(-2, -1)))  # a finite sum has finite terms
        bound = (np.sqrt(np.vecdot(flat, flat).real) * np.trace(gram, axis1=-2, axis2=-1).real
                 * (_CERTIFY_MARGIN * max(n, n_rows) * np.finfo(np.float64).eps))
    return finite & (bound > 0) & (bound < 1) & (n_rows >= n)


# The Gram route is taken only while lam_min(G) > _GRAM_RCOND * lam_max(G),
# i.e. cond(A) < 1e4: forming G = A^H A squares the condition number, so at
# most 8 of the 16 digits are lost. Worse-conditioned atom sets go to lstsq
# on the materialized basis, whose rank rule (cond(A) up to about
# 1 / (rows eps)) is the one extraction's "degenerate" stop has always used.
_GRAM_RCOND = 1e-8


def fit_gains(y: np.ndarray, a_v, a_h, p_n):
    """Joint least-squares gains of the atoms a_v[:, l] (x) a_h[:, l] (x)
    p_n[:, l] for the observation y, laid out like `atom_sum`'s output.

    While the Gram G = A^H A is well conditioned (see _GRAM_RCOND), the gains
    solve G g = A^H y through the eigendecomposition of the L x L G, and
    A^H y comes from staged contractions, so no atom is formed. Otherwise
    `atom_basis` is materialized and np.linalg.lstsq returns the
    minimum-norm gains and the rank.

    Returns (gains, rank); no atoms give (zeros(0), 0).
    """
    count = a_v.shape[1]
    if count == 0:
        return np.zeros(0, dtype=complex), 0
    lam, vecs = np.linalg.eigh(atom_gram(a_v, a_h, p_n))
    if lam[0] > _GRAM_RCOND * lam[-1]:
        m_v, m_h = a_v.shape[0], a_h.shape[0]
        z = (y.reshape(m_v * m_h, -1) @ p_n.conj()).reshape(m_v, m_h, count)
        rhs = np.einsum("vhl,hl,vl->l", z, a_h.conj(), a_v.conj())
        return vecs @ ((vecs.conj().T @ rhs) / lam), count
    gains, _, rank, _ = np.linalg.lstsq(atom_basis(a_v, a_h, p_n), y, rcond=None)
    return gains, int(rank)


def path_sum(paths, gains, cfg: SystemConfig, carrier_shift: bool = False) -> np.ndarray:
    """Stacked space-frequency channel of weighted paths, antenna-major.

    h = sum_l g_l * a_v(theta_l, phi_l) (x) a_h(theta_l, phi_l) (x) p(tau_l),
    length M * N; entry (m, n) sits at index m * N + n. With
    ``carrier_shift`` each gain is first rotated by :func:`carrier_phase`.
    """
    if carrier_shift:
        gains = gains * carrier_phase(path_parameters(paths)[2], cfg)
    return atom_sum(gains, *path_factors(paths, cfg))


def uplink_channel(paths, cfg: SystemConfig) -> np.ndarray:
    """Stacked space-frequency uplink channel: :func:`path_sum` of the
    uplink gains."""
    return path_sum(paths, [p.g_ul for p in paths], cfg)


def downlink_channel(paths, cfg: SystemConfig) -> np.ndarray:
    """Stacked downlink channel (row-vector layout, returned 1-D).

    Identical geometry to the uplink, downlink gains, and each path rotated
    by exp(j 2 pi (f_dl - f_ul) tau_l) for the carrier shift.
    """
    return path_sum(paths, [p.g_dl for p in paths], cfg, carrier_shift=True)


def complex_noise(rng: np.random.Generator, size: int) -> np.ndarray:
    """Circular complex Gaussian noise, zero mean, variance `NOISE_POWER` per entry."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)


def observation(channel: np.ndarray, p_tx: float, noise: np.ndarray) -> np.ndarray:
    """sqrt(p_tx) times the channel plus the noise: every noisy observation
    of a channel, uplink sounding and downlink pilots alike. A caller that
    sounds one channel at several powers draws its noise once. ValueError
    unless p_tx is a finite real > 0 (`check_positive`) and the noise is a
    scalar or has the channel's shape."""
    p_tx = check_positive("p_tx", p_tx)
    if np.shape(noise) not in ((), np.shape(channel)):
        raise ValueError(f"noise shape {np.shape(noise)} is neither a scalar's nor the"
                         f" channel's {np.shape(channel)}")
    return math.sqrt(p_tx) * channel + noise


def sounding_observation(paths, cfg: SystemConfig, p_tx: float, noise_seed) -> np.ndarray:
    """Uplink sounding snapshot: the `observation` of the uplink channel
    with `complex_noise` from `noise_seed`, an int or a numpy Generator, so
    p_tx is the linear transmit SNR against 0 dB attenuation. ValueError
    unless p_tx is a finite real > 0 (`check_positive`)."""
    noise = complex_noise(np.random.default_rng(noise_seed), cfg.M * cfg.N)
    return observation(uplink_channel(paths, cfg), p_tx, noise)


def _attenuation_range(name: str, pair) -> tuple:
    """The (lo, hi) pair of an attenuation range in dB, called ``name`` in
    errors: the one range rule, for the config and the model alike.
    ValueError unless it has two entries, both lie in (-3000, 3000) dB
    (`db_to_linear`), and lo <= hi. The pair is returned as floats."""
    if len(pair) == 2:
        for db in pair:
            db_to_linear(name, db)
    if len(pair) != 2 or not pair[0] <= pair[1]:
        raise ValueError(f"{name} must be a [lo, hi] pair with lo <= hi")
    return float(pair[0]), float(pair[1])


def mean_linear_attenuation(att_range_db) -> float:
    """E[10^(A/10)] for A uniform over the given dB range: 10^(hi/10)
    (1 - e^-x) / x with x = (hi - lo) ln(10) / 10, by expm1, so that neither
    a narrow range cancels nor a wide one overflows."""
    lo, hi = _attenuation_range("att_range_db", att_range_db)
    top = db_to_linear("att_range_db", hi)
    if hi == lo:
        return top
    x = math.log(10.0) / 10.0 * (hi - lo)
    return top * -math.expm1(-x) / x


def generate_scenario(K: int, L: int, cfg: SystemConfig, seed,
                      att_range_db=(-10.0, 0.0)) -> Scenario:
    """Draw a K-user, L-paths-per-user scenario.

    Per user: attenuation uniform in dB over `att_range_db`; per path: angles
    uniform over [-pi/2, pi/2), delay uniform over [0, 1/delta_f), and i.i.d.
    circular Gaussian gains on both links scaled so the mean total path power
    equals the drawn attenuation. Uplink and downlink gains are independent
    with equal variance. ValueError unless `att_range_db` passes
    `_attenuation_range` and K and L are integers >= 1.
    """
    K, L = check_integer("K", K, 1), check_integer("L", L, 1)
    lo, hi = _attenuation_range("att_range_db", att_range_db)
    rng = np.random.default_rng(seed)
    users, atts = [], []
    for _ in range(K):
        att_db = rng.uniform(lo, hi) if hi > lo else hi
        atts.append(att_db)
        sigma2 = db_to_linear("att_range_db", att_db) / L  # per-path gain variance
        comps = []
        for _ in range(L):
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
            phi = rng.uniform(-math.pi / 2, math.pi / 2)
            tau = rng.uniform(0.0, cfg.tau_max)
            g_ul = complex(complex_noise(rng, 1)[0]) * math.sqrt(sigma2)
            g_dl = complex(complex_noise(rng, 1)[0]) * math.sqrt(sigma2)
            comps.append(PathComponent(g_ul=g_ul, g_dl=g_dl, theta=theta, phi=phi, tau=tau))
        users.append(tuple(comps))
    return Scenario(users=tuple(users), attenuation_db=tuple(atts))
