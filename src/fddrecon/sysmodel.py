"""Frequency-flat multipath model for a UPA base station with OFDM sounding.

The physical model: an M_v x M_h uniform planar array observes L propagation
paths per user. Path angles (downtilt theta, azimuth phi) and delay tau are
frequency independent, so the same geometry serves both link directions; only
the per-path complex gains differ between uplink and downlink carriers.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

TWO_PI = 2.0 * math.pi


def check_integer(name: str, value, minimum: int) -> None:
    """Reject a config value that is not an integer >= ``minimum``; a bool
    is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")


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
    P: float = 1.0               # transmit power (linear; unit-variance noise)
    P_fa: float = 1e-2           # false-alarm rate for the detection stop rule
    beta_theta: int = 2          # downtilt codebook oversampling
    beta_phi: int = 2            # azimuth codebook oversampling
    beta_tau: int = 1            # delay codebook oversampling
    delta: float = 1e-2          # downlink gain-NMSE budget for scheduling
    pilot_spacing: int = 4       # downlink pilot comb spacing in subcarriers

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                check_integer(f.name, value, 1)
            elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite real number")
        for name in ("delta_f", "d_over_lambda", "P"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.P_fa < 1:
            raise ValueError("P_fa must lie in (0, 1)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")

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
    """One propagation path: complex gains per link direction plus geometry."""

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

    @property
    def K(self) -> int:
        return len(self.users)


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


def path_parameters(paths) -> tuple:
    """Arrays (thetas, phis, taus) of the geometry of ``paths``, any sequence
    of objects carrying theta/phi/tau attributes."""
    return tuple(np.array([getattr(p, name) for p in paths], dtype=np.float64)
                 for name in ("theta", "phi", "tau"))


def path_sum(paths, gains, cfg: SystemConfig, carrier_shift: bool = False) -> np.ndarray:
    """Stacked space-frequency channel of weighted paths, antenna-major.

    h = sum_l g_l * a_v(theta_l, phi_l) (x) a_h(theta_l, phi_l) (x) p(tau_l),
    length M * N; entry (m, n) sits at index m * N + n. With
    ``carrier_shift`` each gain is first rotated by :func:`carrier_phase`.
    """
    h = np.zeros(cfg.M * cfg.N, dtype=np.complex128)
    for p, g in zip(paths, gains):
        if carrier_shift:
            g = g * carrier_phase(p.tau, cfg)
        a_v, a_h = steering_factors(p.theta, p.phi, cfg)
        h += g * _kernels.kron3(a_v, a_h, delay_vector(p.tau, cfg))
    return h


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
    """Circular complex Gaussian noise, zero mean, unit variance per entry."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)


def sounding_observation(paths, cfg: SystemConfig, noise_seed) -> np.ndarray:
    """Uplink sounding snapshot: sqrt(P) times the channel plus unit-variance
    complex noise, so cfg.P is the transmit SNR against 0 dB attenuation.

    `noise_seed` may be an int or a numpy Generator; identical seeds give
    identical observations.
    """
    rng = np.random.default_rng(noise_seed)
    return math.sqrt(cfg.P) * uplink_channel(paths, cfg) + complex_noise(rng, cfg.M * cfg.N)


def mean_linear_attenuation(att_range_db=(-10.0, 0.0)) -> float:
    """E[10^(A/10)] for A uniform over the given dB range (closed form)."""
    lo, hi = att_range_db
    if hi < lo:
        raise ValueError("attenuation range must satisfy lo <= hi")
    if hi == lo:
        return 10.0 ** (hi / 10.0)
    c = math.log(10.0) / 10.0
    return (10.0 ** (hi / 10.0) - 10.0 ** (lo / 10.0)) / (c * (hi - lo))


def generate_scenario(K: int, L: int, cfg: SystemConfig, seed,
                      att_range_db=(-10.0, 0.0)) -> Scenario:
    """Draw a K-user, L-paths-per-user scenario.

    Per user: attenuation uniform in dB over `att_range_db`; per path: angles
    uniform over [-pi/2, pi/2), delay uniform over [0, 1/delta_f), and i.i.d.
    circular Gaussian gains on both links scaled so the mean total path power
    equals the drawn attenuation. Uplink and downlink gains are independent
    with equal variance.
    """
    if K < 1 or L < 1:
        raise ValueError("K and L must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = att_range_db
    users = []
    atts = []
    for _ in range(K):
        att_db = rng.uniform(lo, hi) if hi > lo else float(hi)
        atts.append(att_db)
        sigma2 = 10.0 ** (att_db / 10.0) / L  # per-path gain variance
        comps = []
        for _ in range(L):
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
            phi = rng.uniform(-math.pi / 2, math.pi / 2)
            tau = rng.uniform(0.0, cfg.tau_max)
            g_ul = complex(complex_noise(rng, 1)[0]) * math.sqrt(sigma2)
            g_dl = complex(complex_noise(rng, 1)[0]) * math.sqrt(sigma2)
            comps.append(PathComponent(g_ul=g_ul, g_dl=g_dl,
                                       theta=theta, phi=phi, tau=tau))
        users.append(tuple(comps))
    return Scenario(users=tuple(users), attenuation_db=tuple(atts))
