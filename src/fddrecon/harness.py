"""Seeded experiment orchestration and CSV result emission.

Each experiment sweeps one knob (transmit SNR or the accuracy target delta),
runs seeded Monte Carlo trials, and emits mean/standard-error rows per
metric.  Per-trial generators are derived from the master seed and the trial
index, so trials are independent of execution order and reruns with the same
config are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import dltrain, enomp, mueval, recon, sysmodel
from .sysmodel import SystemConfig, check_integer

EXPERIMENTS = ("fig4", "fig6", "theorem1")

_DEFAULT_TRIALS = {"fig4": 100, "fig6": 50, "theorem1": 3}
_DEFAULT_ATTENUATION = {"fig4": (0.0, 0.0), "fig6": (-10.0, 0.0), "theorem1": (-10.0, 0.0)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on, resolvable from YAML."""

    experiment: str
    system: SystemConfig = field(default_factory=SystemConfig)
    seed: int = 20240
    trials: int | None = None  # None means the per-experiment default
    snr_db: tuple = (0.0, 5.0, 10.0)
    deltas: tuple = (1e-3, 1e-2, 1e-1)
    users: int = 10
    paths_per_user: int = 6
    attenuation_db: tuple | None = None  # None means the per-experiment default
    covariance_draws: int = 10_000
    mc_draws: int = 10_000
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        if self.trials is None:
            object.__setattr__(self, "trials", _DEFAULT_TRIALS[self.experiment])
        if self.attenuation_db is None:
            object.__setattr__(self, "attenuation_db", _DEFAULT_ATTENUATION[self.experiment])
        check_integer("seed", self.seed, 0)
        for name in ("trials", "users", "paths_per_user", "covariance_draws", "mc_draws"):
            check_integer(name, getattr(self, name), 1)
        for name in ("snr_db", "deltas"):
            if not getattr(self, name):
                raise ValueError("sweep lists must be nonempty")
            values = tuple(float(v) for v in getattr(self, name))
            # rows are grouped by sweep value, so a repeat would merge two groups
            if not all(map(math.isfinite, values)) or len(set(values)) < len(values):
                raise ValueError(f"{name} values must be finite and distinct")
            object.__setattr__(self, name, values)
        if len(self.attenuation_db) != 2:
            raise ValueError("attenuation_db must be a [lo, hi] pair")
        object.__setattr__(self, "attenuation_db", tuple(float(a) for a in self.attenuation_db))


# SystemConfig fields that every subcommand sets itself, so a configured
# value would be silently ignored
_SET_BY_SUBCOMMAND = {
    "P": "fig4 sets it from snr_db, fig6 and theorem1 at 10 dB, extract from --snr-db",
    "delta": "fig6 sets it from deltas",
}


def check_config_keys(raw) -> None:
    """Reject a parsed YAML config whose root is not a mapping, that has
    unknown top-level or ``system`` keys, or that sets a ``system`` key the
    subcommands override.  Every CLI subcommand applies it."""
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    system = raw.get("system") or {}
    if not isinstance(system, dict):
        raise ValueError("config key 'system' must be a mapping")
    sys_known = {f.name for f in dataclasses.fields(SystemConfig)}
    sys_unknown = set(system) - sys_known
    if sys_unknown:
        raise ValueError(f"unknown system config keys: {sorted(sys_unknown)}")
    fixed = sorted(set(system) & set(_SET_BY_SUBCOMMAND))
    if fixed:
        raise ValueError("; ".join(
            f"system.{key} is not configurable: {_SET_BY_SUBCOMMAND[key]}" for key in fixed))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed YAML, rejecting unknown keys."""
    check_config_keys(raw)
    data = dict(raw)
    system_raw = data.pop("system", {}) or {}
    for key in ("snr_db", "deltas", "attenuation_db"):
        if key in data and data[key] is not None:
            data[key] = tuple(data[key])
    return ExperimentConfig(system=SystemConfig(**system_raw), **data)


def read_config(path: str) -> dict:
    """Parsed YAML config file with the key checks applied; an empty file
    is an empty mapping."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw = {} if raw is None else raw
    check_config_keys(raw)
    return raw


@dataclass(frozen=True)
class ResultRow:
    """One aggregated metric at one sweep point."""

    experiment: str
    sweep: float
    metric: str
    value: float
    trials: int
    std_error: float


def _aggregate(experiment: str, sweep: float, metric: str, samples) -> ResultRow:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"no successful trials for metric {metric!r} at sweep {sweep}")
    se = float(np.std(arr, ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return ResultRow(experiment, float(sweep), metric, float(np.mean(arr)), int(arr.size), se)


def _rows(experiment: str, sweep, samples, failures, trials: int) -> list:
    """Per sweep value, in the order of ``sweep``: one aggregated row per
    metric of ``samples[value]``, then the ``failed_trials`` row."""
    rows = []
    for x in sweep:
        rows.extend(_aggregate(experiment, x, metric, vals) for metric, vals in samples[x].items())
        rows.append(ResultRow(experiment, float(x), "failed_trials", float(failures[x]), trials, 0.0))
    return rows


def rows_to_csv(rows, dest) -> None:
    """Write rows with repr-formatted floats so reruns are byte-identical.

    ``dest`` is a file path or an open text stream such as ``sys.stdout``.
    """
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            rows_to_csv(rows, fh)
        return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["experiment", "sweep", "metric", "value", "trials", "std_error"])
    for r in rows:
        writer.writerow(
            [r.experiment, repr(r.sweep), r.metric, repr(r.value), str(r.trials), repr(r.std_error)]
        )


def _trial_rng(master_seed: int, stream: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, stream, trial])


def run_fig4(config: ExperimentConfig) -> list:
    """Uplink channel-estimation NMSE vs transmit SNR: LS, LMMSE, path-based.

    One scenario (single user, fixed attenuation per config) per trial; the
    same channel and noise realizations feed all three estimators at each
    SNR so the comparison is paired.
    """
    cfg = config.system
    codebook = enomp.build_codebook(cfg)
    cov = recon.channel_covariance(
        cfg, config.attenuation_db, n_draws=config.covariance_draws, seed=config.seed
    )
    samples = {snr: {"nmse_ls": [], "nmse_lmmse": [], "nmse_enomp": []} for snr in config.snr_db}
    failures = {snr: 0 for snr in config.snr_db}
    for trial in range(config.trials):
        scenario = sysmodel.generate_scenario(
            1, config.paths_per_user, cfg, seed=_trial_rng(config.seed, 0, trial),
            att_range_db=config.attenuation_db,
        )
        paths = scenario.users[0]
        truth = sysmodel.uplink_channel(paths, cfg)
        for snr in config.snr_db:
            cfg_snr = dataclasses.replace(cfg, P=10.0 ** (snr / 10.0))
            y = sysmodel.sounding_observation(paths, cfg_snr, _trial_rng(config.seed, 1, trial))
            try:
                nmse_ls = recon.channel_nmse(recon.ls_baseline(y, cfg_snr), truth)
                nmse_lmmse = recon.channel_nmse(recon.lmmse_baseline(y, cov, cfg_snr), truth)
                result = enomp.extract(y, cfg_snr, codebook)
                scaled = recon.uplink_channel_estimate(result.paths, cfg_snr)
                nmse_enomp = recon.channel_nmse(scaled / math.sqrt(cfg_snr.P), truth)
            except (np.linalg.LinAlgError, FloatingPointError):
                failures[snr] += 1
                continue
            samples[snr]["nmse_ls"].append(nmse_ls)
            samples[snr]["nmse_lmmse"].append(nmse_lmmse)
            samples[snr]["nmse_enomp"].append(nmse_enomp)
    return _rows("fig4", config.snr_db, samples, failures, config.trials)


def _unscale_gains(paths, p_tx: float):
    scale = math.sqrt(p_tx)
    return tuple(
        enomp.DetectedPath(gain=p.gain / scale, theta=p.theta, phi=p.phi, tau=p.tau)
        for p in paths
    )


def _oracle_gains(est_paths, truth_dl: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Downlink gains that best realize the true channel with the estimated
    geometry; the reference against which training-gain error is measured.

    The fit runs on the plain atoms; `reconstruct` multiplies each gain by
    its path's carrier-shift phase, so that phase is divided out here."""
    g, _ = enomp.fit_gains(truth_dl, *enomp.path_factors(est_paths, cfg))
    _, _, taus = sysmodel.path_parameters(est_paths)
    return g / sysmodel.carrier_phase(taus, cfg)


def _zf_rates(h_true_rows, h_hat_rows, t_pilot: int, cfg: SystemConfig) -> float:
    """Sum-rate when precoding on h_hat while the true channel is h_true.

    Both arguments are (N, K, M) stacks of per-subcarrier channel matrices.
    """
    sinr_all = mueval.sinr(h_true_rows, mueval.zf_precoder(h_hat_rows), cfg.P)
    return mueval.sum_rate(sinr_all, t_pilot, cfg.T_c)


def _stack_channels(vectors, cfg: SystemConfig) -> np.ndarray:
    """Per-user stacked channels -> (N, K, M) per-subcarrier matrices."""
    return np.stack([recon.channel_matrix(v, cfg) for v in vectors], axis=1)


def run_fig6(config: ExperimentConfig) -> list:
    """Transceiver evaluation vs the accuracy target delta.

    Per scenario: extract every user's paths from uplink sounding, schedule
    training beams per delta, estimate downlink gains from simulated pilots,
    and compare sum-rates of the reconstructed, LMMSE-estimated (full
    128-symbol training), and perfect-CSI (same T_p) transceivers.
    """
    cfg = dataclasses.replace(config.system, P=10.0)  # 10 dB both links
    codebook = enomp.build_codebook(cfg)
    grid = dltrain.build_angle_grid(cfg)
    cov = recon.channel_covariance(
        cfg, config.attenuation_db, n_draws=config.covariance_draws, seed=config.seed
    )
    metrics = ("t_pilot", "gain_nmse", "channel_nmse", "rate_recon", "rate_perfect", "rate_lmmse")
    samples = {d: {m: [] for m in metrics} for d in config.deltas}
    failures = {d: 0 for d in config.deltas}
    for trial in range(config.trials):
        scenario = sysmodel.generate_scenario(
            config.users, config.paths_per_user, cfg, seed=_trial_rng(config.seed, 0, trial),
            att_range_db=config.attenuation_db,
        )
        users_est = []
        for k, user_paths in enumerate(scenario.users):
            y = sysmodel.sounding_observation(user_paths, cfg, _trial_rng(config.seed, 1, trial * config.users + k))
            result = enomp.extract(y, cfg, codebook)
            users_est.append(_unscale_gains(result.paths, cfg.P))
        truths_dl = [sysmodel.downlink_channel(p, cfg) for p in scenario.users]
        h_true_rows = _stack_channels(truths_dl, cfg)
        # Oracle gains, perfect-CSI SINRs and the LMMSE rate do not depend on
        # delta. A failure here fails the trial at every delta, as it would
        # if each delta recomputed them.
        try:
            g_star = [_oracle_gains(users_est[k], truths_dl[k], cfg) for k in range(config.users)]
            sinr_perfect = mueval.sinr(h_true_rows, mueval.zf_precoder(h_true_rows), cfg.P)
            lmmse_dl = []
            for k in range(config.users):
                rng = _trial_rng(config.seed, 3, trial * config.users + k)
                y_full = math.sqrt(cfg.P) * truths_dl[k] + sysmodel.complex_noise(rng, cfg.M * cfg.N)
                lmmse_dl.append(recon.lmmse_baseline(y_full, cov, cfg))
            lmmse_rate = _zf_rates(h_true_rows, _stack_channels(lmmse_dl, cfg), cfg.M, cfg)
        except (np.linalg.LinAlgError, FloatingPointError, ValueError):
            for d in config.deltas:
                failures[d] += 1
            continue
        for d in config.deltas:
            cfg_d = dataclasses.replace(cfg, delta=d)
            try:
                plan = dltrain.schedule_beams(users_est, grid, cfg_d)
                gain_err = []
                recon_dl = []
                for k in range(config.users):
                    coef = dltrain.coefficient_matrix(users_est[k], plan, cfg_d)
                    rng = _trial_rng(config.seed, 2, trial * config.users + k)
                    y_dl = dltrain.simulate_downlink_training(scenario.users[k], plan, cfg_d, rng)
                    g_hat = dltrain.estimate_downlink_gains(y_dl, coef, cfg_d)
                    gain_err.append(
                        float(np.sum(np.abs(g_hat - g_star[k]) ** 2) / np.sum(np.abs(g_star[k]) ** 2))
                    )
                    recon_dl.append(recon.reconstruct(users_est[k], g_hat, cfg_d))
                h_hat_rows = _stack_channels(recon_dl, cfg)
                samples[d]["t_pilot"].append(float(plan.T_p))
                samples[d]["gain_nmse"].append(float(np.mean(gain_err)))
                samples[d]["channel_nmse"].append(
                    float(np.mean([recon.channel_nmse(recon_dl[k], truths_dl[k]) for k in range(config.users)]))
                )
                samples[d]["rate_recon"].append(_zf_rates(h_true_rows, h_hat_rows, plan.T_p, cfg))
                samples[d]["rate_perfect"].append(mueval.sum_rate(sinr_perfect, plan.T_p, cfg.T_c))
                samples[d]["rate_lmmse"].append(lmmse_rate)
            except (np.linalg.LinAlgError, FloatingPointError, ValueError):
                failures[d] += 1
    return _rows("fig6", config.deltas, samples, failures, config.trials)


def run_theorem1(config: ExperimentConfig) -> list:
    """Analytic expected-SINR model vs Monte Carlo over the error model.

    Each trial draws one multiuser downlink channel (first subcarrier); each
    delta draws reconstruction errors around it and compares mean SINRs.
    """
    cfg = dataclasses.replace(config.system, P=10.0)
    metrics = ("sinr_analytic_mean", "sinr_mc_mean", "rel_error_max")
    samples = {d: {m: [] for m in metrics} for d in config.deltas}
    failures = {d: 0 for d in config.deltas}
    for trial in range(config.trials):
        scenario = sysmodel.generate_scenario(
            config.users, config.paths_per_user, cfg, seed=_trial_rng(config.seed, 0, trial),
            att_range_db=config.attenuation_db,
        )
        h_rows = np.stack(
            [recon.channel_matrix(sysmodel.downlink_channel(p, cfg), cfg)[0] for p in scenario.users]
        )
        for d in config.deltas:
            try:
                analytic = mueval.analytic_sinr(h_rows, d, cfg.P)
                mc = mueval.monte_carlo_sinr(
                    h_rows, d, cfg.P, n_draws=config.mc_draws,
                    seed=[config.seed, 4, trial],
                )
                rel = np.abs(analytic - mc) / mc
                samples[d]["sinr_analytic_mean"].append(float(np.mean(analytic)))
                samples[d]["sinr_mc_mean"].append(float(np.mean(mc)))
                samples[d]["rel_error_max"].append(float(np.max(rel)))
            except np.linalg.LinAlgError:
                failures[d] += 1
    return _rows("theorem1", config.deltas, samples, failures, config.trials)


_RUNNERS = {"fig4": run_fig4, "fig6": run_fig6, "theorem1": run_theorem1}


def run_experiment(config: ExperimentConfig) -> list:
    rows = _RUNNERS[config.experiment](config)
    if config.out:
        rows_to_csv(rows, config.out)
    return rows
