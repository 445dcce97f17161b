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
from .sysmodel import SystemConfig, check_integer, check_real

_DEFAULT_TRIALS = {"fig4": 100, "fig6": 50, "theorem1": 3}
_DEFAULT_ATTENUATION = {"fig4": (0.0, 0.0), "fig6": (-10.0, 0.0), "theorem1": (-10.0, 0.0)}

# fig6 and theorem1 run both links at 10 dB
_P_TX = 10.0


def transmit_power(snr_db) -> float:
    """Linear transmit power of a transmit SNR in dB. Raises ValueError
    unless -3000 < snr_db < 3000, where the power is positive and finite."""
    if not -3000 < snr_db < 3000:
        raise ValueError(f"snr_db must lie in (-3000, 3000) dB, got {snr_db!r}")
    return 10.0 ** (snr_db / 10.0)


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
    mc_draws: int = 10_000
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; expected one of {tuple(EXPERIMENTS)}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError("out must be a string")
        if self.trials is None:
            object.__setattr__(self, "trials", _DEFAULT_TRIALS[self.experiment])
        if self.attenuation_db is None:
            object.__setattr__(self, "attenuation_db", _DEFAULT_ATTENUATION[self.experiment])
        check_integer("seed", self.seed, 0)
        for name in ("trials", "users", "paths_per_user", "mc_draws"):
            check_integer(name, getattr(self, name), 1)
        for name in ("snr_db", "deltas", "attenuation_db"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list")
            for i, v in enumerate(values):
                check_real(f"{name}[{i}]", v)
            object.__setattr__(self, name, tuple(float(v) for v in values))
        for name in ("snr_db", "deltas"):
            values = getattr(self, name)
            # rows are grouped by sweep value, so a repeat would merge two groups
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{name} must be a nonempty list of distinct values")
        for snr in self.snr_db:
            transmit_power(snr)
        if self.experiment == "fig6" and not all(0 < d < 1 for d in self.deltas):
            raise ValueError("fig6 deltas must lie in (0, 1)")
        if self.experiment == "theorem1" and not all(0 <= d <= 1 for d in self.deltas):
            raise ValueError("theorem1 deltas must lie in [0, 1]")
        att = self.attenuation_db
        if len(att) != 2 or not att[0] <= att[1]:
            raise ValueError("attenuation_db must be a [lo, hi] pair with lo <= hi")
        if self.experiment != "fig4" and self.users > self.system.M:
            raise ValueError(f"users must be at most system.M = {self.system.M} for zero-forcing")
        # the LMMSE baseline trains on M symbols and every plan on at most M
        if self.experiment == "fig6" and self.system.T_c <= self.system.M:
            raise ValueError(f"fig6 needs system.T_c > system.M = {self.system.M}")


def config_from_dict(raw) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed YAML mapping: the one config
    check, applied by every CLI subcommand.  Raises ValueError unless the root
    and ``system`` are mappings, every key is known, and every value passes."""
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping")
    data = dict(raw)
    if "covariance_draws" in data:  # retired with the LMMSE Monte Carlo: checked, then ignored
        check_integer("covariance_draws", data.pop("covariance_draws"), 1)
    system = data.pop("system", None)
    system = {} if system is None else system
    if not isinstance(system, dict):
        raise ValueError("config key 'system' must be a mapping")
    for where, keys, cls in (("", data, ExperimentConfig), ("system ", system, SystemConfig)):
        unknown = set(keys) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown {where}config keys: {sorted(unknown)}")
    return ExperimentConfig(system=SystemConfig(**system), **data)


def read_config(path: str) -> dict:
    """Parsed YAML config file, for ``config_from_dict`` to check; an empty
    file is an empty mapping, any other non-mapping root an error."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping")
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
    se = 0.0
    if arr.size > 1:
        # np.std squares the deviations, which overflows past ~1e154 and
        # underflows below ~1e-154; it runs on samples scaled by a power of
        # two into [-1, 1], which is exact, and the result is scaled back
        shift = -math.frexp(float(np.max(np.abs(arr))))[1]
        se = float(np.ldexp(np.std(np.ldexp(arr, shift), ddof=1) / math.sqrt(arr.size), -shift))
    return ResultRow(experiment, float(sweep), metric, float(np.mean(arr)), int(arr.size), se)


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


# What fails a trial rather than the run: a numerical breakdown on one draw.
# Anything else, a ValueError included, is a bug or a bad config and propagates.
_TRIAL_FAILURES = (np.linalg.LinAlgError, FloatingPointError)


def _trial_samples(trial_fn, scenario, trial: int, sweep) -> list:
    """One trial's metric tuple per sweep value, None where it failed. The
    trial's ``measure``, and all it holds, dies when this returns."""
    try:
        measure = trial_fn(scenario, trial)
    except _TRIAL_FAILURES:
        return [None] * len(sweep)
    out = []
    for x in sweep:
        try:
            out.append(measure(x))
        except _TRIAL_FAILURES:
            out.append(None)
    return out


def _sweep(config: ExperimentConfig, sweep, metrics, users: int, trial_fn) -> list:
    """Seeded trials of one experiment, aggregated per sweep value.

    Each trial draws one scenario of ``users`` users and calls
    ``trial_fn(scenario, trial)``, which returns ``measure``; ``measure(x)``
    gives one value per metric at sweep value x. A `_TRIAL_FAILURES` error in
    ``trial_fn`` fails the trial at every sweep value, one in ``measure(x)``
    only at x, so a sweep value keeps all of a trial's metrics or none. A
    trial's ``measure`` is gone before the next scenario is drawn, so one
    trial's arrays are alive at a time. Rows follow ``sweep``: one per
    metric, then the ``failed_trials`` row.
    """
    samples = {x: [] for x in sweep}
    failures = dict.fromkeys(sweep, 0)
    for trial in range(config.trials):
        scenario = sysmodel.generate_scenario(
            users, config.paths_per_user, config.system, seed=_trial_rng(config.seed, 0, trial),
            att_range_db=config.attenuation_db,
        )
        for x, sample in zip(sweep, _trial_samples(trial_fn, scenario, trial, sweep)):
            if sample is None:
                failures[x] += 1
            else:
                samples[x].append(sample)
    rows = []
    for x in sweep:
        rows.extend(_aggregate(config.experiment, x, metric, [s[i] for s in samples[x]])
                    for i, metric in enumerate(metrics))
        rows.append(ResultRow(config.experiment, float(x), "failed_trials", float(failures[x]),
                              config.trials, 0.0))
    return rows


def run_fig4(config: ExperimentConfig) -> list:
    """Uplink channel-estimation NMSE vs transmit SNR: LS, LMMSE, path-based.

    One scenario (single user, fixed attenuation per config) per trial; the
    same channel and noise realizations feed all three estimators at each
    SNR so the comparison is paired.
    """
    cfg = config.system
    codebook = enomp.build_codebook(cfg)
    cov = recon.channel_covariance(cfg, config.attenuation_db)

    def trial_fn(scenario, trial):
        truth = sysmodel.uplink_channel(scenario.users[0], cfg)
        noise = sysmodel.complex_noise(_trial_rng(config.seed, 1, trial), cfg.M * cfg.N)

        def measure(snr):
            p_tx = transmit_power(snr)
            y = sysmodel.observation(truth, p_tx, noise)
            nmse_ls = recon.channel_nmse(recon.ls_baseline(y, p_tx), truth)
            nmse_lmmse = recon.channel_nmse(recon.lmmse_baseline(y, cov, cfg, p_tx), truth)
            estimate = recon.uplink_channel_estimate(enomp.extract(y, cfg, p_tx, codebook).paths, cfg)
            return nmse_ls, nmse_lmmse, recon.channel_nmse(estimate, truth)
        return measure

    return _sweep(config, config.snr_db, ("nmse_ls", "nmse_lmmse", "nmse_enomp"), 1, trial_fn)


def _oracle_gains(est_paths, truth_dl: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Downlink gains that best realize the true channel with the estimated
    geometry; the reference against which training-gain error is measured.

    The fit runs on the plain atoms; `reconstruct` multiplies each gain by
    its path's carrier-shift phase, so that phase is divided out here."""
    g, _ = sysmodel.fit_gains(truth_dl, *sysmodel.path_factors(est_paths, cfg))
    _, _, taus = sysmodel.path_parameters(est_paths)
    return g / sysmodel.carrier_phase(taus, cfg)


def _zf_rates(h_true_rows, h_hat_rows, t_pilot: int, cfg: SystemConfig) -> float:
    """Sum-rate when precoding on h_hat while the true channel is h_true.

    Both arguments are (N, K, M) stacks of per-subcarrier channel matrices.
    """
    return mueval.sum_rate(mueval.zf_sinr(h_true_rows, h_hat_rows, _P_TX), t_pilot, cfg.T_c)


def run_fig6(config: ExperimentConfig) -> list:
    """Transceiver evaluation vs the accuracy target delta.

    Per scenario: extract every user's paths from uplink sounding, schedule
    training beams per delta, estimate downlink gains from simulated pilots,
    and compare sum-rates of the reconstructed, LMMSE-estimated (full
    128-symbol training), and perfect-CSI (same T_p) transceivers.
    """
    cfg = config.system
    codebook = enomp.build_codebook(cfg)
    grid = dltrain.build_angle_grid(cfg)
    cov = recon.channel_covariance(cfg, config.attenuation_db)

    def trial_fn(scenario, trial):
        users_est = []
        for k, user_paths in enumerate(scenario.users):
            y = sysmodel.sounding_observation(user_paths, cfg, _P_TX,
                                              _trial_rng(config.seed, 1, trial * config.users + k))
            paths = enomp.extract(y, cfg, _P_TX, codebook).paths
            if not paths:  # no pilot model, so no gain estimate at any delta
                raise np.linalg.LinAlgError(f"no paths detected for user {k}")
            users_est.append(paths)
        # (N, K, M) per-subcarrier matrices, each user's channel written
        # straight into its row; the stack is the one copy of the true
        # channels, and truth(k) reads user k's stacked vector back from it
        stack_shape = (cfg.N, config.users, cfg.M)
        h_true_rows = np.empty(stack_shape, dtype=np.complex128)
        for k, user_paths in enumerate(scenario.users):
            h_true_rows[:, k] = recon.channel_matrix(sysmodel.downlink_channel(user_paths, cfg), cfg)

        def truth(k):
            return h_true_rows[:, k].T.ravel()

        # Oracle gains, perfect-CSI SINRs and the LMMSE rate do not depend on delta.
        g_star = [_oracle_gains(users_est[k], truth(k), cfg) for k in range(config.users)]
        sinr_perfect = mueval.zf_sinr(h_true_rows, h_true_rows, _P_TX)
        # the LMMSE estimates, then each delta's reconstructions
        h_hat_rows = np.empty(stack_shape, dtype=np.complex128)
        for k in range(config.users):
            noise = sysmodel.complex_noise(_trial_rng(config.seed, 3, trial * config.users + k),
                                           cfg.M * cfg.N)
            y_full = sysmodel.observation(truth(k), _P_TX, noise)
            h_hat_rows[:, k] = recon.channel_matrix(recon.lmmse_baseline(y_full, cov, cfg, _P_TX), cfg)
        lmmse_rate = _zf_rates(h_true_rows, h_hat_rows, cfg.M, cfg)

        def measure(d):
            plan = dltrain.schedule_beams(users_est, grid, cfg, d, _P_TX)
            gain_err = []
            nmse = []
            for k in range(config.users):
                rng = _trial_rng(config.seed, 2, trial * config.users + k)
                y_dl = dltrain.simulate_downlink_training(scenario.users[k], plan, cfg, _P_TX, rng)
                g_hat = dltrain.estimate_downlink_gains(y_dl, users_est[k], plan, cfg, _P_TX)
                gain_err.append(recon.channel_nmse(g_hat, g_star[k]))
                recon_k = recon.reconstruct(users_est[k], g_hat, cfg)
                nmse.append(recon.channel_nmse(recon_k, truth(k)))
                h_hat_rows[:, k] = recon.channel_matrix(recon_k, cfg)
            channel_nmse = np.mean(nmse)
            rate_recon = _zf_rates(h_true_rows, h_hat_rows, plan.T_p, cfg)
            return (float(plan.T_p), float(np.mean(gain_err)), float(channel_nmse), rate_recon,
                    mueval.sum_rate(sinr_perfect, plan.T_p, cfg.T_c), lmmse_rate)
        return measure

    metrics = ("t_pilot", "gain_nmse", "channel_nmse", "rate_recon", "rate_perfect", "rate_lmmse")
    return _sweep(config, config.deltas, metrics, config.users, trial_fn)


def run_theorem1(config: ExperimentConfig) -> list:
    """Analytic expected-SINR model vs Monte Carlo over the error model.

    Each trial draws one multiuser downlink channel (first subcarrier) and
    one stream of error draws around it, which every delta scales and
    shares; a delta whose draws hit a rank-deficient estimate fails alone.
    """
    cfg = config.system

    def trial_fn(scenario, trial):
        # a copy of row 0, so no user's full M*N channel outlives its row
        h_rows = np.stack(
            [recon.channel_matrix(sysmodel.downlink_channel(p, cfg), cfg)[0].copy()
             for p in scenario.users]
        )
        analytic = mueval.analytic_sinr(h_rows, config.deltas, _P_TX)
        mc, ok = mueval.monte_carlo_sinr(h_rows, config.deltas, _P_TX, n_draws=config.mc_draws,
                                         seed=[config.seed, 4, trial])

        def measure(d):
            i = config.deltas.index(d)
            if not ok[i]:
                raise np.linalg.LinAlgError(f"rank-deficient error draw at delta {d}")
            a, m = analytic[i], mc[i]
            return float(np.mean(a)), float(np.mean(m)), float(np.max(np.abs(a - m) / m))
        return measure

    metrics = ("sinr_analytic_mean", "sinr_mc_mean", "rel_error_max")
    return _sweep(config, config.deltas, metrics, config.users, trial_fn)


EXPERIMENTS = {"fig4": run_fig4, "fig6": run_fig6, "theorem1": run_theorem1}


def run_experiment(config: ExperimentConfig) -> list:
    rows = EXPERIMENTS[config.experiment](config)
    if config.out:
        rows_to_csv(rows, config.out)
    return rows
