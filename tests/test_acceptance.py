"""Full-scale acceptance checks for the whole transceiver chain.

Each test pins one externally stated requirement: extraction accuracy
against the classical baselines, derivative correctness, exact noiseless
recovery, predictor fidelity, scheduler behavior, precoding invariants,
end-to-end rate ordering, the expected-SINR model, and byte-level
reproducibility of experiment outputs.
"""

import numpy as np
import pytest

from fddrecon import dltrain, enomp, harness, mueval, recon, sysmodel
from fddrecon.sysmodel import SystemConfig


def by_metric(rows, sweep):
    return {r.metric: r for r in rows if r.sweep == sweep}


@pytest.fixture(scope="module")
def fig4_rows():
    # full-scale system, 100 trials, transmit SNR sweep {0, 5, 10} dB
    return harness.run_fig4(harness.config_from_dict({"experiment": "fig4"}))


@pytest.fixture(scope="module")
def fig6_rows():
    # full-scale system, 20 scenarios, accuracy targets {1e-3, 1e-2, 1e-1}
    return harness.run_fig6(
        harness.config_from_dict({"experiment": "fig6", "trials": 20}))


def test_uplink_nmse_meets_target_and_beats_baselines(fig4_rows):
    at_zero = by_metric(fig4_rows, 0.0)
    assert at_zero["nmse_enomp"].trials >= 100
    assert at_zero["nmse_enomp"].value <= 5e-3
    for snr in (0.0, 5.0, 10.0):
        got = by_metric(fig4_rows, snr)
        assert got["failed_trials"].value == 0.0
        assert (got["nmse_enomp"].value < got["nmse_lmmse"].value
                < got["nmse_ls"].value)
    print(f"PASS path-extraction NMSE at 0 dB = {at_zero['nmse_enomp'].value:.3e} "
          f"(<= 5e-3) and extraction < LMMSE < LS at 0/5/10 dB")


def test_objective_derivatives_match_finite_differences():
    cfg = SystemConfig()
    rng = np.random.default_rng(20240)
    mn = cfg.M * cfg.N
    steps = (1e-6, 1e-6, 1e-6 / (cfg.N * cfg.delta_f))
    worst_g, worst_h = 0.0, 0.0
    for _ in range(100):
        y = rng.standard_normal(mn) + 1j * rng.standard_normal(mn)
        g = complex(rng.standard_normal(), rng.standard_normal())
        th = rng.uniform(-1.4, 1.4)
        ph = rng.uniform(-1.4, 1.4)
        ta = rng.uniform(0.2, 0.8) * cfg.tau_max
        _, grad, hess = enomp.objective_derivatives(y, g, th, ph, ta, cfg)
        for axis in range(3):
            d = np.zeros(3)
            d[axis] = steps[axis]
            up = enomp.objective_S(y, g, th + d[0], ph + d[1], ta + d[2], cfg)
            dn = enomp.objective_S(y, g, th - d[0], ph - d[1], ta - d[2], cfg)
            fd = (up - dn) / (2 * steps[axis])
            rel = abs(grad[axis] - fd) / max(1.0, abs(fd))
            worst_g = max(worst_g, rel)
            assert rel <= 1e-5
            _, gu, _ = enomp.objective_derivatives(
                y, g, th + d[0], ph + d[1], ta + d[2], cfg)
            _, gd, _ = enomp.objective_derivatives(
                y, g, th - d[0], ph - d[1], ta - d[2], cfg)
            fd_col = (gu - gd) / (2 * steps[axis])
            rel_col = float(np.max(np.abs(hess[:, axis] - fd_col))
                            / max(1.0, float(np.max(np.abs(fd_col)))))
            worst_h = max(worst_h, rel_col)
            assert rel_col <= 1e-5
    print(f"PASS derivatives vs central differences at 100 random points: "
          f"worst gradient rel {worst_g:.2e}, worst Hessian rel {worst_h:.2e} (<= 1e-5)")


def test_noiseless_on_grid_paths_recovered_exactly():
    cfg = SystemConfig(M_v=4, M_h=8, N=64)
    book = enomp.build_codebook(cfg)
    # grid indices pairwise >= 2 cells apart on every axis
    triples = [(2, 4, 10), (4, 8, 30), (6, 12, 50)]
    gains = [1.2 - 0.3j, -0.8 + 0.9j, 0.5 + 1.1j]
    y = np.zeros(cfg.M * cfg.N, dtype=complex)
    for (it, ip, iu), g in zip(triples, gains):
        y += g * enomp.synth_atom(book.thetas[it], book.phis[ip], book.taus[iu], cfg)
    result = enomp.extract(y, cfg, 1.0, book)
    assert len(result.paths) == 3
    cells = (book.thetas[1] - book.thetas[0],
             book.phis[1] - book.phis[0],
             book.taus[1] - book.taus[0])
    truth = sorted(
        [(book.thetas[it], book.phis[ip], book.taus[iu], g)
         for (it, ip, iu), g in zip(triples, gains)],
        key=lambda t: t[2])
    worst = 0.0
    for p, (tt, pp, uu, g) in zip(sorted(result.paths, key=lambda q: q.tau), truth):
        errs = (abs(p.theta - tt) / cells[0], abs(p.phi - pp) / cells[1],
                abs(p.tau - uu) / cells[2])
        worst = max(worst, *errs)
        assert max(errs) < 1e-6
    rel_resid = np.linalg.norm(result.residual) / np.linalg.norm(y)
    assert rel_resid < 1e-8
    print(f"PASS noiseless on-grid recovery: worst parameter error "
          f"{worst:.2e} cells (< 1e-6), residual {rel_resid:.2e} (< 1e-8)")


class _TruePath:
    """Minimal path carrier for downlink training simulation."""

    def __init__(self, theta, phi, tau, g_dl):
        self.theta, self.phi, self.tau, self.g_dl = theta, phi, tau, g_dl


def test_training_error_predictor_matches_monte_carlo():
    cfg = SystemConfig()
    scenario = sysmodel.generate_scenario(1, 6, cfg, seed=101,
                                          att_range_db=(-10.0, 0.0))
    y = sysmodel.sounding_observation(scenario.users[0], cfg, 10.0,
                                      np.random.default_rng(102))
    est = enomp.extract(y, cfg, 10.0).paths
    plan = dltrain.schedule_beams([est], dltrain.build_angle_grid(cfg), cfg, 1e-2, 10.0)
    coef = dltrain.coefficient_matrix(est, plan, cfg)
    g_hat = np.array([p.gain for p in est])
    predicted = dltrain.predict_nmse(coef, g_hat, 10.0)
    # downlink gains fixed to the uplink estimates; only pilot noise varies
    adapters = [_TruePath(p.theta, p.phi, p.tau, p.gain) for p in est]
    rng = np.random.default_rng(103)
    denom = float(np.sum(np.abs(g_hat) ** 2))
    total = 0.0
    n_draws = 10_000
    for _ in range(n_draws):
        y_dl = dltrain.simulate_downlink_training(adapters, plan, cfg, 10.0, rng)
        g_mc = dltrain.estimate_downlink_gains(y_dl, est, plan, cfg, 10.0)
        total += float(np.sum(np.abs(g_mc - g_hat) ** 2)) / denom
    measured = total / n_draws
    assert abs(measured - predicted) <= 0.05 * predicted
    print(f"PASS gain-error predictor: predicted {predicted:.3e}, "
          f"measured {measured:.3e} over {n_draws} draws (within 5%)")


def test_scheduler_training_length_and_achieved_error(fig6_rows):
    t_by_delta = {}
    for d in (1e-3, 1e-2, 1e-1):
        got = by_metric(fig6_rows, d)
        assert got["t_pilot"].trials >= 20
        assert got["failed_trials"].value == 0.0
        t_by_delta[d] = got["t_pilot"].value
        assert 8.0 <= t_by_delta[d] <= 70.0
    assert t_by_delta[1e-3] >= t_by_delta[1e-2] >= t_by_delta[1e-1]
    gain_nmse = by_metric(fig6_rows, 1e-2)["gain_nmse"].value
    assert 0.2 * 1e-2 <= gain_nmse <= 5 * 1e-2
    print(f"PASS scheduler: mean training length "
          f"{t_by_delta[1e-3]:.1f} >= {t_by_delta[1e-2]:.1f} >= {t_by_delta[1e-1]:.1f} "
          f"symbols, all in [8, 70]; achieved gain NMSE {gain_nmse:.2e} in "
          f"[2e-3, 5e-2] at target 1e-2")


def test_zero_forcing_invariants_every_subcarrier():
    cfg = SystemConfig()
    scenario = sysmodel.generate_scenario(10, 6, cfg, seed=104,
                                          att_range_db=(-10.0, 0.0))
    rows = np.stack(
        [recon.channel_matrix(sysmodel.downlink_channel(p, cfg), cfg)
         for p in scenario.users], axis=1)
    worst_int, worst_pow = 0.0, 0.0
    for n in range(cfg.N):
        state = mueval.zf_precoder(rows[n])
        w = state.pinv * state.alphas[None, :]
        gains = rows[n] @ w
        diag = np.abs(np.diag(gains))
        off = np.abs(gains - np.diag(np.diag(gains)))
        worst_int = max(worst_int, float(np.max(off / diag[:, None])))
        worst_pow = max(worst_pow, abs(float(np.sum(np.abs(w) ** 2)) - 1.0))
    assert worst_int <= 1e-9
    assert worst_pow <= 1e-12
    print(f"PASS zero-forcing on all {cfg.N} subcarriers: worst normalized "
          f"interference {worst_int:.2e} (<= 1e-9), worst power deviation "
          f"{worst_pow:.2e} (<= 1e-12)")


def test_reconstruction_rate_close_to_perfect_and_beats_lmmse(fig6_rows):
    got = by_metric(fig6_rows, 1e-2)
    assert got["rate_recon"].trials >= 20
    rate_recon = got["rate_recon"].value
    rate_perfect = got["rate_perfect"].value
    rate_lmmse = got["rate_lmmse"].value
    assert rate_recon >= 0.85 * rate_perfect
    assert rate_recon > rate_lmmse
    print(f"PASS sum-rate ordering: reconstruction {rate_recon:.2f} >= "
          f"0.85 x perfect {rate_perfect:.2f} and > LMMSE {rate_lmmse:.2f} "
          f"bit/s/Hz (LMMSE charged {SystemConfig().M} training symbols)")


def test_expected_sinr_model_matches_monte_carlo():
    cfg = SystemConfig()
    scenario = sysmodel.generate_scenario(10, 6, cfg, seed=104,
                                          att_range_db=(-10.0, 0.0))
    h_rows = np.stack(
        [recon.channel_matrix(sysmodel.downlink_channel(p, cfg), cfg)[0]
         for p in scenario.users])
    deltas = (0.0, 1e-3, 1e-2)
    analytic = mueval.analytic_sinr(h_rows, deltas, 10.0)
    mc, ok = mueval.monte_carlo_sinr(h_rows, deltas, 10.0, n_draws=10_000, seed=105)
    assert ok.all()
    rels = {d: float(np.max(np.abs(analytic[i] - mc[i]) / mc[i]))
            for i, d in enumerate(deltas)}
    assert rels[0.0] <= 1e-11  # identical precoder every draw
    assert rels[1e-3] <= 0.10
    assert rels[1e-2] <= 0.10
    print(f"PASS expected-SINR model over 10000 draws: exact at zero error "
          f"({rels[0.0]:.1e}), max rel {rels[1e-3]:.2e} / {rels[1e-2]:.2e} "
          f"at error power 1e-3 / 1e-2 (<= 10%)")


def test_csv_reruns_are_byte_identical(tmp_path):
    tiny = {"M_v": 2, "M_h": 4, "N": 16}
    raws = {
        "fig4": {"experiment": "fig4", "system": tiny, "trials": 2,
                 "snr_db": [0.0], "paths_per_user": 2},
        "fig6": {"experiment": "fig6", "system": tiny, "trials": 2,
                 "deltas": [1e-2], "users": 2, "paths_per_user": 2},
        "theorem1": {"experiment": "theorem1", "system": tiny, "trials": 1,
                     "users": 3, "paths_per_user": 2, "deltas": [1e-2],
                     "mc_draws": 200},
    }
    for name, raw in raws.items():
        blobs = []
        for run in range(2):
            out = tmp_path / f"{name}_{run}.csv"
            harness.run_experiment(
                harness.config_from_dict({**raw, "out": str(out)}))
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{name} rerun differs"
    print("PASS determinism: rerun CSV byte-identical for all experiments")
