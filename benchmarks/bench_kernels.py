"""Timings of the hot numeric kernels at full system scale.

Runs the two numeric kernels (single-atom synthesis and the weighted-moment
contraction), one scalar call each of the steering and delay builders
(extraction makes thousands of them), the batched build of the 128-beam
angle grid, the downlink channel of six paths both ways
(`sysmodel.downlink_channel`, one matmul over the factor matrices, and a
per-path `kron3` loop as the channel builders once ran), the joint gain fit
of eight atoms both ways (lstsq on the materialized basis as extraction once
did, and `sysmodel.fit_gains` on the factored Gram), each followed by its
residual, the pilot gain least squares of the found paths under a
fig6-sized training plan both ways (lstsq on `dltrain.coefficient_matrix`,
as the fig6 pipeline once did, and `sysmodel.fit_gains` on
`dltrain.pilot_factors`), the stopping statistic (`enomp.stopping_statistic`),
codebook detection both ways (`enomp.omp_detect`, one downtilt row at a
time, and the whole match cube), one refinement visit both ways (on the
fixed observation with the other paths' cross terms, starting from the
visited path's stored factors, as extraction does, and on a residual
rewritten around the visit, as it once did), ZF precoding
plus SINR at fig6 size (256 subcarriers) and Monte Carlo chunk size (32
error draws) both ways (`mueval`, which inverts the Gram and scales the
K x K products, and the batched `eigh` with its eigenvector inverse and
materialized precoder that `mueval` once ran), the fig6-size ZF plus SINR
also in slices of subcarriers (`mueval.zf_sinr`, which fig6 calls, and the
same loop at other slice sizes), the Gram inverse with its
rank check on the same two stacks' K x K Grams both ways (`mueval`'s, which
runs `eigvalsh` only where the inverse cannot certify full rank, and
`eigvalsh` on every Gram before the inverse, as it once ran), one Monte
Carlo chunk of 32 draws at three deltas both ways
(`mueval.monte_carlo_sinr` on the shared K x K products, and per-delta ZF
with the pseudo-inverse materialized, as it once ran; both include the
chunk's normal draws), plus one end-to-end path
extraction with its minor page faults, and prints a table.

Usage:
    python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import math
import resource
import time

import numpy as np

from fddrecon import _kernels, dltrain, enomp, mueval, recon, sysmodel
from fddrecon.sysmodel import SystemConfig


def _time(fn, args, repeats):
    fn(*args)  # warm up
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _eigh_zf_sinr(h_true, h_hat, p_tx):
    """ZF SINRs as `mueval` once computed them: a batched `eigh` of the Gram,
    its inverse from the eigenvectors, and a materialized precoder."""
    h_herm = h_hat.conj().swapaxes(-1, -2)
    lam, v = np.linalg.eigh(h_hat @ h_herm)
    if np.any(lam[..., 0] <= lam[..., -1] * max(h_hat.shape[-2:]) * np.finfo(float).eps):
        raise np.linalg.LinAlgError("channel estimate is rank deficient")
    gram_inv = (v / lam[..., None, :]) @ v.conj().swapaxes(-1, -2)
    col_norms2 = np.diagonal(gram_inv, axis1=-2, axis2=-1).real
    alphas = 1.0 / (math.sqrt(h_hat.shape[-2]) * np.sqrt(col_norms2))
    powers = p_tx * np.abs(h_true @ ((h_herm @ gram_inv) * alphas[..., None, :])) ** 2
    signal = np.diagonal(powers, axis1=-2, axis2=-1)
    return signal / (powers.sum(axis=-1) - signal + 1.0)


def _eigvalsh_first_gram_inverse(gram, n_ant):
    """`mueval._gram_inverse` as it once ran: the rank rule's `eigvalsh` on
    every Gram, then the inverse."""
    if not np.all(sysmodel.gram_eigvals(gram, n_ant)[1]):
        raise np.linalg.LinAlgError("channel estimate is rank deficient")
    gram_inv = np.linalg.inv(gram)
    col_norms2 = np.diagonal(gram_inv, axis1=-2, axis2=-1).real
    return gram_inv, 1.0 / (math.sqrt(gram.shape[-1]) * np.sqrt(col_norms2))


def _zf_sinr(h_true, h_hat, p_tx):
    return mueval.sinr(h_true, mueval.zf_precoder(h_hat), p_tx)


def _sliced_zf_sinr(h_true, h_hat, p_tx, size):
    """`mueval.zf_sinr`'s loop with slices of ``size`` subcarriers."""
    return np.concatenate([_zf_sinr(h_true[i:i + size], h_hat[i:i + size], p_tx)
                           for i in range(0, len(h_hat), size)])


def _materialized_mc_chunk(h_true, deltas, p_tx, n_draws, seed):
    """`mueval.monte_carlo_sinr` as it once ran: per delta, the (n_draws, K, M)
    stack of estimates, its ZF precoder and h_true @ pinv with the
    pseudo-inverse materialized."""
    z = np.random.default_rng(seed).standard_normal((n_draws, 2) + h_true.shape)
    noise = z[:, 0] + 1j * z[:, 1]
    rows = []
    for delta in deltas:
        state = mueval.zf_precoder(h_true + np.sqrt(delta) * np.abs(h_true) * noise / math.sqrt(2.0))
        powers = p_tx * np.abs((h_true @ state.pinv) * state.alphas[..., None, :]) ** 2
        signal = np.diagonal(powers, axis1=-2, axis2=-1)
        rows.append(np.mean(signal / (powers.sum(axis=-1) - signal + 1.0), axis=0))
    return np.stack(rows)


def _shared_mc_chunk(h_true, deltas, p_tx, n_draws, seed):
    return mueval.monte_carlo_sinr(h_true, deltas, p_tx, n_draws=n_draws, seed=seed)[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=50,
                        help="timed repetitions per kernel (default 50)")
    args = parser.parse_args()

    cfg = SystemConfig()
    rng = np.random.default_rng(0)
    a_v = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.M_v))
    a_h = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.M_h))
    p_n = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.N))
    y3 = (rng.standard_normal((cfg.M_v, cfg.M_h, cfg.N))
          + 1j * rng.standard_normal((cfg.M_v, cfg.M_h, cfg.N)))
    centers = ((cfg.M_v - 1) / 2, (cfg.M_h - 1) / 2, (cfg.N - 1) / 2)

    paths = [enomp.DetectedPath(0j, float(rng.uniform(-1.4, 1.4)),
                                float(rng.uniform(-1.4, 1.4)),
                                float(rng.uniform(0.0, 0.99) * cfg.tau_max))
             for _ in range(8)]
    factors = sysmodel.path_factors(paths, cfg)
    atoms = [_kernels.kron3(*(f[:, i] for f in factors)) for i in range(len(paths))]
    y = y3.ravel()

    def lstsq_fit():
        basis = np.stack(atoms, axis=1)
        gains = np.linalg.lstsq(basis, y, rcond=None)[0]
        return y - basis @ gains

    def gram_fit():
        gains, _ = sysmodel.fit_gains(y, *factors)
        return y - sysmodel.atom_sum(gains, *factors)

    # detection and one visit on a sounding of six paths, visiting the
    # first of the paths extraction finds there
    scenario = sysmodel.generate_scenario(1, 6, cfg, seed=1)
    channel_paths = scenario.users[0]
    sounding = sysmodel.sounding_observation(channel_paths, cfg, 1.0,
                                             np.random.default_rng(2))
    book = enomp.build_codebook(cfg)
    found = enomp.extract(sounding, cfg, 1.0, book).paths
    gains = np.array([p.gain for p in found])
    visit_factors = sysmodel.path_factors(found, cfg)
    others = gains.copy()
    others[0] = 0.0
    visited = (found[0].theta, found[0].phi, found[0].tau)
    stored = tuple(f[:, 0] for f in visit_factors)
    residual = sounding - sysmodel.atom_sum(gains, *visit_factors)

    # pilots of the channel's paths under every 4th grid point plus the points
    # the found paths mark (35 beams, a fig6-sized plan), fitted on the found
    # paths
    grid = dltrain.build_angle_grid(cfg)
    indices = sorted({dltrain.optimal_grid_point(p.theta, p.phi, grid, cfg) for p in found}
                     | set(range(1, cfg.M + 1, 4)))
    plan = dltrain.TrainingPlan(
        grid_indices=tuple(indices), beams=grid[:, [j - 1 for j in indices]].conj()
        / math.sqrt(cfg.M), weights=(1,) * len(indices), feasible=True)
    pilots = dltrain.simulate_downlink_training(channel_paths, plan, cfg, 1.0,
                                                np.random.default_rng(3))

    def pilot_lstsq():
        coef = dltrain.coefficient_matrix(found, plan, cfg)
        return np.linalg.lstsq(coef, pilots, rcond=None)[0]

    def pilot_gram():
        return sysmodel.fit_gains(pilots, *dltrain.pilot_factors(found, plan.beams, cfg))[0]

    def kron3_loop_channel():
        h = np.zeros(cfg.M * cfg.N, dtype=complex)
        for p in channel_paths:
            a_v, a_h = sysmodel.steering_factors(p.theta, p.phi, cfg)
            g = p.g_dl * sysmodel.carrier_phase(p.tau, cfg)
            h += g * _kernels.kron3(a_v, a_h, sysmodel.delay_vector(p.tau, cfg))
        return h

    def whole_cube_detect():
        z = np.fft.fft(sounding.reshape(cfg.M_v, cfg.M_h, cfg.N), axis=2)
        g1 = (book.E_v @ z.reshape(cfg.M_v, -1)).reshape(len(book.thetas), cfg.M_h, -1)
        return np.argmax(np.abs(np.matmul(book.E_h, g1)) ** 2 / (cfg.M * cfg.N))

    def cross_visit():
        return enomp.newton_refine(sounding, *visited, cfg, (others, *visit_factors), stored)

    def residual_visit():
        y_local = residual + gains[0] * enomp.synth_atom(*visited, cfg)
        th, ph, ta, _, corr, _ = enomp.newton_refine(y_local, *visited, cfg)
        return y_local - np.conj(corr) / (cfg.M * cfg.N) * enomp.synth_atom(th, ph, ta, cfg)

    # ten users' downlink channels on every subcarrier, precoded on an
    # estimate 1% off, as fig6 evaluates a rate; and a Monte Carlo chunk of
    # 32 error draws around the first subcarrier, as theorem1 does
    users = sysmodel.generate_scenario(10, 6, cfg, seed=4).users
    h_rows = np.stack([recon.channel_matrix(sysmodel.downlink_channel(p, cfg), cfg)
                       for p in users], axis=1)
    noise_rng = np.random.default_rng(5)
    h_rows_hat = h_rows + 0.1 * np.abs(h_rows) * sysmodel.complex_noise(
        noise_rng, h_rows.size).reshape(h_rows.shape)
    h_chunk = h_rows[0] + 0.1 * np.abs(h_rows[0]) * sysmodel.complex_noise(
        noise_rng, 32 * h_rows[0].size).reshape((32,) + h_rows[0].shape)
    zf_fig6 = "zf_sinr_{}x{}x{}".format(*h_rows.shape)
    zf_chunk = "zf_sinr_{}x{}x{}".format(*h_chunk.shape)
    gram_fig6 = h_rows_hat @ h_rows_hat.conj().swapaxes(-1, -2)
    gram_chunk = h_chunk @ h_chunk.conj().swapaxes(-1, -2)
    gram_names = ["gram_inverse_{}x{}x{}".format(*g.shape) for g in (gram_fig6, gram_chunk)]
    mc_deltas = [1e-3, 1e-2, 1e-1]
    mc_chunk = "mc_{}x{}x{}_D{}".format(*h_chunk.shape, len(mc_deltas))
    mc_args = (h_rows[0], mc_deltas, 10.0, h_chunk.shape[0], 6)

    cases = [
        ("kron3", "numpy", _kernels.kron3, (a_v, a_h, p_n)),
        ("moment_cube", "numpy", _kernels.moment_cube, (y3, a_v, a_h, p_n) + centers),
        ("steering_factors", "scalar", sysmodel.steering_factors, (0.3, -0.7, cfg)),
        ("delay_vector", "scalar", sysmodel.delay_vector, (0.4 * cfg.tau_max, cfg)),
        ("angle_grid", "batched", dltrain.build_angle_grid, (cfg,)),
        (f"channel_L{len(channel_paths)}", "atom_sum", sysmodel.downlink_channel,
         (channel_paths, cfg)),
        (f"channel_L{len(channel_paths)}", "kron3", kron3_loop_channel, ()),
        ("gain_fit_L8", "lstsq", lstsq_fit, ()),
        ("gain_fit_L8", "gram", gram_fit, ()),
        (f"pilot_ls_L{len(found)}", "lstsq", pilot_lstsq, ()),
        (f"pilot_ls_L{len(found)}", "gram", pilot_gram, ()),
        ("stopping_statistic", "fftn", enomp.stopping_statistic, (sounding, cfg)),
        ("omp_detect", "rows", enomp.omp_detect, (sounding, book)),
        ("omp_detect", "cube", whole_cube_detect, ()),
        (f"refine_L{len(found)}", "cross", cross_visit, ()),
        (f"refine_L{len(found)}", "residual", residual_visit, ()),
        (zf_fig6, "inv", _zf_sinr, (h_rows, h_rows_hat, 10.0)),
        (zf_fig6, "eigh", _eigh_zf_sinr, (h_rows, h_rows_hat, 10.0)),
        (zf_fig6, f"slices{mueval._ZF_CHUNK}", mueval.zf_sinr, (h_rows, h_rows_hat, 10.0)),
        *((zf_fig6, f"slices{size}", _sliced_zf_sinr, (h_rows, h_rows_hat, 10.0, size))
          for size in (8, 16, 64, 128) if size != mueval._ZF_CHUNK),
        (zf_chunk, "inv", _zf_sinr, (h_rows[0], h_chunk, 10.0)),
        (zf_chunk, "eigh", _eigh_zf_sinr, (h_rows[0], h_chunk, 10.0)),
        (gram_names[0], "certified", mueval._gram_inverse, (gram_fig6, cfg.M)),
        (gram_names[0], "eigvalsh-first", _eigvalsh_first_gram_inverse, (gram_fig6, cfg.M)),
        (gram_names[1], "certified", mueval._gram_inverse, (gram_chunk, cfg.M)),
        (gram_names[1], "eigvalsh-first", _eigvalsh_first_gram_inverse, (gram_chunk, cfg.M)),
        (mc_chunk, "kxk", _shared_mc_chunk, mc_args),
        (mc_chunk, "pinv", _materialized_mc_chunk, mc_args),
    ]

    print(f"system {cfg.M_v}x{cfg.M_h} antennas x {cfg.N} subcarriers, "
          f"best of {args.repeats} runs\n")
    print(f"{'kernel':<24}{'impl':<16}{'best':>12}")
    results = {}
    for name, impl, fn, fn_args in cases:
        best = _time(fn, fn_args, args.repeats)
        results[(name, impl)] = best
        print(f"{name:<24}{impl:<16}{best * 1e6:>10.1f} us")
    ratio = results[("gain_fit_L8", "lstsq")] / results[("gain_fit_L8", "gram")]
    print(f"gain_fit_L8: the factored Gram fit is {ratio:.1f}x the lstsq speed")
    pilot = f"pilot_ls_L{len(found)}"
    ratio = results[(pilot, "lstsq")] / results[(pilot, "gram")]
    print(f"{pilot} (T_p = {plan.T_p}): fit_gains on the pilot factors is {ratio:.1f}x "
          "the lstsq speed")
    channel = f"channel_L{len(channel_paths)}"
    ratio = results[(channel, "kron3")] / results[(channel, "atom_sum")]
    print(f"{channel}: the factored channel is {ratio:.1f}x the per-path kron3 speed")
    for name in (zf_fig6, zf_chunk):
        ratio = results[(name, "eigh")] / results[(name, "inv")]
        print(f"{name}: ZF by the Gram inverse is {ratio:.2f}x the eigh-precoder speed")
    for impl, best in results.items():
        if impl[0] == zf_fig6 and impl[1].startswith("slices"):
            ratio = results[(zf_fig6, "inv")] / best
            print(f"{zf_fig6}: {impl[1]} is {ratio:.2f}x the whole-stack speed")
    for name in gram_names:
        ratio = results[(name, "eigvalsh-first")] / results[(name, "certified")]
        print(f"{name}: the certified inverse is {ratio:.2f}x the eigvalsh-first speed")
    ratio = results[(mc_chunk, "pinv")] / results[(mc_chunk, "kxk")]
    print(f"{mc_chunk}: Monte Carlo on the shared K x K products is {ratio:.2f}x the "
          "per-delta materialized ZF speed")

    enomp.extract(sounding, cfg, 1.0, book)  # warm up
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    result = enomp.extract(sounding, cfg, 1.0, book)
    dt = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(f"\nend-to-end extraction ({len(result.paths)} paths): {dt * 1e3:.0f} ms, "
          f"{faults} minor page faults")


if __name__ == "__main__":
    main()
