"""Timings of the hot numeric kernels at full system scale.

One row per kernel the pinned workloads (fig4, fig6, theorem1) call: the
weighted-moment contraction, one scalar call each of the steering and delay
builders (extraction makes thousands), the 128-beam angle grid, the downlink
channel of six paths, the joint gain fit of eight atoms with its residual,
the pilot gain least squares under a fig6-sized plan, the stopping
statistic from a delay transform, an iteration's delay transform with its
bin energies and stop test, codebook detection on that transform and those
energies, one refinement visit from stored factors and the delay row an
earlier visit kept, the LMMSE baseline filter of one sounding, ZF precoding plus SINR at
fig6 size (`mueval.zf_sinr`), the Gram inverse of a 32-Gram slice, one
Monte Carlo chunk of 32 error draws at three deltas (a single chunk, drawn
on the calling thread: it starts no worker) and a 1000-draw Monte Carlo call at three
deltas, as a theorem1 trial makes it; then one end-to-end path extraction
with its minor page faults.

Compare an implementation change by running this script at both commits on
one machine, alternating between them.

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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=50,
                        help="timed repetitions per kernel (default 50)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

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
    y = y3.ravel()

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
    # an extraction iteration's delay transform and bin energies, shared by
    # its stop test and its detection, at the extraction threshold
    transform = enomp.delay_transform(sounding, cfg)
    energy = enomp._bin_energy(transform)
    threshold = enomp.detection_threshold(cfg.M * cfg.N, cfg.P_fa)

    def stop_test():
        z = enomp.delay_transform(sounding, cfg)
        return enomp._below_threshold(z, enomp._bin_energy(z), threshold, cfg)

    visit_factors = sysmodel.path_factors(found, cfg)
    others = np.array([p.gain for p in found])
    others[0] = 0.0
    visited = (found[0].theta, found[0].phi, found[0].tau)
    stored = sysmodel.atom_factors(*visited, cfg)
    kept_row = enomp._delay_row(sounding.reshape(cfg.M_v, cfg.M_h, cfg.N), stored[2])

    def cross_visit():
        # as extract calls it: the track's memo holds the row its last,
        # accepted visit kept (a fresh list, as the visit overwrites it)
        return enomp.newton_refine(sounding, *visited, cfg, (others, *visit_factors), stored,
                                   [kept_row])

    covariance = recon.channel_covariance(cfg, (-10.0, 0.0))

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

    def pilot_fit():
        return sysmodel.fit_gains(pilots, *dltrain.pilot_factors(found, plan.beams, cfg))[0]

    # ten users' downlink channels on every subcarrier, precoded on an
    # estimate 1% off, as fig6 evaluates a rate; and Monte Carlo error draws
    # around the first subcarrier, as theorem1 does: one chunk of 32, and the
    # 1000 of a pinned theorem1 trial
    users = sysmodel.generate_scenario(10, 6, cfg, seed=4).users
    h_rows = np.stack([recon.channel_matrix(sysmodel.downlink_channel(p, cfg), cfg)
                       for p in users], axis=1)
    noise_rng = np.random.default_rng(5)
    h_rows_hat = h_rows + 0.1 * np.abs(h_rows) * sysmodel.complex_noise(
        noise_rng, h_rows.size).reshape(h_rows.shape)
    h_chunk = h_rows[0] + 0.1 * np.abs(h_rows[0]) * sysmodel.complex_noise(
        noise_rng, 32 * h_rows[0].size).reshape((32,) + h_rows[0].shape)
    gram_chunk = h_chunk @ h_chunk.conj().swapaxes(-1, -2)
    mc_deltas = [1e-3, 1e-2, 1e-1]

    cases = [
        ("moment_cube", _kernels.moment_cube, (y3, a_v, a_h, p_n) + centers),
        ("steering_factors", sysmodel.steering_factors, (0.3, -0.7, cfg)),
        ("delay_vector", sysmodel.delay_vector, (0.4 * cfg.tau_max, cfg)),
        ("angle_grid", dltrain.build_angle_grid, (cfg,)),
        (f"channel_L{len(channel_paths)}", sysmodel.downlink_channel, (channel_paths, cfg)),
        ("gain_fit_L8", gram_fit, ()),
        (f"pilot_ls_L{len(found)}", pilot_fit, ()),
        ("stopping_statistic", enomp.stopping_statistic, (transform, cfg)),
        ("stop_test", stop_test, ()),
        ("omp_detect", enomp.omp_detect, (sounding, book, transform, energy)),
        (f"refine_L{len(found)}", cross_visit, ()),
        (f"lmmse_{cfg.M}x{cfg.N}", recon.lmmse_baseline, (sounding, covariance, cfg, 1.0)),
        ("zf_sinr_{}x{}x{}".format(*h_rows.shape), mueval.zf_sinr, (h_rows, h_rows_hat, 10.0)),
        ("gram_inverse_{}x{}x{}".format(*gram_chunk.shape), mueval._gram_inverse,
         (gram_chunk, cfg.M)),
        ("mc_{}x{}x{}_D{}".format(*h_chunk.shape, len(mc_deltas)), mueval.monte_carlo_sinr,
         (h_rows[0], mc_deltas, 10.0, h_chunk.shape[0], 6)),
        ("mc_{}x{}x{}_D{}".format(1000, *h_chunk.shape[1:], len(mc_deltas)),
         mueval.monte_carlo_sinr, (h_rows[0], mc_deltas, 10.0, 1000, 6)),
    ]

    print(f"system {cfg.M_v}x{cfg.M_h} antennas x {cfg.N} subcarriers, "
          f"best of {args.repeats} runs\n")
    print(f"{'kernel':<28}{'best':>12}")
    for name, fn, fn_args in cases:
        print(f"{name:<28}{_time(fn, fn_args, args.repeats) * 1e6:>10.1f} us")

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
