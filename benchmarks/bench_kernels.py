"""Timings of the hot numeric kernels at full system scale.

Runs the two hot kernels (atom synthesis and the weighted-moment
contraction), one scalar call each of the steering and delay builders
(extraction makes thousands of them), the batched build of the 128-beam
angle grid, the joint gain fit of eight atoms both ways (lstsq on the
materialized basis as extraction once did, and `enomp.fit_gains` on the
factored Gram), each followed by its residual, plus one end-to-end path
extraction, and prints a table.

Usage:
    python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import math
import time

import numpy as np

from fddrecon import _kernels, dltrain, enomp, sysmodel
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
    factors = enomp.path_factors(paths, cfg)
    atoms = [_kernels.kron3(*(f[:, i] for f in factors)) for i in range(len(paths))]
    y = y3.ravel()

    def lstsq_fit():
        basis = np.stack(atoms, axis=1)
        gains = np.linalg.lstsq(basis, y, rcond=None)[0]
        return y - basis @ gains

    def gram_fit():
        gains, _ = enomp.fit_gains(y, *factors)
        return y - enomp.atom_sum(gains, *factors)

    cases = [
        ("kron3", "numpy", _kernels.kron3, (a_v, a_h, p_n)),
        ("moment_cube", "numpy", _kernels.moment_cube, (y3, a_v, a_h, p_n) + centers),
        ("steering_factors", "scalar", sysmodel.steering_factors, (0.3, -0.7, cfg)),
        ("delay_vector", "scalar", sysmodel.delay_vector, (0.4 * cfg.tau_max, cfg)),
        ("angle_grid", "batched", dltrain.build_angle_grid, (cfg,)),
        ("gain_fit_L8", "lstsq", lstsq_fit, ()),
        ("gain_fit_L8", "gram", gram_fit, ()),
    ]

    print(f"system {cfg.M_v}x{cfg.M_h} antennas x {cfg.N} subcarriers, "
          f"best of {args.repeats} runs\n")
    print(f"{'kernel':<18}{'impl':<9}{'best':>12}")
    results = {}
    for name, impl, fn, fn_args in cases:
        best = _time(fn, fn_args, args.repeats)
        results[(name, impl)] = best
        print(f"{name:<18}{impl:<9}{best * 1e6:>10.1f} us")
    ratio = results[("gain_fit_L8", "lstsq")] / results[("gain_fit_L8", "gram")]
    print(f"gain_fit_L8: the factored Gram fit is {ratio:.1f}x the lstsq speed")

    scenario = sysmodel.generate_scenario(1, 6, cfg, seed=1)
    y = sysmodel.sounding_observation(scenario.users[0], cfg,
                                      np.random.default_rng(2))
    book = enomp.build_codebook(cfg)
    enomp.extract(y, cfg, book)  # warm up
    t0 = time.perf_counter()
    result = enomp.extract(y, cfg, book)
    dt = time.perf_counter() - t0
    print(f"\nend-to-end extraction ({len(result.paths)} paths): {dt * 1e3:.0f} ms")


if __name__ == "__main__":
    main()
