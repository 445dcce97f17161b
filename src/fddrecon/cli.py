"""Command-line entry point: canned experiments plus a one-shot extractor."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import enomp, harness, sysmodel


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML config file (schema in README)")
    parser.add_argument("--seed", type=int, help="master seed override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fddrecon",
        description="Path-based downlink channel reconstruction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "fig4": "uplink estimation NMSE vs SNR (LS / LMMSE / path extraction)",
        "fig6": "scheduled training length, gain NMSE, and sum-rates vs delta",
        "theorem1": "analytic expected SINR vs Monte Carlo over the error model",
    }
    for name in harness.EXPERIMENTS:
        p = sub.add_parser(name, help=helps[name])
        _add_common(p)
        p.add_argument("--trials", type=int, help="Monte Carlo trial count override")
        p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p = sub.add_parser("extract", help="run one path extraction and print the detected paths")
    _add_common(p)
    p.add_argument("--snr-db", type=float, default=0.0, help="transmit SNR in dB (default 0)")
    p.add_argument("--paths", type=int, default=6, help="number of true paths (default 6)")
    return parser


def _run_experiment(args) -> int:
    raw = harness.read_config(args.config) if args.config else {}
    raw.setdefault("experiment", args.command)
    if raw["experiment"] != args.command:
        raise ValueError(
            f"config file is for experiment {raw['experiment']!r} but {args.command!r} was requested"
        )
    for name in ("seed", "trials", "out"):
        if getattr(args, name) is not None:
            raw[name] = getattr(args, name)
    config = harness.config_from_dict(raw)
    rows = harness.run_experiment(config)
    if config.out:
        print(f"wrote {len(rows)} rows to {config.out}")
    else:
        harness.rows_to_csv(rows, sys.stdout)
    return 0


def _run_extract(args) -> int:
    raw = harness.read_config(args.config) if args.config else {}
    seed_flag = {} if args.seed is None else {"seed": args.seed}
    # the file's own experiment (fig4 when it names none) sets the value contract
    config = harness.config_from_dict({"experiment": "fig4", "seed": 0, **raw, **seed_flag})
    cfg = config.system
    seed = config.seed
    p_tx = sysmodel.db_to_linear("snr_db", args.snr_db)
    sysmodel.check_integer("paths", args.paths, 1)
    # fig4's trial 0 streams: the scenario from stream 0, the noise from stream 1
    scenario = sysmodel.generate_scenario(1, args.paths, cfg, seed=harness._trial_rng(seed, 0, 0),
                                          att_range_db=(0.0, 0.0))
    paths = scenario.users[0]
    y = sysmodel.sounding_observation(paths, cfg, p_tx, harness._trial_rng(seed, 1, 0))
    result = enomp.extract(y, cfg, p_tx)
    print(f"true paths: {len(paths)}   detected: {len(result.paths)}   "
          f"iterations: {result.iterations}   stop: {result.stop_reason}")
    print(f"{'':>4}{'|gain|':>10}  {'downtilt':>9}  {'azimuth':>9}  {'delay_ns':>10}")
    for i, p in enumerate(sorted(paths, key=lambda q: -abs(q.g_ul))):
        print(f"T{i:<3}{abs(p.g_ul):>10.4f}  {p.theta:>9.5f}  {p.phi:>9.5f}  {p.tau * 1e9:>10.2f}")
    for i, p in enumerate(sorted(result.paths, key=lambda q: -abs(q.gain))):
        print(f"E{i:<3}{abs(p.gain):>10.4f}  {p.theta:>9.5f}  {p.phi:>9.5f}  {p.tau * 1e9:>10.2f}")
    rel = np.linalg.norm(result.residual) / np.linalg.norm(y)
    print(f"relative residual: {rel:.3e}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "extract":
            return _run_extract(args)
        return _run_experiment(args)
    except Exception as exc:  # surface as exit code per CLI contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
