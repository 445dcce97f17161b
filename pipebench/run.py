"""Pipeline benchmark for fddrecon: throughput, set-up, memory and accuracy
of three pinned workloads, plus a traced run with per-layer spans.

    python3 pipebench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it uses the `src/` tree next to this directory. Load
is a closed loop: one client, one process, one experiment at a time. Every
measured run is a fresh process (child.py) with BLAS pinned to one thread
that calls `fddrecon.cli.main([<experiment>, --config <pinned YAML>, --seed
<n>, --out <csv>])`. Runs repeat until `--seconds` is used up (at least
MIN_RUNS); set-up time and memory are the median over runs, and throughput
is pooled over them and scaled to a reference host speed by a fixed probe
timed before every run and after the last. With `--workload all` the runs
visit the workloads in turn, so a slow spell of the host falls on all of
them.

`--trace 0` reports the end-to-end metrics from untraced runs:

    setup_s       s        from just before `import fddrecon` to the first
                           `generate_scenario` call (config, codebook, angle
                           grid, LMMSE covariance)
    trials_per_s  trials/s trials / (end of run - first trial start), both
                           summed over runs, at the reference host speed:
                           times the mean time of probe_s over the
                           invocation / PROBE_REFERENCE_S
    peak_rss_mb   MB       peak resident set (VmHWM) of the run's process
    ok_share      ratio    1 - failed_share: failed evaluations are the
                           `failed_trials` rows plus every evaluation of a
                           run that exits non-zero or fails an output check
    accuracy      dB       minus the workload's headline error in dB (see
                           accuracy_figures), so that doubling the error
                           lowers it by 3; deterministic for a fixed seed

Every workload must emit every one of these and none may read 0, which is
why the failure share and the workload-specific accuracy figures appear in
this form; the text report prints `failed_share`, `extract_nmse_db`,
`t_pilot_mean`, `rate_recon_gap`, `gain_nmse_db` and `sinr_model_err`
themselves.

Why the scaling: the host this was written on (2 vCPUs of a shared Xeon)
changes speed by up to 1.8x over seconds to minutes while CPU time stays
equal to wall time, and the unscaled rate of 40 s runs spread up to 0.37
(IQR / median over five seeds, pipeline_fig6). probe_s is the benchmark's
own numpy work, the same on every commit, so only the host moves it; run.py
times it between runs, so it takes nothing from the program's time. Over
ten seeds the scaled rate spread 0.04-0.10 where the unscaled one spread
0.06-0.17. The text report prints the unscaled rate and the probe times.

`--trace 1` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones (tracer.py): calls, inclusive and self seconds
of each wrapped function, exceptions per layer, counters read from return
values, computed kernel operation and byte counts, each kernel's share of
traced wall time, and the tracing overhead (traced minus untraced wall).

Every run's CSV must be byte-identical to every other run's at the same
seed, traced or not. The last stdout line is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`; a per-run record with the
machine facts goes to `.pipebench_out/`. Exit status is 1 when a check
fails and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".pipebench_out")

# One BLAS thread: a closed loop of one client, and on a 2-core box fig4 ran
# faster this way than with OpenBLAS's default of one thread per core.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEFAULT_SEED = 20240
MIN_RUNS = 3      # untraced rounds per invocation, for the set-up median
MIN_PAIRS = 1     # untraced/traced pairs per traced invocation
MAX_RUNS = 40
BUDGET_S = 150.0   # launch no run expected to end past this
HARD_LIMIT_S = 170.0   # kill a run still going at this point (exit within 180 s)
# About probe_s's mean time on the host this was written on (0.45-0.65 s):
# the reference speed that trials_per_s is scaled to.
PROBE_REFERENCE_S = 0.5

sys.path[:0] = [HERE, SRC]
from tracer import COUNTERS, LAYERS, WRAPPED  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # pinned YAML, read by fddrecon's own config loader
    gates: bool = True   # acceptance-suite output checks (off for toy sizes)


# Why these three: uplink_fig4 is extraction alone (enomp, _kernels) and
# bypasses ZF/Monte Carlo; pipeline_fig6 is the only one that runs the whole
# chain, scheduler, pilot LS and reconstruction included; sinr_theorem1 is
# Monte Carlo over thousands of small ZF SVDs and never calls extraction.
WORKLOADS = {name: Workload(name, os.path.join(HERE, "workloads", name + ".yaml"))
             for name in ("uplink_fig4", "pipeline_fig6", "sinr_theorem1")}

END_TO_END_UNITS = {
    "setup_s": "s", "trials_per_s": "trials/s", "peak_rss_mb": "MB",
    "ok_share": "ratio", "accuracy": "dB",
}


# ------------------------------------------------------------------ outputs
def read_rows(path):
    """CSV rows as {(metric, sweep): value}."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return {(r["metric"], float(r["sweep"])): float(r["value"]) for r in reader}


def sweep_of(config):
    return config.snr_db if config.experiment == "fig4" else config.deltas


def gate_failures(config, rows):
    """The acceptance suite's output gates, applied at the pinned size."""
    bad = []
    sweep = sweep_of(config)
    if config.experiment == "fig4":
        for s in sweep:
            e, m, ls = (rows[k, s] for k in ("nmse_enomp", "nmse_lmmse", "nmse_ls"))
            if not e < m < ls:
                bad.append(f"snr {s}: nmse_enomp {e:.3e} < nmse_lmmse {m:.3e} < nmse_ls {ls:.3e} fails")
    elif config.experiment == "fig6":
        t_p = [rows["t_pilot", d] for d in sorted(sweep)]
        for d in sweep:
            t, rec = rows["t_pilot", d], rows["rate_recon", d]
            perfect, lmmse = rows["rate_perfect", d], rows["rate_lmmse", d]
            if not 8.0 <= t <= 70.0:
                bad.append(f"delta {d}: t_pilot {t} outside [8, 70]")
            if not rec >= 0.85 * perfect:
                bad.append(f"delta {d}: rate_recon {rec:.3f} < 0.85 x rate_perfect {perfect:.3f}")
            if not rec > lmmse:
                bad.append(f"delta {d}: rate_recon {rec:.3f} <= rate_lmmse {lmmse:.3f}")
        if any(a < b for a, b in zip(t_p, t_p[1:])):
            bad.append(f"t_pilot {t_p} increases with delta")
    else:
        for d in sweep:
            if d <= 1e-2 and not rows["rel_error_max", d] <= 0.10:
                bad.append(f"delta {d}: rel_error_max {rows['rel_error_max', d]:.4f} > 0.10")
    return bad


def accuracy_figures(config, rows):
    """Deterministic accuracy figures by name -> (value, unit), plus the
    workload's higher-is-better `accuracy`, minus its headline error in dB:

    fig4      extract_nmse_db = 10 log10(mean nmse_enomp over SNR);
              accuracy = -extract_nmse_db
    fig6      t_pilot_mean = mean scheduled T_p over delta;
              rate_recon_gap = 1 - mean(rate_recon) / mean(rate_perfect);
              gain_nmse_db = mean over delta of 10 log10(gain_nmse);
              accuracy = -gain_nmse_db
    theorem1  sinr_model_err = rel_error_max at delta = 1e-2;
              accuracy = -10 log10(sinr_model_err)

    On fig6 the downlink gain NMSE, which the scheduler sizes T_p to keep
    below delta, stands for accuracy rather than rate_recon_gap: over seeds
    the gap's quartiles lie a factor of two apart, so a bound wide enough
    for its spread would let it double unflagged.
    """
    sweep = sweep_of(config)
    if config.experiment == "fig4":
        db = 10.0 * math.log10(statistics.fmean(rows["nmse_enomp", s] for s in sweep))
        return {"extract_nmse_db": (db, "dB")}, -db
    if config.experiment == "fig6":
        gap = 1.0 - (statistics.fmean(rows["rate_recon", d] for d in sweep)
                     / statistics.fmean(rows["rate_perfect", d] for d in sweep))
        db = statistics.fmean(10.0 * math.log10(rows["gain_nmse", d]) for d in sweep)
        return {"t_pilot_mean": (statistics.fmean(rows["t_pilot", d] for d in sweep), "symbols"),
                "rate_recon_gap": (gap, "ratio"), "gain_nmse_db": (db, "dB")}, -db
    err = rows["rel_error_max", 1e-2]
    return {"sinr_model_err": (err, "ratio")}, -10.0 * math.log10(err)


# --------------------------------------------------------------------- runs
def probe_s():
    """Seconds taken by a fixed piece of work like the workloads' own: a
    tall complex least squares the size of extraction's gain refit (32768 x
    6), small complex SVDs (ZF), an FFT (matched filter) and a Python loop
    (per-call overhead), on one BLAS thread. It is the benchmark's own code,
    so it runs the same on every commit and only the host's speed moves it."""
    import numpy as np

    rng = np.random.default_rng(0)
    tall = rng.standard_normal((32768, 6)) + 1j * rng.standard_normal((32768, 6))
    rhs = tall.sum(axis=1)
    svd_in = rng.standard_normal((10, 128)) + 1j * rng.standard_normal((10, 128))
    signal = rng.standard_normal(4096) + 0j
    t0 = time.perf_counter()
    for _ in range(32):
        np.linalg.lstsq(tall, rhs, rcond=None)
    for _ in range(240):
        np.linalg.svd(svd_in)
        np.fft.fft(signal)
        sum(i * i for i in range(500))
    return time.perf_counter() - t0


def run_child(workload, config, seed, trace, out_dir, tag, timeout):
    """One fresh-process run; returns its parsed record."""
    csv_path = os.path.join(out_dir, tag + ".csv")
    result_path = os.path.join(out_dir, tag + ".json")
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, CHILD, config.experiment, workload.config, str(seed),
            csv_path, result_path, str(trace)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:   # subprocess.run has killed and reaped it
        returncode, stderr = None, f"killed after {timeout:.1f} s"
    record = {"tag": tag, "traced": bool(trace), "returncode": returncode,
              "process_s": time.monotonic() - t0, "problems": []}
    result = None
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        record.update(result)
    ok = returncode == 0 and result is not None and result["exit_code"] == 0 \
        and len(result["trial_starts"]) == config.trials and os.path.exists(csv_path)
    evaluations = config.trials * len(sweep_of(config))
    record["attempted"] = evaluations
    if not ok:
        tail = stderr.strip().splitlines()[-3:] if stderr else []
        record["problems"].append(f"run failed (exit {returncode}): {' | '.join(tail)}")
        record["failed"] = evaluations
        record["ok"] = False
        return record
    with open(csv_path, "rb") as fh:
        record["csv_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    rows = read_rows(csv_path)
    record["rows"] = rows   # kept out of result.json
    failed = int(sum(rows["failed_trials", s] for s in sweep_of(config)))
    if workload.gates:
        record["problems"].extend(gate_failures(config, rows))
    record["failed"] = evaluations if record["problems"] else failed
    record["ok"] = True
    starts = record["trial_starts"]
    record["setup_s"] = starts[0] - record["t_import"]
    record["trials_per_s"] = config.trials / (record["t_end"] - starts[0])
    record["wall_s"] = record["t_end"] - record["t_import"]
    record["peak_rss_mb"] = record["maxrss_kb"] / 1024.0
    return record


def measure(jobs, seed, seconds, trace, min_runs):
    """Repeat rounds until `seconds` per job is used up (at least `min_runs`
    rounds). A round gives each job (workload, config, out_dir) in turn one
    untraced run, or one untraced/traced pair in alternating order. Returns
    each job's runs."""
    runs = [[] for _ in jobs]
    start = time.monotonic()
    longest = rounds = 0
    while True:
        round_start = time.monotonic()
        order = ((0, 1) if rounds % 2 == 0 else (1, 0)) if trace else (0,)
        for (workload, config, out_dir), job_runs in zip(jobs, runs):
            for t in order:
                probe = probe_s()
                timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - start))
                job_runs.append(run_child(workload, config, seed, t, out_dir,
                                          f"run{len(job_runs):02d}-t{t}", timeout))
                job_runs[-1]["probe_s"] = [probe]
        rounds += 1
        now = time.monotonic()
        longest = max(longest, now - round_start)
        next_end = now - start + longest
        if rounds >= MAX_RUNS or next_end > BUDGET_S:
            break
        if rounds >= min_runs and next_end > seconds * len(jobs):
            break
    for job_runs in runs:
        job_runs[-1]["probe_s"].append(probe_s())
    return runs


# ------------------------------------------------------------------ metrics
def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def wall_trials_per_s(ok):
    """Trials over trial time, both summed over the runs `ok`, unscaled."""
    return (sum(len(r["trial_starts"]) for r in ok)
            / sum(r["t_end"] - r["trial_starts"][0] for r in ok))


def end_to_end(runs, accuracy):
    ok = [r for r in runs if r["ok"] and not r["traced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    values = {
        "setup_s": _median(r["setup_s"] for r in ok),
        "trials_per_s": (wall_trials_per_s(ok) * statistics.fmean(
            p for r in runs for p in r["probe_s"]) / PROBE_REFERENCE_S),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in ok),
        "ok_share": 1.0 - failed / attempted,
        "accuracy": accuracy,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(runs):
    """Medians over the traced runs; counts repeat exactly from run to run."""
    traced = [r for r in runs if r["ok"] and r["traced"]]
    untraced = [r for r in runs if r["ok"] and not r["traced"]]
    metrics = {}

    def put(name, values, unit):
        metrics[name] = {"value": _median(values), "unit": unit}

    for _, _, label in WRAPPED:
        fn = [r["trace"]["functions"][label] for r in traced]
        put(label + ".calls", (f["calls"] for f in fn), "count")
        put(label + ".s", (f["s"] for f in fn), "s")
        put(label + ".self_s", (f["self_s"] for f in fn), "s")
    for layer in LAYERS:
        put(layer + ".errors", (r["trace"]["errors"][layer] for r in traced), "count")
    for name, unit in COUNTERS:
        put(name, (r["trace"]["counters"][name] for r in traced), unit)

    def accept_ratio(r):
        attempts = r["trace"]["functions"]["enomp.newton_refine"]["calls"]
        return r["trace"]["counters"]["enomp.newton.accepted"] / attempts if attempts else 0.0

    put("enomp.newton.accept_ratio", (accept_ratio(r) for r in traced), "ratio")
    for kernel, labels in (("kron3", ("kernels.kron3", "recon.kron3")),
                           ("moment_cube", ("kernels.moment_cube",))):
        put(f"kernels.{kernel}.share",
            (sum(r["trace"]["functions"][lb]["s"] for lb in labels) / r["wall_s"] for r in traced),
            "ratio")
    put("trace.spans", (r["trace"]["spans"] for r in traced), "count")
    traced_wall = _median(r["wall_s"] for r in traced)
    untraced_wall = _median(r["wall_s"] for r in untraced)
    put("trace.wall_s", [traced_wall], "s")
    put("trace.untraced_wall_s", [untraced_wall], "s")
    put("trace.overhead_s", [traced_wall - untraced_wall], "s")
    return metrics


# ------------------------------------------------------------------- report
def git_commit():
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(name, config, seed, runs, figures, e2e, layers, problems, facts):
    ok = [r for r in runs if r["ok"]]
    n_untraced = sum(not r["traced"] for r in ok)
    print(f"== {name}: {config.experiment}, seed {seed}, {config.trials} trials x "
          f"{len(sweep_of(config))} sweep points per run, {len(runs)} runs "
          f"({n_untraced} untraced ok)")
    print("   machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    if n_untraced:
        for key in ("setup_s", "trials_per_s", "peak_rss_mb"):
            vals = sorted(r[key] for r in ok if not r["traced"])
            print(f"   {key:<16}{_fmt(e2e[key]['value']):>12} {END_TO_END_UNITS[key]:<9}"
                  f" over {len(vals)} runs; per run {'unscaled ' * (key == 'trials_per_s')}"
                  f"min {_fmt(vals[0])}, max {_fmt(vals[-1])}")
        probes = sorted(p for r in runs for p in r["probe_s"])
        print(f"   unscaled: {_fmt(wall_trials_per_s([r for r in ok if not r['traced']]))}"
              f" trials/s; probe_s mean {_fmt(statistics.fmean(probes))} s over"
              f" {len(probes)}, min {_fmt(probes[0])}, max {_fmt(probes[-1])},"
              f" reference {PROBE_REFERENCE_S} s")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"   {'failed_share':<16}{_fmt(failed / attempted):>12} {'ratio':<9}"
          f" {failed} of {attempted} evaluations")
    for key, (value, unit) in figures.items():
        print(f"   {key:<16}{_fmt(value):>12} {unit:<9} deterministic at this seed")
    traced = [r for r in ok if r["traced"]]
    if layers:
        fn = [(lb, layers[lb + ".calls"]["value"], layers[lb + ".s"]["value"],
               layers[lb + ".self_s"]["value"]) for _, _, lb in WRAPPED]
        wall = layers["trace.wall_s"]["value"]
        print(f"   traced: median of {len(traced)}, wall {wall:.3f} s, overhead "
              f"{layers['trace.overhead_s']['value']:+.3f} s, {layers['trace.spans']['value']:.0f} spans")
        print(f"   {'function':<36}{'calls':>9}{'s':>10}{'self_s':>10}{'self %':>8}")
        for lb, calls, incl, own in sorted(fn, key=lambda f: -f[3]):
            if calls:
                print(f"   {lb:<36}{calls:>9.0f}{incl:>10.3f}{own:>10.3f}{100 * own / wall:>7.1f}%")
        for key, m in layers.items():
            if not key.endswith((".calls", ".s", ".self_s")) and not key.startswith("trace."):
                print(f"   {key:<36}{_fmt(m['value']):>14} {m['unit']}")
    for p in problems:
        print(f"   CHECK FAILED: {p}")
    if not problems:
        print("   checks: output gates and CSV determinism passed")


def summarize(workload, config, seed, seconds, trace, out_dir, runs, quiet):
    """Check and report one workload's runs; returns (summary JSON object,
    record)."""
    problems = [f"{r['tag']}: {p}" for r in runs for p in r["problems"]]
    ok = [r for r in runs if r["ok"]]
    digests = {r["csv_sha256"] for r in ok}
    if len(digests) > 1:
        problems.append("CSV differs between runs at one seed: "
                        + ", ".join(f"{r['tag']}={r['csv_sha256'][:12]}" for r in ok))
    have_untraced = any(not r["traced"] for r in ok)
    have_traced = any(r["traced"] for r in ok)
    if not have_untraced or (trace and not have_traced):
        problems.append("no successful run to take metrics from")
        summary, figures, e2e, layers = None, {}, {}, {}
    else:
        figures, accuracy = accuracy_figures(config, ok[0]["rows"])
        e2e = end_to_end(runs, accuracy)
        layers = per_layer(runs) if trace else {}
        summary = {"correct": not problems,
                   "attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "metrics": layers if trace else e2e}
    facts = dict(ok[0]["facts"]) if ok else {}
    facts["commit"] = git_commit()
    record = {"workload": workload.name, "experiment": config.experiment, "seed": seed,
              "seconds": seconds, "trace": trace, "facts": facts,
              "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
              "problems": problems, "summary": summary,
              "runs": [{k: v for k, v in r.items() if k != "rows"} for r in runs]}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if not quiet:
        print_report(workload.name, config, seed, runs, figures, e2e, layers, problems, facts)
    return summary, record


def run_workloads(workloads, seed, seconds, trace, min_runs=None, quiet=False,
                  out_root=OUT_DIR):
    """Measure the workloads, their runs taken in turn; returns a (summary
    JSON object, record) pair for each."""
    if min_runs is None:
        min_runs = MIN_PAIRS if trace else MIN_RUNS
    import yaml
    from fddrecon import harness

    jobs = []
    for workload in workloads:
        with open(workload.config, encoding="utf-8") as fh:
            config = harness.config_from_dict({**yaml.safe_load(fh), "seed": seed})
        out_dir = os.path.join(out_root, f"{workload.name}-seed{seed}-trace{trace}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        jobs.append((workload, config, out_dir))
    all_runs = measure(jobs, seed, seconds, trace, min_runs)
    return [summarize(workload, config, seed, seconds, trace, out_dir, runs, quiet)
            for (workload, config, out_dir), runs in zip(jobs, all_runs)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fddrecon", "__init__.py")):
        print(f"error: no fddrecon sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    compileall.compile_dir(os.path.join(SRC, "fddrecon"), quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = run_workloads([WORKLOADS[n] for n in names], args.seed, args.seconds, args.trace)
    summaries = {}
    for name, (summary, _) in zip(names, results):
        if summary is None:
            print(f"error: {name}: no successful run", file=sys.stderr)
            return 1
        summaries[name] = summary
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {f"{n}.{k}": v for n, s in summaries.items()
                             for k, v in s["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
