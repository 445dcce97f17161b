"""One measured run of one workload, in a fresh process.

Started by run.py with fddrecon's sources on PYTHONPATH and BLAS pinned to
one thread. It runs `fddrecon.cli.main([<experiment>, --config, --seed,
--out])` and writes a JSON result: the clock just before `import fddrecon`,
at every trial start and at the end, the exit code, peak RSS, machine facts
and, when traced, the per-layer summary.

Untraced, the only hook is a wrapper on `sysmodel.generate_scenario`, which
every runner calls once at the start of each trial: its first call ends
set-up, and each call starts a trial.

    python3 pipebench/child.py EXPERIMENT CONFIG SEED CSV RESULT TRACE
"""

import json
import os
import resource
import sys
import time

from tracer import Tracer


def _blas_facts(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _peak_rss_kb():
    """Peak resident set of this process: VmHWM, which exec starts afresh.
    ru_maxrss carries over the parent's peak through fork and exec, so for
    a workload smaller than run.py it reported run.py's size."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    experiment, config, seed, csv_path, result_path, trace = argv
    t_import = time.perf_counter()
    import fddrecon
    from fddrecon import cli, sysmodel

    tracer = None
    trial_starts = []
    if trace == "1":
        tracer = Tracer()
        tracer.install(fddrecon)
        trial_starts = tracer.trial_starts
    else:
        scenario = sysmodel.generate_scenario

        def hooked(*args, **kwargs):
            trial_starts.append(time.perf_counter())
            return scenario(*args, **kwargs)

        sysmodel.generate_scenario = hooked

    code = cli.main([experiment, "--config", config, "--seed", seed, "--out", csv_path])
    t_end = time.perf_counter()

    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(result_path + ".spans.json")

    import numpy as np

    result = {
        "exit_code": code,
        "t_import": t_import,
        "trial_starts": trial_starts,
        "t_end": t_end,
        "maxrss_kb": _peak_rss_kb(),
        "facts": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_facts(np),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "kernel_backend": fddrecon._kernels.BACKEND,
        },
        "trace": tracer.summary() if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
