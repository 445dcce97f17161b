"""Regenerate the golden CSVs that tests/test_golden.py compares against.

    python3 tests/golden/regenerate.py [--out DIR]

Runs the three pinned benchmark workloads (pipebench/workloads/*.yaml) at
seed 20240 in this one process, with BLAS pinned as `pipebench/run.py`'s
`BLAS_ENV` pins it, and writes `<workload>.csv` for each plus
`machine.json`, the machine facts the bytes depend on. DIR defaults to this
directory. The files are check data: regenerate them only for a change that
moves outputs on purpose, and state the drift the test prints.
"""

import argparse
import ast
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEED = 20240
WORKLOADS = (("uplink_fig4", "fig4"), ("pipeline_fig6", "fig6"), ("sinr_theorem1", "theorem1"))


def blas_env():
    """`BLAS_ENV` of pipebench/run.py, read as a literal so that run.py is
    neither imported nor copied."""
    with open(os.path.join(ROOT, "pipebench", "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BLAS_ENV" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("pipebench/run.py defines no BLAS_ENV")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts():
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
        simd = config["SIMD Extensions"]["found"]
    except (KeyError, TypeError, AttributeError):
        blas, simd = "unknown", []
    return {"cpu_model": _cpu_model(), "machine": platform.machine(), "simd": simd,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_env": blas_env()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=HERE, help="output directory (default: tests/golden)")
    args = parser.parse_args(argv)
    os.environ.update(blas_env())  # before numpy loads its BLAS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fddrecon import cli

    os.makedirs(args.out, exist_ok=True)
    for name, experiment in WORKLOADS:
        config = os.path.join(ROOT, "pipebench", "workloads", name + ".yaml")
        code = cli.main([experiment, "--config", config, "--seed", str(SEED),
                         "--out", os.path.join(args.out, name + ".csv")])
        if code:
            return code
    with open(os.path.join(args.out, "machine.json"), "w", encoding="utf-8") as fh:
        json.dump(machine_facts(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
