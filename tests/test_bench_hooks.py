"""The benchmark's tracer (pipebench/tracer.py) wraps fddrecon functions by
module attribute and calls their hooks with the wrapped functions' positional
arguments. Renaming or re-signing one of them, or adding an extraction stop
reason it does not count, must fail here rather than in a benchmark run."""

import importlib.util
import pathlib

import pytest
import yaml

import fddrecon
import fddrecon.cli  # noqa: F401  the tracer wraps cli.main

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "pipebench" / "tracer.py"
TINY_SYSTEM = {"M_v": 2, "M_h": 4, "N": 16}
TOY_RUNS = {
    "fig4": {"system": TINY_SYSTEM, "trials": 2, "snr_db": [0.0, 10.0],
             "paths_per_user": 2, "covariance_draws": 300},
    "fig6": {"system": TINY_SYSTEM, "trials": 2, "deltas": [1e-2, 1e-1],
             "users": 2, "paths_per_user": 2, "covariance_draws": 300},
}


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("pipebench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves(tracer_module):
    for module_name, attr, label in tracer_module.WRAPPED:
        module = getattr(fddrecon, module_name)
        assert callable(getattr(module, attr)), label


@pytest.mark.parametrize("experiment", sorted(TOY_RUNS))
def test_traced_toy_run_completes(tracer_module, tmp_path, experiment):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(TOY_RUNS[experiment]))
    originals = {(m, a): getattr(getattr(fddrecon, m), a) for m, a, _ in tracer_module.WRAPPED}
    tracer = tracer_module.Tracer()
    tracer.install(fddrecon)
    try:
        code = fddrecon.cli.main([experiment, "--config", str(config), "--seed", "7",
                                  "--out", str(tmp_path / "out.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    for (module_name, attr), fn in originals.items():
        assert getattr(getattr(fddrecon, module_name), attr) is fn
    summary = tracer.summary()
    assert summary["errors"] == dict.fromkeys(tracer_module.LAYERS, 0)
    calls = {label: f["calls"] for label, f in summary["functions"].items()}
    for label in ("cli.main", "enomp.extract", "enomp.omp_detect", "enomp.newton_refine",
                  "kernels.kron3", "kernels.moment_cube", "sysmodel.uplink_channel"):
        assert calls[label] > 0, label
    counters = summary["counters"]
    assert counters["enomp.iterations"] > 0
    assert counters["kernels.kron3.flops_computed"] > 0
    assert counters["kernels.moment_cube.flops_computed"] > 0
    if experiment == "fig6":
        assert calls["harness._oracle_gains"] > 0
        assert calls["dltrain.schedule_beams"] > 0
