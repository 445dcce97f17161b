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

REPO = pathlib.Path(__file__).resolve().parents[1]
TRACER_PATH = REPO / "pipebench" / "tracer.py"
TINY_SYSTEM = {"M_v": 2, "M_h": 4, "N": 16}
TOY_RUNS = {
    "fig4": {"system": TINY_SYSTEM, "trials": 2, "snr_db": [0.0, 10.0],
             "paths_per_user": 2},
    "fig6": {"system": TINY_SYSTEM, "trials": 2, "deltas": [1e-2, 1e-1],
             "users": 2, "paths_per_user": 2},
    "theorem1": {"system": TINY_SYSTEM, "trials": 2, "deltas": [1e-2, 1e-1],
                 "users": 2, "paths_per_user": 2, "mc_draws": 64},
}
# the wrapped functions that no experiment calls: the tracer still wraps
# them, so their metrics read 0 on every workload
NEVER_CALLED = {"enomp.coarse_gain", "enomp.synth_atom", "kernels.kron3", "recon.kron3",
                "dltrain.coefficient_matrix"}


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("pipebench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_run(tracer_module, experiment, tmp_path):
    """One toy run through `cli.main` under a fresh tracer: its exit code
    and the tracer's summary."""
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(TOY_RUNS[experiment]))
    tracer = tracer_module.Tracer()
    tracer.install(fddrecon)
    try:
        code = fddrecon.cli.main([experiment, "--config", str(config), "--seed", "7",
                                  "--out", str(tmp_path / "out.csv")])
    finally:
        tracer.uninstall()
    return code, tracer.summary()


@pytest.fixture(scope="module")
def traced_runs(tracer_module, tmp_path_factory):
    """Each toy run through `cli.main` under the tracer: its exit code,
    whether every wrapped attribute was restored after, and the summary."""
    runs = {}
    for experiment in TOY_RUNS:
        originals = {(m, a): getattr(getattr(fddrecon, m), a)
                     for m, a, _ in tracer_module.WRAPPED}
        code, summary = traced_run(tracer_module, experiment, tmp_path_factory.mktemp(experiment))
        restored = all(getattr(getattr(fddrecon, m), a) is fn for (m, a), fn in originals.items())
        runs[experiment] = code, restored, summary
    return runs


def test_every_wrapped_attribute_resolves(tracer_module):
    for module_name, attr, label in tracer_module.WRAPPED:
        module = getattr(fddrecon, module_name)
        assert callable(getattr(module, attr)), label


@pytest.mark.parametrize("experiment", sorted(TOY_RUNS))
def test_traced_toy_run_completes(tracer_module, traced_runs, experiment):
    code, restored, summary = traced_runs[experiment]
    assert code == 0
    assert restored
    assert summary["errors"] == dict.fromkeys(tracer_module.LAYERS, 0)
    calls = {label: f["calls"] for label, f in summary["functions"].items()}
    if experiment == "theorem1":
        for label in ("cli.main", "sysmodel.downlink_channel", "mueval.monte_carlo_sinr"):
            assert calls[label] > 0, label
        return
    for label in ("cli.main", "enomp.extract", "enomp.omp_detect", "enomp.newton_refine",
                  "kernels.moment_cube", "sysmodel.uplink_channel"):
        assert calls[label] > 0, label
    counters = summary["counters"]
    assert counters["enomp.iterations"] > 0
    assert counters["kernels.moment_cube.flops_computed"] > 0
    if experiment == "fig6":
        assert calls["sysmodel.downlink_channel"] > 0
        assert calls["harness._oracle_gains"] > 0
        assert calls["dltrain.schedule_beams"] > 0
        # the pipeline no longer forms coefficient_matrix; these still run
        assert calls["dltrain.simulate_downlink_training"] > 0
        assert calls["dltrain.estimate_downlink_gains"] > 0


def test_every_other_wrapped_function_is_called(tracer_module, traced_runs):
    # a stage the pipeline stops reaching through its module attribute
    # fails here, where the bench would only read 0 for it
    called = {label for _, _, summary in traced_runs.values()
              for label, f in summary["functions"].items() if f["calls"] > 0}
    assert {label for _, _, label in tracer_module.WRAPPED} - called == NEVER_CALLED


def test_newton_hook_counts_the_visits_that_move(tracer_module, tmp_path, monkeypatch):
    # the hook reads a visit's accepted flag by position: it must count
    # exactly the visits whose returned point differs from their start
    refine, moved = fddrecon.enomp.newton_refine, []

    def recorded(y, theta, phi, tau, *rest):
        result = refine(y, theta, phi, tau, *rest)
        moved.append(result[:3] != (theta, phi, tau))
        return result

    monkeypatch.setattr(fddrecon.enomp, "newton_refine", recorded)
    code, summary = traced_run(tracer_module, "fig4", tmp_path)
    assert code == 0
    accepted = summary["counters"]["enomp.newton.accepted"]
    assert accepted == sum(moved)
    assert 0 < accepted < len(moved)


def test_traced_kron3_calls_are_costed(tracer_module):
    # the pipeline synthesizes channels without kron3, so call it directly
    # through both names the tracer wraps
    cfg = fddrecon.sysmodel.SystemConfig(**TINY_SYSTEM)
    tracer = tracer_module.Tracer()
    tracer.install(fddrecon)
    try:
        fddrecon.enomp.synth_atom(0.3, -0.4, 0.5 * cfg.tau_max, cfg)
        a_v, a_h = fddrecon.sysmodel.steering_factors(0.3, -0.4, cfg)
        fddrecon.recon.kron3(a_v, a_h, fddrecon.sysmodel.delay_vector(0.0, cfg))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["errors"] == dict.fromkeys(tracer_module.LAYERS, 0)
    assert summary["functions"]["kernels.kron3"]["calls"] > 0
    assert summary["functions"]["recon.kron3"]["calls"] > 0
    assert summary["counters"]["kernels.kron3.flops_computed"] > 0
