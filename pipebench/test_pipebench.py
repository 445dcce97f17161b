"""Fast check of the benchmark itself on a toy system.

Runs every workload's experiment at the tiny size of the acceptance suite's
byte-identical-rerun test (2x4 antennas, 16 subcarriers), with the accuracy
gates off because they only hold at full size, once untraced and once as an
untraced/traced pair.

    python3 -m pytest pipebench/test_pipebench.py
"""

import json
import math
import os
import sys

import pytest
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY = {"M_v": 2, "M_h": 4, "N": 16}
TINY_RAW = {
    "uplink_fig4": {"experiment": "fig4", "system": TINY, "trials": 2, "snr_db": [0.0],
                    "paths_per_user": 2, "covariance_draws": 300},
    "pipeline_fig6": {"experiment": "fig6", "system": TINY, "trials": 2, "deltas": [1e-2],
                      "users": 2, "paths_per_user": 2, "covariance_draws": 300},
    "sinr_theorem1": {"experiment": "theorem1", "system": TINY, "trials": 1, "users": 3,
                      "paths_per_user": 2, "deltas": [1e-2], "mc_draws": 200},
}


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module", params=sorted(TINY_RAW))
def measured(request, tmp_path_factory):
    name = request.param
    tmp = tmp_path_factory.mktemp(name)
    config = tmp / f"{name}.yaml"
    config.write_text(yaml.safe_dump(TINY_RAW[name]))
    workload = run.Workload(name, str(config), gates=False)
    kwargs = {"seed": 7, "seconds": 0, "min_runs": 1, "quiet": True, "out_root": str(tmp)}
    return (run.run_workloads([workload], trace=0, **kwargs)[0],
            run.run_workloads([workload], trace=1, **kwargs)[0])


def test_every_named_metric_is_emitted_with_its_unit(measured):
    for (summary, _), kind in zip(measured, ("end_to_end", "per_layer")):
        assert summary["correct"] and summary["failed"] == 0
        declared = _declared(kind)
        assert set(summary["metrics"]) == set(declared)
        for name, metric in summary["metrics"].items():
            assert metric["unit"] == declared[name], name
            assert math.isfinite(metric["value"]), name


def test_self_times_are_nonnegative_and_within_traced_wall(measured):
    _, (_, record) = measured
    traced = [r for r in record["runs"] if r["traced"]]
    assert traced
    for r in traced:
        functions = r["trace"]["functions"].values()
        assert all(f["self_s"] >= -1e-9 for f in functions)
        assert sum(f["self_s"] for f in functions) <= r["wall_s"]
        assert r["trace"]["functions"]["cli.main"]["calls"] == 1


def test_traced_csv_equals_untraced_csv(measured):
    _, (_, record) = measured
    digests = {r["traced"]: r["csv_sha256"] for r in record["runs"]}
    assert set(digests) == {False, True}
    assert digests[False] == digests[True]
    assert len({r["csv_sha256"] for r in record["runs"]}) == 1
