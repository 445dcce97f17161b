"""The pinned benchmark workloads reproduce the committed golden CSVs.

`tests/golden/regenerate.py` reruns fig4, fig6 and theorem1 at their pinned
sizes and seed 20240 in one child process with BLAS pinned. On the machine
the files were made on (same `machine.json`), the CSVs must match byte for
byte; elsewhere every value and standard error must stay within 1e-9
relative, with `trials` and the `failed_trials` and `t_pilot` values exact.
A mismatch prints the largest relative drift per metric.
"""

import csv
import json
import os
import subprocess
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REGENERATE = os.path.join(GOLDEN, "regenerate.py")
NAMES = ("uplink_fig4", "pipeline_fig6", "sinr_theorem1")
EXACT_VALUES = ("failed_trials", "t_pilot")
RTOL = 1e-9


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _rel(want, got):
    if want == got:
        return 0.0
    return abs(got - want) / abs(want) if want else float("inf")


def drift(want_rows, got_rows):
    """{(metric, column): largest relative change} over a file's rows, plus
    the problems that no tolerance forgives (row layout, `trials`, exact
    values)."""
    worst, problems = {}, []
    if [(r["experiment"], r["sweep"], r["metric"]) for r in want_rows] != \
            [(r["experiment"], r["sweep"], r["metric"]) for r in got_rows]:
        return worst, ["rows differ in experiment, sweep or metric"]
    for want, got in zip(want_rows, got_rows):
        where = f"{want['metric']} at sweep {want['sweep']}"
        if want["trials"] != got["trials"]:
            problems.append(f"{where}: trials {want['trials']} -> {got['trials']}")
        for column in ("value", "std_error"):
            rel = _rel(float(want[column]), float(got[column]))
            key = (want["metric"], column)
            worst[key] = max(worst.get(key, 0.0), rel)
            if column == "value" and want["metric"] in EXACT_VALUES and rel:
                problems.append(f"{where}: value {want[column]} -> {got[column]}")
    return worst, problems


def drift_table(tables):
    lines = [f"{'file':<20}{'metric':<22}{'value':>10}{'std_error':>11}"]
    for name, worst in tables.items():
        for metric in dict.fromkeys(m for m, _ in worst):
            lines.append(f"{name:<20}{metric:<22}{worst[metric, 'value']:>10.2g}"
                         f"{worst[metric, 'std_error']:>11.2g}")
    return "\n".join(lines)


def test_pinned_workloads_reproduce_golden_csvs(tmp_path):
    proc = subprocess.run([sys.executable, REGENERATE, "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(GOLDEN, "machine.json"), encoding="utf-8") as fh:
        golden_machine = json.load(fh)
    with open(tmp_path / "machine.json", encoding="utf-8") as fh:
        same_machine = json.load(fh) == golden_machine
    tables, problems = {}, []
    for name in NAMES:
        want_path, got_path = os.path.join(GOLDEN, name + ".csv"), tmp_path / (name + ".csv")
        with open(want_path, "rb") as a, open(got_path, "rb") as b:
            if a.read() == b.read():
                continue
        worst, bad = drift(_rows(want_path), _rows(got_path))
        tables[name] = worst
        problems += [f"{name}: {p}" for p in bad]
        if same_machine:
            problems.append(f"{name}: bytes differ on the machine the golden files were made on")
        problems += [f"{name}: {m} {c} moved {r:.2g} relative (> {RTOL:g})"
                     for (m, c), r in worst.items() if r > RTOL]
    assert not problems, ("\n".join(problems) + "\nlargest relative drift per metric,"
                          " golden -> regenerated:\n" + drift_table(tables))


def test_drift_forgives_only_inexact_columns():
    want = [{"experiment": "fig6", "sweep": "0.01", "metric": m, "value": v, "trials": "2",
             "std_error": "0.5"} for m, v in (("t_pilot", "20.0"), ("rate_recon", "30.0"))]
    got = [dict(r) for r in want]
    got[1]["value"] = repr(30.0 * (1 + 1e-12))
    worst, problems = drift(want, got)
    assert not problems and 0 < worst["rate_recon", "value"] < RTOL
    got[0]["value"], got[1]["trials"] = "21.0", "1"
    assert len(drift(want, got)[1]) == 2
