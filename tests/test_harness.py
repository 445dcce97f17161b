"""Experiment configs, runners, CSV emission, and the CLI."""

import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from fddrecon import cli, dltrain, enomp, harness, mueval, sysmodel
from fddrecon.harness import ResultRow

TINY_SYSTEM = {"M_v": 2, "M_h": 4, "N": 16}
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "pipebench" / "workloads"


def tiny_config(experiment, **kw):
    base = {"experiment": experiment, "system": dict(TINY_SYSTEM), "seed": 7,
            "paths_per_user": 2}
    base.update(kw)
    return harness.config_from_dict(base)


def by_metric(rows, sweep):
    return {r.metric: r for r in rows if r.sweep == sweep}


def count_trials(monkeypatch):
    """Count scenario draws; the returned cell holds the current trial index."""
    trial = [-1]
    draw = sysmodel.generate_scenario

    def counted(*args, **kwargs):
        trial[0] += 1
        return draw(*args, **kwargs)

    monkeypatch.setattr(sysmodel, "generate_scenario", counted)
    return trial


# config values the loader accepts, plain and numpy, and adversarial ones:
# bools, strings, None, non-finite and huge numbers, numpy scalars that are
# no numbers, and nesting
_INT = st.integers(1, 4) | st.integers(1, 4).map(np.int64)
_REAL = st.floats(0.0625, 0.875) | st.floats(0.0625, 0.875, width=32).map(np.float32)
_REALS = st.lists(_REAL, min_size=1, max_size=3, unique_by=float)
_BAD = st.recursive(
    st.one_of(st.booleans(), st.text(max_size=3), st.none(), st.integers(-2, 2),
              st.sampled_from([math.nan, math.inf, -math.inf, 2 ** 1024, -(2 ** 1100), 1e-320,
                               np.bool_(True), np.float32(np.nan), np.int64(-1), np.array(1.0)])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2), max_leaves=4)
_ROOT = {f.name: _INT for f in dataclasses.fields(harness.ExperimentConfig) if f.name != "system"}
_ROOT.update(experiment=st.sampled_from(list(harness.EXPERIMENTS)),
             covariance_draws=_INT, snr_db=_REALS, deltas=_REALS, out=st.none(),
             attenuation_db=st.lists(_REAL, min_size=2, max_size=2).map(sorted))
_SYSTEM = {f.name: _INT if f.type == "int" else _REAL
           for f in dataclasses.fields(sysmodel.SystemConfig)}


@st.composite
def configs(draw):
    """A small config mapping over the known keys, each value drawn from the
    accepted ones or the adversarial ones."""
    def entries(fields):
        keys = draw(st.lists(st.sampled_from(sorted(fields)), unique=True, max_size=4))
        return {k: draw(fields[k] | _BAD) for k in keys}
    raw = entries(_ROOT)
    if draw(st.integers(0, 3)):  # mostly a named experiment, so that values are checked
        raw["experiment"] = draw(_ROOT["experiment"])
    system = draw(st.integers(0, 3))
    if system:
        raw["system"] = entries(_SYSTEM) if system > 1 else draw(_BAD)
    return raw


class TestConfig:
    def test_per_experiment_defaults(self):
        defaults = {"fig4": (100, (0.0, 0.0)),
                    "fig6": (50, (-10.0, 0.0)),
                    "theorem1": (3, (-10.0, 0.0))}
        for name, (trials, att) in defaults.items():
            cfg = harness.config_from_dict({"experiment": name})
            assert cfg.trials == trials
            assert cfg.attenuation_db == att

    def test_explicit_values_keep(self):
        cfg = harness.config_from_dict(
            {"experiment": "fig4", "trials": 9, "attenuation_db": [-3, 0],
             "snr_db": [1, 2], "deltas": [0.5]})
        assert cfg.trials == 9
        assert cfg.attenuation_db == (-3.0, 0.0)
        assert cfg.snr_db == (1.0, 2.0)
        assert cfg.deltas == (0.5,)

    def test_system_overrides(self):
        cfg = tiny_config("fig4")
        assert (cfg.system.M_v, cfg.system.M_h, cfg.system.N) == (2, 4, 16)

    @pytest.mark.parametrize("raw", [
        {"experiment": "fig5"},
        {"experiment": "fig4", "bogus": 1},
        {"experiment": "fig4", "system": {"M": 1}},
        {"experiment": "fig4", "system": []},
        {"experiment": "fig4", "system": 0},
        {"experiment": "fig4", "system": ""},
        {"experiment": "fig4", "system": False},
        ["experiment", "fig4"],
        {"experiment": "fig4", "trials": -1},
        {"experiment": "fig4", "trials": 0},
        {"experiment": "fig4", "trials": 2.5},
        {"experiment": "fig6", "users": 0},
        {"experiment": "fig6", "paths_per_user": 0},
        {"experiment": "fig4", "covariance_draws": 0},
        {"experiment": "theorem1", "mc_draws": 0},
        {"experiment": "fig4", "snr_db": []},
        {"experiment": "fig4", "snr_db": [0, 0]},
        {"experiment": "fig4", "snr_db": [0.0, -0.0]},
        {"experiment": "fig4", "snr_db": [0, float("nan")]},
        {"experiment": "fig6", "deltas": [1e-2, 1e-2]},
        {"experiment": "fig6", "deltas": [float("inf")]},
        {"experiment": "fig4", "attenuation_db": []},
        {"experiment": "theorem1", "attenuation_db": [0, -10]},
        {"experiment": "fig6", "attenuation_db": [0, float("nan")]},
        {"experiment": "theorem1", "attenuation_db": [float("-inf"), 0]},
        {"experiment": "fig6", "attenuation_db": [-10, float("inf")]},
        {"experiment": "fig6", "deltas": [0.1, 2.0]},
        {"experiment": "fig6", "deltas": [0.0]},
        {"experiment": "fig6", "deltas": [1.0]},
        {"experiment": "theorem1", "deltas": [-0.1]},
        {"experiment": "theorem1", "deltas": [1.5]},
        {"experiment": "theorem1", "deltas": [1e308]},
        {"experiment": "fig6", "system": {"P": 0.001}},
        {"experiment": "fig6", "system": {"delta": 0.5}},
        {"experiment": "fig4", "seed": 1.5},
        {"experiment": "fig4", "seed": "x"},
        {"experiment": "fig4", "seed": -1},
        {"experiment": "theorem1", "system": {"M_v": "x"}},
        {"experiment": "theorem1", "system": {"T_c": 2.5}},
        {"experiment": "fig6", "users": True},
        {"experiment": "fig4", "system": {"delta_f": float("nan")}},
        {"experiment": "fig4", "snr_db": "57"},
        {"experiment": "fig4", "snr_db": ["5", "10"]},
        {"experiment": "fig4", "snr_db": [True, 5]},
        {"experiment": "fig4", "attenuation_db": [False, True]},
        {"experiment": "fig4", "snr_db": 5},
        {"experiment": "fig4", "snr_db": [0, -4000]},
        {"experiment": "fig6", "snr_db": [4000]},
        {"experiment": "fig4", "attenuation_db": [-4000, -4000]},
        {"experiment": "theorem1", "attenuation_db": [0, 3000]},
        {"experiment": "theorem1", "out": 5},
        {"experiment": "theorem1", "out": True},
        {"experiment": "theorem1", "out": ["a"]},
        {"experiment": "fig4", "system": {"d_over_lambda": 1e300}},
        {"experiment": "fig6", "system": {"f_dl": 1.0e308, "f_ul": -1.0e308}},
        {"experiment": "fig4", "system": {"delta_f": 1e160}},
        {"experiment": "fig4", "system": {"delta_f": 1e-320}},
        # the carrier phase 2 pi (f_dl - f_ul) tau over one delay range
        # overflows in sysmodel.carrier_phase
        {"experiment": "fig6", "users": 2, "system": {**TINY_SYSTEM, "delta_f": 1.0e-300}},
        {"experiment": "theorem1", "users": 2,
         "system": {**TINY_SYSTEM, "f_dl": 1.0e308, "f_ul": 0.0, "delta_f": 1.0}},
        {"experiment": "fig4", "system": {"f_dl": 10**400}},
        {"experiment": "fig4", "snr_db": [10**400]},
        # unknown keys of mixed types, as YAML parses `1:` and `~:`
        {"experiment": "fig4", 1: 2, "foo": 3},
        {"experiment": "fig4", "system": {1: 2, "x": 3}},
        {"experiment": "fig4", None: 1, "foo": 3},
        # found by test_loader_stores_only_plain_numbers: no experiment, or
        # one that is no hashable name
        {},
        {"seed": 1},
        {"experiment": []},
        {"experiment": {}},
    ])
    def test_rejects_bad_input(self, raw):
        with pytest.raises(ValueError):
            harness.config_from_dict(raw)

    @settings(max_examples=200, deadline=None)
    @given(raw=configs())
    def test_loader_stores_only_plain_numbers(self, raw):
        # the loader either refuses a mapping with ValueError or stores every
        # number as a Python int or float, inside the lists too
        try:
            cfg = harness.config_from_dict(raw)
        except ValueError:
            return
        for obj in (cfg, cfg.system):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if f.name not in ("experiment", "system", "out"):
                    kinds = {type(v) for v in (value if isinstance(value, tuple) else (value,))}
                    assert kinds <= {int, float}, (f.name, value)

    def test_retired_covariance_draws_is_checked_then_ignored(self):
        # the LMMSE covariance is a quadrature; old configs keep loading
        raw = {"experiment": "fig6", "system": dict(TINY_SYSTEM), "users": 2}
        cfg = harness.config_from_dict({**raw, "covariance_draws": 300})
        assert cfg == harness.config_from_dict(raw)
        assert not hasattr(cfg, "covariance_draws")

    @pytest.mark.parametrize("raw, key", [
        ({"experiment": "fig4", "system": {"f_dl": 10**400}}, "f_dl"),
        ({"experiment": "fig4", "snr_db": [0, 10**400]}, r"snr_db\[1\]"),
    ])
    def test_int_too_large_for_a_float_names_the_key(self, raw, key):
        with pytest.raises(ValueError, match=key + " must be a finite real number"):
            harness.config_from_dict(raw)

    def test_transmit_power_range(self):
        # every transmit SNR becomes a linear power through the one dB rule
        assert sysmodel.db_to_linear("snr_db", 10.0) == 10.0
        for snr_db in (-2999.0, 2999.0):
            assert 0.0 < sysmodel.db_to_linear("snr_db", snr_db) < math.inf
        for snr_db in (-3000.0, 3000.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"snr_db must lie in \(-3000, 3000\) dB"):
                sysmodel.db_to_linear("snr_db", snr_db)

    @pytest.mark.parametrize("experiment", ["fig6", "theorem1"])
    def test_users_at_most_antennas(self, experiment):
        # zero-forcing needs K <= M; 2 x 4 antennas serve at most 8 users
        assert tiny_config(experiment, users=8).users == 8
        with pytest.raises(ValueError, match=r"users must be at most system.M = 8"):
            tiny_config(experiment, users=9)
        assert tiny_config("fig4", users=9).users == 9  # fig4 has one user

    def test_fig6_coherence_longer_than_antennas(self):
        # the LMMSE baseline spends M = 8 of the T_c symbols on training
        assert tiny_config("fig6", users=2, system={**TINY_SYSTEM, "T_c": 9}).system.T_c == 9
        with pytest.raises(ValueError, match=r"fig6 needs system.T_c > system.M = 8"):
            tiny_config("fig6", users=2, system={**TINY_SYSTEM, "T_c": 8})
        assert tiny_config("theorem1", users=2, system={**TINY_SYSTEM, "T_c": 8}).system.T_c == 8

    @pytest.mark.parametrize("workload", sorted(WORKLOADS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_pinned_workloads_are_valid_configs(self, workload):
        cfg = harness.config_from_dict(harness.read_config(str(workload)))
        assert cfg.experiment in harness.EXPERIMENTS

    def test_readme_yaml_blocks_are_valid_configs(self):
        import yaml

        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```yaml\n")[1:]
        assert blocks
        for block in blocks:
            harness.config_from_dict(yaml.safe_load(block.split("```")[0]))

    def test_yaml_file_config(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "experiment: fig6\nseed: 11\ntrials: 2\nusers: 2\n"
            "system:\n  M_v: 2\n  M_h: 4\n  N: 16\n"
            "deltas: [1.0e-2]\n")
        cfg = harness.config_from_dict(harness.read_config(str(path)))
        assert cfg.experiment == "fig6"
        assert cfg.seed == 11
        assert cfg.trials == 2
        assert cfg.users == 2
        assert cfg.system.M_h == 4
        assert cfg.deltas == (1e-2,)


class TestAggregation:
    def test_known_samples(self):
        row = harness._aggregate("fig4", 5.0, "nmse_ls", [1.0, 2.0, 3.0])
        assert row.value == pytest.approx(2.0)
        assert row.trials == 3
        assert row.std_error == pytest.approx(1.0 / math.sqrt(3.0))

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_samples_keep_a_finite_nonzero_se(self, scale):
        # the squared deviations leave the float range at either end
        row = harness._aggregate("fig4", 0.0, "nmse_ls", [scale, 3 * scale])
        assert row.std_error == pytest.approx(scale, rel=1e-12, abs=0.0)

    def test_mean_of_samples_past_half_the_float_range(self):
        # the sum of the samples overflows, their mean does not
        row = harness._aggregate("x", 0.0, "m", [1.5e308, 1.5e308])
        assert row.value == 1.5e308
        assert row.std_error == 0.0

    def test_single_sample_zero_se(self):
        assert harness._aggregate("fig4", 0.0, "m", [4.0]).std_error == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            harness._aggregate("fig4", 0.0, "m", [])


class _Held:
    """Stands for a trial's arrays: what its ``measure`` closes over."""


class TestSweep:
    def test_previous_trial_is_dead_when_the_next_begins(self):
        # trial 0 succeeds, trial 1's measure fails at one sweep value,
        # trial 2's trial_fn fails, trial 3 succeeds
        cfg = tiny_config("theorem1", trials=4, users=2, deltas=[0.1, 0.2])
        refs = []
        alive = []

        def trial_fn(scenario, trial):
            alive.append([ref() is not None for ref in refs])
            held = _Held()
            refs.append(weakref.ref(held))
            if trial == 2:
                raise np.linalg.LinAlgError("planted in trial_fn")

            def measure(x):
                if trial == 1 and x == 0.2:
                    raise np.linalg.LinAlgError("planted in measure")
                return (float(trial), float(isinstance(held, _Held)))
            return measure

        rows = harness._sweep(cfg, cfg.deltas, ("trial", "held"), cfg.users, trial_fn)
        assert alive == [[], [False], [False, False], [False, False, False]]
        assert all(ref() is None for ref in refs)
        failed = {x: by_metric(rows, x)["failed_trials"].value for x in cfg.deltas}
        assert failed == {0.1: 1.0, 0.2: 2.0}
        assert by_metric(rows, 0.1)["trial"].value == pytest.approx((0 + 1 + 3) / 3)


class TestCsv:
    ROWS = [ResultRow("fig4", 0.0, "nmse_ls", 1.0 / 3.0, 10, 0.01),
            ResultRow("fig4", 5.0, "nmse_lmmse", 2e-3, 10, 0.0)]

    def test_header_and_repr_floats(self, tmp_path):
        path = tmp_path / "rows.csv"
        harness.rows_to_csv(self.ROWS, str(path))
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"experiment,sweep,metric,value,trials,std_error"
        assert lines[1] == b"fig4,0.0,nmse_ls,0.3333333333333333,10,0.01"

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.rows_to_csv(self.ROWS, str(a))
        harness.rows_to_csv(self.ROWS, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRunners:
    def test_fig4_smoke(self):
        cfg = tiny_config("fig4", trials=3, snr_db=[0.0, 10.0])
        rows = harness.run_fig4(cfg)
        for snr in (0.0, 10.0):
            got = by_metric(rows, snr)
            assert set(got) == {"nmse_ls", "nmse_lmmse", "nmse_enomp", "failed_trials"}
            assert got["failed_trials"].value == 0.0
            for name in ("nmse_ls", "nmse_lmmse", "nmse_enomp"):
                assert math.isfinite(got[name].value) and got[name].value > 0.0
                assert got[name].trials == 3

    def test_fig4_error_floor_drops_with_snr(self):
        cfg = tiny_config("fig4", trials=3, snr_db=[0.0, 10.0])
        rows = harness.run_fig4(cfg)
        low, high = by_metric(rows, 0.0), by_metric(rows, 10.0)
        for name in ("nmse_ls", "nmse_lmmse", "nmse_enomp"):
            assert high[name].value < low[name].value

    def test_fig6_smoke(self):
        cfg = tiny_config("fig6", trials=2, users=2, deltas=[1e-1, 1e-2])
        rows = harness.run_fig6(cfg)
        n_beams = cfg.system.M
        for d in (1e-1, 1e-2):
            got = by_metric(rows, d)
            assert set(got) == {"t_pilot", "gain_nmse", "channel_nmse",
                                "rate_recon", "rate_perfect", "rate_lmmse",
                                "failed_trials"}
            assert got["failed_trials"].value == 0.0
            assert 1.0 <= got["t_pilot"].value <= n_beams
            assert got["rate_recon"].value > 0.0
            assert got["rate_recon"].value <= got["rate_perfect"].value + 1e-9
        # tighter targets cannot be met with fewer training symbols
        assert (by_metric(rows, 1e-2)["t_pilot"].value
                >= by_metric(rows, 1e-1)["t_pilot"].value)

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(2, 16),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_oracle_gains_match_lstsq_on_reconstructed_atoms(self, m_v, m_h, n, count, seed):
        cfg = sysmodel.SystemConfig(M_v=m_v, M_h=m_h, N=n)
        rng = np.random.default_rng(seed)
        truth = sysmodel.generate_scenario(1, 3, cfg, seed=rng).users[0]
        est = [enomp.DetectedPath(gain=0j, theta=float(rng.uniform(-1.5, 1.5)),
                                  phi=float(rng.uniform(-1.5, 1.5)),
                                  tau=float(rng.uniform(0.0, 0.99) * cfg.tau_max))
               for _ in range(count)]
        # the reference: lstsq on atoms carrying their carrier-shift phase
        assume(count <= cfg.M * cfg.N
               and np.linalg.cond(reference.basis(est, cfg, downlink=True)) < 1e2)
        truth_dl = sysmodel.downlink_channel(truth, cfg)
        want = reference.fit(truth_dl, est, cfg, downlink=True)[0]
        np.testing.assert_allclose(harness._oracle_gains(est, truth_dl, cfg), want, rtol=1e-9)

    def test_fig4_non_finite_nmse_fails_the_trial(self):
        # at -2999 dB the LS estimate of a -300 dB channel has an NMSE past
        # the float range: every trial fails there, so the run ends
        cfg = tiny_config("fig4", trials=2, snr_db=[-2999.0, 0.0], attenuation_db=[-300, -300])
        with pytest.raises(ValueError, match="no successful trials for metric 'nmse_ls' "
                                             r"at sweep -2999\.0"):
            harness.run_fig4(cfg)

    def test_fig6_user_without_paths_fails_its_trials_only(self):
        # at -25 dB some users' extraction finds no path: the harness fails
        # that trial at every delta, as it has no pilot model to fit
        cfg = tiny_config("fig6", trials=12, users=3, deltas=[0.1],
                          attenuation_db=[-25, 0], seed=20240)
        got = by_metric(harness.run_fig6(cfg), 0.1)
        failed = got["failed_trials"].value
        assert 0 < failed < 12
        assert got["rate_recon"].trials == 12 - failed

    def test_fig6_value_error_propagates(self, monkeypatch):
        # a ValueError is a bug or a bad config, never a failed trial
        calls = []
        estimate = dltrain.estimate_downlink_gains

        def planted(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("planted")
            return estimate(*args, **kwargs)

        monkeypatch.setattr(dltrain, "estimate_downlink_gains", planted)
        with pytest.raises(ValueError, match="planted"):
            harness.run_fig6(tiny_config("fig6", trials=2, users=2, deltas=[0.1]))

    def test_fig6_sweep_point_keeps_all_metrics_or_none(self, monkeypatch):
        # the reconstructed-CSI rate of trial 1 at delta 0.1 fails after its
        # t_pilot, gain_nmse and channel_nmse are known; they go with it
        trial = count_trials(monkeypatch)
        seen = []
        zf_rates = harness._zf_rates

        def planted(*args):
            seen.append(trial[0])
            # per trial the LMMSE rate comes first, then one call per delta
            if trial[0] == 1 and seen.count(1) == 2:
                raise np.linalg.LinAlgError("planted")
            return zf_rates(*args)

        monkeypatch.setattr(harness, "_zf_rates", planted)
        cfg = tiny_config("fig6", trials=3, users=2, deltas=[0.1, 0.01])
        rows = harness.run_fig6(cfg)
        for d, failed in ((0.1, 1), (0.01, 0)):
            got = by_metric(rows, d)
            assert got.pop("failed_trials").value == failed
            assert {r.trials for r in got.values()} == {cfg.trials - failed}

    @settings(max_examples=25)
    @given(st.sets(st.tuples(st.integers(0, 2), st.sampled_from([0.0, 1e-2, 1e-1]))))
    def test_theorem1_planted_failures_are_counted(self, planted):
        cfg = tiny_config("theorem1", trials=3, users=2, deltas=[0.0, 1e-2, 1e-1], mc_draws=40)
        with pytest.MonkeyPatch.context() as mp:
            trial = count_trials(mp)
            monte_carlo = mueval.monte_carlo_sinr

            def plant(h_rows, deltas, *args, **kwargs):
                means, ok = monte_carlo(h_rows, deltas, *args, **kwargs)
                # a rank-deficient draw at (trial, d) clears d's mask entry
                return means, ok & [(trial[0], d) not in planted for d in deltas]

            mp.setattr(mueval, "monte_carlo_sinr", plant)
            if any(all((t, d) in planted for t in range(cfg.trials)) for d in cfg.deltas):
                with pytest.raises(ValueError, match="no successful trials"):
                    harness.run_theorem1(cfg)
                return
            rows = harness.run_theorem1(cfg)
        assert trial[0] == cfg.trials - 1  # one scenario per trial
        for d in cfg.deltas:
            got = by_metric(rows, d)
            failed = got.pop("failed_trials").value
            assert failed == sum(pd == d for _, pd in planted)
            assert {r.trials for r in got.values()} == {cfg.trials - failed}

    def test_theorem1_smoke(self):
        cfg = tiny_config("theorem1", trials=2, users=3,
                          deltas=[0.0, 1e-2], mc_draws=200)
        rows = harness.run_theorem1(cfg)
        exact = by_metric(rows, 0.0)
        assert exact["rel_error_max"].value < 1e-12
        assert exact["failed_trials"].value == 0.0
        noisy = by_metric(rows, 1e-2)
        assert 0.0 < noisy["rel_error_max"].value < 0.5
        assert noisy["sinr_analytic_mean"].value > 0.0
        assert noisy["sinr_mc_mean"].value > 0.0

    def test_same_config_reproduces_rows(self):
        cfg = tiny_config("fig4", trials=2, snr_db=[0.0])
        assert harness.run_fig4(cfg) == harness.run_fig4(cfg)

    def test_seed_changes_values(self):
        rows_a = harness.run_fig4(tiny_config("fig4", trials=2, snr_db=[0.0]))
        rows_b = harness.run_fig4(tiny_config("fig4", trials=2, snr_db=[0.0], seed=8))
        vals_a = [r.value for r in rows_a if r.metric == "nmse_ls"]
        vals_b = [r.value for r in rows_b if r.metric == "nmse_ls"]
        assert vals_a != vals_b

    def test_fig4_draws_each_trials_noise_once(self, monkeypatch):
        # a trial's SNRs sound one channel under one noise draw; the
        # scenario's own draws of a few path gains are not soundings
        sizes = []
        noise = sysmodel.complex_noise
        monkeypatch.setattr(sysmodel, "complex_noise",
                            lambda rng, size: sizes.append(size) or noise(rng, size))
        config = tiny_config("fig4", trials=2, snr_db=[0.0, 5.0, 10.0])
        harness.run_fig4(config)
        assert sizes.count(config.system.M * config.system.N) == 2

    def test_run_experiment_writes_csv(self, tmp_path):
        out = tmp_path / "fig4.csv"
        cfg = tiny_config("fig4", trials=2, snr_db=[0.0], out=str(out))
        rows = harness.run_experiment(cfg)
        assert out.exists()
        text = out.read_text()
        assert text.startswith("experiment,sweep,metric,value,trials,std_error\n")
        assert len(text.strip().split("\n")) == len(rows) + 1


class TestCli:
    def write_config(self, tmp_path, experiment, **extra):
        import yaml

        raw = {"experiment": experiment, "system": dict(TINY_SYSTEM),
               "seed": 7, "trials": 2, "paths_per_user": 2,
               "snr_db": [0.0]}
        raw.update(extra)
        path = tmp_path / f"{experiment}.yaml"
        path.write_text(yaml.safe_dump(raw))
        return str(path)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_fig4_to_csv(self, tmp_path):
        config = self.write_config(tmp_path, "fig4")
        out = tmp_path / "out.csv"
        assert cli.main(["fig4", "--config", config, "--out", str(out)]) == 0
        assert out.read_text().startswith("experiment,sweep,metric")

    def test_stdout_csv(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "fig4")
        assert cli.main(["fig4", "--config", config]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "experiment,sweep,metric,value,trials,std_error"
        assert any(line.split(",")[2] == "nmse_enomp" for line in lines[1:])

    def test_fig4_near_the_snr_cap_runs(self, tmp_path, capsys):
        # at 2990 dB on the default array, the projected powers of the raw
        # sounding overflow; extraction works on a power-of-two scaled copy
        config = self.write_config(tmp_path, "fig4", system={}, trials=1, snr_db=[2990.0])
        assert cli.main(["fig4", "--config", config]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert [r[2] for r in rows] == ["nmse_ls", "nmse_lmmse", "nmse_enomp", "failed_trials"]
        assert all(math.isfinite(float(r[3])) for r in rows)
        assert rows[-1][3] == "0.0"

    def test_fig4_near_the_snr_floor_keeps_finite_std_errors(self, tmp_path, capsys):
        # at -2999 dB nmse_ls is about 1e300, so its squared deviations overflow
        config = self.write_config(tmp_path, "fig4", trials=2, snr_db=[-2999.0])
        assert cli.main(["fig4", "--config", config]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert all(math.isfinite(float(r[3])) and math.isfinite(float(r[5])) for r in rows)

    def test_experiment_mismatch_fails(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "fig6", deltas=[1e-2], users=2)
        assert cli.main(["fig4", "--config", config]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"users": 9}, "users must be at most system.M = 8 for zero-forcing"),
        ({"users": 2, "system": {**TINY_SYSTEM, "T_c": 8}}, "fig6 needs system.T_c > system.M = 8"),
    ])
    def test_fig6_config_error_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                extra, message):
        trial = count_trials(monkeypatch)
        config = self.write_config(tmp_path, "fig6", deltas=[0.1], **extra)
        assert cli.main(["fig6", "--config", config]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert trial[0] == -1

    def test_out_type_error_before_any_trial(self, tmp_path, capsys, monkeypatch):
        trial = count_trials(monkeypatch)
        config = self.write_config(tmp_path, "theorem1", users=2, deltas=[0.1], mc_draws=10, out=5)
        assert cli.main(["theorem1", "--config", config]) == 1
        assert capsys.readouterr().err == "error: out must be a string\n"
        assert trial[0] == -1

    @pytest.mark.parametrize("snr_db", [-4000.0, 4000.0])
    def test_fig4_snr_range_error_before_any_trial(self, tmp_path, capsys, monkeypatch, snr_db):
        trial = count_trials(monkeypatch)
        config = self.write_config(tmp_path, "fig4", snr_db=[0.0, snr_db])
        assert cli.main(["fig4", "--config", config]) == 1
        assert capsys.readouterr().err == (
            f"error: snr_db must lie in (-3000, 3000) dB, got {snr_db!r}\n")
        assert trial[0] == -1

    @pytest.mark.parametrize("snr_db", ["-4000", "4000", "nan", "inf"])
    def test_extract_snr_range_error(self, capsys, monkeypatch, snr_db):
        trial = count_trials(monkeypatch)
        assert cli.main(["extract", "--paths", "2", f"--snr-db={snr_db}"]) == 1
        assert capsys.readouterr().err == (
            f"error: snr_db must lie in (-3000, 3000) dB, got {float(snr_db)!r}\n")
        assert trial[0] == -1

    @pytest.mark.parametrize("paths", ["0", "-2"])
    def test_extract_paths_range_error(self, capsys, monkeypatch, paths):
        trial = count_trials(monkeypatch)
        assert cli.main(["extract", "--paths", paths]) == 1
        assert capsys.readouterr().err == "error: paths must be an integer >= 1\n"
        assert trial[0] == -1

    def test_unknown_key_fails(self, tmp_path, capsys):
        import yaml

        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"experiment": "fig4", "bogus": 3}))
        assert cli.main(["fig4", "--config", str(path)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_stdout_bytes_equal_out_file(self, tmp_path, capsysbinary):
        config = self.write_config(tmp_path, "fig4")
        out = tmp_path / "out.csv"
        assert cli.main(["fig4", "--config", config, "--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert cli.main(["fig4", "--config", config]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("command", ["fig4", "extract"])
    @pytest.mark.parametrize("content, message", [
        ({"bogus": 1}, "unknown config keys: ['bogus']"),
        ([1, 2], "config root must be a mapping"),
        ({"system": {"M_q": 3}}, "unknown system config keys: ['M_q']"),
        ({"system": [1]}, "config key 'system' must be a mapping"),
        ({"system": {"delta": 0.5, "P": 2.0}}, "unknown system config keys: ['P', 'delta']"),
    ])
    def test_config_contract_every_subcommand(self, tmp_path, capsys, command,
                                              content, message):
        import yaml

        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(content))
        assert cli.main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("content, message", [
        ({"trials": 0}, "trials must be an integer >= 1"),
        ({"snr_db": "57"}, "snr_db must be a list"),
        ({"experiment": "fig6", "system": {"T_c": 10}}, "fig6 needs system.T_c > system.M = 128"),
    ])
    def test_extract_applies_the_value_contract(self, tmp_path, capsys, monkeypatch,
                                                content, message):
        import yaml

        trial = count_trials(monkeypatch)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(content))
        assert cli.main(["extract", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert trial[0] == -1

    def test_extract_default_seed_is_zero(self, capsysbinary):
        assert cli.main(["extract", "--paths", "2"]) == 0
        default = capsysbinary.readouterr().out
        assert cli.main(["extract", "--paths", "2", "--seed", "0"]) == 0
        assert capsysbinary.readouterr().out == default

    def test_extract_accepts_a_fig6_config(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "fig6", deltas=[1e-2], users=2)
        assert cli.main(["extract", "--config", config, "--paths", "2"]) == 0
        assert "true paths: 2" in capsys.readouterr().out

    @pytest.mark.parametrize("command, extra, flags, name", [
        ("theorem1", {"mc_draws": 0}, [], "mc_draws"),
        ("fig4", {}, ["--trials", "0"], "trials"),
    ])
    def test_zero_count_fails(self, tmp_path, capsys, command, extra, flags, name):
        config = self.write_config(tmp_path, command, **extra)
        assert cli.main([command, "--config", config, *flags]) == 1
        assert capsys.readouterr().err == f"error: {name} must be an integer >= 1\n"

    @pytest.mark.parametrize("command", ["fig4", "extract"])
    def test_negative_seed_fails(self, tmp_path, capsys, command):
        config = self.write_config(tmp_path, "fig4")
        assert cli.main([command, "--config", config, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be an integer >= 0\n"

    def test_module_entry_point_imports_cleanly(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "fddrecon.cli", "--help"],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: fddrecon")

    def test_trials_override(self, tmp_path):
        config = self.write_config(tmp_path, "fig4")
        out = tmp_path / "out.csv"
        assert cli.main(["fig4", "--config", config, "--trials", "1",
                         "--out", str(out)]) == 0
        trials_col = {line.split(",")[4]
                      for line in out.read_text().strip().split("\n")[1:]}
        assert trials_col == {"1"}

    def test_extract_smoke(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "fig4")
        rc = cli.main(["extract", "--config", config, "--paths", "2",
                       "--snr-db", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "true paths: 2" in out
        assert "relative residual" in out

    def test_extract_runs_fig4_trial_zero(self, tmp_path, monkeypatch):
        # `extract --seed S --snr-db X --paths L` extracts, bit for bit, the
        # sounding fig4's trial 0 extracts at X dB with L paths per user
        config = self.write_config(tmp_path, "fig4", trials=1, snr_db=[5.0], paths_per_user=3)
        seen, extract = [], enomp.extract

        def recorded(y, cfg, p_tx, codebook=None):
            seen.append((y.copy(), p_tx))
            return extract(y, cfg, p_tx, codebook)

        monkeypatch.setattr(enomp, "extract", recorded)
        assert cli.main(["fig4", "--config", config, "--seed", "11", "--out",
                         str(tmp_path / "fig4.csv")]) == 0
        assert cli.main(["extract", "--config", config, "--seed", "11", "--snr-db", "5",
                         "--paths", "3"]) == 0
        (fig4_y, fig4_p_tx), (extract_y, extract_p_tx) = seen
        np.testing.assert_array_equal(extract_y, fig4_y)
        assert extract_p_tx == fig4_p_tx
