"""Experiment configs, runners, CSV emission, and the CLI."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fddrecon import cli, enomp, harness, recon, sysmodel
from fddrecon.harness import ExperimentConfig, ResultRow

TINY_SYSTEM = {"M_v": 2, "M_h": 4, "N": 16}


def tiny_config(experiment, **kw):
    base = {"experiment": experiment, "system": dict(TINY_SYSTEM), "seed": 7,
            "paths_per_user": 2, "covariance_draws": 300}
    base.update(kw)
    return harness.config_from_dict(base)


def by_metric(rows, sweep):
    return {r.metric: r for r in rows if r.sweep == sweep}


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

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            harness.config_from_dict({"experiment": "fig5"})
        with pytest.raises(ValueError):
            harness.config_from_dict({"experiment": "fig4", "bogus": 1})
        with pytest.raises(ValueError):
            harness.config_from_dict({"experiment": "fig4", "system": {"M": 1}})
        with pytest.raises(ValueError):
            harness.config_from_dict(["experiment", "fig4"])
        with pytest.raises(ValueError):
            harness.config_from_dict({"experiment": "fig4", "trials": -1})
        with pytest.raises(ValueError):
            harness.config_from_dict({"experiment": "fig4", "snr_db": []})

    def test_load_config_yaml(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "experiment: fig6\nseed: 11\ntrials: 2\n"
            "system:\n  M_v: 2\n  M_h: 4\n  N: 16\n"
            "deltas: [1.0e-2]\n")
        cfg = harness.load_config(str(path))
        assert cfg.experiment == "fig6"
        assert cfg.seed == 11
        assert cfg.trials == 2
        assert cfg.system.M_h == 4
        assert cfg.deltas == (1e-2,)


class TestAggregation:
    def test_known_samples(self):
        row = harness._aggregate("fig4", 5.0, "nmse_ls", [1.0, 2.0, 3.0])
        assert row.value == pytest.approx(2.0)
        assert row.trials == 3
        assert row.std_error == pytest.approx(1.0 / math.sqrt(3.0))

    def test_single_sample_zero_se(self):
        assert harness._aggregate("fig4", 0.0, "m", [4.0]).std_error == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            harness._aggregate("fig4", 0.0, "m", [])


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

    @settings(max_examples=60, deadline=None)
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
        basis = np.stack([recon.reconstruct([p], [1.0], cfg) for p in est], axis=1)
        assume(count <= cfg.M * cfg.N and np.linalg.cond(basis) < 1e2)
        truth_dl = sysmodel.downlink_channel(truth, cfg)
        want, _, _, _ = np.linalg.lstsq(basis, truth_dl, rcond=None)
        np.testing.assert_allclose(harness._oracle_gains(est, truth_dl, cfg), want, rtol=1e-9)

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
               "covariance_draws": 300, "snr_db": [0.0]}
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

    def test_experiment_mismatch_fails(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "fig6", deltas=[1e-2], users=2)
        assert cli.main(["fig4", "--config", config]) == 1
        assert "error:" in capsys.readouterr().err

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
    ])
    def test_config_contract_every_subcommand(self, tmp_path, capsys, command,
                                              content, message):
        import yaml

        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(content))
        assert cli.main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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
