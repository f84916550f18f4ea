"""Experiment harness: configs, RMSE math, sweeps, benchmarks, CLI."""

import argparse
import dataclasses
import inspect
import json

import numpy as np
import pytest
import yaml

import sorfilt.cli
import sorfilt.harness as harness
from sorfilt import (
    CorruptionConfig,
    FilterNumericsError,
    IndicatorConfig,
    ScenarioConfig,
    TurnModelConfig,
    UTParams,
    bench_runtime,
    rmse_pos,
    rmse_pos_per_run,
    run_rng,
    run_sweep,
    run_tracking_single,
    run_uwb_experiment,
)
from sorfilt.cli import main
from sorfilt.harness import complexity_fit
from sorfilt.vb import FILTER_NAMES


class TestRmsePos:
    def test_perfect_estimates(self):
        truth = np.arange(8.0).reshape(4, 2)
        per_step, aggregate = rmse_pos(truth, truth)
        assert np.array_equal(per_step, np.zeros(4))
        assert aggregate == 0.0

    def test_single_run_constant_offset(self):
        truth = np.zeros((5, 2))
        est = truth + np.array([3.0, 4.0])
        per_step, aggregate = rmse_pos(est, truth)
        assert np.allclose(per_step, 5.0)
        assert aggregate == pytest.approx(5.0)

    def test_two_runs_average_before_sqrt(self):
        truth = np.zeros((2, 6, 2))
        est = truth.copy()
        est[0] += [1.0, 0.0]
        est[1] += [0.0, 1.0]
        per_step, aggregate = rmse_pos(est, truth)
        assert np.allclose(per_step, 1.0)
        assert aggregate == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            rmse_pos(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_per_run_aggregates(self):
        truth = np.zeros((2, 4, 2))
        est = truth.copy()
        est[0] += [3.0, 4.0]
        est[1] += [5.0, 12.0]
        assert np.allclose(rmse_pos_per_run(est, truth), [5.0, 13.0])

    def test_per_run_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            rmse_pos_per_run(np.zeros((2, 3, 2)), np.zeros((2, 4, 2)))


class TestRunRng:
    def test_reproducible(self):
        a = run_rng(7, 3).standard_normal(4)
        b = run_rng(7, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_runs_decorrelated(self):
        a = run_rng(7, 0).standard_normal(4)
        b = run_rng(7, 1).standard_normal(4)
        assert not np.array_equal(a, b)


class TestComplexityFit:
    def test_linear_slope(self):
        m = [2.0, 4.0, 8.0]
        assert complexity_fit(m, [0.2, 0.4, 0.8]) == pytest.approx(1.0, abs=1e-12)

    def test_cubic_slope(self):
        m = np.array([2.0, 4.0, 8.0])
        assert complexity_fit(m, m**3) == pytest.approx(3.0, abs=1e-12)

    def test_run_axis_averaged(self):
        m = np.array([2.0, 4.0, 8.0])
        stacked = np.column_stack([0.5 * m, 1.5 * m])
        assert complexity_fit(m, stacked) == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match=">= 3"):
            complexity_fit([2.0, 4.0], [1.0, 2.0])

    def test_too_few_distinct_m_rejected(self):
        # one distinct m leaves the slope undetermined
        with pytest.raises(ValueError, match="distinct m"):
            complexity_fit([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            complexity_fit([2.0, 4.0, 8.0], [1.0, 0.0, 2.0])


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.filters == ("ukf", "sor", "msor")
        assert cfg.steps == 1000
        assert cfg.runs == 100
        assert cfg.lam == 0.3
        assert cfg.gamma_law == (100.0, 1000.0)
        assert cfg.epsilon == 1e-6

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"num_pairs": 0}, "num_pairs"),
            ({"runs": 0}, "runs"),
            ({"steps": 0}, "steps"),
            ({"filters": ("ukf", "ekf")}, "subset"),
            ({"filters": ()}, "subset"),
            ({"sweep_axis": "foo", "sweep_values": (1,)}, "sweep_axis"),
            ({"sweep_axis": "lam", "sweep_values": ()}, "non-empty"),
            ({"variant": "fast"}, "variant"),
            ({"sweep_axis": "lam", "sweep_values": (0.1, 1.5)}, "lam must"),
            ({"sweep_axis": "gamma", "sweep_values": (0.5,)}, "gamma must"),
            ({"steps": 2.5}, "steps must be an integer"),
            ({"runs": 1.5}, "runs must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
            # the indicator, UT, turn-model and corruption configs it builds
            ({"epsilon": 2.0}, "epsilon"),
            ({"tau": 0.0}, "tau"),
            ({"alpha": 0.0}, "alpha"),
            ({"dt": -1.0}, "dt"),
            ({"mode": "both"}, "mode"),
            ({"lam": 1.5}, "lam"),
            # NaN and inf values
            ({"dt": float("nan")}, "dt"),
            ({"eta1": float("nan")}, "noise scales"),
            ({"eta2": float("inf")}, "noise scales"),
            ({"sigma_theta": float("nan")}, "sigmas"),
            ({"sigma_rho": float("inf")}, "sigmas"),
            ({"gamma_law": float("nan")}, "gamma must"),
            ({"gamma_law": (float("nan"), float("nan"))}, "gamma interval"),
            ({"gamma_law": (1.0, float("inf"))}, "gamma interval"),
            ({"tag_z": float("nan")}, "tag_z"),
            ({"sweep_axis": "gamma", "sweep_values": (10.0, float("nan"))}, "gamma must"),
            ({"beta": float("inf")}, "beta"),
            ({"kappa": float("inf")}, "kappa"),
            # a sweep that would be ignored, or whose points are one world
            ({"sweep_values": (0.1, 0.5)}, "sweep_values need a sweep_axis"),
            (
                {"mode": "missing", "sweep_axis": "gamma", "sweep_values": (10.0, 100.0)},
                "sweep_axis gamma has no effect in mode missing",
            ),
            # a second run of a filter would overwrite the first one's timing
            ({"filters": ("sor", "ukf", "sor")}, "filters lists 'sor' more than once"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ScenarioConfig(**kwargs)

    def test_from_yaml_round_trip(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "steps": 12,
                    "runs": 2,
                    "lam": 0.1,
                    "filters": ["ukf", "sor"],
                    "gamma_law": [100.0, 1000.0],
                    "sweep_axis": "lam",
                    "sweep_values": [0.1, 0.2],
                }
            )
        )
        cfg = ScenarioConfig.from_yaml(path)
        assert cfg.steps == 12
        assert cfg.filters == ("ukf", "sor")
        assert cfg.gamma_law == (100.0, 1000.0)
        assert cfg.sweep_values == (0.1, 0.2)

    def test_from_yaml_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("stpes: 10\n")
        with pytest.raises(ValueError, match="unknown config keys.*stpes"):
            ScenarioConfig.from_yaml(path)

    def test_from_yaml_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ValueError, match="mapping"):
            ScenarioConfig.from_yaml(path)

    def test_from_yaml_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("")
        assert ScenarioConfig.from_yaml(path) == ScenarioConfig()

    def test_helper_objects(self):
        # every part field off its default, so a part that dropped or
        # misrouted a field would differ from the explicit object
        cfg = ScenarioConfig(
            epsilon=1e-4, theta_prior=0.4, tau=1e-3, max_iters=7,
            alpha=0.5, beta=1.0, kappa=2.0,
            dt=2.0, eta1=0.3, eta2=1e-3,
            mode="missing", lam=0.2, gamma_law=5.0, sigma_theta=1e-2, sigma_rho=3.0,
        )
        assert cfg.indicator == IndicatorConfig(
            epsilon=1e-4, theta_prior=0.4, tau=1e-3, max_iters=7
        )
        assert cfg.ut == UTParams(alpha=0.5, beta=1.0, kappa=2.0)
        assert cfg.turn == TurnModelConfig(dt=2.0, eta1=0.3, eta2=1e-3)
        assert cfg.corruption == CorruptionConfig(
            mode="missing", lam=0.2, gamma_law=5.0, sigma_theta=1e-2, sigma_rho=3.0
        )
        defaults = (IndicatorConfig(), UTParams(), TurnModelConfig(), CorruptionConfig())
        parts = (cfg.indicator, cfg.ut, cfg.turn, cfg.corruption)
        for part, default in zip(parts, defaults):
            for f in dataclasses.fields(part):
                assert getattr(part, f.name) != getattr(default, f.name), f.name
        # not fields: equality, repr and the YAML keys ignore them
        assert "indicator" not in {f.name for f in dataclasses.fields(cfg)}


class TestRunTrackingSingle:
    def test_deterministic_and_shaped(self):
        cfg = ScenarioConfig(steps=8, runs=1, filters=("ukf", "msor"), seed=4)
        truth1, out1 = run_tracking_single(cfg, 0)
        truth2, out2 = run_tracking_single(cfg, 0)
        assert np.array_equal(truth1, truth2)
        assert set(out1) == {"ukf", "msor"}
        for name in out1:
            assert out1[name].estimates.shape == (8, 2)
            assert np.array_equal(out1[name].estimates, out2[name].estimates)
        assert np.all(out1["ukf"].iterations == 0)
        assert np.all(out1["msor"].iterations >= 1)

    def test_run_index_changes_world(self):
        cfg = ScenarioConfig(steps=8, runs=1, filters=("ukf",), seed=4)
        truth1, _ = run_tracking_single(cfg, 0)
        truth2, _ = run_tracking_single(cfg, 1)
        assert not np.array_equal(truth1, truth2)

    def test_lam_override_changes_measurements(self):
        # a lam sweep point's config replaces the config's lam
        cfg = ScenarioConfig(steps=8, runs=1, filters=("ukf",), seed=4, lam=0.9)
        _, heavy = run_tracking_single(cfg, 0)
        sweep = dataclasses.replace(cfg, sweep_axis="lam", sweep_values=(0.0,))
        ((_, point),) = sweep.points()
        _, clean = run_tracking_single(point, 0)
        assert not np.array_equal(
            heavy["ukf"].estimates, clean["ukf"].estimates
        )

    @pytest.mark.parametrize(
        "mode,axis,key,values",
        [
            pytest.param("outliers", "lam", "lam", (0.0, 0.6), id="outliers-lam-lam-values0"),
            pytest.param(
                "outliers", "gamma", "gamma_law", (1, 400.0), id="outliers-gamma-gamma_law-values1"
            ),
            # a gamma sweep in missing mode is refused (see test_validation)
            pytest.param("missing", "lam", "lam", (0.0, 0.6), id="missing-lam-lam-values0"),
        ],
    )
    def test_sweep_points_match_plain_configs(self, mode, axis, key, values):
        base = dict(steps=12, runs=1, seed=6, mode=mode)
        sweep = ScenarioConfig(**base, sweep_axis=axis, sweep_values=values)
        assert [value for value, _ in sweep.points()] == list(values)
        for value, point in sweep.points():
            plain = ScenarioConfig(**base, **{key: float(value)})
            assert point == plain
            _, got = run_tracking_single(point, 1)
            _, want = run_tracking_single(plain, 1)
            for name in FILTER_NAMES:
                assert np.array_equal(got[name].estimates, want[name].estimates)
                assert np.array_equal(got[name].iterations, want[name].iterations)

    @pytest.mark.parametrize("mode", ["outliers", "missing"])
    def test_filter_result_independent_of_the_others(self, mode):
        cfg = ScenarioConfig(steps=30, runs=1, seed=3, mode=mode, lam=0.4)
        _, together = run_tracking_single(cfg, 2)
        for name in FILTER_NAMES:
            alone_cfg = dataclasses.replace(cfg, filters=(name,))
            _, alone = run_tracking_single(alone_cfg, 2)
            assert np.array_equal(alone[name].estimates, together[name].estimates)
            assert np.array_equal(alone[name].iterations, together[name].iterations)

    def test_msor_runs_with_a_subnormal_precision(self):
        # epsilon = 1e-310 gives a rejected range dimension the precision
        # 1e-312, whose noise variance 1 / 1e-312 overflows; the bearing
        # sweep skips it as it skips a zero precision
        cfg = ScenarioConfig(steps=80, runs=1, filters=("msor",), seed=2, epsilon=1e-310)
        _, out = run_tracking_single(cfg, 0)
        assert np.isfinite(out["msor"].estimates).all()


class TestRunSweep:
    def _small_cfg(self, out, **kwargs):
        base = dict(steps=10, runs=2, filters=("ukf", "msor"), seed=1, out=str(out))
        base.update(kwargs)
        return ScenarioConfig(**base)

    def test_single_point_outputs(self, tmp_path):
        cfg = self._small_cfg(tmp_path)
        summary = run_sweep(cfg)
        assert summary["failures"] == []
        assert len(summary["points"]) == 1
        csv_path = tmp_path / "run.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "filter,step,rmse"
        assert len(lines) == 1 + 2 * 10
        assert lines[1].startswith("ukf,1,")
        assert json.loads((tmp_path / "summary.json").read_text()) == summary
        assert summary["scenario"] == "tracking"
        assert summary["runs"] == 2
        point = summary["points"][0]
        assert set(point["filters"]) == {"ukf", "msor"}
        stats = point["filters"]["msor"]
        assert len(stats["rmse_per_run"]) == 2
        assert stats["rmse_median"] == float(np.median(stats["rmse_per_run"]))

    def test_sweep_axis_files(self, tmp_path):
        cfg = self._small_cfg(
            tmp_path, filters=("ukf",), sweep_axis="lam", sweep_values=(0.0, 0.5)
        )
        summary = run_sweep(cfg)
        assert [p["value"] for p in summary["points"]] == [0.0, 0.5]
        assert (tmp_path / "sweep_lam_0.0.csv").exists()
        assert (tmp_path / "sweep_lam_0.5.csv").exists()

    def test_csv_bodies_deterministic(self, tmp_path):
        first = run_sweep(self._small_cfg(tmp_path / "a"))
        second = run_sweep(self._small_cfg(tmp_path / "b"))
        assert first["failures"] == second["failures"] == []
        body_a = (tmp_path / "a" / "run.csv").read_text()
        body_b = (tmp_path / "b" / "run.csv").read_text()
        assert body_a == body_b

    def test_failures_recorded_without_aborting(self, tmp_path, monkeypatch):
        real = harness._tracking_world

        def flaky(cfg, run_index):
            if run_index == 1:
                raise RuntimeError("synthetic fault")
            return real(cfg, run_index)

        monkeypatch.setattr(harness, "_tracking_world", flaky)
        cfg = self._small_cfg(tmp_path, runs=3, filters=("ukf",))
        summary = run_sweep(cfg)
        assert summary["failures"] == [
            {"value": None, "run": 1, "filter": None, "error": "RuntimeError: synthetic fault"}
        ]
        assert len(summary["points"][0]["filters"]["ukf"]["rmse_per_run"]) == 2
        assert json.loads((tmp_path / "summary.json").read_text()) == summary

    def test_one_filter_failure_keeps_the_other_filters_runs(self, tmp_path, monkeypatch):
        real = harness.run_filter
        msor_calls = []

        def flaky(name, *args):
            if name == "msor":
                msor_calls.append(name)
                if len(msor_calls) == 2:  # run 1 of 3
                    raise FilterNumericsError("synthetic divergence", time_index=4)
            return real(name, *args)

        filters = ("ukf", "sor", "msor")
        clean = run_sweep(self._small_cfg(tmp_path / "clean", runs=3, filters=filters))
        monkeypatch.setattr(harness, "run_filter", flaky)
        summary = run_sweep(self._small_cfg(tmp_path / "flaky", runs=3, filters=filters))
        assert summary["failures"] == [
            {
                "value": None,
                "run": 1,
                "filter": "msor",
                "error": "FilterNumericsError: synthetic divergence",
            }
        ]
        got = summary["points"][0]["filters"]
        want = clean["points"][0]["filters"]
        # each filter's statistics cover the runs it completed
        for name in ("ukf", "sor"):
            assert got[name]["rmse_per_run"] == want[name]["rmse_per_run"]
            assert got[name]["rmse_aggregate"] == want[name]["rmse_aggregate"]
        kept = want["msor"]["rmse_per_run"]
        assert got["msor"]["rmse_per_run"] == [kept[0], kept[2]]
        rows = {
            side: (tmp_path / side / "run.csv").read_text().splitlines()
            for side in ("clean", "flaky")
        }
        assert [r for r in rows["flaky"] if not r.startswith("msor,")] == [
            r for r in rows["clean"] if not r.startswith("msor,")
        ]


class TestBenchRuntime:
    def test_small_bench_outputs(self, tmp_path):
        report = bench_runtime(
            m_values=(4, 8, 12), runs=1, steps=5, seed=0, out=tmp_path
        )
        assert report.m_values == (4, 8, 12)
        assert set(report.slopes) == {"sor", "msor"}
        for name in ("sor", "msor"):
            assert report.seconds[name].shape == (3, 1)
            assert np.all(report.seconds[name] > 0.0)
            assert np.isfinite(report.slopes[name])
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0] == "filter,m,run,seconds"
        assert len(lines) == 1 + 2 * 3
        bench = json.loads((tmp_path / "bench.json").read_text())
        assert bench["m_values"] == [4, 8, 12]
        assert set(bench["slopes"]) == {"sor", "msor"}

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError, match="even"):
            bench_runtime(m_values=(3, 6, 9), runs=1, steps=2)

    @pytest.mark.parametrize(
        "m_values,match",
        [
            ((4, 8, 9), "even"),
            ((4, 8, 0), "even"),
            ((4, 8), "at least 3"),
            ((4, 8, 4), "at least 3 distinct"),
        ],
    )
    def test_m_values_checked_before_the_first_run(
        self, monkeypatch, m_values, match
    ):
        calls = []
        monkeypatch.setattr(harness, "run_tracking_single", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=match):
            bench_runtime(m_values=m_values, runs=1, steps=2)
        assert calls == []


def _toy_uwb_dir(tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "anchors.csv").write_text(
        "id,x,y,z\na,0.0,0.0,2.5\nb,4.0,0.0,2.5\nc,0.0,4.0,3.0\n"
    )
    (tmp_path / "steps.csv").write_text(
        "step,truth_x,truth_y,a,b,c\n"
        "1,0.5,0.5,2.6,4.3,\n2,1.0,0.5,2.8,3.9,4.6\n3,1.5,0.5,2.9,,4.8\n"
    )
    return tmp_path


class TestRunUwbExperiment:
    def test_synthetic_report(self, tmp_path):
        cfg = ScenarioConfig(runs=1, seed=0, out=str(tmp_path), variant="msor")
        report = run_uwb_experiment(cfg)
        assert report["scenario"] == "synthetic"
        assert report["variant"] == "msor"
        assert report["steps"] == 200
        assert report["rmse_m"] < 1.0
        on_disk = json.loads((tmp_path / "uwb_report.json").read_text())
        assert on_disk == report

    def test_dataset_report(self, tmp_path):
        data_dir = _toy_uwb_dir(tmp_path / "data")
        cfg = ScenarioConfig(
            runs=2,
            seed=0,
            out=str(tmp_path / "out"),
            dataset=str(data_dir),
            variant="ukf",
        )
        report = run_uwb_experiment(cfg)
        assert report["scenario"] == str(data_dir)
        assert report["steps"] == 3
        assert len(report["rmse_per_run"]) == 2


class TestCli:
    def test_offers_simulate_uwb_and_bench(self, capsys):
        (sub,) = [
            a for a in sorfilt.cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(sub.choices) == {"simulate", "uwb", "bench"}
        with pytest.raises(SystemExit) as info:
            main(["check"])
        assert info.value.code == 2
        assert "invalid choice: 'check'" in capsys.readouterr().err

    def test_simulate_exit_zero(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--runs", "1",
                "--steps", "10",
                "--filters", "ukf",
                "--seed", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "run.csv").exists()
        assert "ukf: rmse=" in capsys.readouterr().out

    def test_simulate_config_with_cli_override(self, tmp_path, capsys):
        config = tmp_path / "scenario.yaml"
        config.write_text(
            yaml.safe_dump({"steps": 10, "runs": 3, "filters": ["ukf"]})
        )
        code = main(
            [
                "simulate",
                "--config", str(config),
                "--runs", "1",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["steps"] == 10
        assert summary["runs"] == 1

    def test_simulate_exit_one_on_run_failure(self, tmp_path, capsys, monkeypatch):
        def broken(cfg, run_index):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(harness, "_tracking_world", broken)
        code = main(
            [
                "simulate",
                "--runs", "1",
                "--steps", "5",
                "--filters", "ukf",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "synthetic fault" in capsys.readouterr().err

    def test_uwb_exit_two_on_missing_dataset(self, tmp_path, capsys):
        code = main(
            [
                "uwb",
                "--dataset", str(tmp_path / "nope"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert "dataset error" in capsys.readouterr().err

    def test_uwb_refuses_filters(self, tmp_path, capsys):
        # uwb runs the one filter --variant names; --filters would be ignored
        with pytest.raises(SystemExit) as info:
            main(["uwb", "--filters", "sor", "--out", str(tmp_path)])
        assert info.value.code == 2
        assert "--filters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,config,match",
        [
            ("simulate", {"filters": ["foo"]}, "filters must be"),
            ("simulate", {"lam": 0.2, "colour": "red"}, "unknown config keys"),
            ("uwb", {"variant": "fast"}, "variant must be"),
            ("bench", {"filters": ["foo"]}, "filters must be"),
            ("simulate", {"steps": None}, "steps must be an integer"),
            ("uwb", {"epsilon": "abc"}, "not supported"),
            ("simulate", {"scenario": "uwb"}, "unknown config keys ['scenario']"),
            ("simulate", {"epsilon": 0.0}, "epsilon"),
            ("simulate", {"dt": 0.0}, "dt"),
            ("simulate", {"mode": "both"}, "mode"),
            ("simulate", {"alpha": 2.0}, "alpha"),
            ("simulate", {"num_pairs": 0}, "num_pairs"),
            ("uwb", {"tau": -1.0}, "tau"),
            ("simulate", {"dt": float("nan")}, "dt"),
            ("simulate", {"gamma_law": float("inf")}, "gamma"),
            ("uwb", {"tag_z": float("nan")}, "tag_z"),
            ("simulate", {"sweep_values": [0.1, 0.5]}, "sweep_values need a sweep_axis"),
            (
                "simulate",
                {"mode": "missing", "sweep_axis": "gamma", "sweep_values": [10.0, 100.0]},
                "sweep_axis gamma has no effect in mode missing",
            ),
        ],
    )
    def test_bad_config_value_exits_two(self, tmp_path, capsys, command, config, match):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(config))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert match in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    def test_repeated_filter_exits_two(self, tmp_path, capsys, monkeypatch, command):
        # a second run of sor would overwrite the first one's timing
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_tracking_single", no_run)
        argv = [command, "--filters", "sor,msor,sor", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "config error: filters lists 'sor' more than once\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config,named",
        [
            ({"variant": "sor"}, ["'variant'"]),
            (
                {"steps": 10, "tag_z": 3.0, "dataset": "/nonexistent"},
                ["'dataset'", "'tag_z'"],
            ),
        ],
    )
    def test_simulate_config_refuses_uwb_keys(self, tmp_path, capsys, config, named):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(config))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: simulate does not use")
        refused, read = err.split("reads only")
        assert all(key in refused for key in named)
        assert "'steps'" not in refused and "'lam'" in read
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "m,match",
        [
            ("3,5,7", "even"),
            ("4,x", "integers"),
            ("4,8", "at least 3"),
            ("4,4,4", "at least 3 distinct m values"),
        ],
    )
    def test_bench_bad_m_exits_two(self, tmp_path, capsys, monkeypatch, m, match):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_tracking_single", no_run)
        code = main(["bench", "--m", m, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --m {m}: ") and match in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "uwb", "bench"])
    @pytest.mark.parametrize("case", ["malformed", "missing"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, command, case):
        path = tmp_path / "scenario.yaml"
        if case == "malformed":
            path.write_text("runs: [1\n")
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: cannot read config: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "uwb", "bench"])
    def test_bad_flag_value_exits_two(self, tmp_path, capsys, command):
        code = main([command, "--runs", "0", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: runs must be >= 1" in capsys.readouterr().err

    def test_flag_replaces_bad_file_value_before_any_check(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump({"runs": 0, "steps": 5, "filters": ["bad"]}))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
        code = main(argv + ["--runs", "1", "--filters", "ukf"])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert (summary["runs"], summary["filters"]) == (1, ["ukf"])

    def test_config_keys_cover_every_field(self):
        keys = sorfilt.cli.CONFIG_KEYS
        read = set().union(*keys.values())
        assert read == {f.name for f in dataclasses.fields(ScenarioConfig)}
        # every flag that sets a config key sets one its command reads
        parser = sorfilt.cli.build_parser()
        for command, allowed in keys.items():
            flags = set(vars(parser.parse_args([command]))) & read
            assert flags and flags <= set(allowed), command

    def test_uwb_config_keys(self):
        # derived from the part classes' fields; a new part field must not
        # widen what uwb reads unnoticed
        assert set(sorfilt.cli.CONFIG_KEYS["uwb"]) == {
            "dataset", "runs", "seed", "out", "variant", "tag_z",
            "epsilon", "theta_prior", "tau", "max_iters", "alpha", "beta", "kappa",
        }

    @pytest.mark.parametrize(
        "config,named",
        [
            ({"filters": ["sor"]}, ["'filters'"]),
            ({"steps": 50, "lam": 0.9, "runs": 1}, ["'lam'", "'steps'"]),
        ],
    )
    def test_uwb_config_refuses_unused_keys(self, tmp_path, capsys, config, named):
        # uwb runs the one filter 'variant' names on its own room; tracking
        # keys would be ignored
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(config))
        code = main(["uwb", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        refused, read = err.split("reads only")
        assert all(key in refused for key in named)
        assert "'runs'" not in refused and "'variant'" in read
        assert not (tmp_path / "out").exists()

    def test_uwb_config_reads_filter_parameters(self, tmp_path, capsys):
        data_dir = _toy_uwb_dir(tmp_path / "data")
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump({"variant": "sor", "runs": 1, "tau": 1e-3}))
        code = main(
            [
                "uwb",
                "--config", str(path),
                "--dataset", str(data_dir),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["variant"] == "sor"

    def test_uwb_dataset_exit_zero(self, tmp_path, capsys):
        data_dir = _toy_uwb_dir(tmp_path / "data")
        code = main(
            [
                "uwb",
                "--dataset", str(data_dir),
                "--variant", "msor",
                "--runs", "1",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["variant"] == "msor"
        assert (tmp_path / "out" / "uwb_report.json").exists()

    def test_bench_exit_zero(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--m", "4,8,12",
                "--runs", "1",
                "--steps", "5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert "slope=" in capsys.readouterr().out
        assert (tmp_path / "bench.json").exists()


class TestBenchConfig:
    """bench reads lam, gamma_law, steps, runs and filters from --config;
    flags override the file, and keys set nowhere keep bench's defaults."""

    @pytest.fixture
    def received(self, monkeypatch):
        calls = []
        signature = inspect.signature(bench_runtime)

        def fake(**kwargs):
            # record the arguments the real function would run with
            bound = signature.bind(**kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return harness.BenchReport(m_values=(4, 8, 12), seconds={}, slopes={})

        monkeypatch.setattr(sorfilt.cli, "bench_runtime", fake)
        return calls

    def _run(self, tmp_path, config, *flags):
        argv = ["bench", "--m", "4,8,12", "--out", str(tmp_path / "out"), *flags]
        if config is not None:
            path = tmp_path / "bench.yaml"
            path.write_text(yaml.safe_dump(config))
            argv += ["--config", str(path)]
        assert main(argv) == 0

    def test_absent_keys_keep_bench_defaults(self, tmp_path, received):
        self._run(tmp_path, {"seed": 4})
        (kwargs,) = received
        assert kwargs["lam"] == 0.9
        assert kwargs["gamma_law"] == (100.0, 1000.0)
        assert kwargs["steps"] == 100
        assert kwargs["runs"] == 5
        assert kwargs["filters"] == ("sor", "msor")
        assert kwargs["seed"] == 4

    def test_no_config_keeps_bench_defaults(self, tmp_path, received):
        self._run(tmp_path, None)
        (kwargs,) = received
        assert (kwargs["lam"], kwargs["steps"], kwargs["runs"]) == (0.9, 100, 5)

    def test_config_keys_are_honoured(self, tmp_path, received):
        config = {
            "lam": 0.2,
            "gamma_law": 50.0,
            "steps": 7,
            "runs": 3,
            "filters": ["msor"],
        }
        self._run(tmp_path, config)
        (kwargs,) = received
        assert kwargs["lam"] == 0.2
        assert kwargs["gamma_law"] == 50.0
        assert kwargs["steps"] == 7
        assert kwargs["runs"] == 3
        assert kwargs["filters"] == ("msor",)

    @pytest.mark.parametrize(
        "config",
        [{"mode": "missing"}, {"lam": 0.2, "epsilon": 1e-3, "alpha": 0.5}],
    )
    def test_keys_bench_ignores_are_refused(self, tmp_path, received, capsys, config):
        path = tmp_path / "bench.yaml"
        path.write_text(yaml.safe_dump(config))
        code = main(
            ["bench", "--m", "4,8,12", "--out", str(tmp_path), "--config", str(path)]
        )
        assert code == 2
        assert received == []
        err = capsys.readouterr().err
        for key in set(config) - {"lam"}:
            assert repr(key) in err
        assert "'lam'" not in err.split("reads only")[0]

    def test_flags_override_config(self, tmp_path, received):
        config = {"lam": 0.2, "steps": 7, "runs": 3, "filters": ["msor"]}
        self._run(
            tmp_path, config, "--steps", "11", "--runs", "2", "--filters", "sor"
        )
        (kwargs,) = received
        assert (kwargs["steps"], kwargs["runs"], kwargs["filters"]) == (11, 2, ("sor",))
        assert kwargs["lam"] == 0.2
