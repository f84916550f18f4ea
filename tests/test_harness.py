"""Experiment harness: configs, RMSE math, sweeps, benchmarks, CLI."""

import inspect
import json

import numpy as np
import pytest
import yaml

import sorfilt.cli
import sorfilt.harness as harness
from sorfilt import (
    AnchorSet,
    ScenarioConfig,
    StepRecord,
    bench_runtime,
    complexity_fit,
    invariant_checks,
    rmse_pos,
    rmse_pos_per_run,
    run_rng,
    run_sweep,
    run_tracking_single,
    run_uwb_experiment,
    write_dataset,
)
from sorfilt.cli import main


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

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            complexity_fit([2.0, 4.0, 8.0], [1.0, 0.0, 2.0])


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.scenario == "tracking"
        assert cfg.filters == ("ukf", "sor", "msor")
        assert cfg.steps == 1000
        assert cfg.runs == 100
        assert cfg.lam == 0.3
        assert cfg.gamma_law == (100.0, 1000.0)
        assert cfg.epsilon == 1e-6

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"scenario": "other"}, "scenario"),
            ({"runs": 0}, "runs"),
            ({"steps": 0}, "steps"),
            ({"filters": ("ukf", "ekf")}, "subset"),
            ({"filters": ()}, "subset"),
            ({"sweep_axis": "foo", "sweep_values": (1,)}, "sweep_axis"),
            ({"sweep_axis": "lam", "sweep_values": ()}, "non-empty"),
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
                    "scenario": "tracking",
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

    def test_with_overrides_skips_none(self):
        cfg = ScenarioConfig(seed=5)
        new = cfg.with_overrides(seed=None, runs=7)
        assert new.seed == 5
        assert new.runs == 7
        assert cfg.with_overrides() is cfg

    def test_helper_objects(self):
        cfg = ScenarioConfig(epsilon=1e-4, theta_prior=0.4, dt=2.0)
        icfg = cfg.indicator_config()
        assert icfg.epsilon == 1e-4
        assert icfg.theta_prior == 0.4
        assert cfg.ut_params().alpha == 1.0
        turn = cfg.turn_config()
        assert turn.dt == 2.0
        assert turn.eta1 == 0.1


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
        cfg = ScenarioConfig(steps=8, runs=1, filters=("ukf",), seed=4, lam=0.9)
        _, heavy = run_tracking_single(cfg, 0)
        _, clean = run_tracking_single(cfg, 0, lam=0.0)
        assert not np.array_equal(
            heavy["ukf"].estimates, clean["ukf"].estimates
        )


class TestRunSweep:
    def _small_cfg(self, out, **kwargs):
        base = dict(steps=10, runs=2, filters=("ukf", "msor"), seed=1, out=str(out))
        base.update(kwargs)
        return ScenarioConfig(**base)

    def test_single_point_outputs(self, tmp_path):
        cfg = self._small_cfg(tmp_path)
        report = run_sweep(cfg)
        assert report.ok
        assert len(report.points) == 1
        csv_path = tmp_path / "run.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "filter,step,rmse"
        assert len(lines) == 1 + 2 * 10
        assert lines[1].startswith("ukf,1,")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["runs"] == 2
        assert summary["failures"] == []
        point = summary["points"][0]
        assert set(point["filters"]) == {"ukf", "msor"}
        stats = point["filters"]["msor"]
        assert stats["rmse_aggregate"] == pytest.approx(
            report.points[0].filters["msor"].rmse_aggregate
        )
        assert len(stats["rmse_per_run"]) == 2

    def test_sweep_axis_files(self, tmp_path):
        cfg = self._small_cfg(
            tmp_path, filters=("ukf",), sweep_axis="lam", sweep_values=(0.0, 0.5)
        )
        report = run_sweep(cfg)
        assert [p.axis_value for p in report.points] == [0.0, 0.5]
        assert (tmp_path / "sweep_lam_0.0.csv").exists()
        assert (tmp_path / "sweep_lam_0.5.csv").exists()

    def test_csv_bodies_deterministic(self, tmp_path):
        first = run_sweep(self._small_cfg(tmp_path / "a"))
        second = run_sweep(self._small_cfg(tmp_path / "b"))
        assert first.ok and second.ok
        body_a = (tmp_path / "a" / "run.csv").read_text()
        body_b = (tmp_path / "b" / "run.csv").read_text()
        assert body_a == body_b

    def test_failures_recorded_without_aborting(self, tmp_path, monkeypatch):
        real = harness.run_tracking_single

        def flaky(cfg, run_index, lam=None, gamma_law=None):
            if run_index == 1:
                raise RuntimeError("synthetic fault")
            return real(cfg, run_index, lam, gamma_law)

        monkeypatch.setattr(harness, "run_tracking_single", flaky)
        cfg = self._small_cfg(tmp_path, runs=3, filters=("ukf",))
        report = run_sweep(cfg)
        assert not report.ok
        assert report.failures == [(None, 1, "RuntimeError: synthetic fault")]
        assert len(report.points[0].filters["ukf"].rmse_per_run) == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["failures"] == [
            {"value": None, "run": 1, "error": "RuntimeError: synthetic fault"}
        ]

    def test_rejects_uwb_scenario(self, tmp_path):
        cfg = ScenarioConfig(scenario="uwb", out=str(tmp_path))
        with pytest.raises(ValueError, match="tracking"):
            run_sweep(cfg)


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


def _toy_uwb_dir(tmp_path):
    anchors = AnchorSet(
        ids=("a", "b", "c"),
        positions=np.array([[0.0, 0.0, 2.5], [4.0, 0.0, 2.5], [0.0, 4.0, 3.0]]),
    )
    steps = [
        StepRecord(1, (0.5, 0.5), (2.6, 4.3, None)),
        StepRecord(2, (1.0, 0.5), (2.8, 3.9, 4.6)),
        StepRecord(3, (1.5, 0.5), (2.9, None, 4.8)),
    ]
    write_dataset(tmp_path, anchors, steps)
    return tmp_path


class TestRunUwbExperiment:
    def test_synthetic_report(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="uwb", runs=1, seed=0, out=str(tmp_path), variant="msor"
        )
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
            scenario="uwb",
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


class TestInvariantChecks:
    def test_all_pass(self):
        results = invariant_checks()
        assert len(results) == 9
        assert all(r.ok for r in results), [r for r in results if not r.ok]


class TestCli:
    def test_check_exit_zero(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "9/9 checks passed" in out
        assert "[OK]" in out

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
        def broken(cfg, run_index, lam=None, gamma_law=None):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(harness, "run_tracking_single", broken)
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
            return harness.BenchReport(m_values=(4,), seconds={}, slopes={})

        monkeypatch.setattr(sorfilt.cli, "bench_runtime", fake)
        return calls

    def _run(self, tmp_path, config, *flags):
        argv = ["bench", "--m", "4", "--out", str(tmp_path / "out"), *flags]
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
        code = main(["bench", "--m", "4", "--out", str(tmp_path), "--config", str(path)])
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
