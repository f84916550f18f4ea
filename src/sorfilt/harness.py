"""Config-driven Monte Carlo harness: RMSE sweeps, runtime benchmarks, and
machine-readable reports."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .gaussian import PredictedMeasurement, update_parallel, update_serial, wrap_angle
from .model import GaussianBelief, Measurement, chol_lower
from .tracking import (
    TRACKING_X0,
    CorruptionConfig,
    SensorField,
    TurnModelConfig,
    clean_measurement,
    make_tracking_model,
    process_noise_cov,
    simulate_trajectory,
    turn_transition,
)
from .unscented import UTParams, draw_sigma_points, unscented_moments
from .uwb import make_synthetic_dataset, load_dataset, run_localization
from .vb import (
    FILTER_NAMES,
    IndicatorBelief,
    IndicatorConfig,
    effective_precision,
    omega_update,
    run_filter,
)

# each sweep axis and the ScenarioConfig field it sets
SWEEP_AXES = {"lam": "lam", "gamma": "gamma_law"}

# each part a ScenarioConfig builds, by the attribute that holds it; a part
# takes every value from the ScenarioConfig field of the same name
_PARTS = {
    "indicator": IndicatorConfig,
    "ut": UTParams,
    "turn": TurnModelConfig,
    "corruption": CorruptionConfig,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative experiment definition; YAML-loadable.

    Construction builds and checks its parts (indicator, ut, turn and
    corruption) once, and the config of each sweep point, so a bad value
    fails here, before any run.
    """

    filters: tuple[str, ...] = FILTER_NAMES
    steps: int = 1000
    runs: int = 100
    seed: int = 0
    out: str = "out"
    # corruption
    mode: str = "outliers"
    lam: float = 0.3
    gamma_law: float | tuple[float, float] = (100.0, 1000.0)
    sigma_theta: float = 3.5e-3
    sigma_rho: float = 10.0
    # world
    num_pairs: int = 3
    dt: float = 1.0
    eta1: float = 0.1
    eta2: float = 1.75e-4
    # sweep
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    # indicator model
    epsilon: float = 1e-6
    theta_prior: float = 0.5
    tau: float = 1e-4
    max_iters: int = 50
    # unscented transform
    alpha: float = 1.0
    beta: float = 2.0
    kappa: float = 0.0
    # uwb
    dataset: str | None = None
    variant: str = "msor"
    tag_z: float = 0.0

    def __post_init__(self) -> None:
        for name, low in (("runs", 1), ("steps", 1), ("num_pairs", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
        filters = tuple(self.filters)
        unknown = set(filters) - set(FILTER_NAMES)
        if not filters or unknown:
            raise ValueError(f"filters must be a non-empty subset of {FILTER_NAMES}")
        object.__setattr__(self, "filters", filters)
        if self.variant not in FILTER_NAMES:
            raise ValueError(f"variant must be one of {FILTER_NAMES}")
        if not -math.inf < self.tag_z < math.inf:  # a NaN fails this too
            raise ValueError("tag_z must be finite")
        if self.sweep_axis is not None:
            if self.sweep_axis not in SWEEP_AXES:
                raise ValueError(f"sweep_axis must be one of {tuple(SWEEP_AXES)}")
            if not tuple(self.sweep_values):
                raise ValueError("sweep values must be non-empty")
            # missing readings take no gamma, so every point would be one world
            if self.sweep_axis == "gamma" and self.mode == "missing":
                raise ValueError("sweep_axis gamma has no effect in mode missing")
        elif tuple(self.sweep_values):
            raise ValueError("sweep_values need a sweep_axis")
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        if isinstance(self.gamma_law, list):
            object.__setattr__(self, "gamma_law", tuple(self.gamma_law))
        # not fields, so equality, repr and read_yaml ignore them
        for attr, part in _PARTS.items():
            values = {f.name: getattr(self, f.name) for f in dataclasses.fields(part)}
            object.__setattr__(self, attr, part(**values))
        self.points()  # a bad sweep value fails here, not in each of its runs

    @classmethod
    def read_yaml(cls, path) -> dict:
        """The keys and values a YAML config file sets, checked by name only.

        A file that cannot be read or parsed is a ValueError naming path.
        """
        try:
            raw = yaml.safe_load(Path(path).read_text()) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ValueError(f"{path}: cannot read config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config root must be a mapping")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        return raw

    @classmethod
    def from_yaml(cls, path) -> "ScenarioConfig":
        return cls(**cls.read_yaml(path))

    def points(self) -> list[tuple]:
        """(value, config) per sweep point: a config without a sweep whose axis
        field is float(value).  [(None, self)] when there is no sweep."""
        if self.sweep_axis is None:
            return [(None, self)]
        key = SWEEP_AXES[self.sweep_axis]
        return [
            (v, dataclasses.replace(self, sweep_axis=None, sweep_values=(), **{key: float(v)}))
            for v in self.sweep_values
        ]


def rmse_pos(estimates, truths) -> tuple[np.ndarray, float]:
    """Per-step RMSE over runs plus its mean over steps.

    Accepts (runs, K, 2) stacks or single (K, 2) series; per-step value is
    sqrt(mean over runs of squared position error).
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.ndim == 2:
        est = est[None]
    if tru.ndim == 2:
        tru = tru[None]
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: estimates {est.shape} vs truths {tru.shape}")
    sq = np.sum((est - tru) ** 2, axis=-1)
    per_step = np.sqrt(np.mean(sq, axis=0))
    return per_step, float(per_step.mean())


def rmse_pos_per_run(estimates, truths) -> np.ndarray:
    """Aggregate RMSE of each run: sqrt(mean over steps of squared error)."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: estimates {est.shape} vs truths {tru.shape}")
    sq = np.sum((est - tru) ** 2, axis=-1)
    return np.sqrt(np.mean(sq, axis=-1))


def run_rng(base_seed: int, run_index: int) -> np.random.Generator:
    """Counter-based generator keyed by (experiment seed, run index)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((base_seed, run_index)))
    )


@dataclass(frozen=True)
class FilterRunOutcome:
    estimates: np.ndarray  # (K, 2) position estimates
    seconds: float
    iterations: np.ndarray  # (K,)


def run_tracking_single(
    cfg: ScenarioConfig, run_index: int
) -> tuple[np.ndarray, dict[str, FilterRunOutcome]]:
    """One Monte Carlo run: simulate cfg's world, then run each filter on it.

    cfg's sweep is ignored: run_sweep passes the config of each sweep point,
    from cfg.points().  A filter's result does not depend on which other
    filters run.  Returns the true positions and per-filter outcomes.  Timing
    covers run_filter only, including its O(K m) building of the result arrays.
    """
    rng = run_rng(cfg.seed, run_index)
    sensor_field = SensorField.lattice(cfg.num_pairs)
    traj = simulate_trajectory(cfg.turn, sensor_field, cfg.corruption, cfg.steps, rng)
    model = make_tracking_model(sensor_field, cfg.turn, cfg.sigma_theta, cfg.sigma_rho)
    p0 = 100.0 * process_noise_cov(cfg.turn)
    init_mean = TRACKING_X0 + chol_lower(p0, "P0") @ rng.standard_normal(5)
    init = GaussianBelief(init_mean, p0)
    measurements = [Measurement(k + 1, traj.measurements[k]) for k in range(cfg.steps)]

    outcomes: dict[str, FilterRunOutcome] = {}
    for name in cfg.filters:
        start = time.perf_counter()
        means, _, iterations = run_filter(
            name, model, init, measurements, cfg.indicator, cfg.ut
        )
        seconds = time.perf_counter() - start
        outcomes[name] = FilterRunOutcome(
            estimates=means[:, [0, 2]], seconds=seconds, iterations=iterations
        )
    return traj.positions, outcomes


def run_sweep(cfg: ScenarioConfig) -> dict:
    """Execute the configured tracking sweep, write CSV + JSON reports, and
    return the summary that summary.json holds.

    Each sweep point gets one CSV (filter, step, rmse).  Run failures are
    recorded per seed and do not abort the sweep.  CSV bodies depend only on
    config and seeds; wall-clock metadata lives in summary.json.
    """
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    axis = cfg.sweep_axis
    points, failures = [], []
    for value, point in cfg.points():
        truths, per_filter = [], {name: [] for name in cfg.filters}
        for run_index in range(cfg.runs):
            try:
                truth, outcomes = run_tracking_single(point, run_index)
            except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
                error = f"{type(exc).__name__}: {exc}"
                failures.append({"value": value, "run": run_index, "error": error})
                continue
            truths.append(truth)
            for name, outcome in outcomes.items():
                per_filter[name].append(outcome)

        rmse_per_step, stats = {}, {}
        if truths:
            truth_stack = np.stack(truths)
            for name, runs in per_filter.items():
                est_stack = np.stack([o.estimates for o in runs])
                rmse_per_step[name], aggregate = rmse_pos(est_stack, truth_stack)
                per_run = rmse_pos_per_run(est_stack, truth_stack)
                iters = np.concatenate([o.iterations for o in runs])
                stats[name] = {
                    "rmse_aggregate": aggregate,
                    "rmse_per_run": [float(v) for v in per_run],
                    "rmse_median": float(np.median(per_run)),
                    "seconds_mean": float(np.mean([o.seconds for o in runs])),
                    "iterations_mean": float(iters.mean()),
                    "iterations_max": int(iters.max()),
                }
        points.append({"value": value, "filters": stats})

        label = "run" if axis is None else f"sweep_{axis}_{value}"
        with (out_dir / f"{label}.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["filter", "step", "rmse"])
            for name, per_step in rmse_per_step.items():
                for step, rmse in enumerate(per_step, 1):
                    writer.writerow([name, step, repr(float(rmse))])

    summary = {
        "scenario": "tracking",
        "sweep_axis": axis,
        "filters": list(cfg.filters),
        "runs": cfg.runs,
        "steps": cfg.steps,
        "seed": cfg.seed,
        "mode": cfg.mode,
        "points": points,
        "failures": failures,
        "generated_unix": time.time(),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def complexity_fit(m_values, runtimes) -> float:
    """Least-squares slope of log-runtime against log-m.

    runtimes may be one value per m or a (points, runs) stack, which is
    averaged per point.  Fewer than 3 distinct m values is an error.
    """
    m_arr = np.asarray(m_values, dtype=float)
    t_arr = np.asarray(runtimes, dtype=float)
    if t_arr.ndim > 1:
        t_arr = t_arr.mean(axis=tuple(range(1, t_arr.ndim)))
    if np.unique(m_arr).size < 3 or t_arr.size != m_arr.size:
        raise ValueError("complexity_fit needs >= 3 (m, runtime) points at distinct m")
    if np.any(m_arr <= 0.0) or np.any(t_arr <= 0.0):
        raise ValueError("m and runtimes must be positive for a log-log fit")
    return float(np.polyfit(np.log(m_arr), np.log(t_arr), 1)[0])


def _check_m_values(m_values) -> tuple[int, ...]:
    """bench_runtime's m values as ints: >= 3 distinct, each even and positive."""
    try:
        m_values = tuple(int(m) for m in m_values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"m values must be integers: {exc}") from exc
    if len(set(m_values)) < 3:
        raise ValueError("the log-log fit needs at least 3 distinct m values")
    odd = [m for m in m_values if m < 2 or m % 2]
    if odd:
        raise ValueError(f"m must be even and positive (bearing/range pairs): {odd}")
    return m_values


@dataclass(frozen=True)
class BenchReport:
    m_values: tuple[int, ...]
    seconds: dict[str, np.ndarray]  # filter -> (len(m_values), runs)
    slopes: dict[str, float]


def bench_runtime(
    m_values=(200, 400, 800),
    runs: int = 5,
    steps: int = 100,
    seed: int = 0,
    lam: float = 0.9,
    gamma_law=(100.0, 1000.0),
    filters=("sor", "msor"),
    out=None,
) -> BenchReport:
    """Runtime-versus-m study on the tracking world (timing excludes simulation)."""
    m_values = _check_m_values(m_values)
    seconds = {name: np.zeros((len(m_values), runs)) for name in filters}
    for mi, m in enumerate(m_values):
        cfg = ScenarioConfig(
            filters=tuple(filters),
            steps=steps,
            runs=runs,
            seed=seed,
            mode="outliers",
            lam=lam,
            gamma_law=gamma_law,
            num_pairs=m // 2,
        )
        for run_index in range(runs):
            _, outcomes = run_tracking_single(cfg, run_index)
            for name in filters:
                seconds[name][mi, run_index] = outcomes[name].seconds
    slopes = {name: complexity_fit(m_values, seconds[name]) for name in filters}

    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / "bench.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["filter", "m", "run", "seconds"])
            for name in filters:
                for mi, m in enumerate(m_values):
                    for run_index in range(runs):
                        writer.writerow(
                            [name, m, run_index, repr(float(seconds[name][mi, run_index]))]
                        )
        (out_dir / "bench.json").write_text(
            json.dumps(
                {
                    "m_values": list(m_values),
                    "slopes": slopes,
                    "seconds_mean": {
                        name: [float(v) for v in seconds[name].mean(axis=1)]
                        for name in filters
                    },
                    "generated_unix": time.time(),
                },
                indent=2,
            )
        )
    return BenchReport(m_values=m_values, seconds=seconds, slopes=slopes)


def run_uwb_experiment(cfg: ScenarioConfig) -> dict:
    """Dataset (or synthetic) localization over cfg.runs random initializations.

    Writes a JSON report and returns it as a dict.
    """
    if cfg.dataset:
        anchors, steps = load_dataset(cfg.dataset)
        source = str(cfg.dataset)
    else:
        anchors, steps = make_synthetic_dataset(seed=cfg.seed)
        source = "synthetic"
    rmses, runtimes = [], []
    for run_index in range(cfg.runs):
        result = run_localization(
            anchors,
            steps,
            variant=cfg.variant,
            seed=cfg.seed + run_index,
            tag_z=cfg.tag_z,
            cfg=cfg.indicator,
            params=cfg.ut,
        )
        rmses.append(result.rmse_m)
        runtimes.append(result.runtime_s)
    report = {
        "scenario": source,
        "variant": cfg.variant,
        "rmse_m": float(np.mean(rmses)),
        "rmse_per_run": [float(v) for v in rmses],
        "mean_runtime_s": float(np.mean(runtimes)),
        "steps": len(steps),
        "runs": cfg.runs,
    }
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "uwb_report.json").write_text(json.dumps(report, indent=2))
    return report


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def invariant_checks() -> list[CheckResult]:
    """Fast self-test battery behind the `check` CLI subcommand."""
    checks: list[CheckResult] = []

    def record(name: str, fn) -> None:
        try:
            fn()
            checks.append(CheckResult(name, True, "ok"))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            checks.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))

    def check_sigma_points():
        belief = GaussianBelief([0.0], [[1.0]])
        sigma = draw_sigma_points(belief, UTParams())
        assert np.allclose(sorted(sigma.points[:, 0]), [-1.0, 0.0, 1.0])
        assert np.allclose(sigma.mean_weights, [0.0, 0.5, 0.5])
        assert np.allclose(sigma.cov_weights, [2.0, 0.5, 0.5])

    def check_affine_exactness():
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        base = rng.standard_normal((3, 3))
        cov = base @ base.T + 3.0 * np.eye(3)
        mean = rng.standard_normal(3)
        sigma = draw_sigma_points(GaussianBelief(mean, cov), UTParams())
        mu, u, _ = unscented_moments(sigma, lambda x: a @ x + b)
        assert np.allclose(mu, a @ mean + b, atol=1e-9)
        assert np.allclose(u, a @ cov @ a.T, atol=1e-8)

    def check_scalar_kalman():
        belief = GaussianBelief([0.0], [[1.0]])
        predmeas = PredictedMeasurement(mu=[0.0], U=[[1.0]], C=[[1.0]])
        post = update_parallel(belief, predmeas, [2.0], [1.0])
        assert np.allclose(post.mean, [1.0], atol=1e-12)
        assert np.allclose(post.cov, [[0.5]], atol=1e-12)

    def check_serial_matches_parallel():
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
        n, m = 4, 7
        joint_root = rng.standard_normal((n + m, n + m))
        joint = joint_root @ joint_root.T + 1e-3 * np.eye(n + m)
        belief = GaussianBelief(rng.standard_normal(n), joint[:n, :n])
        predmeas = PredictedMeasurement(
            mu=rng.standard_normal(m), U=joint[n:, n:], C=joint[:n, n:]
        )
        vinv = rng.random(m)
        vinv[2] = 0.0
        y = rng.standard_normal(m)
        par = update_parallel(belief, predmeas, y, vinv)
        ser = update_serial(belief, predmeas, y, vinv)
        assert np.allclose(par.mean, ser.posterior.mean, rtol=1e-8, atol=1e-10)
        assert np.allclose(par.cov, ser.posterior.cov, rtol=1e-8, atol=1e-10)

    def check_omega_examples():
        assert abs(omega_update(0.0, 1.0, 0.5, 1e-6) - 1.0 / (1.0 + 1e-3)) < 1e-12
        assert omega_update(100.0, 1.0, 0.5, 1e-6) < 1e-18
        assert abs(omega_update(0.0, 1.0, 0.95, 1e-6) - 0.9999474) < 1e-6

    def check_effective_precision():
        vinv = effective_precision(IndicatorBelief([1.0, 0.0]), [4.0, 9.0], 1e-6)
        assert np.allclose(vinv, [0.25, 1e-6 / 9.0], rtol=1e-9)

    def check_turn_model():
        cfg = TurnModelConfig()
        out = turn_transition(np.array([0.0, 1.0, 0.0, 1.0, 0.0]), cfg)
        assert np.allclose(out, [1.0, 1.0, 1.0, 1.0, 0.0])
        half = turn_transition(np.array([5.0, 2.0, -3.0, 1.0, np.pi]), cfg)
        assert np.allclose(half[[1, 3]], [-2.0, -1.0], atol=1e-12)
        q = process_noise_cov(cfg)
        assert np.all(np.linalg.eigvalsh(q) >= -1e-15)

    def check_sensor_lattice():
        sensor_field = SensorField.lattice(3)
        assert np.allclose(
            sensor_field.bearing_pos, [[0, 350], [350, 0], [700, 350]]
        )
        assert np.allclose(sensor_field.range_pos, [[0, 0], [350, 350], [700, 0]])
        meas = clean_measurement(np.array([100.0, 0.0, 100.0, 0.0, 0.0]), sensor_field)
        assert meas.shape == (6,)

    def check_wrap_angle():
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi
        assert abs(wrap_angle(3.0 * np.pi / 2.0) + np.pi / 2.0) < 1e-12

    record("sigma point construction (n=1)", check_sigma_points)
    record("unscented affine exactness", check_affine_exactness)
    record("scalar Kalman update", check_scalar_kalman)
    record("serial/parallel equivalence", check_serial_matches_parallel)
    record("indicator closed form", check_omega_examples)
    record("effective precision endpoints", check_effective_precision)
    record("turn model limits", check_turn_model)
    record("sensor lattice layout", check_sensor_lattice)
    record("angle wrapping", check_wrap_angle)
    return checks
