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

from .model import GaussianBelief, Measurement, chol_lower
from .tracking import (
    TRACKING_X0,
    CorruptionConfig,
    SensorField,
    TurnModelConfig,
    make_tracking_model,
    process_noise_cov,
    simulate_trajectory,
)
from .unscented import UTParams
from .uwb import make_synthetic_dataset, load_dataset, run_localization
from .vb import FILTER_NAMES, IndicatorConfig, run_filter

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
        # a second run of a filter would overwrite the first one's timing
        repeated = sorted({name for name in filters if filters.count(name) > 1})
        if repeated:
            named = ", ".join(map(repr, repeated))
            raise ValueError(f"filters lists {named} more than once")
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
