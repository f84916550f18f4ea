"""Config-driven experiment harness: each timed and scored filter pass (a
tracking run or a UWB localization), RMSE sweeps, runtime benchmarks, and
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

from .model import GaussianBelief, Measurement, _real, chol_lower
from .tracking import (
    TRACKING_X0,
    _POSITION,
    CorruptionConfig,
    SensorField,
    TurnModelConfig,
    make_tracking_model,
    process_noise_cov,
    simulate_trajectory,
)
from .unscented import UTParams
from .uwb import (
    AnchorSet,
    StepRecord,
    encode_measurements,
    load_dataset,
    make_synthetic_dataset,
    uwb_measurement_model,
)
from .vb import FILTER_NAMES, IndicatorConfig, run_filter

# each sweep axis and the ScenarioConfig field it sets
SWEEP_AXES = {"lam": "lam", "gamma": "gamma_law"}

# each part a ScenarioConfig builds, by the attribute that holds it; a part
# takes every value from the ScenarioConfig field of the same name, and that
# field then holds the part's normalized value
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
    mode: str = CorruptionConfig.mode
    # the paper's outlier world; CorruptionConfig's own default is clean
    lam: float = 0.3
    gamma_law: float | tuple[float, float] = (100.0, 1000.0)
    sigma_theta: float = CorruptionConfig.sigma_theta
    sigma_rho: float = CorruptionConfig.sigma_rho
    # world
    num_pairs: int = 3
    dt: float = TurnModelConfig.dt
    eta1: float = TurnModelConfig.eta1
    eta2: float = TurnModelConfig.eta2
    # sweep
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    # indicator model
    epsilon: float = IndicatorConfig.epsilon
    theta_prior: float | tuple[float, ...] = IndicatorConfig.theta_prior
    tau: float = IndicatorConfig.tau
    max_iters: int = IndicatorConfig.max_iters
    # unscented transform
    alpha: float = UTParams.alpha
    beta: float = UTParams.beta
    kappa: float = UTParams.kappa
    # uwb
    dataset: str | None = None
    variant: str = "msor"
    tag_z: float = 0.0

    def __post_init__(self) -> None:
        for name, low in (("runs", 1), ("steps", 1), ("num_pairs", 1), ("seed", 0)):
            value = getattr(self, name)
            # bool is an Integral, but True is no count
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
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
        object.__setattr__(self, "tag_z", _real("tag_z", self.tag_z))
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
        # not fields, so equality, repr and read_yaml ignore them
        for attr, part in _PARTS.items():
            names = [f.name for f in dataclasses.fields(part)]
            built = part(**{name: getattr(self, name) for name in names})
            object.__setattr__(self, attr, built)
            for name in names:  # the part's normalized value, e.g. a tuple for a list
                object.__setattr__(self, name, getattr(built, name))
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

    def points(self) -> list[tuple]:
        """(value, config) per sweep point: a config without a sweep whose axis
        field is float(value).  [(None, self)] when there is no sweep.  A sweep
        value that is no real number is a TypeError naming sweep_values."""
        if self.sweep_axis is None:
            return [(None, self)]
        key = SWEEP_AXES[self.sweep_axis]
        values = [float(_real("sweep_values", v)) for v in self.sweep_values]
        return [
            (v, dataclasses.replace(self, sweep_axis=None, sweep_values=(), **{key: value}))
            for v, value in zip(self.sweep_values, values)
        ]


def rmse_pos(estimates, truths) -> tuple[np.ndarray, float]:
    """Per-step RMSE over runs plus its mean over steps.

    Accepts (runs, K, 2) stacks or single (K, 2) series with K >= 1; the
    per-step value is sqrt(mean over runs of squared position error).
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.ndim == 2:
        est = est[None]
    if tru.ndim == 2:
        tru = tru[None]
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: estimates {est.shape} vs truths {tru.shape}")
    if est.shape[-2:-1] == (0,):  # a mean over no steps is NaN
        raise ValueError(f"estimates of shape {est.shape} hold no steps")
    if est.shape[:1] == (0,):  # and so is a mean over no runs
        raise ValueError(f"estimates of shape {est.shape} hold no runs")
    sq = np.sum((est - tru) ** 2, axis=-1)
    per_step = np.sqrt(np.mean(sq, axis=0))
    return per_step, float(per_step.mean())


def rmse_pos_per_run(estimates, truths) -> np.ndarray:
    """Aggregate RMSE of each run: sqrt(mean over steps of squared error),
    for K >= 1 steps."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: estimates {est.shape} vs truths {tru.shape}")
    if est.shape[-2:-1] == (0,):  # a mean over no steps is NaN
        raise ValueError(f"estimates of shape {est.shape} hold no steps")
    sq = np.sum((est - tru) ** 2, axis=-1)
    return np.sqrt(np.mean(sq, axis=-1))


def run_rng(base_seed: int, run_index: int) -> np.random.Generator:
    """Counter-based generator keyed by (experiment seed, run index)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((base_seed, run_index)))
    )


@dataclass(frozen=True, eq=False)
class FilterRunOutcome:
    """One filter's pass over a world whose true positions are known."""

    estimates: np.ndarray  # (K, 2) position estimates
    omegas: np.ndarray  # (K, m); all ones for ukf
    iterations: np.ndarray  # (K,)
    rmse_m: float  # the run's aggregate position RMSE; 0.0 when K = 0
    seconds: float  # run_filter's wall time, its result arrays included


def _filter_outcome(name, model, init, measurements, cfg, params, truth, position):
    """run_filter(name, ...) timed, its means' position entries scored
    against the (K, 2) truth."""
    start = time.perf_counter()
    means, omegas, iterations = run_filter(name, model, init, measurements, cfg, params)
    seconds = time.perf_counter() - start
    estimates = means[:, position]
    # the mean over no steps would warn and give NaN
    rmse = float(rmse_pos_per_run(estimates, truth)) if len(estimates) else 0.0
    return FilterRunOutcome(estimates, omegas, iterations, rmse, seconds)


def _tracking_world(cfg: ScenarioConfig, run_index: int):
    """(model, init, measurements, true positions) of one Monte Carlo run,
    drawn from run_rng(cfg.seed, run_index) alone."""
    rng = run_rng(cfg.seed, run_index)
    sensor_field = SensorField.lattice(cfg.num_pairs)
    traj = simulate_trajectory(cfg.turn, sensor_field, cfg.corruption, cfg.steps, rng)
    model = make_tracking_model(sensor_field, cfg.turn, cfg.sigma_theta, cfg.sigma_rho)
    p0 = 100.0 * process_noise_cov(cfg.turn)
    init_mean = TRACKING_X0 + chol_lower(p0, "P0") @ rng.standard_normal(5)
    init = GaussianBelief(init_mean, p0)
    measurements = [Measurement(k + 1, traj.measurements[k]) for k in range(cfg.steps)]
    return model, init, measurements, traj.positions


def _localization_world(anchors: AnchorSet, steps: list[StepRecord], seed: int, tag_z: float):
    """(model, init, measurements, true positions) of one localization run:
    the dataset's readings, missing ones as MISSING_SENTINEL, and an initial
    mean drawn from seed alone."""
    model = uwb_measurement_model(anchors, tag_z)
    encoded = encode_measurements(steps, len(anchors))
    measurements = [Measurement(k + 1, encoded[k]) for k in range(len(steps))]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    init = GaussianBelief(rng.normal(0.0, np.sqrt(0.5), size=2), 0.5 * np.eye(2))
    truth = np.array([record.truth for record in steps]).reshape(len(steps), 2)
    return model, init, measurements, truth


def run_tracking_single(
    cfg: ScenarioConfig, run_index: int
) -> tuple[np.ndarray, dict[str, FilterRunOutcome]]:
    """One Monte Carlo run: simulate cfg's world, then run each filter on it.

    cfg's sweep is ignored: run_sweep passes the config of each sweep point,
    from cfg.points().  A filter's result does not depend on which other
    filters run, and a filter that fails raises.  Returns the true positions
    and per-filter outcomes.
    """
    model, init, measurements, truth = _tracking_world(cfg, run_index)
    world = (model, init, measurements, cfg.indicator, cfg.ut, truth, _POSITION)
    return truth, {name: _filter_outcome(name, *world) for name in cfg.filters}


def _failure(value, run_index: int, name: str | None, exc: Exception) -> dict:
    """A summary.json failures entry; name is None when the world failed."""
    error = f"{type(exc).__name__}: {exc}"
    return {"value": value, "run": run_index, "filter": name, "error": error}


def run_sweep(cfg: ScenarioConfig) -> dict:
    """Execute the configured tracking sweep, write CSV + JSON reports, and
    return the summary that summary.json holds.

    Each sweep point gets one CSV (filter, step, rmse).  Failures do not
    abort the sweep: a world that cannot be built is recorded per (value,
    run), a filter that fails per (value, run, filter), and each filter's
    statistics cover the runs it completed.  CSV bodies depend only on
    config and seeds; wall-clock metadata lives in summary.json.
    """
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    axis = cfg.sweep_axis
    points, failures = [], []
    for value, point in cfg.points():
        # per filter, the (truth, outcome) of each run it completed
        completed = {name: [] for name in cfg.filters}
        for run_index in range(cfg.runs):
            try:
                model, init, measurements, truth = _tracking_world(point, run_index)
            except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
                failures.append(_failure(value, run_index, None, exc))
                continue
            world = (model, init, measurements, point.indicator, point.ut, truth, _POSITION)
            for name in cfg.filters:
                try:
                    outcome = _filter_outcome(name, *world)
                except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
                    failures.append(_failure(value, run_index, name, exc))
                    continue
                completed[name].append((truth, outcome))

        rmse_per_step, stats = {}, {}
        for name, runs in completed.items():
            if not runs:
                continue
            truth_stack = np.stack([truth for truth, _ in runs])
            est_stack = np.stack([o.estimates for _, o in runs])
            rmse_per_step[name], aggregate = rmse_pos(est_stack, truth_stack)
            per_run = [o.rmse_m for _, o in runs]
            iters = np.concatenate([o.iterations for _, o in runs])
            stats[name] = {
                "rmse_aggregate": aggregate,
                "rmse_per_run": per_run,
                "rmse_median": float(np.median(per_run)),
                "seconds_mean": float(np.mean([o.seconds for _, o in runs])),
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
    """bench_runtime's m values as ints: >= 3 distinct, each even and positive.
    A string must read as an integer; a number must be whole, as int() would
    truncate 200.5 to 200."""
    given = tuple(m_values)
    try:
        m_values = tuple(int(m) for m in given)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"m values must be integers: {exc}") from exc
    fractional = [g for g, m in zip(given, m_values) if not isinstance(g, str) and g != m]
    if fractional:
        raise ValueError(f"m values must be integers: {fractional}")
    if len(set(m_values)) < 3:
        raise ValueError("the log-log fit needs at least 3 distinct m values")
    odd = [m for m in m_values if m < 2 or m % 2]
    if odd:
        raise ValueError(f"m must be even and positive (bearing/range pairs): {odd}")
    return m_values


@dataclass(frozen=True, eq=False)
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
    gamma_law=ScenarioConfig.gamma_law,
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


def run_localization(
    anchors: AnchorSet,
    steps: list[StepRecord],
    variant: str = "msor",
    seed: int = 0,
    tag_z: float = 0.0,
    cfg: IndicatorConfig | None = None,
    params: UTParams | None = None,
) -> FilterRunOutcome:
    """Run one filter over the dataset from a random initial mean.

    variant is one of ukf, sor (parallel updates), msor (serial updates);
    run_filter refuses any other name.  Missing readings enter the filter as
    MISSING_SENTINEL (0.0); rejection is the indicator model's job.
    """
    model, init, measurements, truth = _localization_world(anchors, steps, seed, tag_z)
    # the position is the model's whole (x, y) state
    return _filter_outcome(
        variant, model, init, measurements,
        cfg or IndicatorConfig(), params or UTParams(), truth, [0, 1],
    )


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
        runtimes.append(result.seconds)
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
