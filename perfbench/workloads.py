"""Workload inputs, generated from the benchmark seed with the package's own
simulators.  The filters receive only the generated models, initial beliefs
and measurements."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import sorfilt
from sorfilt.uwb import MISSING_SENTINEL


@dataclass(frozen=True)
class Spec:
    """How many independent runs one workload holds, and how long each is."""

    kind: str  # "tracking" or "uwb"
    runs: int
    steps: int
    num_pairs: int = 0  # tracking only: m = 2 * num_pairs
    timed_runs: int = 0  # leading runs the timed passes repeat; 0 means all


# The first pass goes over every run and alone fixes the accuracy metrics.
# Many short runs keep the median per-run RMSE steady from seed to seed: one
# run's RMSE swings widely, most of all for the non-robust ukf.  Later
# passes repeat only the first timed_runs runs, a pass of one (tracking) to
# six (uwb) seconds on a 2-core x86-64 box, so in a 50-second run each timed
# step is sampled six times or more, spread over the whole run.  With two
# timed uwb rooms the sor p50 jumped between two values about 10% apart from
# one seed to the next; eight rooms steady it.
WORKLOADS = {
    "tracking_m6": Spec("tracking", runs=96, steps=80, num_pairs=3, timed_runs=4),
    "uwb_room": Spec("uwb", runs=10, steps=200, timed_runs=8),
}


@dataclass(frozen=True)
class Run:
    """One filter input plus the truth it is scored against."""

    model: sorfilt.NonlinearSSM
    init: sorfilt.GaussianBelief
    measurements: tuple
    truth: np.ndarray  # (K, 2) positions
    corrupted: np.ndarray  # (K, m) bool: cells an ideal indicator rejects


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    position_index: tuple[int, int]  # state entries that hold the position
    runs: tuple[Run, ...]
    timed_runs: int  # leading runs whose steps are timed


def _measurements(values: np.ndarray) -> tuple:
    return tuple(sorfilt.Measurement(k + 1, values[k]) for k in range(len(values)))


def _tracking_runs(spec: Spec, seed: int) -> tuple[Run, ...]:
    """The paper's coordinated-turn world, drawn as run_tracking_single does."""
    field = sorfilt.SensorField.lattice(spec.num_pairs)
    turn_cfg = sorfilt.TurnModelConfig()
    corruption = sorfilt.CorruptionConfig(
        mode="outliers", lam=0.3, gamma_law=(100.0, 1000.0)
    )
    model = sorfilt.make_tracking_model(field, turn_cfg)
    p0 = 100.0 * sorfilt.process_noise_cov(turn_cfg)
    p0_root = sorfilt.chol_lower(p0, "P0")
    runs = []
    for index in range(spec.runs):
        rng = sorfilt.run_rng(seed, index)
        traj = sorfilt.simulate_trajectory(
            turn_cfg, field, corruption, spec.steps, rng
        )
        init_mean = sorfilt.TRACKING_X0 + p0_root @ rng.standard_normal(5)
        runs.append(
            Run(
                model=model,
                init=sorfilt.GaussianBelief(init_mean, p0),
                measurements=_measurements(traj.measurements),
                truth=traj.positions,
                corrupted=traj.flags,
            )
        )
    return tuple(runs)


def _uwb_runs(spec: Spec, seed: int) -> tuple[Run, ...]:
    """Synthetic UWB rooms, each with the initial belief of run_localization."""
    runs = []
    for index in range(spec.runs):
        room_seed = int(np.random.SeedSequence((seed, index)).generate_state(1)[0])
        anchors, records = sorfilt.make_synthetic_dataset(
            seed=room_seed, num_steps=spec.steps
        )
        encoded = sorfilt.encode_measurements(records, len(anchors))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(room_seed)))
        init = sorfilt.GaussianBelief(
            rng.normal(0.0, np.sqrt(0.5), size=2), 0.5 * np.eye(2)
        )
        runs.append(
            Run(
                model=sorfilt.uwb_measurement_model(anchors),
                init=init,
                measurements=_measurements(encoded),
                truth=np.array([record.truth for record in records]),
                corrupted=encoded == MISSING_SENTINEL,
            )
        )
    return tuple(runs)


def build(name: str, seed: int, spec: Spec | None = None) -> Workload:
    """Generate the named workload's inputs; spec overrides its sizes."""
    spec = spec or WORKLOADS[name]
    timed = spec.timed_runs or spec.runs
    if spec.kind == "tracking":
        return Workload(name, spec.kind, (0, 2), _tracking_runs(spec, seed), timed)
    return Workload(name, spec.kind, (0, 1), _uwb_runs(spec, seed), timed)
