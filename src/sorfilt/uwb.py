"""UWB range-data ingestion and 2D tag localization with a random-walk model.

Dataset layout is two CSV files in one directory: anchors.csv holding
id,x,y,z rows and steps.csv holding step,truth_x,truth_y plus one column per
anchor id, where an empty cell means no reading at that step.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import MISSING_SENTINEL, GaussianBelief, Measurement, NonlinearSSM
from .unscented import UTParams
from .vb import IndicatorConfig, run_filter

MAX_ACTIVE_RANGES = 4
SYNTHETIC_ANCHORS = 11  # in make_synthetic_dataset's room, the last never reports
DEFAULT_NOISE_VAR = 0.1  # shared by Q and R diagonals

ANCHORS_FILE = "anchors.csv"
STEPS_FILE = "steps.csv"


class DatasetError(ValueError):
    """Malformed dataset content, reported with file and line context."""


@dataclass(frozen=True)
class AnchorSet:
    ids: tuple[str, ...]
    positions: np.ndarray  # (A, 3) meters

    def __post_init__(self) -> None:
        positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        ids = tuple(str(i) for i in self.ids)
        if positions.shape != (len(ids), 3):
            raise ValueError("positions must be (len(ids), 3)")
        if len(set(ids)) != len(ids):
            raise ValueError("anchor ids must be unique")
        if not np.all(np.isfinite(positions)):
            raise ValueError("anchor coordinates must be finite")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class StepRecord:
    """One tag step: surveyed truth plus per-anchor range readings.

    ranges is aligned with the AnchorSet ordering; None marks a missing
    reading.  At most MAX_ACTIVE_RANGES readings may be present.
    """

    step_index: int
    truth: np.ndarray  # (2,) meters
    ranges: tuple[float | None, ...]

    def __post_init__(self) -> None:
        truth = np.atleast_1d(np.asarray(self.truth, dtype=float))
        if truth.shape != (2,) or not np.all(np.isfinite(truth)):
            raise ValueError("truth must be a finite (x, y) pair")
        ranges = tuple(None if r is None else float(r) for r in self.ranges)
        present = [r for r in ranges if r is not None]
        if len(present) > MAX_ACTIVE_RANGES:
            raise ValueError(
                f"step {self.step_index}: more than {MAX_ACTIVE_RANGES} range readings"
            )
        if any(not math.isfinite(r) or r < 0.0 for r in present):
            raise ValueError(f"step {self.step_index}: ranges must be finite and >= 0")
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "ranges", ranges)

    @property
    def active_count(self) -> int:
        return sum(r is not None for r in self.ranges)


def load_dataset(path) -> tuple[AnchorSet, list[StepRecord]]:
    """Read anchors.csv and steps.csv from a dataset directory."""
    root = Path(path)
    anchors_path = root / ANCHORS_FILE
    steps_path = root / STEPS_FILE
    for p in (anchors_path, steps_path):
        if not p.is_file():
            raise DatasetError(f"missing dataset file: {p}")

    ids: list[str] = []
    coords: list[list[float]] = []
    with anchors_path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["id", "x", "y", "z"]:
            raise DatasetError(f"{anchors_path}: header must be id,x,y,z")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DatasetError(f"{anchors_path} line {line_no}: expected 4 fields")
            try:
                coords.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DatasetError(
                    f"{anchors_path} line {line_no}: non-numeric coordinate"
                ) from exc
            ids.append(row[0].strip())
    try:
        anchors = AnchorSet(ids=tuple(ids), positions=np.asarray(coords))
    except ValueError as exc:
        raise DatasetError(f"{anchors_path}: {exc}") from exc

    steps: list[StepRecord] = []
    with steps_path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != [
            "step",
            "truth_x",
            "truth_y",
        ]:
            raise DatasetError(
                f"{steps_path}: header must start with step,truth_x,truth_y"
            )
        column_ids = [h.strip() for h in header[3:]]
        repeated = sorted({c for c in column_ids if column_ids.count(c) > 1})
        if repeated:
            raise DatasetError(f"{steps_path}: duplicate anchor columns {repeated}")
        unknown = set(column_ids) - set(anchors.ids)
        if unknown:
            raise DatasetError(f"{steps_path}: unknown anchor ids {sorted(unknown)}")
        if len(column_ids) != len(anchors):
            missing = set(anchors.ids) - set(column_ids)
            raise DatasetError(f"{steps_path}: missing anchor columns {sorted(missing)}")
        order = [column_ids.index(a) for a in anchors.ids]
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + len(anchors):
                raise DatasetError(
                    f"{steps_path} line {line_no}: expected {3 + len(anchors)} fields"
                )
            try:
                step_idx = int(row[0])
                truth = (float(row[1]), float(row[2]))
                raw = [row[3 + j].strip() for j in order]
                ranges = tuple(None if cell == "" else float(cell) for cell in raw)
            except ValueError as exc:
                raise DatasetError(
                    f"{steps_path} line {line_no}: malformed value"
                ) from exc
            try:
                steps.append(StepRecord(step_index=step_idx, truth=truth, ranges=ranges))
            except ValueError as exc:
                raise DatasetError(f"{steps_path} line {line_no}: {exc}") from exc
    return anchors, steps


def write_dataset(path, anchors: AnchorSet, steps: list[StepRecord]) -> None:
    """Write the two-file CSV layout understood by load_dataset."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with (root / ANCHORS_FILE).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "x", "y", "z"])
        for anchor_id, pos in zip(anchors.ids, anchors.positions):
            writer.writerow([anchor_id] + [repr(float(v)) for v in pos])
    with (root / STEPS_FILE).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "truth_x", "truth_y"] + list(anchors.ids))
        for record in steps:
            row = [record.step_index, repr(float(record.truth[0])), repr(float(record.truth[1]))]
            row += ["" if r is None else repr(float(r)) for r in record.ranges]
            writer.writerow(row)


def uwb_measurement_model(anchors: AnchorSet, tag_z: float = 0.0) -> NonlinearSSM:
    """Random-walk position model with per-anchor 3D range measurements."""
    # per model: contiguous anchor coordinates and the squared height gaps
    ax, ay, az = (np.ascontiguousarray(c) for c in anchors.positions.T)
    dz2 = (tag_z - az) * (tag_z - az)

    def meas_fn(state):
        x = np.asarray(state, dtype=float)
        dx = x[..., 0:1] - ax
        dy = x[..., 1:2] - ay
        return np.sqrt(dx * dx + dy * dy + dz2)

    return NonlinearSSM(
        state_dim=2,
        meas_dim=len(anchors),
        process_fn=lambda x: np.asarray(x, dtype=float),
        meas_fn=meas_fn,
        process_cov=DEFAULT_NOISE_VAR * np.eye(2),
        meas_var_diag=np.full(len(anchors), DEFAULT_NOISE_VAR),
        vectorized=True,
    )


def encode_measurements(steps: list[StepRecord], num_anchors: int) -> np.ndarray:
    """Stack step readings into a dense (K, A) array, 0.0 where missing."""
    out = np.full((len(steps), num_anchors), MISSING_SENTINEL)
    for k, record in enumerate(steps):
        for j, reading in enumerate(record.ranges):
            if reading is not None:
                out[k, j] = reading
    return out


@dataclass(frozen=True)
class LocalizationResult:
    estimates: np.ndarray  # (K, 2)
    omegas: np.ndarray  # (K, A); all ones for the plain filter
    rmse_m: float
    runtime_s: float
    steps: int
    iterations: np.ndarray  # (K,)


def run_localization(
    anchors: AnchorSet,
    steps: list[StepRecord],
    variant: str = "msor",
    seed: int = 0,
    tag_z: float = 0.0,
    cfg: IndicatorConfig | None = None,
    params: UTParams | None = None,
) -> LocalizationResult:
    """Run one filter over the dataset from a random initial mean.

    variant is one of ukf, sor (parallel updates), msor (serial updates);
    run_filter refuses any other name.  Missing readings enter the filter as
    MISSING_SENTINEL (0.0); rejection is the indicator model's job.  The
    reported runtime covers run_filter only, including its O(K m) building
    of the result arrays.
    """
    cfg = cfg or IndicatorConfig()
    params = params or UTParams()
    model = uwb_measurement_model(anchors, tag_z)
    num = len(steps)
    encoded = encode_measurements(steps, len(anchors))
    measurements = [Measurement(k + 1, encoded[k]) for k in range(num)]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    init = GaussianBelief(rng.normal(0.0, np.sqrt(0.5), size=2), 0.5 * np.eye(2))

    start = time.perf_counter()
    estimates, omegas, iterations = run_filter(
        variant, model, init, measurements, cfg, params
    )
    runtime = time.perf_counter() - start

    truth = np.array([record.truth for record in steps]).reshape(num, 2)
    sq_err = np.sum((estimates - truth) ** 2, axis=1)
    rmse = float(np.sqrt(np.mean(sq_err))) if num else 0.0
    return LocalizationResult(
        estimates=estimates,
        omegas=omegas,
        rmse_m=rmse,
        runtime_s=runtime,
        steps=num,
        iterations=iterations,
    )


def make_synthetic_dataset(
    seed: int = 0, num_steps: int = 200
) -> tuple[AnchorSet, list[StepRecord]]:
    """Build an indoor-style replica: a 12 m x 8 m room with SYNTHETIC_ANCHORS
    ceiling anchors, a slow walking tag, and readings only from the
    MAX_ACTIVE_RANGES closest anchors, blanks elsewhere.

    The last anchor never reports, giving the indicator model a permanently
    missing dimension to reject.  True ranges get nominal noise of variance
    DEFAULT_NOISE_VAR, matching the filter model; missing cells stay empty
    (encoded as 0.0 downstream).

    The random stream is part of the contract: SYNTHETIC_ANCHORS rng.random()
    draws for the anchor heights first, then per step k, in this order, one
    rng.random() (below 0.2 the step has one reading fewer) and
    rng.standard_normal(SYNTHETIC_ANCHORS) for the range noise.  Identical
    arguments give identical records.
    """
    num_anchors = SYNTHETIC_ANCHORS
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    width, depth = 12.0, 8.0
    # anchors spread around the room perimeter, mounted high (2.2 m to 3.0 m)
    angles = 2.0 * np.pi * np.arange(num_anchors) / num_anchors
    px = (width / 2.0) + (width / 2.0 - 0.3) * np.cos(angles)
    py = (depth / 2.0) + (depth / 2.0 - 0.3) * np.sin(angles)
    pz = 2.2 + 0.8 * rng.random(num_anchors)
    anchors = AnchorSet(
        ids=tuple(f"a{i:02d}" for i in range(num_anchors)),
        positions=np.column_stack([px, py, pz]),
    )

    # lawnmower sweep at a fixed ~0.2 m per step regardless of num_steps;
    # y bounces between the walls so long runs stay inside the room
    s = np.arange(num_steps) / 200.0
    phase = np.mod(s, 2.0)
    bounce = np.where(phase > 1.0, 2.0 - phase, phase)
    truth_x = 1.0 + (width - 2.0) * 0.5 * (1.0 - np.cos(2.0 * np.pi * 2.0 * s))
    truth_y = 1.0 + (depth - 2.0) * bounce
    truth = np.column_stack([truth_x, truth_y])

    # only the draws run step by step, in the order the docstring states
    coin = np.empty(num_steps)
    noise = np.empty((num_steps, num_anchors))
    for k in range(num_steps):
        coin[k] = rng.random()
        rng.standard_normal(out=noise[k])

    tags = np.column_stack([truth, np.zeros(num_steps)])
    dists = np.linalg.norm(anchors.positions - tags[:, None, :], axis=2)
    order = np.argsort(dists, axis=1)
    order = order[order != num_anchors - 1].reshape(num_steps, num_anchors - 1)
    # occasionally one fewer reading, as real campaigns show
    active_count = MAX_ACTIVE_RANGES - (coin < 0.2)
    active = np.zeros((num_steps, num_anchors), dtype=bool)
    ranks = np.arange(order.shape[1])
    np.put_along_axis(active, order, ranks < active_count[:, None], axis=1)
    noisy = np.maximum(dists + np.sqrt(DEFAULT_NOISE_VAR) * noise, 0.0)

    steps: list[StepRecord] = []
    for k, (row, keep) in enumerate(zip(noisy.tolist(), active.tolist())):
        ranges = tuple(r if a else None for r, a in zip(row, keep))
        steps.append(StepRecord(step_index=k + 1, truth=truth[k], ranges=ranges))
    return anchors, steps
