"""The reference outputs of the three filters, and the worlds they come from.

tests/data/reference_outputs.npz holds run_filter's means, omegas and
iterations for ukf, sor and msor on four m = 6 tracking runs (two with
outliers, two with missing readings) and on two synthetic UWB rooms.
tests/test_reference.py recomputes them; a change that alters any filter's
output fails it.  A change that alters outputs on purpose rebuilds the file:

    PYTHONPATH=src python tests/reference_outputs.py

The script pins BLAS to one thread, because outputs at m >= 200 depend on
the thread count, writes the file byte for byte the same on every run, and
prints the sha256 of each array and of the file.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # before numpy loads BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import hashlib
import io
import zipfile
from pathlib import Path

import numpy as np

from sorfilt import (
    FILTER_NAMES,
    IndicatorConfig,
    ScenarioConfig,
    UTParams,
    make_synthetic_dataset,
    run_filter,
)
from sorfilt.harness import _localization_world, _tracking_world

REFERENCE_FILE = Path(__file__).parent / "data" / "reference_outputs.npz"
FIELDS = ("means", "omegas", "iterations")

# (name, config, run index): each world run_tracking_single draws
TRACKING_RUNS = tuple(
    (f"{mode}_run{run}", ScenarioConfig(steps=40, runs=2, seed=16, mode=mode, lam=0.3), run)
    for mode in ("outliers", "missing")
    for run in range(2)
)
# (name, room seed, init seed): the worlds run_localization(anchors, steps,
# seed=init seed) runs in make_synthetic_dataset(room seed, UWB_STEPS)
UWB_ROOMS = (("room0", 0, 0), ("room1", 1, 1))
UWB_STEPS = 40


def uwb_world(room_seed: int, init_seed: int):
    """(model, init, measurements) of run_localization in one synthetic room."""
    anchors, steps = make_synthetic_dataset(seed=room_seed, num_steps=UWB_STEPS)
    return _localization_world(anchors, steps, init_seed, 0.0)[:3]


def reference_worlds() -> list:
    """(name, (model, init, measurements), indicator config, UT params) of
    every reference world."""
    worlds = [(name, _tracking_world(cfg, run)[:3], cfg.indicator, cfg.ut)
              for name, cfg, run in TRACKING_RUNS]
    worlds += [(name, uwb_world(room, init), IndicatorConfig(), UTParams())
               for name, room, init in UWB_ROOMS]
    return worlds


def compute_outputs() -> dict[str, np.ndarray]:
    """run_filter's outputs on every reference world, keyed world.filter.field."""
    outputs = {}
    for world, (model, init, measurements), cfg, params in reference_worlds():
        for name in FILTER_NAMES:
            values = run_filter(name, model, init, measurements, cfg, params)
            for field, value in zip(FIELDS, values):
                outputs[f"{world}.{name}.{field}"] = value
    return outputs


def write_reference(outputs: dict[str, np.ndarray], path: Path) -> None:
    """An .npz file np.load reads, with fixed member dates, so equal outputs
    give equal bytes (np.savez stamps each member with the current time)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for key in sorted(outputs):
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, np.ascontiguousarray(outputs[key]))
            member = zipfile.ZipInfo(f"{key}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            archive.writestr(member, buffer.getvalue(), zipfile.ZIP_DEFLATED)


def digest(array: np.ndarray) -> str:
    """sha256 of an array's dtype, shape and C-order bytes."""
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def main() -> None:
    outputs = compute_outputs()
    write_reference(outputs, REFERENCE_FILE)
    for key in sorted(outputs):
        print(f"{digest(outputs[key])}  {key}")
    file_digest = hashlib.sha256(REFERENCE_FILE.read_bytes()).hexdigest()
    print(f"{file_digest}  {REFERENCE_FILE.name}")


if __name__ == "__main__":
    main()
