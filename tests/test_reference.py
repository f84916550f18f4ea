"""The filters' outputs against tests/data/reference_outputs.npz.

Iteration counts and indicator decisions (omega < 0.5) must match exactly.
Means and omegas match within MEANS_TOL and OMEGAS_TOL (1e-8), which leave
room for a BLAS build whose last bits differ from the one that made the
file.  A change below the tolerance, such as one ulp, shows in the sha256
digests that tests/reference_outputs.py prints.
"""

import numpy as np
import pytest
from reference_outputs import (
    FIELDS,
    REFERENCE_FILE,
    TRACKING_RUNS,
    UWB_ROOMS,
    UWB_STEPS,
    compute_outputs,
)

from sorfilt import (
    FILTER_NAMES,
    make_synthetic_dataset,
    run_localization,
    run_tracking_single,
)

MEANS_TOL = dict(rtol=1e-8, atol=1e-8)
OMEGAS_TOL = dict(rtol=0.0, atol=1e-8)


@pytest.fixture(scope="module")
def reference():
    with np.load(REFERENCE_FILE) as data:
        return {key: data[key] for key in data.files}


def _stored(reference, world, name):
    return {field: reference[f"{world}.{name}.{field}"] for field in FIELDS}


def _assert_matches(key, want, means, omegas, iterations):
    assert iterations.dtype == want["iterations"].dtype, key
    assert np.array_equal(iterations, want["iterations"]), key
    assert np.array_equal(omegas < 0.5, want["omegas"] < 0.5), key
    np.testing.assert_allclose(omegas, want["omegas"], **OMEGAS_TOL, err_msg=key)
    np.testing.assert_allclose(means, want["means"], **MEANS_TOL, err_msg=key)


def test_run_filter_matches_the_reference(reference):
    outputs = compute_outputs()
    assert set(outputs) == set(reference)
    for key in {key.rsplit(".", 1)[0] for key in outputs}:
        world, name = key.split(".")
        got = _stored(outputs, world, name)
        _assert_matches(key, _stored(reference, world, name), **got)


def test_runners_return_the_reference_outputs(reference):
    # the position columns of the stored means: x and y of the turn model's
    # (x, vx, y, vy, w) state; the whole (x, y) state of the UWB model
    for world, cfg, run_index in TRACKING_RUNS:
        _, outcomes = run_tracking_single(cfg, run_index)
        for name in FILTER_NAMES:
            want = _stored(reference, world, name)
            want["means"] = want["means"][:, [0, 2]]
            got = outcomes[name]
            _assert_matches(f"{world}.{name}", want, got.estimates, got.omegas, got.iterations)
    for world, room, init in UWB_ROOMS:
        anchors, steps = make_synthetic_dataset(seed=room, num_steps=UWB_STEPS)
        for name in FILTER_NAMES:
            got = run_localization(anchors, steps, variant=name, seed=init)
            want = _stored(reference, world, name)
            _assert_matches(f"{world}.{name}", want, got.estimates, got.omegas, got.iterations)
