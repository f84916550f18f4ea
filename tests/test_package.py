"""The package's public surface: every exported name is bound once, and the
value types that hold arrays compare by identity."""

import copy
import inspect

import numpy as np
import pytest

import sorfilt


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(sorfilt.__all__) == len(set(sorfilt.__all__))
    for name in sorfilt.__all__:
        assert hasattr(sorfilt, name), name


def test_all_is_every_public_name_the_package_binds():
    bound = {
        name
        for name, value in vars(sorfilt).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(sorfilt.__all__) == bound


# the dataclasses that hold arrays: a generated __eq__ would compare the
# arrays inside a tuple and raise, so they compare (and hash) by identity
ARRAY_HOLDERS = (
    "GaussianBelief",
    "NonlinearSSM",
    "Measurement",
    "SensorField",
    "TrajectoryData",
    "SigmaPointSet",
    "UTWeights",
    "PredictedMeasurement",
    "JointFactor",
    "SerialUpdateResult",
    "IndicatorBelief",
    "SorStepResult",
    "AnchorSet",
    "StepRecord",
    "FilterRunOutcome",
    "BenchReport",
)


@pytest.fixture(scope="module")
def array_holders():
    """One instance of each ARRAY_HOLDERS class, by class name."""
    anchors, steps = sorfilt.make_synthetic_dataset(seed=0, num_steps=3)
    model = sorfilt.uwb_measurement_model(anchors)
    belief = sorfilt.GaussianBelief(np.zeros(2), np.eye(2))
    params = sorfilt.UTParams()
    sigma = sorfilt.draw_sigma_points(belief, params)
    values = sorfilt.eval_sigma_points(sigma, model.meas_fn, model.vectorized)
    factor = sorfilt.joint_factor_from_sigma(belief, sigma, values)
    y = sorfilt.Measurement(1, sorfilt.encode_measurements(steps, len(anchors))[0])
    step = sorfilt.sor_step(model, belief, y, sorfilt.IndicatorConfig(), params)
    field = sorfilt.SensorField.lattice(1)
    trajectory = sorfilt.simulate_trajectory(
        sorfilt.TurnModelConfig(), field, sorfilt.CorruptionConfig(), 2, np.random.default_rng(0)
    )
    objects = (
        belief, model, y, field, trajectory, sigma, params.weights(2),
        sorfilt.predict_measurement(model, belief, params), factor,
        sorfilt.serial_conditioning(factor, y, np.ones(len(anchors))),
        step.indicators, step, anchors, steps[0],
        sorfilt.run_localization(anchors, steps),
        sorfilt.BenchReport(m_values=(4, 8, 12), seconds={}, slopes={}),
    )
    return {type(obj).__name__: obj for obj in objects}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_and_hash_by_identity(array_holders, name):
    x = array_holders[name]
    assert x == x
    assert not x == copy.copy(x)
    assert x != copy.copy(x)
    assert hash(x) == hash(x)
