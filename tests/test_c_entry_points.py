"""A filter step calls numpy's C entry points, not its pure-Python helpers.

The step's checks use ufunc reductions instead of ndarray.all/any, its shape
helpers run only on inputs of too few dimensions, its diagonal shifts use a
strided view instead of np.eye or .flat, and its einsum is the C function
np.einsum calls.  Each rewrite must return the same arrays and raise the
same errors as the helper-based form it replaced, which the tests below
keep as the reference.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from reference_outputs import reference_worlds

from sorfilt import FilterNumericsError, Measurement, innovation, model
from sorfilt.gaussian import _check_vinv, _measurement_values, predict
from sorfilt.unscented import SigmaPointSet, eval_sigma_points
from sorfilt.vb import _residual, sor_step, ukf_step

# numpy's pure-Python helper modules that a step must not enter
HELPER_MODULES = (
    "numpy._core._methods",
    "numpy._core.shape_base",
    "numpy._core.einsumfunc",
    "numpy.lib._twodim_base_impl",
    "numpy._core.fromnumeric",
)
NUMPY_2 = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


def _helper_files() -> set[str]:
    return {str(Path(importlib.import_module(name).__file__).resolve()) for name in HELPER_MODULES}


def _step(name, ssm, belief, meas, cfg, params):
    """One predict and one update of filter name; returns the posterior."""
    prediction = predict(ssm, belief, params)
    if name == "ukf":
        return ukf_step(ssm, prediction, meas, params)
    variant = "parallel" if name == "sor" else "serial"
    return sor_step(ssm, prediction, meas, cfg, params, variant).posterior


@pytest.mark.skipif(not NUMPY_2, reason="numpy 1.x has no c_einsum; the helpers fall back")
def test_a_step_enters_no_numpy_python_helper():
    """Each filter on each reference world: the first step fills the weight
    and prior caches, and the next ten run under the profiler."""
    helper_files = _helper_files()
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            path = str(Path(frame.f_code.co_filename).resolve())
            if path in helper_files:
                entered.append((frame.f_code.co_filename, frame.f_code.co_name))

    for world, (ssm, init, measurements), cfg, params in reference_worlds():
        for name in ("ukf", "sor", "msor"):
            belief = _step(name, ssm, init, measurements[0], cfg, params)
            for meas in measurements[1:11]:
                sys.setprofile(profile)
                try:
                    belief = _step(name, ssm, belief, meas, cfg, params)
                finally:
                    sys.setprofile(None)
                assert entered == [], (world, name, entered)


# --- the shape conversions against their np.atleast_* forms -------------------

_FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
_ARRAYS = arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                 elements=_FLOATS)
# an array of 0 to 3 dimensions, as itself or as the nested list (or float) tolist gives
_INPUTS = st.tuples(_ARRAYS, st.booleans()).map(lambda a: a[0].tolist() if a[1] else a[0])


def _outcome(fn, *args):
    """("ok", dtype, shape, bytes) of fn's array, or ("raised", type, message)."""
    try:
        out = fn(*args)
    except (ValueError, FilterNumericsError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", out.dtype, out.shape, out.tobytes())


def _check_vinv_reference(vinv, m):
    vinv = np.atleast_1d(np.asarray(vinv, dtype=float))
    if vinv.shape != (m,):
        raise ValueError(f"Vinv_diag length {vinv.shape} does not match meas dim {m}")
    if m and not (np.minimum.reduce(vinv) >= 0.0 and np.maximum.reduce(vinv) < np.inf):
        raise ValueError("Vinv_diag entries must be finite and >= 0")
    return vinv


def _measurement_values_reference(y, m):
    yv = y.values if isinstance(y, Measurement) else np.atleast_1d(np.asarray(y, float))
    if yv.shape != (m,):
        raise ValueError(f"measurement length {yv.shape} does not match meas dim {m}")
    return yv


def _eval_reference(sigma, fn):
    """eval_sigma_points(sigma, fn, vectorized=True) with np.atleast_2d."""
    out = np.atleast_2d(np.asarray(fn(sigma.points), dtype=float))
    if out.shape[0] != sigma.points.shape[0]:
        raise ValueError("map output count does not match sigma point count")
    if not np.isfinite(out).all():
        bad = int(np.flatnonzero(~np.all(np.isfinite(out), axis=1))[0])
        raise FilterNumericsError(f"map produced non-finite output at sigma point {bad}")
    return out


class TestShapeConversions:
    @given(value=_INPUTS, m=st.integers(0, 4))
    def test_check_vinv(self, value, m):
        assert _outcome(_check_vinv, value, m) == _outcome(_check_vinv_reference, value, m)

    @given(value=_INPUTS, m=st.integers(0, 4))
    def test_measurement_values(self, value, m):
        got = _outcome(_measurement_values, value, m)
        assert got == _outcome(_measurement_values_reference, value, m)

    @given(value=_INPUTS, count=st.integers(1, 5))
    def test_eval_sigma_points(self, value, count):
        sigma = SigmaPointSet(np.zeros((count, 2)), np.full(count, 1.0 / count), np.ones(count))
        got = _outcome(eval_sigma_points, sigma, lambda points: value, True)
        assert got == _outcome(_eval_reference, sigma, lambda points: value)

    @pytest.mark.parametrize(
        "value",
        [2.0, np.float64(np.nan), [1.0, np.nan], np.array([[1.0, 2.0]]), np.ones((1, 1, 1))],
        ids=["0-d", "0-d NaN", "list with NaN", "2-d", "3-d"],
    )
    def test_named_inputs(self, value):
        for m in (1, 2):
            assert _outcome(_check_vinv, value, m) == _outcome(_check_vinv_reference, value, m)
            got = _outcome(_measurement_values, value, m)
            assert got == _outcome(_measurement_values_reference, value, m)
        sigma = SigmaPointSet(np.zeros((1, 1)), [1.0], [1.0])
        got = _outcome(eval_sigma_points, sigma, lambda points: value, True)
        assert got == _outcome(_eval_reference, sigma, lambda points: value)


# --- einsum and the wrapped residual ------------------------------------------


@st.composite
def _row_pairs(draw):
    """Two (m, r) arrays, possibly column slices of wider ones, as the sweep's are."""
    m, r, extra = draw(st.integers(0, 6)), draw(st.integers(0, 12)), draw(st.integers(0, 2))
    elements = st.floats(-1e150, 1e150, allow_nan=False)
    a, b = (draw(arrays(np.float64, (m, r + extra), elements=elements)) for _ in range(2))
    return a[:, :r], b[:, :r]


@given(pair=_row_pairs())
def test_einsum_helper_equals_np_einsum(pair):
    a, b = pair
    got = model._einsum("ij,ij->i", a, b)
    want = np.einsum("ij,ij->i", a, b)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.skipif(not NUMPY_2, reason="numpy 1.x binds the helper to np.einsum")
def test_einsum_helper_is_the_c_function():
    assert model._einsum is importlib.import_module("numpy._core.multiarray").c_einsum


@given(
    y=arrays(np.float64, 6, elements=st.floats(-1e6, 1e6)),
    mu=arrays(np.float64, 6, elements=st.floats(-1e6, 1e6)),
    mask=arrays(np.bool_, 6),
)
def test_residual_equals_innovation(y, mu, mask):
    got = _residual(y, mu, np.flatnonzero(mask))
    assert got.tobytes() == innovation(y, mu, mask).tobytes()
