"""A filter step calls numpy's C entry points, not its pure-Python helpers.

The step's checks count an elementwise test with the C function that
np.count_nonzero calls, instead of ndarray.all/any or a ufunc reduction, its
shape helpers run only on inputs of too few dimensions, its diagonal shifts
use a strided view instead of np.eye or .flat, and its einsum is the C
function np.einsum calls.  Each rewrite must return the same arrays and
raise the same errors as the form it replaced, which the tests below keep
as the reference.
"""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from reference_outputs import reference_worlds

from sorfilt import (
    FilterNumericsError,
    GaussianBelief,
    IndicatorConfig,
    JointFactor,
    Measurement,
    NonlinearSSM,
    UTParams,
    innovation,
    model,
    wrap_angle,
)
from sorfilt.gaussian import (
    PredictedMeasurement,
    _check_vinv,
    _latent_block,
    _measurement_values,
    predict,
)
from sorfilt.unscented import SigmaPointSet, eval_sigma_points
from sorfilt.vb import _check_w, _residual, sor_step, ukf_step

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


def _per_point_world():
    """A world whose maps take one point at a time (vectorized=False): a
    random walk in the plane and the range to one beacon, a scalar image."""
    ssm = NonlinearSSM(
        2, 1, lambda x: x, lambda x: math.hypot(x[0] - 3.0, x[1] + 1.0),
        0.01 * np.eye(2), [0.25],
    )
    rng = np.random.default_rng(19)
    ranges = np.hypot(*(rng.normal(0.0, 0.1, (12, 2)).cumsum(axis=0) - [3.0, -1.0]).T)
    ranges[5] += 30.0  # an outlier, so that the VB loop iterates
    measurements = [Measurement(k + 1, ranges[k : k + 1]) for k in range(12)]
    init = GaussianBelief(np.zeros(2), 0.1 * np.eye(2))
    return "per_point", (ssm, init, measurements), IndicatorConfig(), UTParams()


@pytest.mark.skipif(not NUMPY_2, reason="numpy 1.x has no c_einsum; the helpers fall back")
def test_a_step_enters_no_numpy_python_helper():
    """Each filter on each reference world and on one world of per-point
    maps: the first step fills the weight and prior caches, and the next ten
    run under the profiler."""
    helper_files = _helper_files()
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            path = str(Path(frame.f_code.co_filename).resolve())
            if path in helper_files:
                entered.append((frame.f_code.co_filename, frame.f_code.co_name))

    worlds = [*reference_worlds(), _per_point_world()]
    for world, (ssm, init, measurements), cfg, params in worlds:
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


# --- the counted checks against the ufunc reductions they replaced ------------
# _check_vinv's range check is compared with its reduction form above, and
# eval_sigma_points' finiteness check with ndarray.all


def _verdict(fn, *args):
    """("ok",) when fn returns, ("raised", type, message) when it refuses."""
    try:
        fn(*args)
    except (ValueError, FilterNumericsError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok",)


def _all_finite_reference(*arrays) -> bool:
    return all(np.logical_and.reduce(np.isfinite(a), None) for a in arrays)


def _check_w_reference(w):
    if w.size and not (
        np.minimum.reduce(w, None) >= 0.0 and np.maximum.reduce(w, None) < np.inf
    ):
        raise ValueError("W_ii must be finite and >= 0")


def _measurement_reference(values):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.ndim != 1:
        raise ValueError("values must be a vector")
    if not np.isfinite(values).all():
        raise ValueError("measurement values must be finite")
    return values


# NaN, both infinities, -0.0, a negative, an empty vector and a 0-d array,
# beside whatever _ARRAYS draws
_SPECIAL_ARRAYS = [
    np.array([np.nan]), np.array([1.0, np.inf]), np.array([-np.inf, 0.0]),
    np.array([-0.0, 2.0]), np.array([3.0, -1e-300]), np.empty(0), np.array(np.inf),
    np.array(-0.0),
]


def _with_special_arrays(test):
    for value in _SPECIAL_ARRAYS:
        test = example(value)(test)
    return test


class TestCountedChecks:
    @_with_special_arrays
    @given(_ARRAYS)
    def test_check_w(self, w):
        assert _verdict(_check_w, w) == _verdict(_check_w_reference, w)

    @_with_special_arrays
    @given(_ARRAYS)
    def test_predicted_measurement_finiteness(self, value):
        """Each of mu, U and C in turn holds the drawn array."""
        finite = np.zeros(1)
        for args in ((value, finite, finite), (finite, value, finite), (finite, finite, value)):
            got = _verdict(PredictedMeasurement._from_filter, *args)
            refused = ("raised", ValueError, "predicted measurement contains non-finite entries")
            assert got == (("ok",) if _all_finite_reference(*args) else refused)

    @_with_special_arrays
    @given(_ARRAYS)
    def test_belief_finiteness(self, value):
        """The trusted and the checked constructor, on a mean vector with an
        identity covariance, which factors."""
        mean = value.reshape(-1)
        if not mean.size:
            mean = np.zeros(1)
        cov = np.eye(mean.size)
        refused = ("raised", ValueError, "belief contains non-finite entries")
        want = ("ok",) if _all_finite_reference(mean) else refused
        assert _verdict(GaussianBelief._from_filter, mean, cov, "cov") == want
        assert _verdict(GaussianBelief, mean, cov) == want

    @_with_special_arrays
    @given(_INPUTS)
    def test_measurement_values(self, values):
        got = _outcome(lambda v: Measurement(1, v).values, values)
        assert got == _outcome(_measurement_reference, values)

    @given(ez=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 4)),
                     elements=_FLOATS))
    def test_latent_precision_finiteness(self, ez):
        """The block refuses the latent precision I + Ez^T Vinv Ez as
        non-finite exactly when the reduction form finds a non-finite entry."""
        m, r = ez.shape
        factor = JointFactor(np.zeros(2), np.zeros(m), np.zeros((2, r)), ez)
        with np.errstate(all="ignore"):
            lam = (ez.T * np.ones(m)) @ ez
            lam.reshape(-1)[:: r + 1] += 1.0
            got = _verdict(_latent_block, factor, np.zeros(m), np.ones(m))
        refused = ("raised", FilterNumericsError,
                   "non-finite latent precision I + Ez^T Vinv Ez")
        assert (got == refused) == (not _all_finite_reference(lam))


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


@pytest.mark.skipif(not NUMPY_2, reason="numpy 1.x binds the helper to np.count_nonzero")
def test_count_nonzero_helper_is_the_c_function():
    assert model._count_nonzero is importlib.import_module("numpy._core.multiarray").count_nonzero
    assert model._count_nonzero is not np.count_nonzero


@given(
    y=arrays(np.float64, 6, elements=st.floats(-1e6, 1e6)),
    mu=arrays(np.float64, 6, elements=st.floats(-1e6, 1e6)),
    mask=arrays(np.bool_, 6),
)
def test_residual_equals_innovation(y, mu, mask):
    """innovation and the loop's _residual, which innovation calls, against
    the boolean-mask form of the wrapped residual."""
    want = y - mu
    want[mask] = wrap_angle(want[mask])
    assert _residual(y, mu, np.flatnonzero(mask)).tobytes() == want.tobytes()
    assert innovation(y, mu, mask).tobytes() == want.tobytes()
