"""A step's hoisted constants and trusted constructors against the checked
public paths: the same bits, and the same verdicts where a check stays."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sorfilt.vb
from sorfilt import (
    GaussianBelief,
    IndicatorConfig,
    NonlinearSSM,
    PredictedMeasurement,
    SensorField,
    TRACKING_X0,
    UTParams,
    joint_factor_from_moments,
    make_synthetic_dataset,
    make_tracking_model,
    omega_update,
    predict_measurement,
    process_noise_cov,
    sor_step,
    uwb_measurement_model,
)
from sorfilt.gaussian import _check_vinv, _update_parallel
from sorfilt.tracking import TurnModelConfig, clean_measurement
from sorfilt.unscented import draw_sigma_points, eval_sigma_points, moments_from_values


def _random_spd(rng, n, scale=1.0):
    base = rng.standard_normal((n, n))
    return base @ base.T + scale * np.eye(n)


def _eye_update(belief, predmeas, resid, vinv):
    """The parallel update with I + U diag(vinv) formed through np.eye."""
    cd = predmeas.C * vinv
    s = np.eye(predmeas.meas_dim) + predmeas.U * vinv
    gain = np.linalg.solve(s.T, cd.T).T
    mean = belief.mean + gain @ resid
    cov = belief.cov - predmeas.C @ gain.T
    return GaussianBelief._from_filter(mean, cov, "updated cov")


def _uwb_case():
    anchors, _ = make_synthetic_dataset(seed=3, num_steps=2)
    return uwb_measurement_model(anchors), GaussianBelief([4.0, 3.0], 0.5 * np.eye(2))


def _tracking_case():
    model = make_tracking_model(SensorField.lattice(3), TurnModelConfig())
    p0 = 100.0 * process_noise_cov(TurnModelConfig())
    return model, GaussianBelief(TRACKING_X0 + [5.0, 0.1, -5.0, 0.1, 0.01], p0)


def _overflowing_case():
    """Finite images whose squared deviations overflow."""
    model = NonlinearSSM(
        state_dim=1,
        meas_dim=1,
        process_fn=lambda x: x,
        meas_fn=lambda x: 1e200 * np.asarray(x),
        process_cov=np.eye(1),
        meas_var_diag=np.ones(1),
    )
    return model, GaussianBelief(np.zeros(1), np.eye(1))


class TestHoistedArithmetic:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        m=st.integers(1, 12),
        fortran=st.booleans(),
    )
    def test_update_parallel_equals_the_eye_formulation(self, seed, n, m, fortran):
        # about 30% zero precisions, the rest spread over six decades; a
        # Fortran-ordered U must not turn the diagonal view into a copy
        rng = np.random.default_rng(seed)
        joint = _random_spd(rng, n + m, 0.5)
        belief = GaussianBelief(rng.standard_normal(n), joint[:n, :n])
        predmeas = PredictedMeasurement(
            mu=rng.standard_normal(m), U=joint[n:, n:], C=joint[:n, n:]
        )
        if fortran:
            predmeas = PredictedMeasurement._from_filter(
                predmeas.mu, np.asfortranarray(predmeas.U), predmeas.C
            )
        vinv = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
        vinv[rng.random(m) < 0.3] = 0.0
        resid = rng.standard_normal(m)
        got = _update_parallel(belief, predmeas, resid, vinv)
        want = _eye_update(belief, predmeas, resid, vinv)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.cov, want.cov)

    @given(
        w=st.lists(
            st.one_of(
                st.just(0.0),
                # every scale up to values at which omega underflows to 0
                st.builds(lambda e: 10.0**e, st.floats(-8.0, 12.0)),
            ),
            min_size=1,
            max_size=8,
        ),
        theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        r=st.floats(1e-6, 1e6),
    )
    def test_omega_from_hoisted_constants_equals_omega_update(self, w, theta, eps, r):
        w = np.array(w)
        r_diag = np.full(w.size, r)
        thetas = np.full(w.size, theta)
        constants = sorfilt.vb._omega_constants(r_diag, thetas, eps)
        got = sorfilt.vb._omega_from_prior(w, *constants)
        assert got.tobytes() == omega_update(w, r_diag, thetas, eps).tobytes()


class TestTrustedPredictedMeasurement:
    @pytest.mark.parametrize("case", [_uwb_case, _tracking_case])
    def test_equals_the_checked_constructor_bit_for_bit(self, case):
        model, belief = case()
        params = UTParams()
        got = predict_measurement(model, belief, params)
        sigma = draw_sigma_points(belief, params)
        values = eval_sigma_points(sigma, model.meas_fn, model.vectorized)
        want = PredictedMeasurement(*moments_from_values(sigma, values))
        for name in ("mu", "U", "C"):
            assert getattr(got, name).shape == getattr(want, name).shape
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_overflowing_moments_still_raise(self):
        model, belief = _overflowing_case()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="predicted measurement contains non-finite"):
                predict_measurement(model, belief, UTParams())


class TestCachedWeightVerdict:
    def test_default_weights_are_nonnegative(self):
        assert UTParams().weights(2).cov_weights_nonnegative is True

    def test_negative_centre_weight_takes_the_moment_fallback(self, monkeypatch):
        params = UTParams(alpha=0.5)
        weights = params.weights(2)
        assert weights.cov_weights[0] < 0.0
        assert weights.cov_weights_nonnegative is False

        def refuse(*args):
            raise AssertionError("the sigma factor needs nonnegative weights")

        monkeypatch.setattr(sorfilt.vb, "joint_factor_from_sigma", refuse)
        model, belief = _uwb_case()
        factor = sorfilt.vb._joint_factor(model, belief, params)
        sigma = draw_sigma_points(belief, params)
        values = eval_sigma_points(sigma, model.meas_fn, model.vectorized)
        want = joint_factor_from_moments(
            belief, PredictedMeasurement(*moments_from_values(sigma, values))
        )
        assert np.array_equal(factor.Ex, want.Ex)
        assert np.array_equal(factor.Ez, want.Ez)
        assert np.array_equal(factor.mu, want.mu)

    def test_fallback_moments_that_overflow_raise(self):
        model, belief = _overflowing_case()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="predicted measurement contains non-finite"):
                sorfilt.vb._joint_factor(model, belief, UTParams(alpha=0.5))


class TestReductionsWithoutInitial:
    # the min/max checks of W and vinv take no initial= value; an empty
    # vector must still pass and a scalar must still be checked
    def test_empty_vectors_pass(self):
        assert omega_update(np.empty(0), 1.0, 0.5, 1e-6).shape == (0,)
        assert _check_vinv(np.empty(0), 0).shape == (0,)

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_scalar_and_vector_entries_are_checked(self, bad):
        with pytest.raises(ValueError, match="W_ii must be finite and >= 0"):
            omega_update(bad, 1.0, 0.5, 1e-6)
        with pytest.raises(ValueError, match="Vinv_diag entries must be finite"):
            _check_vinv(bad, 1)
        with pytest.raises(ValueError, match="Vinv_diag entries must be finite"):
            _check_vinv(np.array([1.0, bad]), 2)


def _clean_reference(state, field):
    """clean_measurement as one subtraction and one check per sensor kind,
    with a concatenation of bearings and ranges."""
    x = np.asarray(state, dtype=float)
    a, b = x[..., 0:1], x[..., 2:3]
    da_bear = a - field.bearing_pos[:, 0]
    db_bear = b - field.bearing_pos[:, 1]
    if ((da_bear == 0.0) & (db_bear == 0.0)).any():
        raise ValueError("target position coincides with a bearing sensor")
    bearings = np.arctan2(db_bear, da_bear)
    ranges = np.hypot(a - field.range_pos[:, 0], b - field.range_pos[:, 1])
    return np.concatenate([bearings, ranges], axis=-1)


class TestCleanMeasurement:
    @given(
        seed=st.integers(0, 2**32 - 1),
        pairs=st.integers(1, 6),
        rows=st.integers(0, 9),
        # rows placed on a range sensor, and rows holding NaN or +-inf
        on_range=st.integers(0, 3),
        special=st.lists(
            st.sampled_from([np.nan, np.inf, -np.inf]), min_size=0, max_size=4
        ),
    )
    def test_equals_the_per_kind_formula_bit_for_bit(
        self, seed, pairs, rows, on_range, special
    ):
        rng = np.random.default_rng(seed)
        field = SensorField(
            bearing_pos=rng.uniform(-1e3, 1e3, size=(pairs, 2)),
            range_pos=rng.uniform(-1e3, 1e3, size=(pairs, 2)),
        )
        states = rng.uniform(-2e3, 2e3, size=(rows + on_range + len(special), 5))
        for k in range(on_range):
            states[rows + k, [0, 2]] = field.range_pos[rng.integers(pairs)]
        for k, value in enumerate(special):
            states[rows + on_range + k, rng.choice([0, 2, 4])] = value
        rng.shuffle(states)
        for state in (states, *states[:3]):  # the batch, and single states
            got = clean_measurement(state, field)
            want = _clean_reference(state, field)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        if on_range:
            assert (clean_measurement(states, field)[:, pairs:] == 0.0).any()

    @pytest.mark.parametrize("batch", [False, True])
    def test_a_target_on_a_bearing_sensor_still_raises(self, batch):
        field = SensorField.lattice(3)
        state = np.array([350.0, 1.0, 0.0, 1.0, 0.0])  # bearing sensor 2
        states = np.stack([TRACKING_X0, state]) if batch else state
        for fn in (clean_measurement, _clean_reference):
            with pytest.raises(ValueError, match="coincides with a bearing sensor"):
                fn(states, field)


class TestSensorFieldCopies:
    def test_changing_the_source_arrays_leaves_the_field_unchanged(self):
        bearing = np.array([[0.0, 350.0], [350.0, 0.0]])
        ranges = np.array([[0.0, 0.0], [350.0, 350.0]])
        field = SensorField(bearing_pos=bearing, range_pos=ranges)
        before = clean_measurement(TRACKING_X0, field)
        bearing += 100.0
        ranges[:] = -5.0
        assert np.array_equal(field.bearing_pos, [[0.0, 350.0], [350.0, 0.0]])
        assert np.array_equal(field.range_pos, [[0.0, 0.0], [350.0, 350.0]])
        assert clean_measurement(TRACKING_X0, field).tobytes() == before.tobytes()

    def test_positions_are_read_only(self):
        field = SensorField.lattice(2)
        for arr in (field.bearing_pos, field.range_pos):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0


class TestModelStepConstants:
    def test_kept_read_only_with_the_formulas_bits(self):
        model = make_tracking_model(SensorField.lattice(3), TurnModelConfig())
        r = model.meas_var_diag
        for name, want in (
            ("_rinv", 1.0 / r),
            ("_two_r", 2.0 * r),
            ("_angular", np.flatnonzero(model.angular_mask)),
        ):
            got = getattr(model, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_no_mask_gives_an_empty_index(self):
        model, _ = _uwb_case()
        assert model._angular.shape == (0,) and model._angular.dtype.kind == "i"


def _step_case(rng, m, r_scale, angular):
    """A mildly nonlinear model with m dimensions, a prediction and y."""
    n = 3
    h = rng.standard_normal((m, n))
    model = NonlinearSSM(
        state_dim=n,
        meas_dim=m,
        process_fn=lambda x: x,
        meas_fn=lambda x: x @ h.T + 0.1 * np.sin(x[..., :1]),
        process_cov=np.eye(n),
        meas_var_diag=r_scale * rng.uniform(0.5, 2.0, size=m),
        angular_mask=np.arange(m) == 0 if angular else None,
        vectorized=True,
    )
    prediction = GaussianBelief(rng.standard_normal(n), _random_spd(rng, n))
    y = model.meas_fn(prediction.mean) + rng.standard_normal(m)
    y[rng.integers(m)] += 30.0  # an outlier, so omega moves
    return model, prediction, y


class TestSharedIndicatorConfig:
    @given(
        seed=st.integers(0, 2**32 - 1),
        theta=st.floats(0.05, 0.95),
        eps=st.floats(1e-9, 1e-2),
        angular=st.booleans(),
    )
    def test_one_config_equals_a_fresh_config_per_model(self, seed, theta, eps, angular):
        # equal m with different R, then another m, then the first model again
        rng = np.random.default_rng(seed)
        cases = [
            _step_case(rng, 3, 1.0, angular),
            _step_case(rng, 3, 50.0, angular),
            _step_case(rng, 5, 0.2, angular),
        ]
        cases.append(cases[0])
        shared = IndicatorConfig(epsilon=eps, theta_prior=theta)
        params = UTParams()
        for variant in ("parallel", "serial"):
            for model, prediction, y in cases:
                fresh = IndicatorConfig(epsilon=eps, theta_prior=theta)
                got = sor_step(model, prediction, y, shared, params, variant)
                want = sor_step(model, prediction, y, fresh, params, variant)
                assert got.iterations == want.iterations
                assert got.converged == want.converged
                assert got.indicators.omega.tobytes() == want.indicators.omega.tobytes()
                assert got.posterior.mean.tobytes() == want.posterior.mean.tobytes()
                assert got.posterior.cov.tobytes() == want.posterior.cov.tobytes()
