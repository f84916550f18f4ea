"""Gaussian predict/update steps, serial conditioning, angle wrapping."""

import numpy as np
import pytest
import scipy.linalg.blas
from hypothesis import assume, given, strategies as st

import sorfilt.gaussian
import sorfilt.model
from sorfilt import (
    FilterNumericsError,
    GaussianBelief,
    JointFactor,
    NonlinearSSM,
    PredictedMeasurement,
    SerialUpdateResult,
    UTParams,
    innovation,
    joint_factor_from_moments,
    joint_factor_from_sigma,
    posterior_predictive_meas,
    predict,
    predict_measurement,
    serial_conditioning,
    update_parallel,
    update_serial,
    wrap_angle,
)
from sorfilt.gaussian import _wrap_scalar
from sorfilt.unscented import draw_sigma_points, eval_sigma_points


def _random_spd(rng, n, scale=1.0):
    base = rng.standard_normal((n, n))
    return base @ base.T + scale * np.eye(n)


def _random_joint_instance(rng, n, m):
    """Consistent (belief, predmeas) pair drawn from one SPD joint covariance."""
    joint = _random_spd(rng, n + m, 0.5)
    belief = GaussianBelief(rng.standard_normal(n), joint[:n, :n])
    predmeas = PredictedMeasurement(
        mu=rng.standard_normal(m), U=joint[n:, n:], C=joint[:n, n:]
    )
    return belief, predmeas


def _kalman_oracle(belief, predmeas, y, vinv):
    """Textbook K = C (U + V)^-1 on the sub-block of retained dimensions."""
    keep = np.flatnonzero(vinv > 0.0)
    if keep.size == 0:
        return belief.mean.copy(), belief.cov.copy()
    u = predmeas.U[np.ix_(keep, keep)]
    c = predmeas.C[:, keep]
    s = u + np.diag(1.0 / vinv[keep])
    gain = c @ np.linalg.inv(s)
    mean = belief.mean + gain @ (y[keep] - predmeas.mu[keep])
    cov = belief.cov - gain @ c.T
    return mean, cov


class TestWrapAngle:
    def test_boundary_values(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(3.0 * np.pi / 2.0) == pytest.approx(-np.pi / 2.0)
        assert wrap_angle(2.0 * np.pi) == pytest.approx(0.0)

    def test_array_input(self):
        out = wrap_angle(np.array([0.0, 4.0 * np.pi, -3.0 * np.pi]))
        assert np.allclose(out, [0.0, 0.0, np.pi])

    @given(st.floats(-1e6, 1e6))
    def test_range_and_periodicity(self, x):
        w = wrap_angle(x)
        assert -np.pi < w <= np.pi
        assert abs(wrap_angle(x + 2.0 * np.pi) - w) < 1e-6

    def test_identity_inside_range(self):
        xs = np.linspace(-np.pi + 1e-9, np.pi, 100)
        assert np.allclose(wrap_angle(xs), xs, atol=1e-12)


    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_scalar_form_is_identical(self, x):
        assert _wrap_scalar(x) == float(wrap_angle(x))

    def test_scalar_form_is_identical_at_the_cut(self):
        for x in (np.pi, -np.pi, 0.0, 2.0 * np.pi, -3.0 * np.pi, np.nextafter(np.pi, 4.0)):
            assert _wrap_scalar(x) == float(wrap_angle(x))


class TestInnovation:
    def test_plain_difference_without_mask(self):
        assert np.allclose(innovation(np.array([5.0]), np.array([1.0])), [4.0])

    def test_angular_dims_wrapped(self):
        y = np.array([np.pi - 0.1, 5.0])
        mu = np.array([-np.pi + 0.1, 1.0])
        mask = np.array([True, False])
        out = innovation(y, mu, mask)
        assert out[0] == pytest.approx(-0.2)
        assert out[1] == pytest.approx(4.0)


class TestAngularMaskLength:
    """A mask whose length is not m is refused by both updates, not silently
    truncated or met with an IndexError."""

    @pytest.mark.parametrize("mask", [[True], [True, False, False, True]])
    def test_innovation_rejects(self, mask):
        with pytest.raises(ValueError, match="angular_mask length .* meas dim 3"):
            innovation(np.zeros(3), np.zeros(3), mask)

    @pytest.mark.parametrize("mask", [[True], [True, False, False, True]])
    def test_update_parallel_rejects(self, mask):
        belief, predmeas = _random_joint_instance(np.random.default_rng(16), 2, 3)
        with pytest.raises(ValueError, match="angular_mask length .* meas dim 3"):
            update_parallel(belief, predmeas, np.zeros(3), np.ones(3), mask)

    @pytest.mark.parametrize("mask", [[True], [True, False, False, True]])
    def test_serial_conditioning_rejects(self, mask):
        belief, predmeas = _random_joint_instance(np.random.default_rng(16), 2, 3)
        factor = joint_factor_from_moments(belief, predmeas)
        with pytest.raises(ValueError, match="angular_mask length .* meas dim 3"):
            serial_conditioning(factor, np.zeros(3), np.ones(3), mask)


def _linear_model(a, q, h, r_diag):
    n, m = a.shape[0], h.shape[0]
    return NonlinearSSM(
        state_dim=n,
        meas_dim=m,
        process_fn=lambda x: x @ a.T if x.ndim > 1 else a @ x,
        meas_fn=lambda x: x @ h.T if x.ndim > 1 else h @ x,
        process_cov=q,
        meas_var_diag=r_diag,
        vectorized=True,
    )


class TestPredict:
    def test_identity_without_noise_is_fixed_point(self):
        rng = np.random.default_rng(0)
        belief = GaussianBelief(rng.standard_normal(3), _random_spd(rng, 3))
        model = _linear_model(np.eye(3), np.zeros((3, 3)), np.eye(3), np.ones(3))
        out = predict(model, belief, UTParams())
        assert np.allclose(out.mean, belief.mean, atol=1e-12)
        assert np.allclose(out.cov, belief.cov, atol=1e-12)

    def test_random_walk_adds_process_noise(self):
        belief = GaussianBelief([1.0, -2.0], np.diag([0.3, 0.4]))
        model = _linear_model(np.eye(2), 0.1 * np.eye(2), np.eye(2), np.ones(2))
        out = predict(model, belief, UTParams())
        assert np.allclose(out.mean, belief.mean, atol=1e-12)
        assert np.allclose(out.cov, belief.cov + 0.1 * np.eye(2), atol=1e-12)

    def test_linear_dynamics_exact(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        q = _random_spd(rng, 4, 0.1)
        belief = GaussianBelief(rng.standard_normal(4), _random_spd(rng, 4))
        model = _linear_model(a, q, np.eye(4), np.ones(4))
        out = predict(model, belief, UTParams())
        assert np.allclose(out.mean, a @ belief.mean, atol=1e-9)
        assert np.allclose(out.cov, a @ belief.cov @ a.T + q, rtol=1e-9, atol=1e-9)


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_predicted_cov_raises_value_error(self, bad):
        q = np.eye(2)
        q[1, 1] = bad
        model = _linear_model(np.eye(2), q, np.eye(2), np.ones(2))
        with pytest.raises(ValueError, match="non-finite"):
            predict(model, GaussianBelief([0.0, 0.0], np.eye(2)), UTParams())


class TestPredictMeasurement:
    def test_linear_moments(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((3, 4))
        belief = GaussianBelief(rng.standard_normal(4), _random_spd(rng, 4))
        model = _linear_model(np.eye(4), np.eye(4), h, np.ones(3))
        pm = predict_measurement(model, belief, UTParams())
        assert np.allclose(pm.mu, h @ belief.mean, atol=1e-9)
        assert np.allclose(pm.U, h @ belief.cov @ h.T, rtol=1e-9, atol=1e-9)
        assert np.allclose(pm.C, belief.cov @ h.T, rtol=1e-9, atol=1e-9)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PredictedMeasurement(mu=np.zeros(2), U=np.eye(3), C=np.zeros((4, 2)))

    def test_rejects_asymmetric_u(self):
        with pytest.raises(ValueError):
            PredictedMeasurement(
                mu=np.zeros(2), U=np.array([[1.0, 0.5], [0.1, 1.0]]), C=np.zeros((3, 2))
            )

    def test_symmetry_tolerance_is_1e_9_relative(self):
        # looser than a belief's 1e-12: U is summed from sigma-point images
        for skew, ok in ((1e-10, True), (1e-8, False)):
            u = np.array([[1.0, 0.5], [0.5 + skew, 1.0]])
            args = dict(mu=np.zeros(2), U=u, C=np.zeros((3, 2)))
            if ok:
                PredictedMeasurement(**args)
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    PredictedMeasurement(**args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["mu", "U", "C"])
    def test_rejects_non_finite_entries(self, field, bad):
        moments = {"mu": np.zeros(1), "U": np.ones((1, 1)), "C": np.full((2, 1), 0.5)}
        moments[field] = moments[field].copy()
        moments[field].flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PredictedMeasurement(**moments)


class TestUpdateParallel:
    def test_scalar_kalman_oracle(self):
        belief = GaussianBelief([0.0], [[1.0]])
        predmeas = PredictedMeasurement(mu=[0.0], U=[[1.0]], C=[[1.0]])
        post = update_parallel(belief, predmeas, [2.0], [1.0])
        assert post.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_all_zero_precision_returns_prior(self):
        rng = np.random.default_rng(3)
        belief, predmeas = _random_joint_instance(rng, 3, 4)
        post = update_parallel(belief, predmeas, rng.standard_normal(4), np.zeros(4))
        assert np.allclose(post.mean, belief.mean, atol=1e-12)
        assert np.allclose(post.cov, belief.cov, atol=1e-12)

    def test_full_precision_matches_textbook_gain(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            belief, predmeas = _random_joint_instance(rng, n, m)
            r = rng.uniform(0.1, 2.0, size=m)
            y = rng.standard_normal(m)
            post = update_parallel(belief, predmeas, y, 1.0 / r)
            mean, cov = _kalman_oracle(belief, predmeas, y, 1.0 / r)
            assert np.allclose(post.mean, mean, rtol=1e-9, atol=1e-9)
            assert np.allclose(post.cov, cov, rtol=1e-8, atol=1e-9)

    def test_zero_precision_equals_dimension_deletion(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n, m = int(rng.integers(1, 6)), int(rng.integers(2, 8))
            belief, predmeas = _random_joint_instance(rng, n, m)
            vinv = 1.0 / rng.uniform(0.1, 2.0, size=m)
            drop = rng.random(m) < 0.4
            vinv[drop] = 0.0
            y = rng.standard_normal(m)
            post = update_parallel(belief, predmeas, y, vinv)
            mean, cov = _kalman_oracle(belief, predmeas, y, vinv)
            scale = 1.0 + np.abs(mean).max()
            assert np.all(np.abs(post.mean - mean) <= 1e-8 * scale)
            assert np.allclose(post.cov, cov, rtol=1e-8, atol=1e-10)

    def test_trace_never_grows(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            belief, predmeas = _random_joint_instance(rng, n, m)
            vinv = rng.uniform(0.0, 5.0, size=m)
            post = update_parallel(belief, predmeas, rng.standard_normal(m), vinv)
            assert np.trace(post.cov) <= np.trace(belief.cov) + 1e-12

    def test_angular_mask_changes_gain_direction(self):
        belief = GaussianBelief([0.0], [[1.0]])
        predmeas = PredictedMeasurement(mu=[np.pi - 0.1], U=[[0.01]], C=[[0.1]])
        y = [-np.pi + 0.1]  # 0.2 rad away across the cut, not ~2pi
        wrapped = update_parallel(belief, predmeas, y, [100.0], np.array([True]))
        raw = update_parallel(belief, predmeas, y, [100.0])
        # gain is 5: wrapped residual +0.2 -> mean 1.0; raw residual ~ -6.08
        assert wrapped.mean[0] == pytest.approx(5.0 * 0.2, abs=1e-9)
        assert raw.mean[0] == pytest.approx(5.0 * (0.2 - 2.0 * np.pi), abs=1e-9)

    def test_rejects_negative_precision(self):
        belief = GaussianBelief([0.0], [[1.0]])
        predmeas = PredictedMeasurement(mu=[0.0], U=[[1.0]], C=[[1.0]])
        with pytest.raises(ValueError):
            update_parallel(belief, predmeas, [0.0], [-1.0])


    def test_non_finite_update_raises_value_error(self):
        # finite inputs whose updated mean overflows to inf
        belief = GaussianBelief([1.7e308, 0.0], np.eye(2))
        predmeas = PredictedMeasurement(mu=[0.0], U=[[1.0]], C=[[0.5], [0.0]])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            update_parallel(belief, predmeas, [1e308], [1.0])


class TestJointFactor:
    def test_sigma_factor_reconstructs_joint(self):
        rng = np.random.default_rng(7)
        belief = GaussianBelief(rng.standard_normal(3), _random_spd(rng, 3))
        sigma = draw_sigma_points(belief, UTParams())
        h = rng.standard_normal((4, 3))
        values = eval_sigma_points(sigma, lambda x: x @ h.T, vectorized=True)
        factor = joint_factor_from_sigma(belief, sigma, values)
        assert np.allclose(factor.Ex @ factor.Ex.T, belief.cov, atol=1e-9)
        assert np.allclose(factor.Ez @ factor.Ez.T, h @ belief.cov @ h.T, atol=1e-8)
        assert np.allclose(factor.Ex @ factor.Ez.T, belief.cov @ h.T, atol=1e-8)

    def test_sigma_factor_requires_nonnegative_weights(self):
        rng = np.random.default_rng(8)
        belief = GaussianBelief(rng.standard_normal(2), np.eye(2))
        params = UTParams(alpha=0.5, beta=2.0, kappa=0.0)  # negative center weight
        sigma = draw_sigma_points(belief, params)
        values = eval_sigma_points(sigma, lambda x: x)
        with pytest.raises(ValueError, match="nonnegative"):
            joint_factor_from_sigma(belief, sigma, values)

    def test_moments_factor_reconstructs_joint(self):
        rng = np.random.default_rng(9)
        belief, predmeas = _random_joint_instance(rng, 3, 5)
        factor = joint_factor_from_moments(belief, predmeas)
        assert np.allclose(factor.Ex @ factor.Ex.T, belief.cov, atol=1e-9)
        assert np.allclose(factor.Ez @ factor.Ez.T, predmeas.U, atol=1e-9)
        assert np.allclose(factor.Ex @ factor.Ez.T, predmeas.C, atol=1e-9)


class TestUpdateSerial:
    def test_single_scalar_matches_parallel(self):
        rng = np.random.default_rng(10)
        belief, predmeas = _random_joint_instance(rng, 3, 1)
        y = rng.standard_normal(1)
        par = update_parallel(belief, predmeas, y, [2.0])
        ser = update_serial(belief, predmeas, y, [2.0])
        assert np.allclose(par.mean, ser.posterior.mean, atol=1e-12)
        assert np.allclose(par.cov, ser.posterior.cov, atol=1e-12)

    def test_matches_parallel_on_200_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 13))
            belief, predmeas = _random_joint_instance(rng, n, m)
            vinv = 1.0 / rng.uniform(0.05, 5.0, size=m)
            vinv[rng.random(m) < 0.3] = 0.0
            y = rng.standard_normal(m)
            par = update_parallel(belief, predmeas, y, vinv)
            ser = update_serial(belief, predmeas, y, vinv)
            scale_m = 1.0 + np.linalg.norm(par.mean)
            scale_p = 1.0 + np.linalg.norm(par.cov)
            assert np.linalg.norm(ser.posterior.mean - par.mean) <= 1e-8 * scale_m
            assert np.linalg.norm(ser.posterior.cov - par.cov) <= 1e-8 * scale_p

    def test_all_skipped_returns_prediction_and_prior_moments(self):
        rng = np.random.default_rng(12)
        belief, predmeas = _random_joint_instance(rng, 2, 3)
        ser = update_serial(belief, predmeas, rng.standard_normal(3), np.zeros(3))
        assert np.allclose(ser.posterior.mean, belief.mean, atol=1e-12)
        assert np.allclose(ser.posterior.cov, belief.cov, atol=1e-9)
        assert np.allclose(ser.mu_post, predmeas.mu, atol=1e-12)
        assert np.allclose(ser.udiag_post, np.diag(predmeas.U), atol=1e-9)

    def test_conditioned_measurement_moments_match_joint_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            joint = _random_spd(rng, n + m, 0.5)
            belief = GaussianBelief(rng.standard_normal(n), joint[:n, :n])
            predmeas = PredictedMeasurement(
                mu=rng.standard_normal(m), U=joint[n:, n:], C=joint[:n, n:]
            )
            vinv = 1.0 / rng.uniform(0.1, 3.0, size=m)
            y = rng.standard_normal(m)
            ser = update_serial(belief, predmeas, y, vinv)
            # oracle: condition the full (x, z) joint on y = z + v jointly
            mu_joint = np.concatenate([belief.mean, predmeas.mu])
            cross = joint[:, n:]  # cov of (x, z) with z
            s = joint[n:, n:] + np.diag(1.0 / vinv)
            gain = cross @ np.linalg.inv(s)
            cond_mean = mu_joint + gain @ (y - predmeas.mu)
            cond_cov = joint - gain @ cross.T
            assert np.allclose(ser.posterior.mean, cond_mean[:n], rtol=1e-8, atol=1e-8)
            assert np.allclose(ser.mu_post, cond_mean[n:], rtol=1e-8, atol=1e-8)
            assert np.allclose(
                ser.udiag_post, np.diag(cond_cov)[n:], rtol=1e-7, atol=1e-8
            )

    def test_scalar_linear_example_moments(self):
        belief = GaussianBelief([0.0], [[1.0]])
        predmeas = PredictedMeasurement(mu=[0.0], U=[[1.0]], C=[[1.0]])
        ser = update_serial(belief, predmeas, [2.0], [1.0])
        assert ser.mu_post[0] == pytest.approx(1.0, abs=1e-9)
        assert ser.udiag_post[0] == pytest.approx(0.5, abs=1e-9)


class TestPosteriorPredictive:
    def test_constant_map_has_zero_variance(self):
        model = NonlinearSSM(
            state_dim=2,
            meas_dim=2,
            process_fn=lambda x: x,
            meas_fn=lambda x: np.array([3.0, -1.0]),
            process_cov=np.eye(2),
            meas_var_diag=np.ones(2),
        )
        belief = GaussianBelief(np.zeros(2), np.eye(2))
        mu, var = posterior_predictive_meas(model, belief, UTParams())
        assert np.allclose(mu, [3.0, -1.0])
        assert np.allclose(var, 0.0)

    def test_linear_posterior_moments(self):
        h = np.array([[1.0, 0.0], [1.0, 1.0]])
        model = _linear_model(np.eye(2), np.eye(2), h, np.ones(2))
        rng = np.random.default_rng(14)
        belief = GaussianBelief(rng.standard_normal(2), _random_spd(rng, 2))
        mu, var = posterior_predictive_meas(model, belief, UTParams())
        assert np.allclose(mu, h @ belief.mean, atol=1e-9)
        assert np.allclose(var, np.diag(h @ belief.cov @ h.T), rtol=1e-9, atol=1e-9)


def _sequential_dense_conditioning(mean, joint, n, y, vinv, angular, margins=None):
    """Condition the dense (x, z) Gaussian on one scalar y_i = z_i + v_i at a
    time, wrapping each angular residual against the current mean of z_i.
    Each wrapped residual's distance from the cut at +-pi is appended to
    margins, if given."""
    mean, joint = mean.copy(), joint.copy()
    for i in np.flatnonzero(vinv):
        col = joint[:, n + i].copy()
        s = col[n + i] + 1.0 / vinv[i]
        resid = y[i] - mean[n + i]
        if angular[i]:
            resid = float(wrap_angle(resid))
            if margins is not None:
                margins.append(np.pi - abs(resid))
        mean = mean + col * (resid / s)
        joint = joint - np.outer(col, col) / s
    return mean, joint


class TestSerialAngleWrapCrossing:
    """Conditioning on an earlier dimension moves a bearing residual across
    +-pi; the serial sweep wraps it against the partly conditioned mean."""

    def _instance(self):
        # state x, a range-like z0 and a bearing z1, both tightly tied to x
        joint = np.array([[1.0, 1.0, 1.0], [1.0, 1.01, 1.0], [1.0, 1.0, 1.01]])
        belief = GaussianBelief([0.0], joint[:1, :1])
        predmeas = PredictedMeasurement(mu=[0.0, 0.0], U=joint[1:, 1:], C=joint[:1, 1:])
        # the bearing residual starts at 3.0 rad; conditioning on z0 = -0.5
        # moves the predicted bearing by about -0.49, so the residual
        # becomes about 3.49 > pi, which wraps to about -2.79
        y = np.array([-0.5, 3.0])
        vinv = np.array([100.0, 100.0])
        angular = np.array([False, True])
        return joint, belief, predmeas, y, vinv, angular

    def test_serial_equals_sequential_dense_conditioning(self):
        joint, belief, predmeas, y, vinv, angular = self._instance()
        factor = joint_factor_from_moments(belief, predmeas)
        res = serial_conditioning(factor, y, vinv, angular)
        mean, cond = _sequential_dense_conditioning(
            np.zeros(3), joint, 1, y, vinv, angular
        )
        assert np.allclose(res.mean, mean[:1], rtol=1e-9, atol=1e-9)
        assert np.allclose(res.posterior.cov, cond[:1, :1], rtol=1e-9, atol=1e-12)
        assert np.allclose(res.mu_post, mean[1:], rtol=1e-9, atol=1e-9)
        assert np.allclose(res.udiag_post, np.diag(cond)[1:], rtol=1e-7, atol=1e-12)

    def test_case_crosses_the_cut(self):
        # wrapping once against the prior mean gives a different answer, so
        # the case above really exercises the crossing
        joint, belief, predmeas, y, vinv, angular = self._instance()
        factor = joint_factor_from_moments(belief, predmeas)
        res = serial_conditioning(factor, y, vinv, angular)
        y_unwrapped = y.copy()
        y_unwrapped[1] = predmeas.mu[1] + wrap_angle(y[1] - predmeas.mu[1])
        once, _ = _sequential_dense_conditioning(
            np.zeros(3), joint, 1, y_unwrapped, vinv, np.zeros(2, bool)
        )
        assert abs(once[0] - res.mean[0]) > 1.0


class TestSerialEqualsSequentialOracle:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        r=st.integers(1, 12),
        m=st.integers(1, 40),
    )
    def test_random_factors(self, seed, n, r, m):
        # about 30% zero precisions, the rest spread over six decades; about
        # 30% of the dimensions angular, with residuals up to two turns from
        # the mean, so most of them wrap
        rng = np.random.default_rng(seed)
        factor = JointFactor(
            mean_x=rng.standard_normal(n),
            mu=rng.standard_normal(m),
            Ex=rng.standard_normal((n, r)),
            Ez=rng.standard_normal((m, r)),
        )
        vinv = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
        vinv[rng.random(m) < 0.3] = 0.0
        angular = rng.random(m) < 0.3
        y = factor.mu + 3.0 * rng.standard_normal(m)
        y[angular] += 2.0 * np.pi * rng.integers(-2, 3, size=int(angular.sum()))
        stacked = np.vstack([factor.Ex, factor.Ez])
        margins = []
        mean, cond = _sequential_dense_conditioning(
            np.concatenate([factor.mean_x, factor.mu]),
            stacked @ stacked.T,
            n, y, vinv, angular, margins,
        )
        # a residual that ends up near the cut may wrap differently under
        # rounding; keep only sweeps whose residuals stay far from it
        assume(min(margins, default=np.pi) > 1e-6)

        res = serial_conditioning(factor, y, vinv, angular)
        # tolerance: 1e-10 relative to the prior's scale, which is r for the
        # covariances and about 1 + 3 * sqrt(r) for the means
        tol_cov, tol_mean = 1e-10 * r, 1e-10 * (1.0 + 3.0 * np.sqrt(r))
        assert np.allclose(res.mean, mean[:n], rtol=0.0, atol=tol_mean)
        assert np.allclose(res.mu_post, mean[n:], rtol=0.0, atol=tol_mean)
        assert np.allclose(res.root @ res.root.T, cond[:n, :n], rtol=0.0, atol=tol_cov)
        assert np.allclose(res.udiag_post, np.diag(cond)[n:], rtol=0.0, atol=tol_cov)

    def test_update_that_is_not_in_place_raises(self, monkeypatch):
        # the sweep keeps T and g in one work matrix that dger updates in
        # place; a dger that returns a copy instead would lose every update
        def copying_dger(alpha, x, y, incx, incy, a, *flags):
            return scipy.linalg.blas.dger(alpha, x, y, incx, incy, a, overwrite_a=False)

        monkeypatch.setattr(sorfilt.gaussian, "dger", copying_dger)
        belief, predmeas = _random_joint_instance(np.random.default_rng(17), 2, 3)
        with pytest.raises(RuntimeError, match="copy"):
            update_serial(belief, predmeas, np.zeros(3), np.ones(3))


class TestSerialUpdateResult:
    def test_posterior_is_built_once_on_first_access(self):
        rng = np.random.default_rng(15)
        belief, predmeas = _random_joint_instance(rng, 3, 4)
        ser = update_serial(belief, predmeas, rng.standard_normal(4), np.ones(4))
        assert "posterior" not in vars(ser)
        first = ser.posterior
        assert ser.posterior is first
        assert np.array_equal(first.mean, ser.mean)
        assert np.array_equal(first.cov, sorfilt.model.symmetrize(ser.root @ ser.root.T))

    def test_non_positive_definite_root_raises_numerics_error(self, monkeypatch):
        # root @ root.T is singular here; with the jitter repair disabled it
        # is not positive definite
        monkeypatch.setattr(sorfilt.model, "_jitter_for", lambda mat: 0.0)
        res = SerialUpdateResult(
            mean=np.zeros(2),
            root=np.array([[1.0, 0.0], [1.0, 0.0]]),
            mu_post=np.zeros(1),
            udiag_post=np.zeros(1),
        )
        with pytest.raises(FilterNumericsError, match="updated cov"):
            res.posterior
