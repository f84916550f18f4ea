"""Indicator posterior updates and the alternating VB measurement step."""

import dataclasses
import importlib.util
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sorfilt.gaussian
import sorfilt.model
import sorfilt.vb
from sorfilt import (
    FILTER_NAMES,
    CorruptionConfig,
    FilterNumericsError,
    GaussianBelief,
    IndicatorBelief,
    IndicatorConfig,
    Measurement,
    NonlinearSSM,
    SensorField,
    TurnModelConfig,
    UTParams,
    draw_sigma_points,
    encode_measurements,
    eval_sigma_points,
    innovation,
    joint_factor_from_sigma,
    make_synthetic_dataset,
    make_tracking_model,
    omega_update,
    posterior_predictive_meas,
    predict,
    predict_measurement,
    process_noise_cov,
    run_filter,
    run_rng,
    serial_conditioning,
    simulate_trajectory,
    sor_filter_run,
    sor_step,
    ukf_filter_run,
    ukf_step,
    update_parallel,
    uwb_measurement_model,
)
from sorfilt.vb import _expected_indicator


def _random_spd(rng, n, scale=1.0):
    base = rng.standard_normal((n, n))
    return base @ base.T + scale * np.eye(n)


def _linear_model(h, r_diag, q=None, a=None):
    m, n = h.shape
    a = np.eye(n) if a is None else a
    q = np.eye(n) if q is None else q
    return NonlinearSSM(
        state_dim=n,
        meas_dim=m,
        process_fn=lambda x: x @ a.T if x.ndim > 1 else a @ x,
        meas_fn=lambda x: x @ h.T if x.ndim > 1 else h @ x,
        process_cov=q,
        meas_var_diag=np.asarray(r_diag, dtype=float),
        vectorized=True,
    )


def _kalman_update(belief, h, r_diag, y, keep=None):
    """Textbook linear update, optionally on a subset of dimensions."""
    keep = np.arange(h.shape[0]) if keep is None else np.asarray(keep)
    hk = h[keep]
    s = hk @ belief.cov @ hk.T + np.diag(np.asarray(r_diag)[keep])
    gain = belief.cov @ hk.T @ np.linalg.inv(s)
    mean = belief.mean + gain @ (np.asarray(y)[keep] - hk @ belief.mean)
    cov = belief.cov - gain @ hk @ belief.cov
    return mean, cov


def _direct_omega(w, r, theta, eps):
    return 1.0 / (1.0 + np.sqrt(eps) * (1.0 / theta - 1.0) * np.exp(w * (1.0 - eps) / (2.0 * r)))


class TestOmegaUpdate:
    def test_neutral_example(self):
        assert omega_update(0.0, 1.0, 0.5, 1e-6) == pytest.approx(
            1.0 / (1.0 + 1e-3), abs=1e-12
        )

    def test_large_residual_underflows_cleanly(self):
        val = omega_update(100.0, 1.0, 0.5, 1e-6)
        assert val == pytest.approx(1.93e-19, rel=5e-3)

    def test_confident_prior_example(self):
        assert omega_update(0.0, 1.0, 0.95, 1e-6) == pytest.approx(0.9999474, abs=1e-7)

    def test_matches_direct_form_on_grid(self):
        ws = np.linspace(0.0, 200.0, 25)  # W/(2R) up to 100
        rs = np.array([0.01, 1.0, 100.0])
        thetas = np.linspace(0.05, 0.95, 7)
        epss = np.logspace(-7, -3, 5)
        for r in rs:
            for theta in thetas:
                for eps in epss:
                    got = omega_update(ws * r, r, theta, eps)
                    want = _direct_omega(ws * r, r, theta, eps)
                    assert np.all(np.abs(got - want) <= 1e-12)

    def test_no_overflow_at_extreme_w(self):
        with np.errstate(over="raise"):
            val = omega_update(1e9, 1.0, 0.5, 1e-6)
        assert 0.0 <= val < 1e-300

    def test_strictly_decreasing_in_w(self):
        ws = np.linspace(0.0, 50.0, 200)
        omegas = omega_update(ws, 1.0, 0.5, 1e-6)
        assert np.all(np.diff(omegas) < 0.0)

    def test_strictly_increasing_in_theta(self):
        thetas = np.linspace(0.01, 0.99, 200)
        omegas = omega_update(1.0, 1.0, thetas, 1e-6)
        assert np.all(np.diff(omegas) > 0.0)

    def test_vectorized_broadcast(self):
        w = np.array([0.0, 100.0])
        out = omega_update(w, 1.0, 0.5, 1e-6)
        assert out.shape == (2,)
        assert out[0] > 0.99 and out[1] < 1e-18


class TestEffectivePrecision:
    """<I_i> / R_ii, the precision the VB loop conditions on."""

    def test_endpoint_values(self):
        vinv = _expected_indicator(np.array([1.0, 0.0]), 1e-6) / np.array([4.0, 9.0])
        assert vinv[0] == pytest.approx(0.25, abs=1e-15)
        assert vinv[1] == pytest.approx(1e-6 / 9.0, rel=1e-12)

    def test_all_accepted_is_nominal_precision(self):
        r = np.array([0.5, 2.0, 8.0])
        vinv = _expected_indicator(np.ones(3), 1e-6) / r
        assert np.allclose(vinv, 1.0 / r, rtol=1e-15)

    def test_all_rejected_is_scaled_by_epsilon(self):
        r = np.array([0.5, 2.0])
        vinv = _expected_indicator(np.zeros(2), 1e-4) / r
        assert np.allclose(vinv, 1e-4 / r, rtol=1e-15)


class TestIndicatorTypes:
    def test_config_defaults(self):
        cfg = IndicatorConfig()
        assert cfg.epsilon == 1e-6
        assert cfg.tau == 1e-4
        assert cfg.max_iters == 50
        assert np.allclose(cfg.thetas(4), 0.5)

    def test_config_rejects_epsilon_endpoints(self):
        with pytest.raises(ValueError):
            IndicatorConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            IndicatorConfig(epsilon=1.0)

    def test_config_rejects_theta_endpoints(self):
        with pytest.raises(ValueError):
            IndicatorConfig(theta_prior=0.0)
        with pytest.raises(ValueError):
            IndicatorConfig(theta_prior=np.array([0.5, 1.0]))

    def test_config_rejects_nan_theta(self):
        with pytest.raises(ValueError, match="theta_prior"):
            IndicatorConfig(theta_prior=np.nan)
        with pytest.raises(ValueError, match="theta_prior"):
            IndicatorConfig(theta_prior=np.array([0.5, np.nan]))

    def test_config_rejects_nan_tau(self):
        with pytest.raises(ValueError, match="tau"):
            IndicatorConfig(tau=np.nan)

    @pytest.mark.parametrize("bad", [2.5, 3.0, np.nan])
    def test_config_rejects_non_integer_max_iters(self, bad):
        with pytest.raises(ValueError, match="max_iters"):
            IndicatorConfig(max_iters=bad)

    def test_config_accepts_numpy_integer_max_iters(self):
        assert IndicatorConfig(max_iters=np.int64(3)).max_iters == 3

    def test_config_vector_theta(self):
        cfg = IndicatorConfig(theta_prior=np.array([0.2, 0.8]))
        assert np.allclose(cfg.thetas(2), [0.2, 0.8])
        with pytest.raises(ValueError):
            cfg.thetas(3)

    def test_config_thetas_are_built_once_per_m_and_read_only(self):
        cfg = IndicatorConfig(theta_prior=0.7)
        first = cfg.thetas(4)
        assert cfg.thetas(4) is first
        assert np.array_equal(first, np.full(4, 0.7))
        assert not first.flags.writeable
        assert cfg.thetas(2).shape == (2,)

    def test_config_vector_theta_compares_by_value(self):
        a = IndicatorConfig(theta_prior=np.array([0.2, 0.8]))
        b = IndicatorConfig(theta_prior=[0.2, 0.8])
        assert a == b and hash(a) == hash(b)
        assert a != IndicatorConfig(theta_prior=np.array([0.2, 0.7]))
        assert len({a, b, IndicatorConfig()}) == 2
        # a bad length is never cached: every call raises
        for _ in range(2):
            with pytest.raises(ValueError, match="theta_prior length 2 does not match m=3"):
                a.thetas(3)

    def test_config_rejects_matrix_theta(self):
        with pytest.raises(ValueError, match="theta_prior must be a number or a vector"):
            IndicatorConfig(theta_prior=np.full((2, 2), 0.5))

    def test_config_vector_theta_is_copied(self):
        prior = np.array([0.2, 0.6, 0.9])
        cfg = IndicatorConfig(theta_prior=prior)
        thetas = cfg.thetas(3)
        assert np.array_equal(thetas, prior) and thetas is not prior

    def test_belief_bounds_enforced(self):
        with pytest.raises(ValueError):
            IndicatorBelief([1.5])
        with pytest.raises(ValueError):
            IndicatorBelief([-0.1])

    def test_belief_rejects_nan(self):
        with pytest.raises(ValueError, match="omega"):
            IndicatorBelief([0.5, np.nan])

    def test_expected_indicator_interpolates(self):
        expected = _expected_indicator(IndicatorBelief([1.0, 0.0, 0.5]).omega, 1e-2)
        assert np.allclose(expected, [1.0, 1e-2, 0.5 + 0.5e-2])


class TestSorStep:
    def test_outlier_free_matches_kalman(self):
        # weak measurement (R >> U) keeps the epsilon-induced precision shift
        # far below the 1e-6 oracle tolerance
        h = np.array([[1.0]])
        r = np.array([1e4])
        model = _linear_model(h, r)
        prediction = GaussianBelief([0.0], [[1.0]])
        y = np.array([1.0])
        result = sor_step(model, prediction, y, IndicatorConfig(), UTParams())
        assert result.converged
        assert result.iterations <= 3
        assert np.all(result.indicators.omega >= 0.99)
        mean, cov = _kalman_update(prediction, h, r, y)
        assert np.allclose(result.posterior.mean, mean, atol=1e-6)
        assert np.allclose(result.posterior.cov, cov, atol=1e-6)

    def test_30_sigma_dimension_rejected(self):
        rng = np.random.default_rng(0)
        cfg = IndicatorConfig(epsilon=1e-30, tau=1e-10)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(2, 6))
            h = rng.standard_normal((m, n))
            r = rng.uniform(0.5, 2.0, size=m)
            model = _linear_model(h, r)
            prediction = GaussianBelief(rng.standard_normal(n), _random_spd(rng, n))
            mu = h @ prediction.mean
            pred_var = np.diag(h @ prediction.cov @ h.T) + r
            y = mu + 0.3 * np.sqrt(pred_var) * rng.standard_normal(m)
            bad = int(rng.integers(m))
            y[bad] = mu[bad] + 30.0 * np.sqrt(pred_var[bad])
            result = sor_step(model, prediction, y, cfg, UTParams())
            assert result.indicators.omega[bad] < 1e-3
            keep = np.delete(np.arange(m), bad)
            mean, cov = _kalman_update(prediction, h, r, y, keep)
            scale_m = 1.0 + np.linalg.norm(mean)
            scale_p = 1.0 + np.linalg.norm(cov)
            assert np.linalg.norm(result.posterior.mean - mean) <= 1e-6 * scale_m
            assert np.linalg.norm(result.posterior.cov - cov) <= 1e-6 * scale_p

    def test_converged_point_is_a_fixed_point(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, 3))
        r = np.full(4, 0.5)
        model = _linear_model(h, r)
        prediction = GaussianBelief(rng.standard_normal(3), _random_spd(rng, 3))
        y = h @ prediction.mean + rng.standard_normal(4)
        cfg = IndicatorConfig()
        result = sor_step(model, prediction, y, cfg, UTParams())
        assert result.converged
        # one more manual VB sweep from the converged posterior barely moves it
        rerun = sor_step(
            model,
            prediction,
            y,
            cfg,
            UTParams(),
            force_indicators=_expected_indicator(result.indicators.omega, cfg.epsilon),
        )
        delta = np.linalg.norm(rerun.posterior.mean - result.posterior.mean)
        assert delta <= cfg.tau * (1.0 + np.linalg.norm(result.posterior.mean))

    def test_iteration_cap_reported_not_raised(self):
        h = np.array([[1.0], [1.0]])
        model = _linear_model(h, np.array([0.01, 0.01]))
        prediction = GaussianBelief([0.0], [[1.0]])
        y = np.array([5.0, -4.0])  # strong conflicting pulls keep the mean moving
        cfg = IndicatorConfig(max_iters=1)
        result = sor_step(model, prediction, y, cfg, UTParams())
        assert result.iterations == 1
        assert not result.converged

    def test_iterations_never_exceed_cap(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((3, 2))
        model = _linear_model(h, np.full(3, 0.2))
        cfg = IndicatorConfig(max_iters=7, tau=1e-14)
        for _ in range(20):
            prediction = GaussianBelief(rng.standard_normal(2), _random_spd(rng, 2))
            y = rng.standard_normal(3) * 10.0
            result = sor_step(model, prediction, y, cfg, UTParams())
            assert result.iterations <= 7

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        n, m = 3, 5
        h = rng.standard_normal((m, n))
        r = rng.uniform(0.5, 2.0, size=m)
        prediction = GaussianBelief(rng.standard_normal(n), _random_spd(rng, n))
        y = h @ prediction.mean + rng.standard_normal(m)
        y[1] += 40.0  # one clear outlier
        perm = rng.permutation(m)
        cfg = IndicatorConfig()
        base = sor_step(_linear_model(h, r), prediction, y, cfg, UTParams())
        shuffled = sor_step(
            _linear_model(h[perm], r[perm]), prediction, y[perm], cfg, UTParams()
        )
        assert np.allclose(
            shuffled.indicators.omega, base.indicators.omega[perm], rtol=1e-9, atol=1e-12
        )
        assert np.allclose(shuffled.posterior.mean, base.posterior.mean, atol=1e-9)

    def test_forced_ones_equals_plain_update_bit_for_bit(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((4, 3))
        r = rng.uniform(0.5, 2.0, size=4)
        model = _linear_model(h, r)
        prediction = GaussianBelief(rng.standard_normal(3), _random_spd(rng, 3))
        y = rng.standard_normal(4) * 5.0
        for variant in ("parallel", "serial"):
            forced = sor_step(
                model,
                prediction,
                y,
                IndicatorConfig(),
                UTParams(),
                variant,
                force_indicators=np.ones(4),
            )
            plain = ukf_step(model, prediction, y, UTParams(), variant)
            assert np.array_equal(forced.posterior.mean, plain.mean)
            assert np.array_equal(forced.posterior.cov, plain.cov)
            assert forced.iterations == 0 and forced.converged

    @pytest.mark.parametrize("variant", ["parallel", "serial"])
    @pytest.mark.parametrize("forced", [[1.0], np.ones(5), np.ones((4, 1))])
    def test_forced_indicators_of_the_wrong_shape_raise(self, variant, forced):
        rng = np.random.default_rng(23)
        model = _linear_model(rng.standard_normal((4, 2)), np.ones(4))
        prediction = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="force_indicators shape"):
            sor_step(
                model, prediction, np.zeros(4), IndicatorConfig(), UTParams(),
                variant, force_indicators=forced,
            )

    @pytest.mark.parametrize("bad", [2.0, -0.1, np.nan])
    def test_forced_indicators_outside_unit_interval_raise(self, bad):
        rng = np.random.default_rng(24)
        model = _linear_model(rng.standard_normal((3, 2)), np.ones(3))
        prediction = GaussianBelief(np.zeros(2), np.eye(2))
        forced = np.array([1.0, bad, 0.5])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sor_step(
                model, prediction, np.zeros(3), IndicatorConfig(), UTParams(),
                force_indicators=forced,
            )

    def test_forced_indicators_at_the_bounds_are_reported_as_given(self):
        rng = np.random.default_rng(25)
        model = _linear_model(rng.standard_normal((3, 2)), np.ones(3))
        prediction = GaussianBelief(np.zeros(2), np.eye(2))
        forced = np.array([0.0, 1.0, 0.25])
        result = sor_step(
            model, prediction, np.ones(3), IndicatorConfig(), UTParams(),
            force_indicators=forced,
        )
        assert np.array_equal(result.indicators.omega, forced)

    @pytest.mark.parametrize("variant", ["parallel", "serial"])
    def test_forced_indicators_without_a_measurement_dimension(self, variant):
        """At m = 0 an empty forced vector passes the [0, 1] check, as an empty
        precision vector passes its own, and the step equals the unforced one."""
        model = _linear_model(np.zeros((0, 2)), np.ones(0))
        prediction = GaussianBelief(np.zeros(2), np.eye(2))
        args = (model, prediction, np.zeros(0), IndicatorConfig(), UTParams(), variant)
        forced = sor_step(*args, force_indicators=np.ones(0))
        plain = sor_step(*args)
        assert forced.indicators.omega.shape == (0,)
        assert np.array_equal(forced.posterior.mean, plain.posterior.mean)
        assert np.array_equal(forced.posterior.cov, plain.posterior.cov)

    @pytest.mark.parametrize("variant", ["parallel", "serial"])
    def test_forced_indicators_are_copied_and_read_only(self, variant):
        rng = np.random.default_rng(26)
        model = _linear_model(rng.standard_normal((3, 2)), np.ones(3))
        prediction = GaussianBelief(np.zeros(2), np.eye(2))
        forced = np.array([0.0, 1.0, 0.25])
        result = sor_step(
            model, prediction, np.ones(3), IndicatorConfig(), UTParams(),
            variant, force_indicators=forced,
        )
        forced[:] = 0.5
        assert np.array_equal(result.indicators.omega, [0.0, 1.0, 0.25])
        assert not result.indicators.omega.flags.writeable

    def test_forced_run_results_do_not_alias_the_callers_array(self):
        model = _linear_model(np.eye(2), np.ones(2))
        init = GaussianBelief(np.zeros(2), np.eye(2))
        ys = [Measurement(k + 1, np.full(2, float(k))) for k in range(3)]
        forced = np.array([1.0, 0.5])
        results = sor_filter_run(
            model, init, ys, IndicatorConfig(), UTParams(), force_indicators=forced
        )
        forced[:] = 0.0
        for result in results:
            assert np.array_equal(result.indicators.omega, [1.0, 0.5])
            assert not result.indicators.omega.flags.writeable

    def test_serial_result_of_another_class_is_built_into_a_checked_posterior(
        self, monkeypatch
    ):
        # a second copy of the gaussian module has its own SerialUpdateResult
        # class; the step decides by its variant, not by the result's class
        path = sorfilt.gaussian.__file__
        spec = importlib.util.spec_from_file_location("sorfilt._gaussian_copy", path)
        copy = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, copy)
        spec.loader.exec_module(copy)
        assert copy.SerialUpdateResult is not sorfilt.gaussian.SerialUpdateResult
        seen = []

        def foreign(*args):
            seen.append(copy.serial_conditioning(*args))
            return seen[-1]

        rng = np.random.default_rng(27)
        h = rng.standard_normal((3, 2))
        model = _linear_model(h, np.full(3, 0.5))
        prediction = GaussianBelief(rng.standard_normal(2), _random_spd(rng, 2))
        y = h @ prediction.mean + rng.standard_normal(3)
        cfg, params = IndicatorConfig(), UTParams()
        native = sor_step(model, prediction, y, cfg, params, "serial")
        monkeypatch.setattr(sorfilt.vb, "serial_conditioning", foreign)
        posterior = sor_step(model, prediction, y, cfg, params, "serial").posterior
        assert type(posterior) is GaussianBelief
        root = seen[-1].root
        assert np.array_equal(posterior.cov, sorfilt.model.symmetrize(root @ root.T))
        assert np.array_equal(posterior.root, np.linalg.cholesky(posterior.cov))
        assert np.array_equal(posterior.mean, native.posterior.mean)
        assert np.array_equal(posterior.cov, native.posterior.cov)

    def test_variant_equivalence_on_linear_models(self):
        rng = np.random.default_rng(5)
        cfg = IndicatorConfig()
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 7))
            h = rng.standard_normal((m, n))
            r = rng.uniform(0.3, 3.0, size=m)
            model = _linear_model(h, r)
            prediction = GaussianBelief(rng.standard_normal(n), _random_spd(rng, n))
            y = h @ prediction.mean + np.sqrt(r) * rng.standard_normal(m)
            if m > 1 and rng.random() < 0.5:
                y[int(rng.integers(m))] += 50.0 * np.sqrt(r.max())
            par = sor_step(model, prediction, y, cfg, UTParams(), "parallel")
            ser = sor_step(model, prediction, y, cfg, UTParams(), "serial")
            scale = 1.0 + np.linalg.norm(par.posterior.mean)
            assert (
                np.linalg.norm(ser.posterior.mean - par.posterior.mean) <= 1e-6 * scale
            )

    def test_rejects_unknown_variant(self):
        model = _linear_model(np.eye(1), np.ones(1))
        prediction = GaussianBelief([0.0], [[1.0]])
        with pytest.raises(ValueError, match="variant"):
            sor_step(model, prediction, [0.0], IndicatorConfig(), UTParams(), "bogus")


    @pytest.mark.parametrize("variant", ["parallel", "serial"])
    def test_returned_omega_is_the_public_omega_update_bit_for_bit(
        self, variant, monkeypatch
    ):
        # the loop calls omega_update's body, with the step's constants, on
        # the W it built; record W there, once per VB iteration
        seen = []
        body = sorfilt.vb._omega_from_prior

        def recording(w, *constants):
            seen.append(np.array(w))
            return body(w, *constants)

        monkeypatch.setattr(sorfilt.vb, "_omega_from_prior", recording)
        public = omega_update
        rng = np.random.default_rng(21)
        h = rng.standard_normal((4, 2))
        model = _linear_model(h, np.full(4, 0.5))
        prediction = GaussianBelief(rng.standard_normal(2), _random_spd(rng, 2))
        y = h @ prediction.mean + rng.standard_normal(4)
        y[1] += 40.0
        result = sor_step(model, prediction, y, IndicatorConfig(), UTParams(), variant)
        assert len(seen) == result.iterations
        cfg = IndicatorConfig()
        expected = public(seen[-1], model.meas_var_diag, cfg.theta_prior, cfg.epsilon)
        assert np.array_equal(result.indicators.omega, expected)

    def test_serial_covariance_failure_names_the_final_vb_iteration(self, monkeypatch):
        rng = np.random.default_rng(22)
        h = rng.standard_normal((3, 2))
        model = _linear_model(h, np.full(3, 0.5))
        prediction = GaussianBelief(rng.standard_normal(2), _random_spd(rng, 2))
        y = h @ prediction.mean + rng.standard_normal(3)
        y[0] += 30.0
        clean = sor_step(model, prediction, y, IndicatorConfig(), UTParams(), "serial")
        assert clean.iterations > 1

        # every update now carries a singular root; with jitter disabled only
        # the covariance check can fail, and only the final result is checked
        real = sorfilt.vb.serial_conditioning

        def singular_root(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(res, root=np.zeros_like(res.root))

        monkeypatch.setattr(sorfilt.vb, "serial_conditioning", singular_root)
        monkeypatch.setattr(sorfilt.model, "_jitter_for", lambda mat: 0.0)
        with pytest.raises(FilterNumericsError) as info:
            sor_step(model, prediction, y, IndicatorConfig(), UTParams(), "serial")
        assert f"VB iteration {clean.iterations}:" in str(info.value)
        assert "updated cov" in str(info.value)

    def test_overflowing_latent_precision_names_vb_iteration_zero(self):
        # a measurement map with entries near 1e200 gives a finite joint
        # factor whose latent precision I + Ez^T Vinv Ez overflows
        rng = np.random.default_rng(23)
        h = rng.standard_normal((3, 2))
        h[0] *= 1e200
        model = _linear_model(h, np.full(3, 0.5))
        prediction = GaussianBelief(rng.standard_normal(2), _random_spd(rng, 2))
        y = h @ prediction.mean
        with np.errstate(over="ignore"):
            with pytest.raises(FilterNumericsError) as info:
                sor_step(model, prediction, y, IndicatorConfig(), UTParams(), "serial")
        assert "VB iteration 0:" in str(info.value)
        assert "non-finite latent precision" in str(info.value)

    def test_overflowing_innovation_variance_names_vb_iteration_zero(self):
        # the same map with an angular dimension, so that the scalar sweep
        # runs: the innovation variance of dimension 0 overflows
        rng = np.random.default_rng(23)
        h = rng.standard_normal((3, 2))
        h[0] *= 1e200
        model = dataclasses.replace(
            _linear_model(h, np.full(3, 0.5)), angular_mask=[False, True, False]
        )
        prediction = GaussianBelief(rng.standard_normal(2), _random_spd(rng, 2))
        y = h @ prediction.mean
        with np.errstate(over="ignore"):
            with pytest.raises(FilterNumericsError) as info:
                sor_step(model, prediction, y, IndicatorConfig(), UTParams(), "serial")
        assert "VB iteration 0:" in str(info.value)
        assert "innovation variance inf for measurement dimension 0" in str(info.value)

    def test_posterior_predictive_failure_names_its_vb_iteration(self, monkeypatch):
        rng = np.random.default_rng(21)
        h = rng.standard_normal((4, 2))
        model = _linear_model(h, np.full(4, 0.5))
        init = GaussianBelief(rng.standard_normal(2), _random_spd(rng, 2))
        prediction = predict(model, init, UTParams())
        y = h @ prediction.mean + rng.standard_normal(4)
        y[1] += 40.0
        clean = sor_step(model, prediction, y, IndicatorConfig(), UTParams())
        assert clean.iterations >= 2

        # the parallel loop calls posterior_predictive_meas once per VB
        # iteration; the second call belongs to iteration 2
        real = sorfilt.vb.posterior_predictive_meas
        calls = []

        def failing_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise FilterNumericsError("synthetic fault")
            return real(*args)

        monkeypatch.setattr(sorfilt.vb, "posterior_predictive_meas", failing_second)
        with pytest.raises(FilterNumericsError) as info:
            sor_step(model, prediction, y, IndicatorConfig(), UTParams())
        assert "VB iteration 2: synthetic fault" in str(info.value)

        calls.clear()
        with pytest.raises(FilterNumericsError) as info:
            sor_filter_run(
                model, init, [Measurement(7, y)], IndicatorConfig(), UTParams()
            )
        assert str(info.value).startswith("time step 7: ")
        assert "VB iteration 2: synthetic fault" in str(info.value)
        assert info.value.time_index == 7


class TestUkfStep:
    def test_matches_kalman_on_linear_model(self):
        rng = np.random.default_rng(6)
        for variant in ("parallel", "serial"):
            h = rng.standard_normal((3, 2))
            r = rng.uniform(0.5, 2.0, size=3)
            model = _linear_model(h, r)
            prediction = GaussianBelief(rng.standard_normal(2), _random_spd(rng, 2))
            y = rng.standard_normal(3)
            post = ukf_step(model, prediction, y, UTParams(), variant)
            mean, cov = _kalman_update(prediction, h, r, y)
            assert np.allclose(post.mean, mean, rtol=1e-9, atol=1e-9)
            assert np.allclose(post.cov, cov, rtol=1e-8, atol=1e-9)

    def test_rejects_unknown_variant(self):
        # a misspelt backend must not silently run the parallel update
        model = _linear_model(np.eye(1), np.ones(1))
        prediction = GaussianBelief([0.0], [[1.0]])
        with pytest.raises(ValueError, match="variant"):
            ukf_step(model, prediction, [0.0], UTParams(), "Serial")


class TestFilterRuns:
    def test_empty_sequence_is_empty(self):
        model = _linear_model(np.eye(2), np.ones(2))
        init = GaussianBelief(np.zeros(2), np.eye(2))
        assert sor_filter_run(model, init, [], IndicatorConfig(), UTParams()) == []
        assert ukf_filter_run(model, init, [], UTParams()) == []

    def test_runs_reject_unknown_variant_even_without_measurements(self):
        model = _linear_model(np.eye(1), np.ones(1))
        init = GaussianBelief([0.0], [[1.0]])
        with pytest.raises(ValueError, match="variant"):
            ukf_filter_run(model, init, [], UTParams(), "Serial")
        with pytest.raises(ValueError, match="variant"):
            sor_filter_run(model, init, [], IndicatorConfig(), UTParams(), "Serial")

    def test_rejects_unordered_measurements(self):
        model = _linear_model(np.eye(2), np.ones(2))
        init = GaussianBelief(np.zeros(2), np.eye(2))
        ys = [Measurement(2, np.zeros(2)), Measurement(1, np.zeros(2))]
        with pytest.raises(ValueError, match="ordered"):
            sor_filter_run(model, init, ys, IndicatorConfig(), UTParams())

    def test_matches_manual_predict_update_loop(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((3, 2))
        a = 0.9 * np.eye(2)
        model = _linear_model(h, np.full(3, 0.5), q=0.1 * np.eye(2), a=a)
        init = GaussianBelief(np.zeros(2), np.eye(2))
        ys = [Measurement(k + 1, rng.standard_normal(3)) for k in range(10)]
        results = sor_filter_run(model, init, ys, IndicatorConfig(), UTParams())
        assert len(results) == 10

        belief = init
        for meas, res in zip(ys, results):
            prediction = predict(model, belief, UTParams())
            step = sor_step(model, prediction, meas.values, IndicatorConfig(), UTParams())
            assert np.array_equal(step.posterior.mean, res.posterior.mean)
            assert np.array_equal(step.posterior.cov, res.posterior.cov)
            belief = res.posterior

    def test_ukf_run_equals_forced_sor_run(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((2, 2))
        model = _linear_model(h, np.full(2, 0.5), a=0.95 * np.eye(2))
        init = GaussianBelief(np.zeros(2), np.eye(2))
        ys = [Measurement(k + 1, rng.standard_normal(2)) for k in range(5)]
        plain = ukf_filter_run(model, init, ys, UTParams())
        forced = sor_filter_run(
            model, init, ys, IndicatorConfig(), UTParams(), force_indicators=np.ones(2)
        )
        for b, r in zip(plain, forced):
            assert np.array_equal(b.mean, r.posterior.mean)
            assert np.array_equal(b.cov, r.posterior.cov)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 6))
    def test_plain_runs_equal_textbook_kalman_filter(self, seed, n, m):
        # on a linear-Gaussian model the unscented transform is exact, so the
        # plain filter in both backends, and sor_filter_run with indicators
        # forced to ones, must equal a textbook Kalman filter over 20 steps
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a *= 0.95 / max(1.0, np.abs(np.linalg.eigvals(a)).max())
        h = rng.standard_normal((m, n))
        q = _random_spd(rng, n, 0.1) / n
        r = rng.uniform(0.1, 3.0, size=m)
        model = _linear_model(h, r, q=q, a=a)
        init = GaussianBelief(rng.standard_normal(n), _random_spd(rng, n))
        x = rng.multivariate_normal(init.mean, init.cov)
        ys = []
        for k in range(20):
            x = a @ x + rng.multivariate_normal(np.zeros(n), q)
            ys.append(Measurement(k + 1, h @ x + np.sqrt(r) * rng.standard_normal(m)))

        expected, belief = [], init
        for y in ys:
            prediction = GaussianBelief(a @ belief.mean, a @ belief.cov @ a.T + q)
            belief = GaussianBelief(*_kalman_update(prediction, h, r, y.values))
            expected.append(belief)

        cfg, params, ones = IndicatorConfig(), UTParams(), np.ones(m)
        for variant in ("parallel", "serial"):
            forced = sor_filter_run(model, init, ys, cfg, params, variant, ones)
            plain = ukf_filter_run(model, init, ys, params, variant)
            for run in ([res.posterior for res in forced], plain):
                for got, want in zip(run, expected, strict=True):
                    # tolerance: 1e-11 relative to the size of the oracle's moments
                    mean_tol = 1e-11 * (1.0 + np.abs(want.mean).max())
                    cov_tol = 1e-11 * (1.0 + np.abs(want.cov).max())
                    assert np.abs(got.mean - want.mean).max() <= mean_tol
                    assert np.abs(got.cov - want.cov).max() <= cov_tol

    @pytest.mark.parametrize("runner", ["sor", "msor", "ukf"])
    def test_numerics_error_names_its_time_step(self, runner):
        # the state walks one unit per step; h turns non-finite once the
        # state passes 3.5, so step 4 is the first whose sigma points hit it
        def meas_fn(x):
            return np.where(x[..., :1] < 3.5, x[..., :1], np.inf)

        model = NonlinearSSM(
            state_dim=1,
            meas_dim=1,
            process_fn=lambda x: x + 1.0,
            meas_fn=meas_fn,
            process_cov=np.array([[1e-6]]),
            meas_var_diag=np.array([1e-2]),
            vectorized=True,
        )
        init = GaussianBelief([0.0], [[1e-6]])
        ys = [Measurement(k, [float(k)]) for k in range(1, 7)]
        with pytest.raises(FilterNumericsError, match="time step 4:") as info:
            if runner == "ukf":
                ukf_filter_run(model, init, ys, UTParams())
            else:
                variant = "serial" if runner == "msor" else "parallel"
                sor_filter_run(model, init, ys, IndicatorConfig(), UTParams(), variant)
        assert info.value.time_index == 4
        assert "non-finite" in str(info.value)

    def test_time_step_of_bare_vectors_is_their_position(self):
        model = NonlinearSSM(
            state_dim=1,
            meas_dim=1,
            process_fn=lambda x: x,
            meas_fn=lambda x: x if x[0] < 10.0 else np.array([np.nan]),
            process_cov=np.array([[1e-6]]),
            meas_var_diag=np.array([1e-8]),
        )
        init = GaussianBelief([0.0], [[1.0]])
        # the second vector pulls the state to about 20, so the third step fails
        ys = [np.array([0.0]), np.array([20.0]), np.array([0.0])]
        with pytest.raises(FilterNumericsError, match="time step 3:") as info:
            ukf_filter_run(model, init, ys, UTParams())
        assert info.value.time_index == 3


def _tracking_case(steps=20, seed=3):
    """(model, init, measurements) of a small run of the tracking world."""
    rng = run_rng(seed, 0)
    sensor_field = SensorField.lattice(3)
    turn_cfg = TurnModelConfig()
    corruption = CorruptionConfig(mode="outliers", lam=0.3)
    traj = simulate_trajectory(turn_cfg, sensor_field, corruption, steps, rng)
    model = make_tracking_model(sensor_field, turn_cfg)
    init = GaussianBelief(traj.states[0], 100.0 * process_noise_cov(turn_cfg))
    ys = [Measurement(k + 1, traj.measurements[k]) for k in range(steps)]
    return model, init, ys


def _uwb_case(steps=20, seed=4):
    """(model, init, measurements) of a small synthetic UWB room."""
    anchors, records = make_synthetic_dataset(seed=seed, num_steps=steps)
    encoded = encode_measurements(records, len(anchors))
    init = GaussianBelief(records[0].truth, 0.5 * np.eye(2))
    ys = [Measurement(k + 1, encoded[k]) for k in range(steps)]
    return uwb_measurement_model(anchors), init, ys


class TestRunFilter:
    @pytest.mark.parametrize("case", [_tracking_case, _uwb_case])
    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_equals_the_direct_runs_bit_for_bit(self, case, name):
        model, init, ys = case()
        cfg, params = IndicatorConfig(), UTParams()
        means, omegas, iterations = run_filter(name, model, init, ys, cfg, params)
        if name == "ukf":
            beliefs = ukf_filter_run(model, init, ys, params, "parallel")
            expected_omegas = np.ones((len(ys), model.meas_dim))
            expected_iterations = np.zeros(len(ys), dtype=int)
        else:
            variant = "parallel" if name == "sor" else "serial"
            results = sor_filter_run(model, init, ys, cfg, params, variant)
            beliefs = [r.posterior for r in results]
            expected_omegas = np.array([r.indicators.omega for r in results])
            expected_iterations = np.array([r.iterations for r in results])
        assert np.array_equal(means, np.array([b.mean for b in beliefs]))
        assert np.array_equal(omegas, expected_omegas)
        assert np.array_equal(iterations, expected_iterations)
        assert iterations.dtype.kind == "i"

    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_empty_sequence_gives_empty_arrays(self, name):
        model, init, _ = _uwb_case()
        means, omegas, iterations = run_filter(
            name, model, init, [], IndicatorConfig(), UTParams()
        )
        assert means.shape == (0, 2)
        assert omegas.shape == (0, model.meas_dim)
        assert iterations.shape == (0,)
        assert iterations.dtype.kind == "i"

    def test_rejects_unknown_name(self):
        model, init, ys = _uwb_case(steps=2)
        with pytest.raises(ValueError, match="unknown filter 'ekf'"):
            run_filter("ekf", model, init, ys, IndicatorConfig(), UTParams())

    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_numerics_error_names_its_time_step(self, name):
        # h turns non-finite once the state passes 2.5: step 3 is the first
        # whose sigma points reach it
        model = NonlinearSSM(
            state_dim=1,
            meas_dim=1,
            process_fn=lambda x: x + 1.0,
            meas_fn=lambda x: np.where(x[..., :1] < 2.5, x[..., :1], np.inf),
            process_cov=np.array([[1e-6]]),
            meas_var_diag=np.array([1e-2]),
            vectorized=True,
        )
        init = GaussianBelief([0.0], [[1e-6]])
        ys = [Measurement(k, [float(k)]) for k in range(1, 5)]
        with pytest.raises(FilterNumericsError, match="time step 3:") as info:
            run_filter(name, model, init, ys, IndicatorConfig(), UTParams())
        assert info.value.time_index == 3


def _public_vb_step(model, prediction, y, cfg, params, variant):
    """sor_step's VB loop recomposed from the public functions, each with
    its own argument checks: (posterior, omega, iterations, converged)."""
    mask, r_diag = model.angular_mask, model.meas_var_diag
    yv = y.values if isinstance(y, Measurement) else np.asarray(y, dtype=float)
    if variant == "serial":
        sigma = draw_sigma_points(prediction, params)
        values = eval_sigma_points(sigma, model.meas_fn, model.vectorized)
        factor = joint_factor_from_sigma(prediction, sigma, values)

        def update(vinv):
            res = serial_conditioning(factor, yv, vinv, mask)
            return res, res.mu_post, res.udiag_post

    else:
        predmeas = predict_measurement(model, prediction, params)

        def update(vinv):
            return update_parallel(prediction, predmeas, yv, vinv, mask), None, None

    thetas = cfg.thetas(model.meas_dim)
    state, mu_pp, udiag_pp = update(np.ones(model.meas_dim) / r_diag)
    iterations, converged = 0, False
    while not converged and iterations < cfg.max_iters:
        iterations += 1
        if mu_pp is None:
            mu_pp, udiag_pp = posterior_predictive_meas(model, state, params)
        resid = innovation(yv, mu_pp, mask)
        omega = omega_update(resid**2 + udiag_pp, r_diag, thetas, cfg.epsilon)
        prev_mean = state.mean
        state, mu_pp, udiag_pp = update(_expected_indicator(omega, cfg.epsilon) / r_diag)
        delta = np.linalg.norm(state.mean - prev_mean)
        denom = np.linalg.norm(prev_mean)
        if denom >= sorfilt.vb.DELTA_DENOM_FLOOR:
            delta /= denom
        converged = delta <= cfg.tau
    posterior = state.posterior if variant == "serial" else state
    return posterior, omega, iterations, converged


def _angular_linear_case(steps=12, seed=31):
    """(model, init, measurements) of a linear model whose second dimension
    is an angle, with residuals that cross the wrap and one outlier per step."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((4, 3))
    r = np.array([0.5, 0.2, 1.0, 0.8])
    model = NonlinearSSM(
        state_dim=3,
        meas_dim=4,
        process_fn=lambda x: x,
        meas_fn=lambda x: x @ h.T if x.ndim > 1 else h @ x,
        process_cov=0.1 * np.eye(3),
        meas_var_diag=r,
        angular_mask=np.array([False, True, False, False]),
        vectorized=True,
    )
    init = GaussianBelief(rng.standard_normal(3), _random_spd(rng, 3))
    ys = []
    for k in range(steps):
        y = h @ init.mean + np.sqrt(r) * rng.standard_normal(4)
        y[1] = 3.0 * rng.uniform(-np.pi, np.pi)
        y[int(rng.integers(4))] += 30.0
        ys.append(Measurement(k + 1, y))
    return model, init, ys


def _outlier_tracking_case(steps=20, seed=3):
    """(model, init, measurements) of the tracking world with the paper's
    outliers (lam 0.3, gamma in [100, 1000]), which take the loop past one
    iteration."""
    rng = run_rng(seed, 0)
    sensor_field = SensorField.lattice(3)
    turn_cfg = TurnModelConfig()
    corruption = CorruptionConfig(mode="outliers", lam=0.3, gamma_law=(100.0, 1000.0))
    traj = simulate_trajectory(turn_cfg, sensor_field, corruption, steps, rng)
    init = GaussianBelief(traj.states[0], 100.0 * process_noise_cov(turn_cfg))
    ys = [Measurement(k + 1, traj.measurements[k]) for k in range(steps)]
    return make_tracking_model(sensor_field, turn_cfg), init, ys


class TestLoopEqualsPublicFunctions:
    """sor_step calls private bodies that trust what the loop built; the same
    loop through the checked public functions gives the same bits."""

    @pytest.mark.parametrize("case", [_angular_linear_case, _outlier_tracking_case])
    @pytest.mark.parametrize("variant", ["parallel", "serial"])
    def test_recomposed_loop_matches_sor_step_bit_for_bit(self, case, variant):
        model, belief, ys = case()
        cfg, params = IndicatorConfig(), UTParams()
        total_iterations = 0
        for y in ys:
            prediction = predict(model, belief, params)
            result = sor_step(model, prediction, y, cfg, params, variant)
            posterior, omega, iterations, converged = _public_vb_step(
                model, prediction, y, cfg, params, variant
            )
            assert np.array_equal(result.posterior.mean, posterior.mean)
            assert np.array_equal(result.posterior.cov, posterior.cov)
            assert np.array_equal(result.indicators.omega, omega)
            assert result.iterations == iterations
            assert result.converged == converged
            total_iterations += iterations
            belief = result.posterior
        assert total_iterations > len(ys)  # the loop ran past one iteration

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        m=st.integers(1, 4),
        angular=st.booleans(),
    )
    def test_forced_ones_sor_step_equals_ukf_step(self, seed, n, m, angular):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((m, n))
        model = NonlinearSSM(
            state_dim=n,
            meas_dim=m,
            process_fn=lambda x: x,
            meas_fn=lambda x: x @ h.T if x.ndim > 1 else h @ x,
            process_cov=np.eye(n),
            meas_var_diag=rng.uniform(0.1, 3.0, size=m),
            angular_mask=np.arange(m) == 0 if angular else None,
            vectorized=True,
        )
        prediction = GaussianBelief(rng.standard_normal(n), _random_spd(rng, n))
        y = h @ prediction.mean + 5.0 * rng.standard_normal(m)
        for variant in ("parallel", "serial"):
            forced = sor_step(
                model, prediction, y, IndicatorConfig(), UTParams(), variant,
                force_indicators=np.ones(m),
            )
            plain = ukf_step(model, prediction, y, UTParams(), variant)
            assert np.array_equal(forced.posterior.mean, plain.mean)
            assert np.array_equal(forced.posterior.cov, plain.cov)


def _step_call(name, model, y, cfg=None):
    """Run sor_step (parallel or serial) or ukf_step on one prediction."""
    prediction = GaussianBelief(np.zeros(model.state_dim), np.eye(model.state_dim))
    if name == "ukf":
        return ukf_step(model, prediction, y, UTParams())
    variant = "parallel" if name == "sor" else "serial"
    return sor_step(model, prediction, y, cfg or IndicatorConfig(), UTParams(), variant)


class TestStepInputErrors:
    """What the loop used to reject on every call is rejected once, at the
    step's entry or, for meas_var_diag, when the model is built, with the
    same exception type."""

    @pytest.mark.parametrize("name", FILTER_NAMES)
    @pytest.mark.parametrize("y", [np.zeros(2), np.zeros(4), np.zeros((3, 1))])
    def test_measurement_of_the_wrong_shape(self, name, y):
        model = _linear_model(np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="measurement length"):
            _step_call(name, model, y)

    # a bad R is refused when the model is built, so no step ever sees one
    @pytest.mark.parametrize("name", FILTER_NAMES)
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_meas_var_diag_not_positive(self, name, bad):
        with pytest.raises(ValueError, match="meas_var_diag entries must be > 0"):
            model = _linear_model(np.ones((3, 2)), np.array([1.0, bad, 2.0]))
            _step_call(name, model, np.zeros(3))

    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_meas_var_diag_whose_reciprocal_overflows(self, name):
        with pytest.raises(ValueError, match="meas_var_diag entries must have a finite"):
            model = _linear_model(np.ones((3, 2)), np.array([1.0, 1e-320, 2.0]))
            _step_call(name, model, np.zeros(3))

    @pytest.mark.parametrize("name", ["sor", "msor"])
    def test_theta_prior_of_the_wrong_length(self, name):
        model = _linear_model(np.ones((3, 2)), np.ones(3))
        cfg = IndicatorConfig(theta_prior=np.array([0.5, 0.9]))
        with pytest.raises(ValueError, match="theta_prior length 2 does not match m=3"):
            _step_call(name, model, np.zeros(3), cfg)
        # a bad length is never cached: the second call raises too
        with pytest.raises(ValueError, match="theta_prior length"):
            _step_call(name, model, np.zeros(3), cfg)

    @pytest.mark.parametrize("name", ["sor", "msor"])
    def test_w_that_overflows_to_inf(self, name):
        model = _linear_model(np.array([[1.0], [1.0]]), np.array([1.0, 1.0]))
        # the squared residual of 1e200 overflows; only the W check reports it
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"^W_ii must be finite and >= 0$"):
                _step_call(name, model, np.array([1e200, -1e200]))

