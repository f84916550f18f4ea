"""Core types: beliefs, covariance hygiene, model validation."""

import numpy as np
import pytest

from sorfilt import (
    FilterNumericsError,
    GaussianBelief,
    Measurement,
    NonlinearSSM,
    chol_lower,
    ensure_spd,
    symmetrize,
    validate_model,
)


def _random_spd(rng, n, scale=1.0):
    base = rng.standard_normal((n, n))
    return base @ base.T + scale * np.eye(n)


class TestSymmetrize:
    def test_exact_symmetric_part(self):
        mat = np.array([[1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(symmetrize(mat), [[1.0, 1.0], [1.0, 3.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((4, 4))
        once = symmetrize(mat)
        assert np.array_equal(symmetrize(once), once)


class TestEnsureSpd:
    def test_passthrough_on_spd(self):
        rng = np.random.default_rng(1)
        mat = _random_spd(rng, 3)
        out = ensure_spd(mat)
        assert np.allclose(out, mat)

    def test_jitter_repairs_tiny_negative_eigenvalue(self):
        vals = np.array([1.0, 1e-16, -1e-14])
        vecs = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
        mat = vecs @ np.diag(vals) @ vecs.T
        out = ensure_spd(mat)
        np.linalg.cholesky(out)  # must not raise
        assert np.allclose(out, symmetrize(mat), atol=1e-8)

    def test_hard_error_on_indefinite(self):
        mat = np.diag([1.0, -1.0])
        with pytest.raises(FilterNumericsError, match="positive definite"):
            ensure_spd(mat, "P")

    def test_error_names_the_matrix(self):
        with pytest.raises(FilterNumericsError, match="badmat"):
            ensure_spd(np.diag([1.0, -5.0]), "badmat")


class TestCholLower:
    def test_matches_numpy_on_spd(self):
        rng = np.random.default_rng(3)
        mat = _random_spd(rng, 5)
        assert np.allclose(chol_lower(mat), np.linalg.cholesky(mat))

    def test_reconstructs_input(self):
        rng = np.random.default_rng(4)
        mat = _random_spd(rng, 4)
        root = chol_lower(mat)
        assert np.allclose(root @ root.T, mat)

    def test_hard_error_on_indefinite(self):
        with pytest.raises(FilterNumericsError):
            chol_lower(np.diag([1.0, -1.0]))


class TestGaussianBelief:
    def test_valid_construction(self):
        belief = GaussianBelief([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        assert belief.dim == 2
        assert np.array_equal(belief.mean, [1.0, 2.0])

    def test_arrays_are_frozen(self):
        belief = GaussianBelief([0.0], [[1.0]])
        with pytest.raises(ValueError):
            belief.mean[0] = 5.0
        with pytest.raises(ValueError):
            belief.cov[0, 0] = 5.0

    def test_cholesky_always_succeeds_on_accepted_cov(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            belief = GaussianBelief(rng.standard_normal(n), _random_spd(rng, n, 0.1))
            np.linalg.cholesky(belief.cov)  # must not raise

    def test_rejects_matrix_mean(self):
        with pytest.raises(ValueError, match="vector"):
            GaussianBelief(np.zeros((2, 2)), np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            GaussianBelief([0.0, 0.0], np.eye(3))

    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianBelief([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])

    def test_accepts_roundoff_asymmetry(self):
        cov = np.array([[1.0, 0.5], [0.5 + 1e-16, 1.0]])
        belief = GaussianBelief([0.0, 0.0], cov)
        assert np.array_equal(belief.cov, belief.cov.T)

    def test_rejects_indefinite_cov(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianBelief([0.0, 0.0], np.diag([1.0, -1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            GaussianBelief([np.nan], [[1.0]])


class TestMeasurement:
    def test_valid(self):
        meas = Measurement(3, [1.0, 2.0])
        assert meas.time_index == 3
        assert np.array_equal(meas.values, [1.0, 2.0])

    def test_rejects_zero_time_index(self):
        with pytest.raises(ValueError, match="time_index"):
            Measurement(0, [1.0])

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            Measurement(1, [np.inf])


def _toy_model(**overrides):
    kwargs = dict(
        state_dim=2,
        meas_dim=2,
        process_fn=lambda x: x,
        meas_fn=lambda x: x,
        process_cov=np.eye(2),
        meas_var_diag=np.array([1.0, 2.0]),
    )
    kwargs.update(overrides)
    return NonlinearSSM(**kwargs)


class TestNonlinearSSM:
    @pytest.mark.parametrize(
        "name,value",
        [
            ("process_cov", np.eye(3)),
            # a scalar would broadcast over the whole predicted covariance
            ("process_cov", 0.1),
            ("meas_var_diag", np.ones(3)),
            ("angular_mask", np.array([True])),
        ],
    )
    def test_wrong_shape_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} shape"):
            _toy_model(**{name: value})

    @pytest.mark.parametrize(
        "bad,match",
        [
            (0.0, "must be > 0"),
            (-1.0, "must be > 0"),
            (np.nan, "must be > 0"),
            # positive, but 1 / R overflows to inf; no RuntimeWarning leaks
            (1e-320, "must have a finite reciprocal"),
        ],
    )
    def test_bad_meas_var_diag_refused(self, bad, match):
        with pytest.raises(ValueError, match=f"^meas_var_diag entries {match}$"):
            _toy_model(meas_var_diag=np.array([1.0, bad]))

    def test_infinite_meas_var_diag_accepted(self):
        # an infinite R is a zero precision, which the updates handle
        model = _toy_model(meas_var_diag=np.array([1.0, np.inf]))
        assert np.array_equal(1.0 / model.meas_var_diag, [1.0, 0.0])


class TestValidateModel:
    def test_valid_model_passes(self):
        report = validate_model(_toy_model())
        assert report.ok and bool(report) and report.issues == ()

    def test_tracking_style_model_passes(self):
        from sorfilt import SensorField, make_tracking_model

        report = validate_model(make_tracking_model(SensorField.lattice(3)))
        assert report.ok, report.issues

    def test_zero_state_dim_reported(self):
        model = _toy_model(state_dim=0, process_cov=np.zeros((0, 0)))
        assert validate_model(model).issues == ("state_dim must be >= 1",)

    def test_indefinite_process_cov_reported(self):
        report = validate_model(_toy_model(process_cov=np.diag([1.0, -1.0])))
        assert any("positive semidefinite" in s for s in report.issues)

    def test_asymmetric_process_cov_reported(self):
        q = np.array([[1.0, 0.5], [0.5 + 1e-10, 1.0]])
        report = validate_model(_toy_model(process_cov=q))
        assert "process_cov must be symmetric" in report.issues

    def test_nan_process_cov_reported(self):
        q = np.array([[1.0, np.nan], [np.nan, 1.0]])
        assert not validate_model(_toy_model(process_cov=q)).ok

    def test_psd_singular_process_cov_accepted(self):
        report = validate_model(_toy_model(process_cov=np.diag([1.0, 0.0])))
        assert report.ok, report.issues

    def test_wrong_output_dim_reported(self):
        report = validate_model(_toy_model(meas_fn=lambda x: x[:1]))
        assert any("meas_fn output shape" in s for s in report.issues)

    def test_non_finite_probe_reported(self):
        report = validate_model(_toy_model(process_fn=lambda x: x + np.nan))
        assert any("process_fn produced non-finite" in s for s in report.issues)

    def test_raising_map_reported(self):
        def bad(x):
            raise RuntimeError("boom")

        report = validate_model(_toy_model(meas_fn=bad))
        assert any("meas_fn raised" in s for s in report.issues)

    def test_idempotent(self):
        model = _toy_model(process_cov=np.diag([1.0, -1.0]))
        first = validate_model(model)
        second = validate_model(model)
        assert first == second

    def test_root_is_the_cholesky_factor_of_cov(self):
        rng = np.random.default_rng(6)
        cov = _random_spd(rng, 4, 0.1)
        belief = GaussianBelief(rng.standard_normal(4), cov)
        assert np.array_equal(belief.root, np.linalg.cholesky(belief.cov))
        with pytest.raises(ValueError):
            belief.root[0, 0] = 5.0


class TestFilterBuiltBelief:
    """The private constructor for covariances the filter built itself."""

    def test_matches_public_constructor(self):
        rng = np.random.default_rng(7)
        mean, cov = rng.standard_normal(3), _random_spd(rng, 3, 0.1)
        public = GaussianBelief(mean, cov)
        built = GaussianBelief._from_filter(mean, cov, "cov")
        assert np.array_equal(built.mean, public.mean)
        assert np.array_equal(built.cov, public.cov)
        assert np.array_equal(built.root, public.root)
        assert not (built.mean.flags.writeable or built.cov.flags.writeable)

    def test_jitter_repairs_like_ensure_spd(self):
        vals = np.array([1.0, 1e-16, -1e-14])
        vecs = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
        mat = vecs @ np.diag(vals) @ vecs.T
        built = GaussianBelief._from_filter(np.zeros(3), mat, "cov")
        assert np.array_equal(built.cov, ensure_spd(mat))
        assert np.array_equal(built.root, chol_lower(mat))

    def test_indefinite_raises_numerics_error_naming_the_matrix(self):
        with pytest.raises(FilterNumericsError, match="updated cov"):
            GaussianBelief._from_filter(np.zeros(2), np.diag([1.0, -1.0]), "updated cov")

    @pytest.mark.parametrize(
        "mean, cov",
        [
            ([np.nan, 0.0], np.eye(2)),
            ([np.inf, 0.0], np.eye(2)),
            ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]]),
            ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]),
            ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_non_finite_raises_value_error(self, mean, cov):
        # Cholesky of a matrix holding inf or NaN may return a non-finite
        # factor without raising, so the finite check must stay
        with pytest.raises(ValueError, match="non-finite"):
            GaussianBelief._from_filter(np.asarray(mean), np.asarray(cov), "cov")
