"""Sigma-point construction and unscented moment approximations."""

import math

import numpy as np
import pytest

from sorfilt import (
    FilterNumericsError,
    GaussianBelief,
    NonlinearSSM,
    SigmaPointSet,
    UTParams,
    draw_sigma_points,
    eval_sigma_points,
    moments_from_values,
    posterior_predictive_meas,
)


def _random_spd(rng, n, scale=1.0):
    base = rng.standard_normal((n, n))
    return base @ base.T + scale * np.eye(n)


class TestUTParams:
    def test_defaults(self):
        params = UTParams()
        assert (params.alpha, params.beta, params.kappa) == (1.0, 2.0, 0.0)

    def test_scaling_default_is_zero(self):
        assert UTParams().scaling(5) == 0.0

    def test_scaling_value(self):
        assert UTParams(alpha=0.5, kappa=3.0).scaling(1) == pytest.approx(0.0)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            UTParams(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            UTParams(alpha=1.5)

    def test_rejects_negative_beta_kappa(self):
        with pytest.raises(ValueError, match="beta"):
            UTParams(beta=-0.1)
        with pytest.raises(ValueError, match="kappa"):
            UTParams(kappa=-0.1)

    def test_rejects_nan_beta_kappa(self):
        with pytest.raises(ValueError, match="beta"):
            UTParams(beta=float("nan"))
        with pytest.raises(ValueError, match="kappa"):
            UTParams(kappa=float("nan"))


def _fresh_weights(params, n):
    """sqrt(n + lambda) and the weights, computed from scratch."""
    lam = params.scaling(n)
    scale = n + lam
    wm = np.full(2 * n + 1, 1.0 / (2.0 * scale))
    wc = wm.copy()
    wm[0] = lam / scale
    wc[0] = wm[0] + (1.0 - params.alpha**2 + params.beta)
    return math.sqrt(scale), wm, wc


class TestWeightCache:
    @pytest.mark.parametrize(
        "params",
        [UTParams(), UTParams(alpha=0.5, kappa=1.0), UTParams(alpha=0.3, beta=0.0, kappa=2.5)],
    )
    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    def test_cached_weights_equal_a_fresh_computation(self, params, n):
        root_scale, wm, wc = _fresh_weights(params, n)
        for _ in range(2):  # the computing call and a cached one
            weights = params.weights(n)
            assert weights.root_scale == root_scale
            assert np.array_equal(weights.mean_weights, wm)
            assert np.array_equal(weights.cov_weights, wc)

    def test_weights_are_kept_per_instance_and_n(self):
        params = UTParams()
        assert params.weights(3) is params.weights(3)
        assert params.weights(3) is not params.weights(4)
        assert params.weights(3) is not UTParams().weights(3)

    def test_cache_leaves_equality_and_hash_alone(self):
        used, fresh = UTParams(alpha=0.5), UTParams(alpha=0.5)
        used.weights(2)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    def test_cached_weights_are_read_only(self):
        weights = UTParams().weights(2)
        with pytest.raises(ValueError, match="read-only"):
            weights.mean_weights[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            weights.cov_weights[1] = 0.0

    def test_invalid_scaling_raises_on_every_call(self):
        params = UTParams()
        for _ in range(3):
            with pytest.raises(ValueError, match="invalid UT scaling"):
                params.weights(0)

    def test_sigma_points_carry_the_cached_weights(self):
        params = UTParams(alpha=0.5, kappa=1.0)
        sigma = draw_sigma_points(GaussianBelief([1.0, 2.0], np.eye(2)), params)
        assert sigma.mean_weights is params.weights(2).mean_weights
        assert sigma.cov_weights is params.weights(2).cov_weights


class TestSigmaPointSet:
    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="count"):
            SigmaPointSet(np.zeros((3, 1)), [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="count"):
            SigmaPointSet(np.zeros((3, 1)), [0.0, 0.5, 0.5], [0.5, 0.5])

    def test_rejects_mean_weights_not_summing_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SigmaPointSet(np.zeros((3, 1)), [0.1, 0.5, 0.5], [2.0, 0.5, 0.5])

    def test_rejects_finite_mean_weights_whose_sum_is_nan(self):
        # pairwise summation adds inf to -inf: the sum is NaN, not a warning
        weights = [1e308] * 4 + [-1e308] * 4
        with pytest.raises(ValueError, match="sum to 1"):
            SigmaPointSet(np.zeros((8, 1)), weights, np.ones(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["points", "mean_weights", "cov_weights"])
    def test_rejects_non_finite_points_and_weights(self, where, bad):
        args = {"points": np.zeros((3, 1)), "mean_weights": [0.0, 0.5, 0.5],
                "cov_weights": [1.0, 1.0, 1.0]}
        args[where] = np.array(args[where], dtype=float)
        args[where].flat[0] = bad
        with pytest.raises(ValueError, match="sigma points and weights must be finite"):
            SigmaPointSet(**args)

    def test_drawn_set_equals_the_public_constructor(self):
        rng = np.random.default_rng(11)
        belief = GaussianBelief(rng.standard_normal(3), _random_spd(rng, 3))
        drawn = draw_sigma_points(belief, UTParams())
        public = SigmaPointSet(drawn.points, drawn.mean_weights, drawn.cov_weights)
        assert np.array_equal(public.points, drawn.points)
        assert np.array_equal(public.mean_weights, drawn.mean_weights)
        assert np.array_equal(public.cov_weights, drawn.cov_weights)


class TestDrawSigmaPoints:
    def test_scalar_standard_normal_layout(self):
        sigma = draw_sigma_points(GaussianBelief([0.0], [[1.0]]), UTParams())
        assert np.allclose(sigma.points[:, 0], [0.0, 1.0, -1.0])
        assert np.allclose(sigma.mean_weights, [0.0, 0.5, 0.5])
        assert np.allclose(sigma.cov_weights, [2.0, 0.5, 0.5])

    def test_center_point_is_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            belief = GaussianBelief(rng.standard_normal(n), _random_spd(rng, n))
            sigma = draw_sigma_points(belief, UTParams())
            assert np.array_equal(sigma.points[0], belief.mean)
            assert np.array_equal(sigma.mean, belief.mean)

    def test_identity_cov_offsets_are_sqrt2(self):
        belief = GaussianBelief(np.zeros(2), np.eye(2))
        sigma = draw_sigma_points(belief, UTParams())
        offsets = sigma.points[1:3]
        assert np.allclose(sorted(np.linalg.norm(offsets, axis=1)), [np.sqrt(2)] * 2)
        assert np.allclose(sigma.points[1:3], np.sqrt(2.0) * np.eye(2))

    def test_mean_weights_sum_to_one(self):
        for alpha, beta, kappa in [(1.0, 2.0, 0.0), (0.9, 2.0, 1.0), (0.3, 0.0, 3.0)]:
            sigma = draw_sigma_points(
                GaussianBelief(np.zeros(3), np.eye(3)),
                UTParams(alpha=alpha, beta=beta, kappa=kappa),
            )
            assert abs(sigma.mean_weights.sum() - 1.0) < 1e-12

    def test_weighted_deviations_reconstruct_cov(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            cov = _random_spd(rng, n)
            belief = GaussianBelief(rng.standard_normal(n), cov)
            sigma = draw_sigma_points(belief, UTParams())
            dev = sigma.points - belief.mean
            rebuilt = (sigma.cov_weights * dev.T) @ dev
            assert np.allclose(rebuilt, cov, rtol=1e-10, atol=1e-10)


    def test_root_matches_cholesky_of_scaled_cov(self):
        # the offsets come from the belief's kept root times sqrt(n + lambda);
        # they must match the textbook chol((n + lambda) P) construction
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            params = UTParams(
                alpha=float(rng.uniform(0.1, 1.0)), kappa=float(rng.uniform(0.0, 3.0))
            )
            belief = GaussianBelief(rng.standard_normal(n), _random_spd(rng, n, 0.1))
            sigma = draw_sigma_points(belief, params)
            scale = n + params.scaling(n)
            root = np.linalg.cholesky(scale * belief.cov)
            expected = np.vstack([belief.mean, belief.mean + root.T, belief.mean - root.T])
            tol = 1e-12 * np.abs(expected).max()
            assert np.abs(sigma.points - expected).max() <= tol


class TestUnscentedMoments:
    def test_identity_map(self):
        belief = GaussianBelief([1.0, 2.0], np.eye(2))
        sigma = draw_sigma_points(belief, UTParams())
        mu, u, c = moments_from_values(sigma, eval_sigma_points(sigma, lambda x: x))
        assert np.allclose(mu, [1.0, 2.0])
        assert np.allclose(u, np.eye(2), atol=1e-12)
        assert np.allclose(c, np.eye(2), atol=1e-12)

    def test_square_map_matches_standard_normal_moments(self):
        sigma = draw_sigma_points(GaussianBelief([0.0], [[1.0]]), UTParams())
        mu, u, _ = moments_from_values(sigma, eval_sigma_points(sigma, lambda x: x**2))
        assert mu[0] == pytest.approx(1.0, abs=1e-12)
        assert u[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_constant_map(self):
        belief = GaussianBelief(np.zeros(3), np.eye(3))
        sigma = draw_sigma_points(belief, UTParams())
        values = eval_sigma_points(sigma, lambda x: np.array([4.0, -1.0]))
        mu, u, c = moments_from_values(sigma, values)
        assert np.allclose(mu, [4.0, -1.0])
        assert np.allclose(u, 0.0)
        assert np.allclose(c, 0.0)
        assert c.shape == (3, 2)

    def test_affine_exactness_100_trials(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 6))
            a = rng.standard_normal((d, n))
            b = rng.standard_normal(d)
            mean = rng.standard_normal(n)
            cov = _random_spd(rng, n)
            sigma = draw_sigma_points(GaussianBelief(mean, cov), UTParams())
            values = eval_sigma_points(sigma, lambda x: a @ x + b)
            mu, u, c = moments_from_values(sigma, values)
            assert np.all(
                np.abs(mu - (a @ mean + b)) <= 1e-10 * (1.0 + np.abs(mean).max())
            )
            assert np.all(
                np.abs(u - a @ cov @ a.T) <= 1e-9 * (1.0 + np.abs(cov).max())
            )
            assert np.allclose(c, cov @ a.T, atol=1e-9 * (1.0 + np.abs(cov).max()))

    def test_monte_carlo_consistency(self):
        def fn(x):
            return np.array([np.sin(x[0]), x[1] * np.cos(x[0])])

        mean = np.array([0.3, -0.7])
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        sigma = draw_sigma_points(GaussianBelief(mean, cov), UTParams())
        mu_ut, _, _ = moments_from_values(sigma, eval_sigma_points(sigma, fn))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            samples = rng.multivariate_normal(mean, cov, size=10**6)
            values = np.stack([np.sin(samples[:, 0]), samples[:, 1] * np.cos(samples[:, 0])], axis=1)
            mc_mean = values.mean(axis=0)
            mc_se = values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])
            # UT itself carries O(P^2) bias; allow it alongside 5 MC standard errors
            assert np.all(np.abs(mu_ut - mc_mean) <= 5.0 * mc_se + 2e-4)

    def test_cross_cov_shape(self):
        belief = GaussianBelief(np.zeros(4), np.eye(4))
        sigma = draw_sigma_points(belief, UTParams())
        _, u, c = moments_from_values(sigma, eval_sigma_points(sigma, lambda x: x[:2]))
        assert c.shape == (4, 2)
        assert np.allclose(u, u.T)
        assert np.all(np.linalg.eigvalsh(u) >= -1e-12)


class TestEvalSigmaPoints:
    def test_vectorized_matches_loop(self):
        rng = np.random.default_rng(3)
        belief = GaussianBelief(rng.standard_normal(3), _random_spd(rng, 3))
        sigma = draw_sigma_points(belief, UTParams())
        fn = lambda x: np.sin(x) + x**2  # noqa: E731 - elementwise, batch-safe
        assert np.array_equal(
            eval_sigma_points(sigma, fn, vectorized=True),
            eval_sigma_points(sigma, fn, vectorized=False),
        )

    def test_non_finite_output_identifies_point(self):
        belief = GaussianBelief([0.0], [[1.0]])
        sigma = draw_sigma_points(belief, UTParams())

        def fn(x):
            return np.where(x > 0.5, np.nan, x)

        with pytest.raises(FilterNumericsError, match="sigma point 1"):
            eval_sigma_points(sigma, fn)

    def test_per_point_images_as_the_stacked_form(self):
        sigma = draw_sigma_points(GaussianBelief([0.3, -1.0], np.eye(2)), UTParams())
        for fn in (lambda x: float(x @ x), lambda x: [x[0], x[1] ** 3], lambda x: np.exp(x)):
            want = np.stack([np.atleast_1d(np.asarray(fn(p), dtype=float)) for p in sigma.points])
            got = eval_sigma_points(sigma, fn)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_ragged_per_point_images_are_refused(self):
        sigma = draw_sigma_points(GaussianBelief([0.0], [[1.0]]), UTParams())
        with pytest.raises(ValueError):
            eval_sigma_points(sigma, lambda x: np.ones(1 + int(x[0] > 0.5)))


def _meas_model(n, m, fn):
    """A model whose measurement map is fn; its process map is never used."""
    return NonlinearSSM(n, m, lambda x: x, fn, np.eye(n), np.ones(m))


class TestMeanVardiag:
    """posterior_predictive_meas: the per-dimension moments of h, without the
    full matrix."""

    def test_matches_full_moments_diagonal(self):
        rng = np.random.default_rng(5)
        belief = GaussianBelief(rng.standard_normal(3), _random_spd(rng, 3))
        fn = lambda x: np.array([np.sin(x[0]), x[1] * x[2]])  # noqa: E731
        mu_a, var = posterior_predictive_meas(_meas_model(3, 2, fn), belief, UTParams())
        sigma = draw_sigma_points(belief, UTParams())
        mu_b, u, _ = moments_from_values(sigma, eval_sigma_points(sigma, fn))
        assert np.allclose(mu_a, mu_b)
        assert np.allclose(var, np.diag(u), rtol=1e-12, atol=1e-12)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            belief = GaussianBelief(rng.standard_normal(n), _random_spd(rng, n, 0.01))
            model = _meas_model(n, n, lambda x: np.tanh(x))
            _, var = posterior_predictive_meas(model, belief, UTParams())
            assert np.all(var >= 0.0)
