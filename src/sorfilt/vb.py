"""Variational-Bayes outlier indicators fused with Gaussian filtering.

Each measurement dimension carries a latent Bernoulli indicator on {eps, 1}.
The posterior probability of "no outlier", omega, rescales the effective
measurement precision; the state and indicator posteriors are refined in an
alternating loop until the state mean stops moving.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np
from scipy.special import expit

from .gaussian import (
    FilterNumericsError,
    JointFactor,
    _measurement_values,
    _residual,
    _update_parallel,
    joint_factor_from_moments,
    joint_factor_from_sigma,
    posterior_predictive_meas,
    predict,
    predict_measurement,
    serial_conditioning,
)
from .model import GaussianBelief, Measurement, NonlinearSSM, _count_nonzero
from .unscented import UTParams, draw_sigma_points, eval_sigma_points

Variant = Literal["parallel", "serial"]

FILTER_NAMES = ("ukf", "sor", "msor")  # plain baseline, parallel and serial updates

DELTA_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class IndicatorConfig:
    """Indicator-model parameters: outlier floor eps, no-outlier prior theta,
    convergence threshold tau, and the iteration cap.

    theta_prior is one probability for every dimension or a vector of one
    per dimension; a vector is kept as a tuple of floats, so configs
    compare and hash by value.
    """

    epsilon: float = 1e-6
    theta_prior: float | tuple[float, ...] = 0.5
    tau: float = 1e-4
    max_iters: int = 50

    def __post_init__(self) -> None:
        # each check is written so that a NaN fails it
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly inside (0, 1)")
        theta = np.asarray(self.theta_prior, dtype=float)
        if theta.ndim > 1:
            raise ValueError("theta_prior must be a number or a vector")
        if not (theta.min(initial=0.5) > 0.0 and theta.max(initial=0.5) < 1.0):
            raise ValueError("theta_prior entries must lie strictly inside (0, 1)")
        prior = theta.tolist()  # a float, or a list of floats for a vector
        object.__setattr__(self, "theta_prior", tuple(prior) if theta.ndim else prior)
        if not self.tau > 0.0:
            raise ValueError("tau must be > 0")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer >= 1")
        # m -> (thetas(m), omega's prior log-odds); not a field, so equality,
        # hashing and repr ignore it
        object.__setattr__(self, "_per_m", {})

    def thetas(self, m: int) -> np.ndarray:
        """The read-only prior vector for m dimensions, built on the first call
        per m.  A length mismatch is never kept, so it raises on every call."""
        return self._prior(m)[0]

    def _prior(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """thetas(m) and omega's prior log-odds for m dimensions, both
        read-only and built together on the first call per m; 2 R comes from
        the model."""
        cached = self._per_m.get(m)
        if cached is None:
            theta = np.atleast_1d(np.asarray(self.theta_prior, dtype=float))
            if theta.size == 1:
                theta = np.full(m, theta[0])
            elif theta.size != m:
                raise ValueError(f"theta_prior length {theta.size} does not match m={m}")
            log_odds = _prior_log_odds(theta, self.epsilon)
            theta.flags.writeable = log_odds.flags.writeable = False
            cached = self._per_m[m] = (theta, log_odds)
        return cached


@dataclass(frozen=True, eq=False)
class IndicatorBelief:
    """Per-dimension posterior probability of "no outlier"."""

    omega: np.ndarray

    def __post_init__(self) -> None:
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        # NaN fails both comparisons
        if not (omega.min(initial=0.0) >= 0.0 and omega.max(initial=0.0) <= 1.0):
            raise ValueError("omega entries must lie in [0, 1]")
        object.__setattr__(self, "omega", omega)

    @classmethod
    def _trusted(cls, omega: np.ndarray) -> "IndicatorBelief":
        """Belief from a float vector in [0, 1] that the filter built or checked."""
        belief = object.__new__(cls)
        object.__setattr__(belief, "omega", omega)
        return belief


def _expected_indicator(omega: np.ndarray, epsilon: float) -> np.ndarray:
    """<I_i> = omega_i + (1 - omega_i) * eps, the indicator's mean on {eps, 1}."""
    return omega + (1.0 - omega) * epsilon


@dataclass(frozen=True, eq=False)
class SorStepResult:
    posterior: GaussianBelief
    indicators: IndicatorBelief
    iterations: int
    converged: bool


def omega_update(W_ii, R_ii, theta, epsilon):
    """Posterior no-outlier probability.

    Closed form 1 / (1 + sqrt(eps) (1/theta - 1) exp(W (1 - eps) / (2R))),
    evaluated as a logistic of the log-odds so large W underflows to 0
    cleanly instead of overflowing.
    """
    w = np.asarray(W_ii, dtype=float)
    r = np.asarray(R_ii, dtype=float)
    th = np.asarray(theta, dtype=float)
    eps = np.asarray(epsilon, dtype=float)
    # each check is a min/max reduction; a NaN fails every comparison
    if not (eps.min(initial=0.5) > 0.0 and eps.max(initial=0.5) < 1.0):
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    _check_w(w)
    if not r.min(initial=1.0) > 0.0:
        raise ValueError("R_ii must be > 0")
    if not (th.min(initial=0.5) > 0.0 and th.max(initial=0.5) < 1.0):
        raise ValueError("theta must lie strictly inside (0, 1)")
    out = _omega_from_prior(w, *_omega_constants(r, th, eps))
    return float(out) if out.ndim == 0 else out


def _check_w(w: np.ndarray) -> None:
    # a NaN fails both comparisons, and empty W passes
    if _count_nonzero(w >= 0.0) != w.size or _count_nonzero(w < np.inf) != w.size:
        raise ValueError("W_ii must be finite and >= 0")


def _prior_log_odds(th, eps):
    """omega's prior log-odds of an outlier, 0.5 log eps + log1p(-th) - log th."""
    return 0.5 * np.log(eps) + np.log1p(-th) - np.log(th)


def _omega_constants(r, th, eps):
    """omega_update's constants: the prior log-odds, 1 - eps and 2 R."""
    return _prior_log_odds(th, eps), 1.0 - eps, 2.0 * r


def _omega_from_prior(w, prior, keep, two_r):
    """omega_update's arithmetic on W and its constants, for arguments that
    passed its checks: the same IEEE operations in the same order as the
    closed form's log-odds, prior + W (1 - eps) / (2 R)."""
    return expit(-(prior + w * keep / two_r))


def _check_variant(variant) -> None:
    if variant not in ("parallel", "serial"):
        raise ValueError(f"unknown variant {variant!r}")


def _joint_factor(
    model: NonlinearSSM, prediction: GaussianBelief, params: UTParams
) -> JointFactor:
    if params.weights(prediction.dim).cov_weights_nonnegative:
        sigma = draw_sigma_points(prediction, params)
        values = eval_sigma_points(sigma, model.meas_fn, model.vectorized)
        return joint_factor_from_sigma(prediction, sigma, values)
    return joint_factor_from_moments(prediction, predict_measurement(model, prediction, params))


def _step_inputs(model: NonlinearSSM, y, variant) -> tuple[np.ndarray, np.ndarray]:
    """The checks of one step's inputs, made once at its entry: the variant
    and y's shape.  Returns y's values and the nominal precisions
    1 / meas_var_diag, which the model computed, checked finite and keeps
    read-only when it was built."""
    _check_variant(variant)
    return _measurement_values(y, model.meas_dim), model._rinv


def _step_update(
    model: NonlinearSSM, prediction: GaussianBelief, yv, params: UTParams, variant
):
    """The step's measurement update of y's values yv, as a function vinv ->
    (update, mu_post, udiag_post).

    The joint factor (serial) or the predicted measurement and its residual
    yv - mu (parallel) is built once, here, and every call conditions it on
    precisions vinv.  A serial update is a SerialUpdateResult with its
    conditioned measurement moments; a parallel one is a GaussianBelief with
    two Nones.  The parallel body trusts vinv: callers pass precisions in
    [0, 1 / R], which the model keeps finite.
    """
    if variant == "serial":
        factor = _joint_factor(model, prediction, params)
        mask = model.angular_mask

        def update(vinv):
            res = serial_conditioning(factor, yv, vinv, mask)
            return res, res.mu_post, res.udiag_post

        return update
    predmeas = predict_measurement(model, prediction, params)
    resid = _residual(yv, predmeas.mu, model._angular)
    return lambda vinv: (_update_parallel(prediction, predmeas, resid, vinv), None, None)


def _posterior(update, variant) -> GaussianBelief:
    """The checked posterior of an update from _step_update of variant."""
    return update.posterior if variant == "serial" else update


def sor_step(
    model: NonlinearSSM,
    prediction: GaussianBelief,
    y,
    cfg: IndicatorConfig,
    params: UTParams,
    variant: Variant = "parallel",
    force_indicators=None,
) -> SorStepResult:
    """One measurement update with alternating indicator/state refinement.

    Starts from effective precision R^-1, then repeats: expected squared
    residuals W -> omega -> Vinv -> state re-update from the same prediction.
    Stops once the relative mean change delta falls to tau or max_iters is
    hit (reported via converged, not an error).

    The backends differ in how W is formed, not only in how the update is
    ordered.  "parallel" (sor) runs a fresh unscented transform of h about
    each posterior; "serial" (msor) reads the conditioned joint moments of
    the one sigma-point factor built per step.  That difference, not
    rounding, is why their RMSE differs.  serial_conditioning conditions
    that factor as one latent-space block when the model has no angular
    dimension, and sweeps it one dimension at a time when it has.

    The step's inputs are checked once, at entry: the variant, y's shape,
    the theta_prior length and force_indicators; NonlinearSSM has checked
    meas_var_diag.  The loop then trusts what it builds, except W, which can
    overflow and is checked on every iteration.  The serial backend still
    goes through the public serial_conditioning.  A serial update's
    covariance is checked once, on the final iteration's result.  A
    FilterNumericsError raised from the first update on names its VB
    iteration: 0 for the first update, l for the work of iteration l,
    including the final covariance check.  The run's constants come from
    their owners: 1 / R, 2 R and the angular index from the model, omega's
    prior log-odds from cfg.

    force_indicators short-circuits the loop with a fixed expected-indicator
    vector of shape (m,) with entries in [0, 1]; all ones reproduces the
    plain Gaussian-filter update through the identical code path.
    """
    yv, rinv = _step_inputs(model, y, variant)
    step_update = _step_update(model, prediction, yv, params, variant)
    m = model.meas_dim
    r_diag = model.meas_var_diag
    eps = cfg.epsilon

    forced = force_indicators is not None
    if forced:
        # a read-only copy: the result must not alias the caller's array
        omega = np.array(force_indicators, dtype=float, ndmin=1)
        omega.setflags(write=False)
        if omega.shape != (m,):
            raise ValueError(
                f"force_indicators shape {omega.shape} does not match ({m},)"
            )
        # NaN fails both comparisons
        if _count_nonzero(omega >= 0.0) != m or _count_nonzero(omega <= 1.0) != m:
            raise ValueError("force_indicators entries must lie in [0, 1]")
        vinv = omega / r_diag
    else:
        prior, keep = cfg._prior(m)[1], 1.0 - eps
        vinv = rinv  # omega starts at ones
    two_r, angular = model._two_r, model._angular

    iteration = 0
    converged = forced
    try:
        update, mu_pp, udiag_pp = step_update(vinv)
        while not converged and iteration < cfg.max_iters:
            iteration += 1
            if mu_pp is None:
                mu_pp, udiag_pp = posterior_predictive_meas(model, update, params)
            w = _residual(yv, mu_pp, angular) ** 2 + udiag_pp
            _check_w(w)
            omega = _omega_from_prior(w, prior, keep, two_r)
            prev_mean = update.mean
            update, mu_pp, udiag_pp = step_update(_expected_indicator(omega, eps) / r_diag)

            # 2-norms as np.linalg.norm computes them for a float vector
            change = update.mean - prev_mean
            denom = math.sqrt(prev_mean.dot(prev_mean))
            delta = math.sqrt(change.dot(change))
            if denom >= DELTA_DENOM_FLOOR:
                delta /= denom
            converged = delta <= cfg.tau
        posterior = _posterior(update, variant)
    except FilterNumericsError as exc:
        raise FilterNumericsError(
            f"measurement update failed at VB iteration {iteration}: {exc}"
        ) from exc
    return SorStepResult(posterior, IndicatorBelief._trusted(omega), iteration, converged)


def ukf_step(
    model: NonlinearSSM,
    prediction: GaussianBelief,
    y,
    params: UTParams,
    variant: Variant = "parallel",
) -> GaussianBelief:
    """Plain (non-robust) Gaussian-filter update with noise R; its inputs are
    checked once, as in sor_step."""
    yv, rinv = _step_inputs(model, y, variant)
    update, _, _ = _step_update(model, prediction, yv, params, variant)(rinv)
    return _posterior(update, variant)


def _drive(model, init, measurements, params, step) -> list:
    """Alternate predict and step(prediction, meas) -> (result, posterior)
    over an ordered measurement sequence; a FilterNumericsError is re-raised
    naming its time_index, or the 1-based position of a bare vector."""
    measurements = list(measurements)
    stamps = [y.time_index for y in measurements if isinstance(y, Measurement)]
    if any(later <= earlier for earlier, later in zip([0] + stamps, stamps)):
        raise ValueError("measurements must be ordered by time_index")
    belief = init
    results = []
    try:
        for meas in measurements:
            result, belief = step(predict(model, belief, params), meas)
            results.append(result)
    except FilterNumericsError as exc:
        k = meas.time_index if isinstance(meas, Measurement) else len(results) + 1
        raise FilterNumericsError(f"time step {k}: {exc}", time_index=k) from exc
    return results


def sor_filter_run(
    model: NonlinearSSM,
    init: GaussianBelief,
    measurements: Iterable,
    cfg: IndicatorConfig,
    params: UTParams,
    variant: Variant = "parallel",
    force_indicators=None,
) -> list[SorStepResult]:
    """Alternate predict and sor_step over an ordered measurement sequence.

    A FilterNumericsError is re-raised naming the time step (message and
    time_index attribute).
    """
    _check_variant(variant)

    def step(pred, meas):
        result = sor_step(model, pred, meas, cfg, params, variant, force_indicators)
        return result, result.posterior

    return _drive(model, init, measurements, params, step)


def ukf_filter_run(
    model: NonlinearSSM,
    init: GaussianBelief,
    measurements: Iterable,
    params: UTParams,
    variant: Variant = "parallel",
) -> list[GaussianBelief]:
    """Plain Gaussian-filter trajectory used as the non-robust baseline; a
    FilterNumericsError is re-raised naming the time step, as in sor_filter_run."""
    _check_variant(variant)

    def step(pred, meas):
        posterior = ukf_step(model, pred, meas, params, variant)
        return posterior, posterior

    return _drive(model, init, measurements, params, step)


def run_filter(
    name: str,
    model: NonlinearSSM,
    init: GaussianBelief,
    measurements: Iterable,
    cfg: IndicatorConfig,
    params: UTParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the filter called name, one of FILTER_NAMES, over K measurements.

    Returns means (K, n), omegas (K, m) and integer iterations (K,); ukf,
    the plain filter, reports unit omegas and zero iterations.
    """
    if name not in FILTER_NAMES:
        raise ValueError(f"unknown filter {name!r}; expected one of {FILTER_NAMES}")
    if name == "ukf":
        posteriors = ukf_filter_run(model, init, measurements, params, "parallel")
        omegas = np.ones((len(posteriors), model.meas_dim))
        iterations = np.zeros(len(posteriors), dtype=int)
    else:
        variant = "parallel" if name == "sor" else "serial"
        results = sor_filter_run(model, init, measurements, cfg, params, variant)
        posteriors = [r.posterior for r in results]
        omegas = np.array([r.indicators.omega for r in results])
        omegas = omegas.reshape(-1, model.meas_dim)
        iterations = np.array([r.iterations for r in results], dtype=int)
    means = np.array([b.mean for b in posteriors]).reshape(-1, init.dim)
    return means, omegas, iterations
