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
    PredictedMeasurement,
    SerialUpdateResult,
    innovation,
    joint_factor_from_moments,
    joint_factor_from_sigma,
    posterior_predictive_meas,
    predict,
    predict_measurement,
    serial_conditioning,
    update_parallel,
)
from .model import GaussianBelief, Measurement, NonlinearSSM
from .unscented import (
    UTParams,
    draw_sigma_points,
    eval_sigma_points,
    moments_from_values,
)

Variant = Literal["parallel", "serial"]

FILTER_NAMES = ("ukf", "sor", "msor")  # plain baseline, parallel and serial updates

DELTA_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class IndicatorConfig:
    """Indicator-model parameters: outlier floor eps, no-outlier prior theta,
    convergence threshold tau, and the iteration cap."""

    epsilon: float = 1e-6
    theta_prior: float | np.ndarray = 0.5
    tau: float = 1e-4
    max_iters: int = 50

    def __post_init__(self) -> None:
        # each check is written so that a NaN fails it
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly inside (0, 1)")
        theta = np.atleast_1d(np.asarray(self.theta_prior, dtype=float))
        if not (theta.min(initial=0.5) > 0.0 and theta.max(initial=0.5) < 1.0):
            raise ValueError("theta_prior entries must lie strictly inside (0, 1)")
        if not self.tau > 0.0:
            raise ValueError("tau must be > 0")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer >= 1")

    def thetas(self, m: int) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(self.theta_prior, dtype=float))
        if theta.size == 1:
            return np.full(m, theta[0])
        if theta.size != m:
            raise ValueError(f"theta_prior length {theta.size} does not match m={m}")
        return theta


@dataclass(frozen=True)
class IndicatorBelief:
    """Per-dimension posterior probability of "no outlier"."""

    omega: np.ndarray

    def __post_init__(self) -> None:
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        # NaN fails both comparisons
        if not (omega.min(initial=0.0) >= 0.0 and omega.max(initial=0.0) <= 1.0):
            raise ValueError("omega entries must lie in [0, 1]")
        object.__setattr__(self, "omega", omega)

    def expected(self, epsilon: float) -> np.ndarray:
        """Expected indicator <I_i> = omega_i + (1 - omega_i) * eps."""
        return _expected_indicator(self.omega, epsilon)


def _expected_indicator(omega: np.ndarray, epsilon: float) -> np.ndarray:
    """<I_i> = omega_i + (1 - omega_i) * eps, the indicator's mean on {eps, 1}."""
    return omega + (1.0 - omega) * epsilon


@dataclass(frozen=True)
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
    if not (w.min(initial=0.0) >= 0.0 and w.max(initial=0.0) < np.inf):
        raise ValueError("W_ii must be finite and >= 0")
    if not r.min(initial=1.0) > 0.0:
        raise ValueError("R_ii must be > 0")
    if not (th.min(initial=0.5) > 0.0 and th.max(initial=0.5) < 1.0):
        raise ValueError("theta must lie strictly inside (0, 1)")
    log_odds_outlier = (
        0.5 * np.log(eps)
        + np.log1p(-th)
        - np.log(th)
        + w * (1.0 - eps) / (2.0 * r)
    )
    out = expit(-log_odds_outlier)
    return float(out) if out.ndim == 0 else out


def effective_precision(indicators, R_diag, epsilon: float) -> np.ndarray:
    """Vinv_diag[i] = <I_i> / R_ii with <I_i> = omega_i + (1 - omega_i) eps,
    for an IndicatorBelief or an omega vector with entries in [0, 1]."""
    belief = IndicatorBelief(getattr(indicators, "omega", indicators))
    r = np.atleast_1d(np.asarray(R_diag, dtype=float))
    if belief.omega.shape != r.shape:
        raise ValueError("omega and R_diag lengths disagree")
    return belief.expected(epsilon) / r


def _check_variant(variant) -> None:
    if variant not in ("parallel", "serial"):
        raise ValueError(f"unknown variant {variant!r}")


def _joint_factor(
    model: NonlinearSSM, prediction: GaussianBelief, params: UTParams
) -> JointFactor:
    sigma = draw_sigma_points(prediction, params)
    values = eval_sigma_points(sigma, model.meas_fn, model.vectorized)
    if np.all(sigma.cov_weights >= 0.0):
        return joint_factor_from_sigma(prediction, sigma, values)
    mu, cov, cross = moments_from_values(sigma, values)
    return joint_factor_from_moments(
        prediction, PredictedMeasurement(mu=mu, U=cov, C=cross)
    )


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
    rounding, is why their RMSE differs.

    Inputs are validated by the public functions called here; what the loop
    builds itself is not re-validated.  A serial update's covariance is
    checked once, on the final iteration's result, and a failure there names
    that VB iteration like a failed update does.

    force_indicators short-circuits the loop with a fixed expected-indicator
    vector of shape (m,) with entries in [0, 1]; all ones reproduces the
    plain Gaussian-filter update through the identical code path.
    """
    _check_variant(variant)
    m = model.meas_dim
    r_diag = model.meas_var_diag
    mask = model.angular_mask
    yv = y.values if isinstance(y, Measurement) else np.atleast_1d(np.asarray(y, float))

    serial = variant == "serial"
    if serial:
        factor = _joint_factor(model, prediction, params)
    else:
        predmeas = predict_measurement(model, prediction, params)

    def failed_at(iteration, exc):
        return FilterNumericsError(
            f"measurement update failed at VB iteration {iteration}: {exc}"
        )

    def run_update(vinv, iteration):
        """(update, mu_post, udiag_post): a SerialUpdateResult with its
        conditioned measurement moments, or a GaussianBelief and Nones."""
        try:
            if serial:
                res = serial_conditioning(factor, yv, vinv, mask)
                return res, res.mu_post, res.udiag_post
            belief = update_parallel(prediction, predmeas, yv, vinv, mask)
            return belief, None, None
        except FilterNumericsError as exc:
            raise failed_at(iteration, exc) from exc

    def posterior_of(update, iteration) -> GaussianBelief:
        if not serial:
            return update
        try:
            return update.posterior
        except FilterNumericsError as exc:
            raise failed_at(iteration, exc) from exc

    if force_indicators is not None:
        forced = np.atleast_1d(np.asarray(force_indicators, dtype=float))
        if forced.shape != (m,):
            raise ValueError(
                f"force_indicators shape {forced.shape} does not match ({m},)"
            )
        # NaN fails both comparisons
        if not (forced.min() >= 0.0 and forced.max() <= 1.0):
            raise ValueError("force_indicators entries must lie in [0, 1]")
        update, _, _ = run_update(forced / r_diag, 0)
        return SorStepResult(
            posterior=posterior_of(update, 0),
            indicators=IndicatorBelief(forced),
            iterations=0,
            converged=True,
        )

    thetas = cfg.thetas(m)
    update, mu_pp, udiag_pp = run_update(1.0 / r_diag, 0)

    omega = np.ones(m)
    iterations = 0
    converged = False
    for l in range(1, cfg.max_iters + 1):
        if mu_pp is None:
            mu_pp, udiag_pp = posterior_predictive_meas(model, update, params)
        resid = innovation(yv, mu_pp, mask)
        w = resid**2 + udiag_pp
        omega = omega_update(w, r_diag, thetas, cfg.epsilon)
        vinv = _expected_indicator(omega, cfg.epsilon) / r_diag

        prev_mean = update.mean
        update, mu_pp, udiag_pp = run_update(vinv, l)
        iterations = l

        # 2-norms as np.linalg.norm computes them for a float vector
        change = update.mean - prev_mean
        denom = math.sqrt(prev_mean.dot(prev_mean))
        delta = math.sqrt(change.dot(change))
        if denom >= DELTA_DENOM_FLOOR:
            delta /= denom
        if delta <= cfg.tau:
            converged = True
            break

    return SorStepResult(
        posterior=posterior_of(update, iterations),
        indicators=IndicatorBelief(omega),
        iterations=iterations,
        converged=converged,
    )


def ukf_step(
    model: NonlinearSSM,
    prediction: GaussianBelief,
    y,
    params: UTParams,
    variant: Variant = "parallel",
) -> GaussianBelief:
    """Plain (non-robust) Gaussian-filter update with noise R."""
    _check_variant(variant)
    mask = model.angular_mask
    vinv = 1.0 / model.meas_var_diag
    if variant == "serial":
        factor = _joint_factor(model, prediction, params)
        return serial_conditioning(factor, y, vinv, mask).posterior
    predmeas = predict_measurement(model, prediction, params)
    return update_parallel(prediction, predmeas, y, vinv, mask)


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
