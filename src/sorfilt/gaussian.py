"""Gaussian filter steps: prediction, Woodbury-form parallel update, and an
exact serial scalar-conditioning update for diagonal effective noise."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FilterNumericsError,
    GaussianBelief,
    Measurement,
    NonlinearSSM,
    _is_symmetric,
    symmetrize,
)
from .unscented import (
    SigmaPointSet,
    UTParams,
    draw_sigma_points,
    eval_sigma_points,
    moments_from_values,
    unscented_mean_vardiag,
)


def wrap_angle(x):
    """Wrap angles to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi)


def _wrap_scalar(x: float) -> float:
    """wrap_angle for one Python float, without array overhead.  Python's
    float % rounds exactly as np.mod does, so the results are identical."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def innovation(y: np.ndarray, mu: np.ndarray, angular_mask=None) -> np.ndarray:
    """Residual y - mu with circular dimensions wrapped to (-pi, pi]."""
    resid = np.asarray(y, dtype=float) - np.asarray(mu, dtype=float)
    if angular_mask is not None and np.any(angular_mask):
        resid = resid.copy()
        resid[angular_mask] = wrap_angle(resid[angular_mask])
    return resid


def _measurement_values(y, m: int) -> np.ndarray:
    """The values of y, a Measurement or a vector, which must have length m."""
    yv = y.values if isinstance(y, Measurement) else np.atleast_1d(np.asarray(y, float))
    if yv.shape != (m,):
        raise ValueError(f"measurement length {yv.shape} does not match meas dim {m}")
    return yv


@dataclass(frozen=True)
class PredictedMeasurement:
    """Predicted measurement moments mu (m,), U (m, m), C (n, m).

    The constructor checks shapes, finiteness and the symmetry of U.
    """

    mu: np.ndarray
    U: np.ndarray
    C: np.ndarray

    def __post_init__(self) -> None:
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        U = np.atleast_2d(np.asarray(self.U, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        m = mu.size
        if U.shape != (m, m):
            raise ValueError(f"U shape {U.shape} does not match meas dim {m}")
        if C.shape[1] != m:
            raise ValueError(f"C shape {C.shape} does not match meas dim {m}")
        if not (np.isfinite(mu).all() and np.isfinite(U).all() and np.isfinite(C).all()):
            raise ValueError("predicted measurement contains non-finite entries")
        if not _is_symmetric(U, rtol=1e-9):
            raise ValueError("U must be symmetric")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "U", symmetrize(U))
        object.__setattr__(self, "C", C)

    @property
    def meas_dim(self) -> int:
        return self.mu.size


def predict(
    model: NonlinearSSM, posterior: GaussianBelief, params: UTParams
) -> GaussianBelief:
    """Propagate the posterior through the process map and add Q."""
    sigma = draw_sigma_points(posterior, params)
    values = eval_sigma_points(sigma, model.process_fn, model.vectorized)
    mean, cov, _ = moments_from_values(sigma, values)
    return GaussianBelief._from_filter(mean, cov + model.process_cov, "predicted cov")


def predict_measurement(
    model: NonlinearSSM, belief_pred: GaussianBelief, params: UTParams
) -> PredictedMeasurement:
    """Unscented moments of the measurement map about the prediction."""
    sigma = draw_sigma_points(belief_pred, params)
    values = eval_sigma_points(sigma, model.meas_fn, model.vectorized)
    mu, U, C = moments_from_values(sigma, values)
    return PredictedMeasurement(mu=mu, U=U, C=C)


def _check_vinv(vinv, m: int) -> np.ndarray:
    vinv = np.atleast_1d(np.asarray(vinv, dtype=float))
    if vinv.shape != (m,):
        raise ValueError(f"Vinv_diag length {vinv.shape} does not match meas dim {m}")
    # NaN fails both comparisons, so one min and one max reject it too
    if not (vinv.min(initial=0.0) >= 0.0 and vinv.max(initial=0.0) < np.inf):
        raise ValueError("Vinv_diag entries must be finite and >= 0")
    return vinv


def update_parallel(
    belief_pred: GaussianBelief,
    predmeas: PredictedMeasurement,
    y,
    vinv_diag,
    angular_mask=None,
) -> GaussianBelief:
    """Joint measurement update with gain K = C Vinv (I + U Vinv)^-1.

    This is the Woodbury form of C (U + V)^-1: V itself is never inverted,
    so per-dimension effective precisions of exactly zero are legal and
    delete the corresponding column of K.
    """
    m = predmeas.meas_dim
    vinv = _check_vinv(vinv_diag, m)
    yv = _measurement_values(y, m)
    resid = innovation(yv, predmeas.mu, angular_mask)
    return _update_parallel(belief_pred, predmeas, resid, vinv)


def _update_parallel(
    belief_pred: GaussianBelief,
    predmeas: PredictedMeasurement,
    resid: np.ndarray,
    vinv: np.ndarray,
) -> GaussianBelief:
    """update_parallel's arithmetic, for a checked precision vector vinv (m,)
    and the wrapped residual y - predmeas.mu, which a caller that updates the
    same prediction many times computes once."""
    cd = predmeas.C * vinv  # C @ diag(vinv)
    s = np.eye(predmeas.meas_dim) + predmeas.U * vinv
    try:
        gain = np.linalg.solve(s.T, cd.T).T
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError("singular innovation system (I + U Vinv)") from exc

    mean = belief_pred.mean + gain @ resid
    cov = belief_pred.cov - predmeas.C @ gain.T
    return GaussianBelief._from_filter(mean, cov, "updated cov")


@dataclass(frozen=True)
class JointFactor:
    """Square-root joint over (state, predicted measurement).

    Columns of the stacked factor reproduce the joint covariance:
    P = Ex Ex^T, C = Ex Ez^T, U = Ez Ez^T.
    """

    mean_x: np.ndarray
    mu: np.ndarray
    Ex: np.ndarray
    Ez: np.ndarray


def joint_factor_from_sigma(
    belief_pred: GaussianBelief, sigma: SigmaPointSet, values: np.ndarray
) -> JointFactor:
    """Factor built directly from sigma-point deviations (2n+1 columns).

    Requires nonnegative covariance weights; raises ValueError otherwise so
    callers can fall back to the dense factorization.
    """
    wc = sigma.cov_weights
    if np.any(wc < 0.0):
        raise ValueError("sigma covariance weights must be nonnegative for factoring")
    sw = np.sqrt(wc)
    mu = sigma.mean_weights @ values
    ex = (sigma.points - belief_pred.mean).T * sw
    ez = (values - mu).T * sw
    return JointFactor(mean_x=belief_pred.mean, mu=mu, Ex=ex, Ez=ez)


def joint_factor_from_moments(
    belief_pred: GaussianBelief, predmeas: PredictedMeasurement
) -> JointFactor:
    """Factor the dense joint [[P, C], [C^T, U]] by eigendecomposition.

    The joint is PSD but often singular (U has rank at most 2n+1), so
    Cholesky is not suitable; tiny negative eigenvalues are clipped.
    """
    n = belief_pred.dim
    joint = symmetrize(
        np.block([[belief_pred.cov, predmeas.C], [predmeas.C.T, predmeas.U]])
    )
    eigvals, eigvecs = np.linalg.eigh(joint)
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return JointFactor(
        mean_x=belief_pred.mean, mu=predmeas.mu, Ex=factor[:n], Ez=factor[n:]
    )


@dataclass(frozen=True)
class SerialUpdateResult:
    """Posterior state mean and square root plus conditioned
    measurement-predictive moments.

    The posterior belief, whose covariance root @ root.T is checked, is
    built on first access: a caller that needs only the means and the
    measurement moments (the serial VB loop between iterations) pays no
    covariance check.
    """

    mean: np.ndarray
    root: np.ndarray
    mu_post: np.ndarray
    udiag_post: np.ndarray

    @functools.cached_property
    def posterior(self) -> GaussianBelief:
        return GaussianBelief._from_filter(
            self.mean, self.root @ self.root.T, "updated cov"
        )


def serial_conditioning(
    factor: JointFactor, y, vinv_diag, angular_mask=None
) -> SerialUpdateResult:
    """Condition the joint factor on each scalar y_i in turn.

    Each pass applies a Potter-style rank-1 square-root update with additive
    noise v_i = 1 / vinv_i, accumulated lazily in an r x r transform T and an
    r-vector g so a full sweep costs O(m r^2) with r = 2n+1 columns.
    Entries with vinv_i = 0 (infinite noise) are skipped.
    """
    r = factor.Ex.shape[1]
    m = factor.mu.size
    vinv = _check_vinv(vinv_diag, m)
    yv = _measurement_values(y, m)
    angular = (
        [False] * m
        if angular_mask is None
        else np.asarray(angular_mask, dtype=bool).tolist()
    )

    # Python floats for scalars and ndarray.dot for products: the same
    # results as numpy scalars and @, with less overhead per operation
    ez, mu, yl, vl = factor.Ez, factor.mu.tolist(), yv.tolist(), vinv.tolist()
    t = np.eye(r)
    tt = t.T  # a view: it follows the in-place updates of t
    g = np.zeros(r)
    for i in np.flatnonzero(vinv).tolist():
        v = 1.0 / vl[i]
        row = ez[i]
        phi = tt.dot(row)
        s = float(phi.dot(phi)) + v
        if s <= 0.0:
            raise FilterNumericsError(
                f"non-positive innovation variance for measurement dimension {i}"
            )
        resid = yl[i] - (mu[i] + float(row.dot(g)))
        if angular[i]:
            resid = _wrap_scalar(resid)
        u = t.dot(phi)
        g += u * (resid / s)
        gamma = 1.0 / (1.0 + math.sqrt(v / s))
        t -= u[:, None] * (phi * (gamma / s))

    ez_post = factor.Ez @ t
    return SerialUpdateResult(
        mean=factor.mean_x + factor.Ex @ g,
        root=factor.Ex @ t,
        mu_post=factor.mu + factor.Ez @ g,
        udiag_post=np.einsum("ij,ij->i", ez_post, ez_post),
    )


def update_serial(
    belief_pred: GaussianBelief,
    predmeas: PredictedMeasurement,
    y,
    vinv_diag,
    angular_mask=None,
) -> SerialUpdateResult:
    """Serial scalar conditioning; equals update_parallel in exact arithmetic."""
    factor = joint_factor_from_moments(belief_pred, predmeas)
    return serial_conditioning(factor, y, vinv_diag, angular_mask)


def posterior_predictive_meas(
    model: NonlinearSSM, posterior: GaussianBelief, params: UTParams
) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and variance of h(x) under the given state belief,
    from a fresh unscented transform."""
    sigma = draw_sigma_points(posterior, params)
    return unscented_mean_vardiag(sigma, model.meas_fn, model.vectorized)
