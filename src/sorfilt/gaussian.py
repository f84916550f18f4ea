"""Gaussian filter steps: prediction, Woodbury-form parallel update, and an
exact serial update for diagonal effective noise that conditions a square-root
joint factor.  An angular-free measurement vector is conditioned as one block
in the factor's latent space (one Cholesky and one triangular solve); a vector
with a bearing is swept one scalar at a time, in four BLAS calls per
dimension, so that each bearing wraps against the partly conditioned mean."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dpotrf, dtrtrs

from .model import (
    FilterNumericsError,
    GaussianBelief,
    Measurement,
    NonlinearSSM,
    _count_nonzero,
    _einsum,
    _is_symmetric,
    _solve,
    symmetrize,
)
from .unscented import (
    SigmaPointSet,
    UTParams,
    _mean_cov_dev,
    draw_sigma_points,
    eval_sigma_points,
    moments_from_values,
)


def wrap_angle(x):
    """Wrap angles to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi)


def _wrap_scalar(x: float) -> float:
    """wrap_angle for one Python float, without array overhead.  Python's
    float % rounds exactly as np.mod does, so the results are identical."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def innovation(y: np.ndarray, mu: np.ndarray, angular_mask=None) -> np.ndarray:
    """Residual y - mu with circular dimensions wrapped to (-pi, pi]; with a
    mask, the residual must be a vector."""
    y, mu = np.asarray(y, dtype=float), np.asarray(mu, dtype=float)
    mask = ()
    if angular_mask is not None:
        shape = np.broadcast(y, mu).shape
        if len(shape) != 1:
            raise ValueError(f"a residual of shape {shape} cannot take an angular_mask")
        mask = _check_angular(angular_mask, shape[0])
    return _residual(y, mu, np.flatnonzero(mask))


def _residual(yv: np.ndarray, mu: np.ndarray, angular: np.ndarray) -> np.ndarray:
    """innovation's arithmetic, for the index of a checked angular mask, as
    the model keeps it: y - mu, with the angular entries wrapped to (-pi, pi]."""
    resid = yv - mu
    if angular.size:
        resid[angular] = wrap_angle(resid[angular])
    return resid


def _measurement_values(y, m: int) -> np.ndarray:
    """The values of y, a Measurement or a vector, which must have length m."""
    if isinstance(y, Measurement):
        yv = y.values
    else:
        yv = np.asarray(y, float)
        if yv.ndim < 1:
            yv = np.atleast_1d(yv)
    if yv.shape != (m,):
        raise ValueError(f"measurement length {yv.shape} does not match meas dim {m}")
    return yv


@dataclass(frozen=True, eq=False)
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
        self._set_finite(mu, U, C)
        if not _is_symmetric(U, rtol=1e-9):
            raise ValueError("U must be symmetric")
        object.__setattr__(self, "U", symmetrize(U))

    @classmethod
    def _from_filter(cls, mu, U, C) -> "PredictedMeasurement":
        """Moments as moments_from_values builds them, with symmetric U: only
        finiteness is checked, as the moments of finite images can overflow."""
        predmeas = object.__new__(cls)
        predmeas._set_finite(mu, U, C)
        return predmeas

    def _set_finite(self, mu: np.ndarray, U: np.ndarray, C: np.ndarray) -> None:
        if (
            _count_nonzero(np.isfinite(mu)) != mu.size
            or _count_nonzero(np.isfinite(U)) != U.size
            or _count_nonzero(np.isfinite(C)) != C.size
        ):
            raise ValueError("predicted measurement contains non-finite entries")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "U", U)
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
    mean, cov, _ = _mean_cov_dev(sigma, values)  # the cross-covariance is not needed
    return GaussianBelief._from_filter(mean, cov + model.process_cov, "predicted cov")


def predict_measurement(
    model: NonlinearSSM, belief_pred: GaussianBelief, params: UTParams
) -> PredictedMeasurement:
    """Unscented moments of the measurement map about the prediction, built
    by the trusted constructor, which checks only finiteness."""
    sigma = draw_sigma_points(belief_pred, params)
    values = eval_sigma_points(sigma, model.meas_fn, model.vectorized)
    return PredictedMeasurement._from_filter(*moments_from_values(sigma, values))


def _check_angular(angular_mask, m: int) -> np.ndarray:
    mask = np.asarray(angular_mask, dtype=bool)
    if mask.shape != (m,):
        raise ValueError(f"angular_mask length {mask.shape} does not match meas dim {m}")
    return mask


def _check_vinv(vinv, m: int) -> np.ndarray:
    vinv = np.asarray(vinv, dtype=float)
    if vinv.ndim < 1:
        vinv = np.atleast_1d(vinv)
    if vinv.shape != (m,):
        raise ValueError(f"Vinv_diag length {vinv.shape} does not match meas dim {m}")
    # NaN fails both comparisons, and an empty vinv passes
    if _count_nonzero(vinv >= 0.0) != m or _count_nonzero(vinv < np.inf) != m:
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
    # I + U diag(vinv), the identity added in place through a strided view of
    # the diagonal; a C-ordered product makes reshape a view, never a copy
    s = np.multiply(predmeas.U, vinv, order="C")
    s.reshape(-1)[:: predmeas.meas_dim + 1] += 1.0
    try:
        gain = _solve(s.T, cd.T).T
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError("singular innovation system (I + U Vinv)") from exc

    mean = belief_pred.mean + gain @ resid
    cov = belief_pred.cov - predmeas.C @ gain.T
    return GaussianBelief._from_filter(mean, cov, "updated cov")


@dataclass(frozen=True, eq=False)
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
    if _count_nonzero(wc < 0.0):
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


@dataclass(frozen=True, eq=False)
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
    """Condition the joint factor on y with diagonal noise precisions vinv.

    Without an angular dimension (angular_mask None or all False), all of y
    is conditioned at once in the factor's latent space, as _latent_block
    describes.  Otherwise each scalar y_i is conditioned in turn: each pass
    applies a Potter-style rank-1 square-root update with additive noise
    v_i = 1 / vinv_i to an r x r transform T and an r-vector g, so a sweep
    over the r = 2n+1 factor columns costs O(m r^2).  T and g share one
    work matrix [T | g], and a dimension costs four BLAS calls: a gemv for
    phi = T^T e_i and e_i . g, a dot for s = phi . phi + v_i, a gemv for
    u = T phi, and one dger for T -= gamma / s u phi^T and g += u resid / s,
    gamma = 1 / (1 + sqrt(v_i / s)), with all nine arguments positional.
    Angular residuals are wrapped against the partly conditioned mean;
    entries with vinv_i = 0, or so small (below about 5.6e-309) that v_i
    overflows, are skipped, and an innovation variance s that is not finite
    and positive raises FilterNumericsError.  Every call checks its inputs.
    """
    r = factor.Ex.shape[1]
    m = factor.mu.size
    vinv = _check_vinv(vinv_diag, m)
    yv = _measurement_values(y, m)
    mask = None if angular_mask is None else _check_angular(angular_mask, m)
    if mask is None or not _count_nonzero(mask):
        return _latent_block(factor, yv, vinv)
    angular = mask.tolist()

    # Python floats for scalars, and ndarray.dot into buffers made once per
    # call: the same results as numpy scalars and @, with less overhead.
    ez, mu, yl, vl = factor.Ez, factor.mu.tolist(), yv.tolist(), vinv.tolist()
    work = np.zeros((r + 1, r))  # [T^T; g^T] with T = I, g = 0
    work.reshape(-1)[:: r + 1] = 1.0
    tg, t = work.T, work[:r].T  # [T | g] and T, which dger updates in place
    proj = np.empty(r + 1)  # [phi; e_i . g], then [phi; -resid / gamma]
    phi, u = proj[:r], np.empty(r)
    for i in vinv.nonzero()[0].tolist():
        v = 1.0 / vl[i]
        if v == math.inf:  # a subnormal precision
            continue
        work.dot(ez[i], proj)
        s = float(phi.dot(phi)) + v
        if not 0.0 < s < math.inf:  # a NaN fails this too
            raise FilterNumericsError(
                f"non-finite or non-positive innovation variance {s} "
                f"for measurement dimension {i}"
            )
        resid = yl[i] - (mu[i] + proj.item(r))
        if angular[i]:
            resid = _wrap_scalar(resid)
        t.dot(phi, u)
        k = 1.0 + math.sqrt(v / s)
        proj[r] = -resid * k
        # (alpha, x, y, incx, incy, a, overwrite_x, overwrite_y, overwrite_a)
        if dger(-1.0 / (k * s), u, proj, 1, 1, tg, 1, 1, 1) is not tg:
            raise RuntimeError("dger returned a copy instead of updating [T | g]")

    x_tg, z_tg = factor.Ex @ tg, factor.Ez @ tg  # [Ex T | Ex g], [Ez T | Ez g]
    return SerialUpdateResult(
        mean=factor.mean_x + x_tg[:, r],
        root=x_tg[:, :r],
        mu_post=factor.mu + z_tg[:, r],
        udiag_post=_einsum("ij,ij->i", z_tg[:, :r], z_tg[:, :r]),
    )


def _latent_block(
    factor: JointFactor, yv: np.ndarray, vinv: np.ndarray
) -> SerialUpdateResult:
    """Condition the factor on all of y at once, for checked yv and vinv and
    no angular dimension.

    The factor says x = mean_x + Ex xi and z = mu + Ez xi with xi ~ N(0, I_r).
    Given y = z + v, xi has precision L = I + Ez^T Vinv Ez = C C^T and mean
    g = L^-1 Ez^T Vinv (y - mu).  One triangular solve gives
    Q = C^-1 [Ez^T Vinv (y - mu) | Ez^T | Ex^T], so that Q[:, 0] @ Q[:, 1:]
    is [Ez g, Ex g], the column sums of Q[:, 1:m+1]^2 are diag(Ez L^-1 Ez^T)
    and root = Q[:, m+1:]^T has root root^T = Ex L^-1 Ex^T.  Zero precisions
    drop out of L and of the right-hand side.  Each LAPACK call takes its
    arguments positionally.
    """
    ez, ex = factor.Ez, factor.Ex
    m, r = ez.shape
    dw = ez.T * vinv  # Ez^T Vinv
    lam = dw @ ez  # C-ordered, as every matmul result, so reshape is a view
    lam.reshape(-1)[:: r + 1] += 1.0
    # OpenBLAS's dpotrf factors inf and NaN entries without complaint
    if _count_nonzero(np.isfinite(lam)) != lam.size:
        raise FilterNumericsError("non-finite latent precision I + Ez^T Vinv Ez")
    # (a, lower, clean): only the lower triangle is read or written
    chol, info = dpotrf(lam, 1, 0)
    if info != 0:
        raise FilterNumericsError(
            f"latent precision I + Ez^T Vinv Ez not positive definite (info {info})"
        )
    rhs = np.empty((1 + m + ex.shape[0], r))  # rows of the right-hand side
    rhs[0] = dw @ (yv - factor.mu)
    rhs[1 : m + 1] = ez
    rhs[m + 1 :] = ex
    qt = rhs  # an empty latent space (r = 0) is left as it is
    if r:
        # (a, b, lower, trans, unitdiag, lda, overwrite_b); rhs.T is Fortran-ordered
        q, info = dtrtrs(chol, rhs.T, 1, 0, 0, r, 1)
        if info != 0:
            raise FilterNumericsError(f"latent triangular solve failed (info {info})")
        qt = q.T  # Q^T, row by row as rhs
    qz = qt[1 : m + 1]
    shift = qt[1:] @ qt[0]  # [Ez g, Ex g]
    return SerialUpdateResult(
        mean=factor.mean_x + shift[m:],
        root=qt[m + 1 :],
        mu_post=factor.mu + shift[:m],
        udiag_post=_einsum("ij,ij->i", qz, qz),
    )


def update_serial(
    belief_pred: GaussianBelief,
    predmeas: PredictedMeasurement,
    y,
    vinv_diag,
    angular_mask=None,
) -> SerialUpdateResult:
    """serial_conditioning of the dense joint's factor: one latent block, or
    the scalar sweep when a dimension is angular; equals update_parallel in
    exact arithmetic."""
    factor = joint_factor_from_moments(belief_pred, predmeas)
    return serial_conditioning(factor, y, vinv_diag, angular_mask)


def posterior_predictive_meas(
    model: NonlinearSSM, posterior: GaussianBelief, params: UTParams
) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and variance of h(x) under the given state belief,
    from a fresh unscented transform."""
    sigma = draw_sigma_points(posterior, params)
    values = eval_sigma_points(sigma, model.meas_fn, model.vectorized)
    mu = sigma.mean_weights @ values
    dev = values - mu
    # negative cov weights can push tiny variances below zero; clamp at zero
    return mu, np.maximum(sigma.cov_weights @ (dev * dev), 0.0)
