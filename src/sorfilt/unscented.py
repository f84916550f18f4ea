"""Scaled sigma points and unscented-transform moment approximations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import FilterNumericsError, GaussianBelief, _count_nonzero, _real, symmetrize


@dataclass(frozen=True)
class UTParams:
    """Scaled unscented-transform parameters (alpha, beta, kappa)."""

    alpha: float = 1.0
    beta: float = 2.0
    kappa: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "kappa"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        # each check is written so that a NaN fails it
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError("beta must be finite and >= 0")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError("kappa must be finite and >= 0")
        # n -> UTWeights; not a field, so equality, hashing and repr ignore it
        object.__setattr__(self, "_weights", {})

    def scaling(self, n: int) -> float:
        """Return lambda = alpha^2 (n + kappa) - n, requiring n + lambda > 0."""
        lam = self.alpha**2 * (n + self.kappa) - n
        if n + lam <= 0.0:
            raise ValueError(f"invalid UT scaling for n={n}: n + lambda <= 0")
        return lam

    def weights(self, n: int) -> "UTWeights":
        """The weights of the 2n+1 point set, computed on the first call per n
        and kept read-only.  An invalid n is never kept, so it raises the
        scaling error on every call."""
        cached = self._weights.get(n)
        if cached is None:
            lam = self.scaling(n)
            scale = n + lam
            wi = 1.0 / (2.0 * scale)
            wm = np.full(2 * n + 1, wi)
            wc = np.full(2 * n + 1, wi)
            wm[0] = lam / scale
            wc[0] = wm[0] + (1.0 - self.alpha**2 + self.beta)
            wm.flags.writeable = False
            wc.flags.writeable = False
            nonnegative = bool((wc >= 0.0).all())
            cached = self._weights[n] = UTWeights(math.sqrt(scale), wm, wc, nonnegative)
        return cached


@dataclass(frozen=True, eq=False)
class UTWeights:
    """sqrt(n + lambda), the read-only mean and covariance weights, and
    whether every covariance weight is >= 0 (sqrt(wc) then factors)."""

    root_scale: float
    mean_weights: np.ndarray
    cov_weights: np.ndarray
    cov_weights_nonnegative: bool


@dataclass(frozen=True, eq=False)
class SigmaPointSet:
    """2n+1 weighted sigma points; points[0] is the generating mean.

    The constructor refuses counts that disagree, a non-finite point or
    weight, and mean weights whose sum is not 1 within 1e-12.
    """

    points: np.ndarray
    mean_weights: np.ndarray
    cov_weights: np.ndarray

    def __post_init__(self) -> None:
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        wm = np.asarray(self.mean_weights, dtype=float)
        wc = np.asarray(self.cov_weights, dtype=float)
        if points.shape[0] != wm.size or wm.size != wc.size:
            raise ValueError("points and weights disagree in count")
        if (
            _count_nonzero(np.isfinite(points)) != points.size
            or _count_nonzero(np.isfinite(wm)) != wm.size
            or _count_nonzero(np.isfinite(wc)) != wc.size
        ):
            raise ValueError("sigma points and weights must be finite")
        # finite weights can sum to inf or NaN, which must fail, not warn
        with np.errstate(over="ignore", invalid="ignore"):
            total = wm.sum()
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError("mean weights must sum to 1")
        self._set(points, wm, wc)

    @classmethod
    def _from_filter(
        cls, points: np.ndarray, weights: UTWeights
    ) -> "SigmaPointSet":
        """Set from a (2n+1, n) point array and the matching cached weights,
        as draw_sigma_points builds them: counts agree and the mean weights
        sum to 1 by construction, so nothing is re-checked."""
        sigma = object.__new__(cls)
        sigma._set(points, weights.mean_weights, weights.cov_weights)
        return sigma

    def _set(self, points: np.ndarray, wm: np.ndarray, wc: np.ndarray) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "mean_weights", wm)
        object.__setattr__(self, "cov_weights", wc)

    @property
    def mean(self) -> np.ndarray:
        return self.points[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def draw_sigma_points(belief: GaussianBelief, params: UTParams) -> SigmaPointSet:
    """Standard scaled construction: mean +/- columns of chol((n+lambda) P).

    That factor is sqrt(n+lambda) times the belief's own Cholesky root, so no
    factorization happens here (as in the square-root UKF of van der Merwe
    and Wan, 2001).  The weights are the read-only ones params keeps per n.
    """
    n = belief.dim
    weights = params.weights(n)
    root_t = (weights.root_scale * belief.root).T
    mean = belief.mean
    points = np.empty((2 * n + 1, n))
    points[0] = mean
    np.add(mean, root_t, out=points[1 : n + 1])
    np.subtract(mean, root_t, out=points[n + 1 :])
    return SigmaPointSet._from_filter(points, weights)


def eval_sigma_points(
    sigma: SigmaPointSet,
    fn: Callable[[np.ndarray], np.ndarray],
    vectorized: bool = False,
) -> np.ndarray:
    """Evaluate fn on every sigma point, returning a (2n+1, d) array; an
    image must be a scalar or a vector."""
    if vectorized:
        out = np.asarray(fn(sigma.points), dtype=float)
        if out.ndim < 2:
            out = np.atleast_2d(out)
    else:
        out = np.array([fn(p) for p in sigma.points], dtype=float)
        if out.ndim < 2:  # scalar images: one column
            out = out.reshape(-1, 1)
    if out.ndim > 2:  # images with more than one axis
        raise ValueError(f"map output of shape {out.shape} has more than 2 axes")
    if out.shape[0] != sigma.points.shape[0]:
        raise ValueError("map output count does not match sigma point count")
    finite = np.isfinite(out)
    if _count_nonzero(finite) != out.size:
        # scan by row only on failure, to name the first bad point
        bad = int(np.flatnonzero(~np.all(finite, axis=1))[0])
        raise FilterNumericsError(f"map produced non-finite output at sigma point {bad}")
    return out


def moments_from_values(
    sigma: SigmaPointSet, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted (mu, U, C) from pre-evaluated sigma-point images."""
    mu, cov, dev = _mean_cov_dev(sigma, values)
    dx = sigma.points - sigma.mean
    cross = (sigma.cov_weights * dx.T) @ dev
    return mu, cov, cross


def _mean_cov_dev(sigma: SigmaPointSet, values: np.ndarray):
    """Weighted (mu, U) and the deviations values - mu: moments_from_values
    without the cross-covariance, for a caller that does not need it."""
    mu = sigma.mean_weights @ values
    dev = values - mu
    cov = symmetrize((sigma.cov_weights * dev.T) @ dev)
    return mu, cov, dev

