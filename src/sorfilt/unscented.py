"""Scaled sigma points and unscented-transform moment approximations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import FilterNumericsError, GaussianBelief, symmetrize


@dataclass(frozen=True)
class UTParams:
    """Scaled unscented-transform parameters (alpha, beta, kappa)."""

    alpha: float = 1.0
    beta: float = 2.0
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")
        if self.kappa < 0.0:
            raise ValueError("kappa must be >= 0")

    def scaling(self, n: int) -> float:
        """Return lambda = alpha^2 (n + kappa) - n, requiring n + lambda > 0."""
        lam = self.alpha**2 * (n + self.kappa) - n
        if n + lam <= 0.0:
            raise ValueError(f"invalid UT scaling for n={n}: n + lambda <= 0")
        return lam


@dataclass(frozen=True)
class SigmaPointSet:
    """2n+1 weighted sigma points; points[0] is the generating mean."""

    points: np.ndarray
    mean_weights: np.ndarray
    cov_weights: np.ndarray

    def __post_init__(self) -> None:
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        wm = np.asarray(self.mean_weights, dtype=float)
        wc = np.asarray(self.cov_weights, dtype=float)
        if points.shape[0] != wm.size or wm.size != wc.size:
            raise ValueError("points and weights disagree in count")
        if abs(wm.sum() - 1.0) > 1e-12:
            raise ValueError("mean weights must sum to 1")
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
    and Wan, 2001).
    """
    n = belief.dim
    lam = params.scaling(n)
    scale = n + lam
    root = math.sqrt(scale) * belief.root
    points = np.empty((2 * n + 1, n))
    points[0] = belief.mean
    points[1 : n + 1] = belief.mean + root.T
    points[n + 1 :] = belief.mean - root.T

    wi = 1.0 / (2.0 * scale)
    wm = np.full(2 * n + 1, wi)
    wc = np.full(2 * n + 1, wi)
    wm[0] = lam / scale
    wc[0] = wm[0] + (1.0 - params.alpha**2 + params.beta)
    return SigmaPointSet(points=points, mean_weights=wm, cov_weights=wc)


def eval_sigma_points(
    sigma: SigmaPointSet,
    fn: Callable[[np.ndarray], np.ndarray],
    vectorized: bool = False,
) -> np.ndarray:
    """Evaluate fn on every sigma point, returning a (2n+1, d) array."""
    if vectorized:
        out = np.atleast_2d(np.asarray(fn(sigma.points), dtype=float))
    else:
        out = np.stack(
            [np.atleast_1d(np.asarray(fn(p), dtype=float)) for p in sigma.points]
        )
    if out.shape[0] != sigma.points.shape[0]:
        raise ValueError("map output count does not match sigma point count")
    finite_rows = np.all(np.isfinite(out), axis=1)
    if not finite_rows.all():
        bad = int(np.flatnonzero(~finite_rows)[0])
        raise FilterNumericsError(f"map produced non-finite output at sigma point {bad}")
    return out


def moments_from_values(
    sigma: SigmaPointSet, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted (mu, U, C) from pre-evaluated sigma-point images."""
    wm, wc = sigma.mean_weights, sigma.cov_weights
    mu = wm @ values
    dev = values - mu
    cov = symmetrize((wc * dev.T) @ dev)
    dx = sigma.points - sigma.mean
    cross = (wc * dx.T) @ dev
    return mu, cov, cross


def unscented_moments(
    sigma: SigmaPointSet,
    fn: Callable[[np.ndarray], np.ndarray],
    vectorized: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, covariance, and input-output cross-covariance of fn under sigma."""
    values = eval_sigma_points(sigma, fn, vectorized)
    return moments_from_values(sigma, values)


def unscented_mean_vardiag(
    sigma: SigmaPointSet,
    fn: Callable[[np.ndarray], np.ndarray],
    vectorized: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and per-dimension variance of fn under sigma, skipping the full matrix."""
    values = eval_sigma_points(sigma, fn, vectorized)
    wm, wc = sigma.mean_weights, sigma.cov_weights
    mu = wm @ values
    dev = values - mu
    # negative cov weights can push tiny variances below zero; clamp at zero
    var = np.maximum(wc @ (dev * dev), 0.0)
    return mu, var
